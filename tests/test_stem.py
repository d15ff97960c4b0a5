import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvc import coder
from mfvc.stem import (
    StemFlags,
    StemWeights,
    _frame_features,
    _PositionParams,
    decode_pframe,
    encode_pframe,
    entropy_params,
    hyper_encode,
    init_stem,
    load_stem,
    p_frame_rate,
    reconstruct_latent,
    residual_latent,
    spatial_prior,
    temporal_prior,
)
from mfvc.tensor import ShapeError, Tensor


@pytest.fixture(scope="module")
def weights():
    return init_stem(latent_channels=4, seed=1)


def random_latents(rng, c=4, h=8, w=8, span=8):
    a = rng.integers(-span, span + 1, size=(c, h, w)).astype(np.int32)
    b = rng.integers(-span, span + 1, size=(c, h, w)).astype(np.int32)
    return a, b


def assert_each_frame_as_alone(out, chunks, prevs, flags, weights):
    """Each item of a lockstep decode is what a call with only its frame
    gives: the same int32 latent, or an error of the same type and message."""
    assert isinstance(out, list) and len(out) == len(chunks)
    for got, chunk, prev in zip(out, chunks, prevs):
        (alone,) = decode_pframe([chunk], prev[None], flags, weights)
        if isinstance(alone, coder.CorruptStreamError):
            assert type(got) is type(alone) and str(got) == str(alone)
        else:
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, alone)


def flip_middle_byte(data: bytes) -> bytes:
    out = bytearray(data)
    out[len(out) // 2] ^= 0xFF
    return bytes(out)


ALL_FLAGS = [
    StemFlags(True, True, True),
    StemFlags(False, True, True),
    StemFlags(True, False, True),
    StemFlags(False, False, True),
    StemFlags(True, True, False),
    StemFlags(False, False, False),
]


class TestResidual:
    def test_equal_latents_give_zero(self):
        a = np.full((2, 3, 3), 7, dtype=np.int32)
        np.testing.assert_array_equal(residual_latent(a, a), 0)

    def test_inverse_property(self):
        rng = np.random.default_rng(0)
        a, b = random_latents(rng)
        np.testing.assert_array_equal(reconstruct_latent(residual_latent(a, b), b), a)

    def test_constants(self):
        a = np.full((1, 2, 2), 5, dtype=np.int32)
        b = np.full((1, 2, 2), 3, dtype=np.int32)
        np.testing.assert_array_equal(residual_latent(a, b), 2)

    def test_commutes_with_channel_slicing(self):
        rng = np.random.default_rng(1)
        a, b = random_latents(rng)
        full = residual_latent(a, b)
        np.testing.assert_array_equal(full[1:3], residual_latent(a[1:3], b[1:3]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            residual_latent(np.zeros((1, 2, 2), np.int32), np.zeros((1, 2, 3), np.int32))

    def test_residual_of_value_outside_int32_rejected(self):
        # An int32 cast wraps 2^40 to 0.
        with pytest.raises(ValueError, match="symbol outside int32"):
            residual_latent(np.array([[[2**40]]]), np.zeros((1, 1, 1), np.int32))

    def test_reconstruct_from_value_outside_int32_rejected(self):
        with pytest.raises(ValueError, match="symbol outside int32"):
            reconstruct_latent(1, 2**40)


class TestBranches:
    def test_hyper_extents_quartered(self, weights):
        rng = np.random.default_rng(2)
        a, b = random_latents(rng, h=16, w=16)
        (z_hat,), (z_bits,) = hyper_encode(a[None], b[None], weights)
        assert z_hat.shape == (weights.hyper_channels, 4, 4)
        assert z_bits > 0

    def test_hyper_roundtrips_losslessly(self, weights):
        rng = np.random.default_rng(3)
        a, b = random_latents(rng)
        z_hat = hyper_encode(a[None], b[None], weights)[0][0]
        stream = weights.encode_z(z_hat)
        np.testing.assert_array_equal(weights.decode_z(stream, a.shape[1], a.shape[2]), z_hat)

    def test_zero_weights_give_constant_bias(self):
        w = init_stem(latent_channels=4, seed=4)
        for layer in w.phe:
            layer.kernel.data[...] = 0.0
            layer.bias.data[...] = 0.0
        w.phe[-1].bias.data[...] = 1.3
        a = np.zeros((4, 8, 8), np.int32)
        z_hat, _ = hyper_encode(a[None], a[None], w)
        np.testing.assert_array_equal(z_hat, 1)

    def test_temporal_prior_preserves_extents(self, weights):
        rng = np.random.default_rng(5)
        a, _ = random_latents(rng, h=7, w=5)
        feat = temporal_prior(a, weights)
        assert feat.shape == (1, 2 * weights.latent_channels, 7, 5)

    def test_temporal_prior_zero_input(self):
        w = init_stem(latent_channels=4, seed=6)
        feat = temporal_prior(np.zeros((4, 6, 6), np.int32), w)
        np.testing.assert_array_equal(feat.data, 0.0)

    def test_temporal_prior_deterministic(self, weights):
        rng = np.random.default_rng(7)
        a, _ = random_latents(rng)
        x = temporal_prior(a, weights).data
        y = temporal_prior(a, weights).data
        np.testing.assert_array_equal(x, y)

    def test_spatial_prior_first_position_is_bias(self, weights):
        rng = np.random.default_rng(8)
        a, b = random_latents(rng)
        res = residual_latent(a, b)
        feat = spatial_prior(res, weights)
        np.testing.assert_allclose(feat.data[0, :, 0, 0], weights.spm.bias.data.reshape(-1), atol=1e-7)

    def test_spm_mask_is_5x5_type_a(self, weights):
        assert weights.spm.mask.shape == (5, 5)
        assert int(weights.spm.mask.sum()) == 12
        assert weights.spm.mask[2, 2] == 0


class TestEntropyParams:
    def test_channel_progression_scales_with_latents(self):
        w = init_stem(latent_channels=32, seed=9)
        assert [l.out_channels for l in w.epm] == [160, 128, 64]
        assert [l.out_channels for l in w.tpm] == [43, 53, 64]
        assert w.spm.out_channels == 64
        assert [l.out_channels for l in w.phe] == [26, 26, 26]

    def test_zero_inputs_zero_bias_give_unit_scale(self):
        w = init_stem(latent_channels=4, seed=10)
        for layer in w.epm:
            layer.bias.data[...] = 0.0
        zeros = Tensor(np.zeros((1, 8, 6, 6), dtype=np.float32))
        mu, log_scale = entropy_params(zeros, zeros, zeros, w)
        np.testing.assert_array_equal(mu.data, 0.0)
        np.testing.assert_array_equal(log_scale.data, 0.0)  # scale b = e^0 = 1

    def test_disabling_branch_changes_values_not_shapes(self, weights):
        rng = np.random.default_rng(11)
        a, b = random_latents(rng)
        res = residual_latent(a, b)
        phd = Tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        spm = spatial_prior(res, weights)
        tpm = temporal_prior(b, weights)
        mu_on, ls_on = entropy_params(phd, spm, tpm, weights)
        mu_off, ls_off = entropy_params(phd, None, tpm, weights)
        assert mu_on.shape == mu_off.shape == (1, 4, 8, 8)
        assert ls_on.shape == ls_off.shape
        assert not np.array_equal(mu_on.data, mu_off.data)

    def test_extent_mismatch_raises(self, weights):
        a = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros((1, 8, 5, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            entropy_params(a, b, b, weights)


class TestSerialFusion:
    @pytest.mark.parametrize("use_spm", [True, False])
    @pytest.mark.parametrize("use_tpm", [True, False])
    def test_position_fusion_matches_graph_fusion(self, use_spm, use_tpm):
        # The serial coder fuses one position at a time; over the complete
        # plane its parameters must be those of the whole-plane fusion that
        # the rate estimate uses.
        flags = StemFlags(use_spm=use_spm, use_tpm=use_tpm)
        w = init_stem(latent_channels=4, seed=7)
        rng = np.random.default_rng(31)
        a, b = random_latents(rng)
        plane = residual_latent(a, b)
        z_hat, _ = hyper_encode(a[None], b[None], w)
        phd, tpm = _frame_features(z_hat, b[None], flags, w)
        spm_out = spatial_prior(plane, w) if use_spm else None
        tpm_out = Tensor(tpm) if use_tpm else None
        mu, log_scale = entropy_params(Tensor(phd), spm_out, tpm_out, w)

        padded = np.pad(plane, ((0, 0), (2, 2), (2, 2)))[None]
        pos = _PositionParams(w, flags, phd, tpm, padded)
        for r in range(plane.shape[1]):
            for col in range(plane.shape[2]):
                (fused,) = pos.at(r, col)
                mu_rc, ls_rc = fused[:4], fused[4:]
                np.testing.assert_allclose(mu_rc, mu.data[0, :, r, col], rtol=0, atol=1e-5)
                ls_rc = np.clip(ls_rc, coder.LOG_SCALE_MIN, coder.LOG_SCALE_MAX)
                np.testing.assert_allclose(ls_rc, log_scale.data[0, :, r, col], rtol=0, atol=1e-5)


class TestPFrameRoundtrip:
    @pytest.mark.parametrize("flags", ALL_FLAGS)
    def test_roundtrip_all_flag_combinations(self, weights, flags):
        rng = np.random.default_rng(12)
        a, b = random_latents(rng)
        chunk = encode_pframe(a[None], b[None], flags, weights)
        out = decode_pframe(chunk, b[None], flags, weights)[0]
        np.testing.assert_array_equal(out, a)

    def test_roundtrip_random_weights_and_sizes(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 10))
            wd = int(rng.integers(1, 10))
            w = init_stem(latent_channels=c, seed=trial)
            a = rng.integers(-20, 21, size=(c, h, wd)).astype(np.int32)
            b = rng.integers(-20, 21, size=(c, h, wd)).astype(np.int32)
            flags = StemFlags(bool(rng.integers(2)), bool(rng.integers(2)), bool(rng.integers(2)))
            chunk = encode_pframe(a[None], b[None], flags, w)
            np.testing.assert_array_equal(decode_pframe(chunk, b[None], flags, w)[0], a)

    def test_large_outliers_roundtrip(self, weights):
        rng = np.random.default_rng(14)
        a, b = random_latents(rng)
        a[0, 0, 0] = 20000
        a[1, 2, 3] = -15000
        chunk = encode_pframe(a[None], b[None], StemFlags(), weights)
        np.testing.assert_array_equal(decode_pframe(chunk, b[None], StemFlags(), weights)[0], a)

    def test_int32_wraparound_roundtrips(self, weights):
        # The residual is int32 arithmetic modulo 2^32: 2^31 - 1 against -5
        # wraps to -2^31 + 4, and -2^31 against 7 to 2^31 - 7. The wrapped
        # residuals are valid int32 symbols, so the decoder must give the
        # latents back, alone and in lockstep, rather than reconstruct in
        # int64 and reject the sum.
        prevs, curs = TestLockstepDecode.frames(3, 4)
        curs[1, 0, 0, 0], prevs[1, 0, 0, 0] = 2**31 - 1, -5
        curs[1, 3, 4, 5], prevs[1, 3, 4, 5] = -(2**31), 7
        residual = residual_latent(curs[1], prevs[1])
        assert residual[0, 0, 0] == -(2**31) + 4 and residual[3, 4, 5] == 2**31 - 7
        chunks = encode_pframe(curs, prevs, StemFlags(), weights)
        (alone,) = decode_pframe(chunks[1:2], prevs[1:2], StemFlags(), weights)
        np.testing.assert_array_equal(alone, curs[1])
        out = decode_pframe(chunks, prevs, StemFlags(), weights)
        np.testing.assert_array_equal(np.stack(out), curs)

    def test_latent_outside_int32_rejected(self, weights):
        a = np.zeros((4, 2, 2), dtype=np.int64)
        a[0, 0, 0] = 2**40 + 5
        with pytest.raises(ValueError, match="int32"):
            encode_pframe(a[None], np.zeros_like(a)[None], StemFlags(), weights)

    def test_previous_latent_outside_int32_rejected(self, weights):
        # The decoder takes the encoder's rule: an int32 cast would decode
        # against prev + 2^32 as if it were prev.
        a, b = random_latents(np.random.default_rng(21))
        chunk = encode_pframe(a[None], b[None], StemFlags(), weights)
        with pytest.raises(ValueError, match="symbol outside int32"):
            decode_pframe(chunk, b[None].astype(np.int64) + 2**32, StemFlags(), weights)

    def test_nonfinite_hyper_latent_rejected(self):
        # A NaN hyper latent has no codable integer; rounding it must fail
        # rather than code the int32 minimum.
        w = init_stem(latent_channels=4, seed=1)
        w.phe[-1].bias.data[0, 0] = np.nan
        a, b = random_latents(np.random.default_rng(30))
        with pytest.raises(ValueError, match="finite"):
            hyper_encode(a[None], b[None], w)
        with pytest.raises(ValueError, match="finite"):
            encode_pframe(a[None], b[None], StemFlags(), w)

    def test_hyper_latent_beyond_int32_rejected(self):
        w = init_stem(latent_channels=4, seed=1)
        w.phe[-1].bias.data[0, 0] = 1e10
        a, b = random_latents(np.random.default_rng(30))
        with pytest.raises(ValueError, match="int32"):
            hyper_encode(a[None], b[None], w)
        with pytest.raises(ValueError, match="int32"):
            encode_pframe(a[None], b[None], StemFlags(), w)

    def test_decoded_value_outside_int32_raises(self):
        # A fusion with zero weights predicts (0, 0) everywhere, so a stream
        # for it can be written symbol by symbol on that grid row. The
        # second frame of each call is written so; the first stays clean.
        w = init_stem(latent_channels=2, seed=3)
        for layer in w.epm:
            layer.kernel.data[...] = 0.0
            layer.bias.data[...] = 0.0
        zeros = np.zeros((2, 2, 3, 3), np.int32)
        clean, chunk = encode_pframe(zeros, zeros, StemFlags(), w)
        index, offset = coder.grid_index(0.0, 0.0)
        row = coder.table_grid()[int(index)]
        for first, expect_ok in ((5, True), (2**40, False)):
            enc = coder.RansEncoder()
            for v in [0] * (zeros[0].size - 1) + [first]:  # pushed last to first
                coder.encode_symbol(enc, v, row)
            chunk.y_stream = coder.CodedStream(enc.finish())
            out = decode_pframe([clean, chunk], zeros, StemFlags(), w)
            assert_each_frame_as_alone(out, [clean, chunk], zeros, StemFlags(), w)
            np.testing.assert_array_equal(out[0], zeros[0])
            if expect_ok:
                expected = zeros[1].copy()
                expected[0, 0, 0] = 5
                np.testing.assert_array_equal(out[1], expected)
            else:
                assert isinstance(out[1], coder.CorruptStreamError) and str(out[1]) == "symbol outside int32"

    @given(z=st.one_of(st.none(), st.binary(max_size=64)), y=st.binary(max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_random_streams_decode_or_raise(self, weights, z, y):
        # Any bytes (with the encoder's z stream, or random ones) must
        # decode to a latent or give CorruptStreamError, as in a call of
        # their own, while the clean frame beside them decodes unchanged.
        a, b = random_latents(np.random.default_rng(19))
        (clean,) = encode_pframe(a[None], b[None], StemFlags(), weights)
        chunk = dataclasses.replace(clean, y_stream=coder.CodedStream(y))
        if z is not None:
            chunk.z_stream = coder.CodedStream(z)
        prevs = np.stack([b, b])
        out = decode_pframe([clean, chunk], prevs, StemFlags(), weights)
        assert_each_frame_as_alone(out, [clean, chunk], prevs, StemFlags(), weights)
        np.testing.assert_array_equal(out[0], a)
        if not isinstance(out[1], coder.CorruptStreamError):
            assert out[1].shape == a.shape and out[1].dtype == np.int32

    def test_encoding_deterministic(self, weights):
        rng = np.random.default_rng(15)
        a, b = random_latents(rng)
        (c1,) = encode_pframe(a[None], b[None], StemFlags(), weights)
        (c2,) = encode_pframe(a[None], b[None], StemFlags(), weights)
        assert c1.to_bytes() == c2.to_bytes()

    def test_mismatched_context_breaks_decode(self, weights):
        rng = np.random.default_rng(16)
        a, b = random_latents(rng)
        chunk = encode_pframe(a[None], b[None], StemFlags(), weights)
        # Decoding under a different PMF schedule yields garbage or an error.
        (wrong_flags,) = decode_pframe(chunk, b[None], StemFlags(use_spm=False), weights)
        assert isinstance(wrong_flags, coder.CorruptStreamError) or not np.array_equal(wrong_flags, a)

    def test_identical_latents_cheap_with_residual(self, weights):
        rng = np.random.default_rng(17)
        a, _ = random_latents(rng)
        (chunk,) = encode_pframe(a[None], a[None], StemFlags(), weights)
        (direct,) = encode_pframe(a[None], np.zeros_like(a)[None], StemFlags(), weights)
        assert len(chunk.y_stream.data) <= len(direct.y_stream.data)


ROW_FLAGS = [StemFlags(), StemFlags(use_spm=False), StemFlags(use_tpm=False), StemFlags(use_residual=False)]


class TestRowAgreement:
    @pytest.mark.parametrize(
        "flags, outliers",
        [pytest.param(f, False, id=f"flags{i}") for i, f in enumerate(ROW_FLAGS)]
        + [pytest.param(f, True, id=f"flags{i}-outliers") for i, f in enumerate(ROW_FLAGS)],
    )
    def test_encoder_and_decoder_code_the_same_rows(self, weights, flags, outliers, monkeypatch):
        # The encoder fuses every position from the whole known plane and
        # the decoder from the symbols decoded so far; the symbols that
        # reach the coder (the calls the traced benchmark counts) must pair
        # the same row with the same value, in the same order once the
        # encoder's pushes, made last to first, are reversed. The hyper
        # latent's plane coding (encode_z/decode_z) is left out; the y
        # plane goes through the plane coder too.
        a, b = random_latents(np.random.default_rng(18))
        a[2, 3, 4] = b[2, 3, 4] + 1000  # beyond the support: an escape
        if outliers:
            # Symbols of +-20,000 under the masked taps of the positions
            # before them must still add exact zeros there.
            a[0, ::3, 1::3] = b[0, ::3, 1::3] + 20000
            a[3, 1::3, ::3] = b[3, 1::3, ::3] - 20000
        row_ids = {id(row): i for i, row in enumerate(coder.table_grid())}
        coded = {"encode": [], "decode": []}
        in_hyper = []
        real = {name: getattr(coder, name) for name in ("encode_symbol", "decode_symbol")}

        def encode_symbol(enc, value, row):
            if not in_hyper:
                coded["encode"].append((row_ids[id(row)], value))
            return real["encode_symbol"](enc, value, row)

        def decode_symbol(dec, row, buckets):
            value = real["decode_symbol"](dec, row, buckets)
            if not in_hyper:
                coded["decode"].append((row_ids[id(row)], value))
            return value

        def hyper_coder(name):
            method = getattr(type(weights), name)

            def wrapped(self, *args):
                in_hyper.append(name)
                try:
                    return method(self, *args)
                finally:
                    in_hyper.pop()
            return wrapped

        monkeypatch.setattr(coder, "encode_symbol", encode_symbol)
        monkeypatch.setattr(coder, "decode_symbol", decode_symbol)
        monkeypatch.setattr(type(weights), "encode_z", hyper_coder("encode_z"))
        monkeypatch.setattr(type(weights), "decode_z", hyper_coder("decode_z"))
        chunk = encode_pframe(a[None], b[None], flags, weights)
        np.testing.assert_array_equal(decode_pframe(chunk, b[None], flags, weights)[0], a)

        assert len(coded["encode"]) == a.size
        assert coded["encode"][::-1] == coded["decode"]
        assert any(not coder.DEFAULT_SUPPORT_MIN <= v <= coder.DEFAULT_SUPPORT_MAX for _, v in coded["encode"])



class TestFrameFusion:
    @pytest.mark.parametrize("c", [4, 5, 16])  # 16: the benchmark model's 96-80-64-32 chain
    @pytest.mark.parametrize("flags", ROW_FLAGS, ids=[f"flags{i}" for i in range(len(ROW_FLAGS))])
    def test_frame_pass_equals_every_position_bit_for_bit(self, flags, c):
        # One entry point fuses any set of positions: the encoder's whole
        # plane (slices), the decoder's single positions (ints) and any
        # subset (index arrays) must give each position the same bits, for
        # one frame and for a stack. A GEMM in place of the stacked
        # matrix-vector products sums in another order and fails here.
        h, w = 6, 9
        weights = init_stem(latent_channels=c, seed=3)
        rng = np.random.default_rng(19)
        for k in (1, 3):
            prevs = rng.integers(-30, 31, size=(k, c, h, w)).astype(np.int32)
            curs = rng.integers(-30, 31, size=(k, c, h, w)).astype(np.int32)
            curs[0, 0, 1, 2] = prevs[0, 0, 1, 2] + 1000  # beyond the support: an escape
            curs[k - 1, c - 1, 4, 7] = prevs[k - 1, c - 1, 4, 7] - 20000
            planes = residual_latent(curs, prevs) if flags.use_residual else curs
            z_hats, _ = hyper_encode(curs, prevs, weights)
            padded = np.pad(planes, ((0, 0), (0, 0), (2, 2), (2, 2)))
            pos = _PositionParams(weights, flags, *_frame_features(z_hats, prevs, flags, weights), padded)
            per_position = np.stack([np.stack([pos.at(r, col) for col in range(w)], 1) for r in range(h)], 1)
            frame = pos.at(slice(None), slice(None))
            assert frame.shape == (k, h, w, 2 * c) and frame.dtype == np.float32
            np.testing.assert_array_equal(frame.view(np.uint32), per_position.view(np.uint32))
            for _ in range(10):
                picked = rng.choice(h * w, size=int(rng.integers(1, h * w + 1)), replace=False)
                rs, cs = np.divmod(picked, w)
                subset = pos.at(rs, cs)
                assert subset.shape == (k, len(picked), 2 * c)
                np.testing.assert_array_equal(subset.view(np.uint32), per_position[:, rs, cs].view(np.uint32))

    def test_only_the_decoder_walks_positions(self, weights, monkeypatch):
        calls = []
        real_at = _PositionParams.at

        def at(self, r, col):
            calls.append((r, col))
            return real_at(self, r, col)

        monkeypatch.setattr(_PositionParams, "at", at)
        a, b = random_latents(np.random.default_rng(20), h=5, w=7)
        chunk = encode_pframe(a[None], b[None], StemFlags(), weights)
        assert calls == [(slice(None), slice(None))]  # the encoder fuses the whole plane in one call
        calls.clear()
        np.testing.assert_array_equal(decode_pframe(chunk, b[None], StemFlags(), weights)[0], a)
        assert calls == [(r, col) for r in range(5) for col in range(7)]


class TestLockstepDecode:
    @staticmethod
    def frames(k, c, h=5, w=6):
        """K previous latents and K current ones whose residuals spread
        wider in every frame, the last with an escape."""
        rng = np.random.default_rng(40 + k + c)
        prevs = rng.integers(-30, 31, size=(k, c, h, w)).astype(np.int32)
        spans = 2.0 + 6.0 * np.arange(k).reshape(k, 1, 1, 1)
        curs = prevs + np.rint(rng.uniform(-1.0, 1.0, size=prevs.shape) * spans).astype(np.int32)
        curs[k - 1, 0, 1, 2] = prevs[k - 1, 0, 1, 2] + 1000
        return prevs, curs

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("c", [4, 16])  # 16: the benchmark model's 96-80-64-32 chain
    @pytest.mark.parametrize("flags", ROW_FLAGS, ids=[f"flags{i}" for i in range(len(ROW_FLAGS))])
    def test_k_frames_equal_k_single_frame_decodes(self, flags, c, k):
        # One fusion and one grid lookup per position for K frames must give
        # each frame the bits of its own walk. A GEMM in place of the
        # stacked matrix-vector products sums in another order and fails
        # the fusion comparison. K = 1 is the list-of-one call.
        weights = init_stem(latent_channels=c, seed=3)
        prevs, curs = self.frames(k, c)
        chunks = [encode_pframe(a[None], b[None], flags, weights)[0] for a, b in zip(curs, prevs)]
        out = decode_pframe(chunks, prevs, flags, weights)
        assert_each_frame_as_alone(out, chunks, prevs, flags, weights)
        np.testing.assert_array_equal(np.stack(out), curs)

        z_hats = np.concatenate([hyper_encode(a[None], b[None], weights)[0] for a, b in zip(curs, prevs)])
        features = [_frame_features(z[None], b[None], flags, weights) for z, b in zip(z_hats, prevs)]
        batched = _frame_features(z_hats, prevs, flags, weights)
        for got, want in zip(batched, zip(*features)):
            np.testing.assert_array_equal(got.view(np.uint32), np.concatenate(want).view(np.uint32))
        planes = curs - prevs if flags.use_residual else curs
        padded = np.pad(planes, ((0, 0), (0, 0), (2, 2), (2, 2)))
        one = [_PositionParams(weights, flags, *f, p[None]) for f, p in zip(features, padded)]
        stacked = _PositionParams(weights, flags, *batched, padded)
        for r in range(planes.shape[2]):
            for col in range(planes.shape[3]):
                want = np.concatenate([pos.at(r, col) for pos in one])
                got = stacked.at(r, col)
                assert got.shape == (k, 2 * c) and got.dtype == np.float32
                np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize(
        "stage, damage, match",
        [
            ("z", lambda d: d[:3], "stream exhausted"),
            ("y", lambda d: b"", "0-byte stream cannot hold 120 symbols"),  # checked before the z decode
            ("y", lambda d: d[:-2], "stream exhausted"),  # found in the walk
            ("y", flip_middle_byte, None),
            ("y", lambda d: d + b"\x00\x00", "bytes left after the last symbol: 2"),  # found by finish
        ],
        ids=["truncated-z", "short-y", "cut-y", "flipped-y", "trailing-y"],
    )
    @pytest.mark.parametrize("place", [0, 1, 2])
    def test_corrupt_frame_named_by_its_place(self, weights, place, stage, damage, match):
        # One error path for every stage: the frame's own error, in its
        # place in the call, whichever frame and stage it comes from, and
        # the other frames decode as if it were not there.
        prevs, curs = self.frames(3, 4)
        chunks = [encode_pframe(a[None], b[None], StemFlags(), weights)[0] for a, b in zip(curs, prevs)]
        name = f"{stage}_stream"
        setattr(chunks[place], name, coder.CodedStream(damage(getattr(chunks[place], name).data)))
        (alone,) = decode_pframe([chunks[place]], prevs[place][None], StemFlags(), weights)
        assert isinstance(alone, coder.CorruptStreamError)
        assert match is None or match in str(alone)
        out = decode_pframe(chunks, prevs, StemFlags(), weights)
        assert_each_frame_as_alone(out, chunks, prevs, StemFlags(), weights)
        for j in range(3):
            if j != place:
                np.testing.assert_array_equal(out[j], curs[j])

    @staticmethod
    def zero_fusion_chunks(k):
        """A zero-weight fusion, which predicts (0, 0) everywhere, K chunks of
        an all-zero 2 x 3 x 3 plane, and a y stream for that grid row whose
        first popped value is 2^40."""
        w = init_stem(latent_channels=2, seed=3)
        for layer in w.epm:
            layer.kernel.data[...] = 0.0
            layer.bias.data[...] = 0.0
        zeros = np.zeros((k, 2, 3, 3), np.int32)
        chunks = encode_pframe(zeros, zeros, StemFlags(), w)
        index, _ = coder.grid_index(0.0, 0.0)
        enc = coder.RansEncoder()
        for v in [0] * (zeros[0].size - 1) + [2**40]:  # pushed last to first
            coder.encode_symbol(enc, v, coder.table_grid()[int(index)])
        return w, zeros, chunks, coder.CodedStream(enc.finish())

    @pytest.mark.parametrize("place", [1, 2])
    def test_value_outside_int32_named_by_its_place(self, place):
        # Each frame's plane is checked against int32 once, after its walk;
        # the frame whose value left int32 gets its own error in its place.
        w, zeros, chunks, outside = self.zero_fusion_chunks(3)
        chunks[place].y_stream = outside
        out = decode_pframe(chunks, zeros, StemFlags(), w)
        assert_each_frame_as_alone(out, chunks, zeros, StemFlags(), w)
        assert isinstance(out[place], coder.CorruptStreamError) and str(out[place]) == "symbol outside int32"
        for j in range(3):
            if j != place:
                np.testing.assert_array_equal(out[j], zeros[j])

    def test_two_bad_frames_each_get_their_own_error(self):
        # A value outside int32 at the first position of one frame and a
        # stream that runs out there in the next: each frame gets the error
        # of a call of its own, and the clean frame decodes.
        w, zeros, chunks, outside = self.zero_fusion_chunks(3)
        chunks[1].y_stream = outside
        chunks[2].y_stream = coder.CodedStream((1 << 16).to_bytes(4, "big"))  # no words: the first pop runs out
        out = decode_pframe(chunks, zeros, StemFlags(), w)
        assert_each_frame_as_alone(out, chunks, zeros, StemFlags(), w)
        np.testing.assert_array_equal(out[0], zeros[0])
        assert str(out[1]) == "symbol outside int32"
        assert str(out[2]) == "stream exhausted before all symbols were decoded"

    def test_chunk_count_must_match_latents(self, weights):
        prevs, curs = self.frames(2, 4)
        chunks = encode_pframe(curs, prevs, StemFlags(), weights)
        with pytest.raises(ShapeError, match="3 chunks"):
            decode_pframe(chunks + chunks[:1], prevs, StemFlags(), weights)
        # A list of chunks goes with a stack of latents, even a list of one.
        with pytest.raises(ShapeError, match="1 chunks"):
            decode_pframe(chunks[:1], prevs[0], StemFlags(), weights)


class TestStackedEncode:
    @staticmethod
    def chunk_bytes(chunks):
        return [ch.to_bytes() for ch in chunks]

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("flags", ROW_FLAGS, ids=[f"flags{i}" for i in range(len(ROW_FLAGS))])
    def test_k_frames_equal_k_single_encodes(self, flags, k):
        # One hyper, feature, fusion and grid pass for K frames must give
        # each frame the bytes of its own call, and the lockstep decoder
        # must read them back.
        weights = init_stem(latent_channels=4, seed=3)
        prevs, curs = TestLockstepDecode.frames(k, 4)
        chunks = encode_pframe(curs, prevs, flags, weights)
        assert isinstance(chunks, list) and len(chunks) == k
        singles = [encode_pframe(a[None], b[None], flags, weights)[0] for a, b in zip(curs, prevs)]
        assert self.chunk_bytes(chunks) == self.chunk_bytes(singles)
        np.testing.assert_array_equal(decode_pframe(chunks, prevs, flags, weights), curs)

    @pytest.mark.parametrize("c", [4, 16])  # 16: the benchmark model's 96-80-64-32 chain
    def test_hyper_pass_equals_single_passes(self, c):
        weights = init_stem(latent_channels=c, seed=3)
        prevs, curs = TestLockstepDecode.frames(5, c, h=9, w=7)
        z_hats, bits = hyper_encode(curs, prevs, weights)
        singles = [[x[0] for x in hyper_encode(a[None], b[None], weights)] for a, b in zip(curs, prevs)]
        assert z_hats.shape == (5, *singles[0][0].shape) and z_hats.dtype == np.int32
        np.testing.assert_array_equal(z_hats, np.stack([z for z, _ in singles]))
        assert bits == [b for _, b in singles]
        chunks = encode_pframe(curs, prevs, StemFlags(), weights)
        want = [encode_pframe(a[None], b[None], StemFlags(), weights)[0] for a, b in zip(curs, prevs)]
        assert self.chunk_bytes(chunks) == self.chunk_bytes(want)

    def test_zero_residual_stack(self, weights):
        prevs, _ = TestLockstepDecode.frames(4, 4)
        chunks = encode_pframe(prevs, prevs, StemFlags(), weights)
        singles = [encode_pframe(b[None], b[None], StemFlags(), weights)[0] for b in prevs]
        assert self.chunk_bytes(chunks) == self.chunk_bytes(singles)
        np.testing.assert_array_equal(decode_pframe(chunks, prevs, StemFlags(), weights), prevs)

    @pytest.mark.parametrize(
        "cur_shape, prev_shape",
        [
            ((3, 4, 5, 6), (2, 4, 5, 6)),
            ((2, 4, 5, 6), (2, 4, 5, 7)),
            ((4, 5, 6), (1, 4, 5, 6)),
            ((1, 2, 4, 5, 6), (1, 2, 4, 5, 6)),
            ((5, 6), (5, 6)),
        ],
        ids=["count", "extent", "rank", "five-d", "two-d"],
    )
    def test_mismatched_stacks_rejected(self, weights, cur_shape, prev_shape):
        with pytest.raises(ShapeError):
            encode_pframe(np.zeros(cur_shape, np.int32), np.zeros(prev_shape, np.int32), StemFlags(), weights)


class TestRateEstimate:
    def test_eval_estimate_tracks_coded_length(self, weights):
        rng = np.random.default_rng(18)
        a, b = random_latents(rng, c=4, h=32, w=32, span=4)
        flags = StemFlags()
        y_bits, z_bits = p_frame_rate(a, b, flags, weights)
        est = y_bits.item() + z_bits.item()
        (chunk,) = encode_pframe(a[None], b[None], flags, weights)
        actual = 8 * (len(chunk.y_stream.data) + len(chunk.z_stream.data))
        assert abs(est - actual) <= 0.02 * est + 128

    def test_flags_all_off_is_hyper_only_direct_coding(self, weights):
        rng = np.random.default_rng(19)
        a, b = random_latents(rng)
        flags = StemFlags(False, False, False)
        y_bits, z_bits = p_frame_rate(a, b, flags, weights)
        # Same latent with a different reference: only the hyper signal may differ.
        y_bits2, _ = p_frame_rate(a, np.zeros_like(b), flags, weights)
        chunk = encode_pframe(a[None], b[None], flags, weights)
        np.testing.assert_array_equal(decode_pframe(chunk, b[None], flags, weights)[0], a)
        assert y_bits.item() > 0 and z_bits.item() > 0 and y_bits2.item() > 0

    def test_training_mode_is_seeded(self, weights):
        rng = np.random.default_rng(20)
        a, b = random_latents(rng)
        r1 = p_frame_rate(a, b, StemFlags(), weights, training=True, noise_seed=5)
        r2 = p_frame_rate(a, b, StemFlags(), weights, training=True, noise_seed=5)
        assert r1[0].item() == r2[0].item()
        assert r1[1].item() == r2[1].item()


class TestStemWeightsFile:
    def test_save_load_roundtrip(self, tmp_path, weights):
        path = tmp_path / "stem.mfvcw"
        weights.save(path)
        loaded = load_stem(path)
        assert isinstance(loaded, StemWeights)
        assert loaded.to_bytes() == weights.to_bytes()

    def test_kind_is_checked(self, tmp_path):
        from mfvc.image import init_autoencoder

        path = tmp_path / "ae.mfvcw"
        init_autoencoder(latent_channels=4, seed=0).save(path)
        with pytest.raises(Exception, match="weights file"):
            load_stem(path)
