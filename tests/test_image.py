import dataclasses

import numpy as np
import pytest

from mfvc import coder
from mfvc.image import (
    AutoencoderWeights,
    RateIndex,
    analyze,
    compress_iframe,
    conditional_scale,
    decompress_iframe,
    i_entropy_params,
    init_autoencoder,
    load_autoencoder,
    scaled_width,
    synthesis_transform,
    synthesize,
)
from mfvc.serialize import WeightsFormatError, serialize_named_tensors, weights_digest
from mfvc.tensor import ShapeError, Tensor, backward, finite_diff_check, sum_all, mul


@pytest.fixture(scope="module")
def weights():
    return init_autoencoder(latent_channels=8, downsample_factor=4, lambda_set=(8.0, 64.0), seed=3)


def random_frame(rng, h=32, w=32):
    return rng.random((3, h, w)).astype(np.float32)


class TestConditionalScale:
    def test_identity_at_init(self, weights):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        y = conditional_scale(x, [weights.rate(0)], "analysis.1", weights)
        np.testing.assert_allclose(y.data, x.data, rtol=1e-6)

    def test_rate_indices_differ_after_table_edit(self, weights):
        scale, bias = weights.lambda_table["analysis.1"][1]
        old = scale.data.copy()
        scale.data[...] = old + 1.0
        try:
            x = Tensor(np.ones((1, 8, 4, 4), dtype=np.float32))
            y0 = conditional_scale(x, [weights.rate(0)], "analysis.1", weights)
            y1 = conditional_scale(x, [weights.rate(1)], "analysis.1", weights)
            assert not np.allclose(y0.data, y1.data)
        finally:
            scale.data[...] = old

    def test_unknown_layer_id(self, weights):
        with pytest.raises(Exception, match="conditional"):
            conditional_scale(Tensor(np.ones((1, 8, 2, 2))), [weights.rate(0)], "nope.0", weights)

    def test_scale_gradient_matches_finite_differences(self, weights):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 8, 3, 3)).astype(np.float32))
        rate = weights.rate(0)
        scale, bias = weights.lambda_table["analysis.0"][0]

        def f(s):
            table = {"analysis.0": [(s, bias)]}
            w = AutoencoderWeights(
                analysis=weights.analysis,
                synthesis=weights.synthesis,
                lambda_table=table,
                hyper_enc=weights.hyper_enc,
                hyper_dec=weights.hyper_dec,
                z_prior=weights.z_prior,
                lambda_set=(8.0,),
                latent_channels=8,
                downsample_factor=4,
                hyper_channels=weights.hyper_channels,
            )
            y = conditional_scale(x, [RateIndex(0, 8.0)], "analysis.0", w)
            return sum_all(mul(y, y))

        assert finite_diff_check(f, scale, h=1e-4) <= 1e-3


class TestPerItemRates:
    """A batch mixes rates: item k uses the tables of ``rates[k]``."""

    RATES = (0, 2, 2)

    @staticmethod
    def three_rate_weights(seed, dtype=np.float32):
        w = init_autoencoder(latent_channels=8, downsample_factor=4, lambda_set=(8.0, 64.0, 256.0), seed=seed)
        rng = np.random.default_rng(seed + 1)
        for pairs in w.lambda_table.values():
            for scale, bias in pairs:
                scale.data = (scale.data + rng.normal(0.0, 0.5, scale.shape)).astype(dtype)
                bias.data = rng.normal(0.0, 0.1, bias.shape).astype(dtype)
        return w

    def test_mixed_batch_equals_batches_of_one(self):
        w = self.three_rate_weights(21)
        frames = np.random.default_rng(22).random((4, 3, 32, 32)).astype(np.float32)
        rates = [w.rate(j) for j in (0, 2, 1, 2)]
        latents = analyze(Tensor(frames), rates, w)
        recons = synthesis_transform(latents, rates, w)
        for k, rate in enumerate(rates):
            one = analyze(Tensor(frames[k : k + 1]), [rate], w)
            np.testing.assert_array_equal(latents.data[k], one.data[0])
            np.testing.assert_array_equal(recons.data[k], synthesis_transform(one, [rate], w).data[0])

    def test_mixed_batch_gradients(self):
        w = self.three_rate_weights(23, np.float64)
        pairs = w.lambda_table["analysis.1"]
        for t in (t for pair in pairs for t in pair):
            t.requires_grad = True
        x = Tensor(np.random.default_rng(24).normal(size=(3, 8, 3, 3)), dtype=np.float64)
        rates = [w.rate(j) for j in self.RATES]

        def energy(weights, frames, frame_rates):
            y = conditional_scale(frames, frame_rates, "analysis.1", weights)
            return sum_all(mul(y, y))

        backward(energy(w, x, rates))
        mixed = {(j, part): pairs[j][part].grad for j in (0, 2) for part in (0, 1)}
        assert pairs[1][0].grad is None and pairs[1][1].grad is None

        for j in (0, 2):
            rows = [k for k, r in enumerate(self.RATES) if r == j]
            for t in pairs[j]:
                t.grad = None
            backward(energy(w, Tensor(x.data[rows], dtype=np.float64), [w.rate(j)] * len(rows)))
            for part in (0, 1):
                np.testing.assert_allclose(mixed[j, part], pairs[j][part].grad, rtol=1e-12)

        for j in (0, 2):
            for part in (0, 1):

                def swapped(t, j=j, part=part):
                    table = [list(pair) for pair in pairs]
                    table[j][part] = t
                    lambda_table = {"analysis.1": [tuple(pair) for pair in table]}
                    return energy(dataclasses.replace(w, lambda_table=lambda_table), x, rates)

                assert finite_diff_check(swapped, pairs[j][part], h=1e-4) <= 1e-6

    def test_rate_count_must_match_batch(self, weights):
        with pytest.raises(ShapeError, match="1 rates for a batch of 2"):
            conditional_scale(Tensor(np.ones((2, 8, 2, 2))), [weights.rate(0)], "analysis.1", weights)


class TestAnalyzeSynthesize:
    def test_zero_frame_zero_latent(self, weights):
        latent = analyze(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)), [weights.rate(0)], weights)
        np.testing.assert_array_equal(latent.data, 0.0)

    def test_latent_shape_contract(self):
        w = init_autoencoder(latent_channels=32, downsample_factor=4, seed=0)
        frame = Tensor(np.random.default_rng(2).random((1, 3, 64, 64)).astype(np.float32))
        latent = analyze(frame, [w.rate(0)], w)
        assert latent.shape == (1, 32, 16, 16)

    def test_analyze_deterministic(self, weights):
        frame = Tensor(random_frame(np.random.default_rng(3))[None])
        a = analyze(frame, [weights.rate(1)], weights).data
        b = analyze(frame, [weights.rate(1)], weights).data
        np.testing.assert_array_equal(a, b)

    def test_indivisible_dimensions_error_mentions_padding(self, weights):
        frame = Tensor(np.zeros((1, 3, 30, 32), dtype=np.float32))
        with pytest.raises(ShapeError, match="pad"):
            analyze(frame, [weights.rate(0)], weights)

    def test_out_of_range_values_rejected(self, weights):
        frame = Tensor(np.full((1, 3, 32, 32), 1.5, dtype=np.float32))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            analyze(frame, [weights.rate(0)], weights)

    def test_synthesize_shape_and_clamp(self, weights):
        rng = np.random.default_rng(4)
        latent = rng.integers(-40, 40, size=(8, 8, 8)).astype(np.int32)
        frame = synthesize(latent, weights.rate(0), weights)
        assert frame.shape == (1, 3, 32, 32)
        assert float(frame.data.min()) >= 0.0
        assert float(frame.data.max()) <= 1.0

    def test_synthesize_deterministic_bytes(self, weights):
        rng = np.random.default_rng(5)
        latent = rng.integers(-10, 10, size=(8, 4, 4)).astype(np.int32)
        a = synthesize(latent, weights.rate(0), weights).data.tobytes()
        b = synthesize(latent, weights.rate(0), weights).data.tobytes()
        assert a == b


class TestHyperPath:
    def test_hyper_dec_output_channels(self, weights):
        assert weights.hyper_dec[-1].out_channels == 2 * weights.latent_channels

    def test_entropy_params_shapes(self, weights):
        rng = np.random.default_rng(6)
        latent = rng.integers(-5, 6, size=(8, 8, 8)).astype(np.int32)
        mu, log_scale, z_hat, z_bits = i_entropy_params(latent, weights)
        assert mu.shape == (1, 8, 8, 8)
        assert log_scale.shape == (1, 8, 8, 8)
        assert z_hat.shape == weights.hyper_extents(8, 8)
        assert z_bits > 0
        assert (log_scale.data >= coder.LOG_SCALE_MIN).all()
        assert (log_scale.data <= coder.LOG_SCALE_MAX).all()

    def test_z_roundtrips_under_prior(self, weights):
        rng = np.random.default_rng(7)
        latent = rng.integers(-5, 6, size=(8, 8, 8)).astype(np.int32)
        _, _, z_hat, z_bits = i_entropy_params(latent, weights)
        stream = weights.encode_z(z_hat)
        np.testing.assert_array_equal(weights.decode_z(stream, 8, 8), z_hat)
        assert 8 * len(stream.data) <= 1.02 * z_bits + 128

    def test_zero_hyper_weights_give_bias_params(self, weights):
        w = init_autoencoder(latent_channels=8, downsample_factor=4, lambda_set=(8.0,), seed=9)
        for layer in w.hyper_dec:
            layer.kernel.data[...] = 0.0
            layer.bias.data[...] = 0.0
        w.hyper_dec[-1].bias.data[:, : w.latent_channels] = 0.75
        latent = np.random.default_rng(8).integers(-5, 6, size=(8, 8, 8)).astype(np.int32)
        mu, log_scale, _, _ = i_entropy_params(latent, w)
        np.testing.assert_allclose(mu.data, 0.75, atol=1e-6)
        np.testing.assert_allclose(log_scale.data, 0.0, atol=1e-6)


class TestIFrameCoding:
    def test_roundtrip_latents_exact(self, weights):
        rng = np.random.default_rng(10)
        frame = random_frame(rng)
        for idx in range(2):
            chunk, latent_hat = compress_iframe(frame, weights.rate(idx), weights)
            rec, decoded_latent = decompress_iframe(chunk, weights.rate(idx), weights, latent_hat.shape)
            np.testing.assert_array_equal(decoded_latent, latent_hat)
            assert rec.shape == (1, 3, 32, 32)

    def test_reconstruction_matches_synthesize(self, weights):
        rng = np.random.default_rng(11)
        frame = random_frame(rng)
        chunk, latent_hat = compress_iframe(frame, weights.rate(0), weights)
        rec, _ = decompress_iframe(chunk, weights.rate(0), weights, latent_hat.shape)
        direct = synthesize(latent_hat, weights.rate(0), weights)
        np.testing.assert_array_equal(rec.data, direct.data)

    def test_chunk_bit_accounting(self, weights):
        rng = np.random.default_rng(12)
        chunk, _ = compress_iframe(random_frame(rng), weights.rate(0), weights)
        expected = 8 * (9 + len(chunk.z_stream.data) + len(chunk.y_stream.data))
        assert chunk.total_bits == expected

    def test_rate_conditioning_keeps_shapes(self, weights):
        rng = np.random.default_rng(13)
        frame = random_frame(rng)
        latents = [compress_iframe(frame, weights.rate(i), weights)[1] for i in range(2)]
        assert latents[0].shape == latents[1].shape

    def test_short_latent_stream_rejected_before_the_hyper_path(self, weights, monkeypatch):
        # A 4096 x 4096 latent promises 2^27 symbols, far more than the
        # coded stream can hold; the hyper plane must not be decoded for it.
        chunk, _ = compress_iframe(random_frame(np.random.default_rng(9)), weights.rate(0), weights)
        calls = []
        monkeypatch.setattr(weights, "decode_z", lambda *args: calls.append(args))
        with pytest.raises(coder.CorruptStreamError, match="cannot hold 134217728 symbols"):
            decompress_iframe(chunk, weights.rate(0), weights, (8, 4096, 4096))
        assert calls == []


class TestWeightsFile:
    def test_save_load_roundtrip(self, tmp_path, weights):
        path = tmp_path / "ae.mfvcw"
        weights.save(path)
        loaded = load_autoencoder(path)
        assert loaded.lambda_set == weights.lambda_set
        assert loaded.latent_channels == weights.latent_channels
        assert loaded.to_bytes() == weights.to_bytes()

    def test_digest_changes_with_weights(self, weights):
        blob = weights.to_bytes()
        w2 = init_autoencoder(latent_channels=8, downsample_factor=4, lambda_set=(8.0, 64.0), seed=4)
        assert weights_digest(blob) != weights_digest(w2.to_bytes())
        assert len(weights_digest(blob)) == 8

    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAWEIGHTSFILE")
        with pytest.raises(WeightsFormatError, match="magic"):
            load_autoencoder(path)

    def test_non_4d_tensor_rejected(self):
        with pytest.raises(WeightsFormatError):
            serialize_named_tensors({"x": np.zeros((2, 2))})

    def test_scaled_width_rule(self):
        assert scaled_width(640, 32) == 64
        assert scaled_width(1600, 32) == 160
        assert scaled_width(426, 32) == 43
        assert scaled_width(256, 32) == 26
