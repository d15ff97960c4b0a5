import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from fuzzing import EDITS, mutate

from mfvc import metrics, video

from mfvc.container import (
    CHUNK_HEADER_SIZE,
    FRAME_I,
    FRAME_P,
    HEADER_SIZE,
    VIDEO_VERSION,
    ContainerError,
    DigestMismatchError,
    unpack_flags,
)
from mfvc.coder import CorruptStreamError
from mfvc.image import analyze, compress_iframe, decompress_iframe, init_autoencoder
from mfvc.stem import StemFlags, decode_pframe, encode_pframe, init_stem
from mfvc.tensor import ShapeError, Tensor, quantize_round
from mfvc.video import (
    GOPS_IN_FLIGHT,
    PFRAME_POSITIONS,
    GopConfig,
    VideoBitstream,
    compress_video,
    decompress_video,
    evaluate_video,
    gop_schedule,
    iter_decompress_video,
    pad_to_multiple,
    synth_clips,
    synth_sequence,
)


@pytest.fixture(scope="module")
def models():
    ae = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0, 64.0), seed=0)
    stem = init_stem(latent_channels=4, seed=1)
    return ae, stem


def small_video(n=6, h=16, w=16, seed=5):
    return synth_sequence("translate", n, h, w, seed)


class TestGopSchedule:
    def test_25_frames_gop_10(self):
        sched = gop_schedule(25, 10)
        assert [t for t, k in enumerate(sched) if k == FRAME_I] == [0, 10, 20]

    def test_gop_1_all_intra(self):
        assert gop_schedule(5, 1) == [FRAME_I] * 5

    def test_gop_12_single_intra(self):
        sched = gop_schedule(12, 12)
        assert sched[0] == FRAME_I
        assert sched.count(FRAME_I) == 1
        assert sched.count(FRAME_P) == 11


class TestRoundtrip:
    def test_video_latents_bit_exact(self, models):
        ae, stem = models
        frames = small_video()
        cfg = GopConfig(gop_size=3, rate=ae.rate(0))
        stream, enc_latents = compress_video(frames, ae, stem, cfg, return_latents=True)
        decoded, dec_latents = decompress_video(stream, ae, stem, return_latents=True)
        assert decoded.shape == frames.shape
        for a, b in zip(enc_latents, dec_latents):
            np.testing.assert_array_equal(a, b)

    def test_container_bytes_roundtrip(self, models):
        ae, stem = models
        frames = small_video(4)
        cfg = GopConfig(gop_size=2, rate=ae.rate(1), flags=StemFlags(use_spm=False))
        stream = compress_video(frames, ae, stem, cfg)
        blob = stream.to_bytes()
        parsed = VideoBitstream.from_bytes(blob)
        assert parsed.to_bytes() == blob
        assert parsed.total_bits == 8 * len(blob)
        d1 = decompress_video(stream, ae, stem)
        d2 = decompress_video(parsed, ae, stem)
        np.testing.assert_array_equal(d1, d2)

    def test_container_determinism(self, models):
        ae, stem = models
        frames = small_video(3)
        cfg = GopConfig(gop_size=3, rate=ae.rate(0))
        a = compress_video(frames, ae, stem, cfg).to_bytes()
        b = compress_video(frames, ae, stem, cfg).to_bytes()
        assert a == b

    def test_no_error_propagation_vs_standalone_iframe(self, models):
        # Every decoded frame equals the standalone I-frame reconstruction
        # of that same frame, regardless of GOP position.
        ae, stem = models
        frames = small_video(5)
        cfg = GopConfig(gop_size=5, rate=ae.rate(0))
        stream = compress_video(frames, ae, stem, cfg)
        decoded = decompress_video(stream, ae, stem)
        for t in range(5):
            frame_f = frames[t].astype(np.float32) / 255.0
            chunk, latent = compress_iframe(frame_f, ae.rate(0), ae)
            rec, _ = decompress_iframe(chunk, ae.rate(0), ae, latent.shape)
            standalone = np.clip(np.rint(rec.data[0] * 255.0), 0, 255).astype(np.uint8)
            np.testing.assert_array_equal(decoded[t], standalone)

    def test_padding_roundtrip_for_odd_sizes(self, models):
        ae, stem = models
        frames = synth_sequence("translate", 3, 18, 30, seed=6)
        cfg = GopConfig(gop_size=2, rate=ae.rate(0))
        stream = compress_video(frames, ae, stem, cfg)
        decoded = decompress_video(stream, ae, stem)
        assert decoded.shape == (3, 3, 18, 30)

    def test_streamability_prefix_decode(self, models):
        ae, stem = models
        frames = small_video(6)
        cfg = GopConfig(gop_size=3, rate=ae.rate(0))
        stream = compress_video(frames, ae, stem, cfg)
        full = decompress_video(stream, ae, stem)
        partial = [frame for frame, _ in itertools.islice(iter_decompress_video(stream, ae, stem), 4)]
        np.testing.assert_array_equal(np.stack(partial), full[:4])

    def test_all_flag_ablations_roundtrip(self, models):
        ae, stem = models
        frames = small_video(4)
        for flags in [StemFlags(False, False, False), StemFlags(True, False, True), StemFlags(False, True, False)]:
            cfg = GopConfig(gop_size=4, rate=ae.rate(0), flags=flags)
            stream, enc_latents = compress_video(frames, ae, stem, cfg, return_latents=True)
            _, dec_latents = decompress_video(stream, ae, stem, return_latents=True)
            for a, b in zip(enc_latents, dec_latents):
                np.testing.assert_array_equal(a, b)


class TestErrors:
    def test_digest_mismatch(self, models):
        ae, stem = models
        frames = small_video(2)
        stream = compress_video(frames, ae, stem, GopConfig(gop_size=2, rate=ae.rate(0)))
        other = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0, 64.0), seed=99)
        with pytest.raises(DigestMismatchError, match="digest"):
            decompress_video(stream, other, stem)

    @staticmethod
    def assert_version_rejected(models, version):
        ae, stem = models
        blob = bytearray(compress_video(small_video(2), ae, stem, GopConfig(gop_size=2, rate=ae.rate(0))).to_bytes())
        assert blob[4] == VIDEO_VERSION == 3
        blob[4] = version
        with pytest.raises(ContainerError, match=f"version {version}"):
            VideoBitstream.from_bytes(bytes(blob))

    def test_version_1_stream_rejected(self, models):
        self.assert_version_rejected(models, 1)

    def test_version_2_stream_rejected(self, models):
        # Version 2 coded with a range coder; its streams do not decode
        # under rANS.
        self.assert_version_rejected(models, 2)

    def test_truncated_stream_names_frame(self, models):
        ae, stem = models
        frames = small_video(4)
        stream = compress_video(frames, ae, stem, GopConfig(gop_size=2, rate=ae.rate(0)))
        blob = stream.to_bytes()
        with pytest.raises(ContainerError, match="frame"):
            VideoBitstream.from_bytes(blob[: len(blob) - 5])

    def test_trailing_bytes_rejected(self, models):
        ae, stem = models
        blob = compress_video(small_video(3), ae, stem, GopConfig(gop_size=3, rate=ae.rate(0))).to_bytes()
        with pytest.raises(ContainerError, match="7 trailing bytes after frame 2"):
            VideoBitstream.from_bytes(blob + b"garbage")

    def test_lowered_frame_count_rejected(self, models):
        # With the header's count cut from 3 to 2, the third chunk is left
        # over after the second.
        ae, stem = models
        blob = bytearray(compress_video(small_video(3), ae, stem, GopConfig(gop_size=3, rate=ae.rate(0))).to_bytes())
        assert int.from_bytes(blob[13:17], "little") == 3
        blob[13:17] = (2).to_bytes(4, "little")
        with pytest.raises(ContainerError, match="trailing bytes after frame 1"):
            VideoBitstream.from_bytes(bytes(blob))

    @pytest.mark.parametrize(
        "start,size,value,match",
        [
            (5, 4, 0, "empty frame extent 0x16"),
            (9, 4, 0, "empty frame extent 16x0"),
            (17, 1, 0, "GOP size 0"),
            (22, 1, 0xFF, "unknown flag bits 0xf8"),
        ],
        ids=["width", "height", "gop", "flags"],
    )
    def test_degenerate_header_rejected(self, models, start, size, value, match):
        ae, stem = models
        blob = bytearray(compress_video(small_video(2), ae, stem, GopConfig(gop_size=2, rate=ae.rate(0))).to_bytes())
        blob[start : start + size] = value.to_bytes(size, "little")
        with pytest.raises(ContainerError, match=match):
            VideoBitstream.from_bytes(bytes(blob))

    def test_lowered_width_rejected(self, models):
        # Width 1 asks for one latent column per row: the streams coded for
        # 32 columns hold more than the symbols decoded. The first, the
        # 4-byte hyper stream (a state and no words), is left with its
        # coder state above 2^16.
        ae, stem = models
        frames = small_video(2, w=32)
        blob = bytearray(compress_video(frames, ae, stem, GopConfig(gop_size=2, rate=ae.rate(0))).to_bytes())
        assert int.from_bytes(blob[5:9], "little") == 32
        blob[5:9] = (1).to_bytes(4, "little")
        stream = VideoBitstream.from_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="frame 0: final coder state 0x[0-9a-f]+, not 2"):
            decompress_video(stream, ae, stem)

    @staticmethod
    def append_to_latent_stream(models, t, extra):
        """The frame-``t`` y stream of a 2-frame stream with ``extra``
        appended and its length field raised to match."""
        ae, stem = models
        stream = compress_video(small_video(2), ae, stem, GopConfig(gop_size=2, rate=ae.rate(0)))
        assert stream.chunks[t].frame_type == (FRAME_I, FRAME_P)[t]
        blob = bytearray(stream.to_bytes())
        z_len, y_len = (len(stream.chunks[t].z_stream.data), len(stream.chunks[t].y_stream.data))
        start = HEADER_SIZE + sum(CHUNK_HEADER_SIZE + len(c.z_stream.data) + len(c.y_stream.data) for c in stream.chunks[:t])
        assert struct.unpack_from("<BII", blob, start)[1:] == (z_len, y_len)
        struct.pack_into("<I", blob, start + 5, y_len + len(extra))
        end = start + CHUNK_HEADER_SIZE + z_len + y_len
        blob[end:end] = extra
        return VideoBitstream.from_bytes(bytes(blob))

    @pytest.mark.parametrize("t", [0, 1], ids=["iframe", "pframe"])
    def test_appended_latent_byte_rejected(self, models, t):
        # A whole 16-bit word: the decoder stops before it.
        stream = self.append_to_latent_stream(models, t, b"\x00\x00")
        with pytest.raises(ContainerError, match=f"frame {t}: bytes left after the last symbol: 2"):
            decompress_video(stream, *models)

    @pytest.mark.parametrize("t", [0, 1], ids=["iframe", "pframe"])
    def test_appended_odd_byte_rejected(self, models, t):
        # The decoder reads whole words, so an odd length leaves a byte.
        stream = self.append_to_latent_stream(models, t, b"\x00")
        with pytest.raises(ContainerError, match=f"frame {t}: bytes left after the last symbol: 1"):
            decompress_video(stream, *models)

    def test_rate_index_outside_lambda_set_rejected(self, models):
        ae, stem = models
        blob = bytearray(compress_video(small_video(2), ae, stem, GopConfig(gop_size=2, rate=ae.rate(1))).to_bytes())
        assert blob[18] == 1
        blob[18] = 9
        with pytest.raises(DigestMismatchError, match="rate index 9"):
            decompress_video(VideoBitstream.from_bytes(bytes(blob)), ae, stem)

    def test_corrupt_chunk_leaves_leading_frames_intact(self, models):
        ae, stem = models
        frames = small_video(5)
        cfg = GopConfig(gop_size=5, rate=ae.rate(0))
        stream = compress_video(frames, ae, stem, cfg)
        clean = decompress_video(stream, ae, stem)

        # Flip a byte inside frame 3's latent stream.
        bad = stream.chunks[3].y_stream
        corrupted = bytearray(bad.data)
        corrupted[len(corrupted) // 2] ^= 0xFF
        bad.data = bytes(corrupted)

        got = []
        try:
            for frame, _ in iter_decompress_video(stream, ae, stem):
                got.append(frame)
        except ContainerError:
            pass
        assert len(got) >= 3
        for t in range(3):
            np.testing.assert_array_equal(got[t], clean[t])

    @pytest.mark.parametrize("side", [512, 2**31])
    def test_absurd_geometry_rejected_before_allocating(self, models, side):
        # A header claiming more pixels than the 16x16 frames coded promises
        # more symbols than the chunks' streams can hold. At 2^31 x 2^31,
        # sizing the decoder's arrays from it would ask for hundreds of PiB;
        # at 512 x 512 the hyper stream still fits and the latent stream
        # does not.
        ae, stem = models
        blob = bytearray(compress_video(small_video(2), ae, stem, GopConfig(gop_size=2, rate=ae.rate(0))).to_bytes())
        blob[5:13] = side.to_bytes(4, "little") * 2  # width, height
        stream = VideoBitstream.from_bytes(bytes(blob))
        assert stream.header.width == stream.header.height == side
        with pytest.raises(ContainerError, match="frame 0: .* cannot hold"):
            decompress_video(stream, ae, stem)

    def test_mismatched_channel_counts_rejected(self, models):
        ae, _ = models
        stem8 = init_stem(latent_channels=8, seed=2)
        with pytest.raises(Exception, match="channel"):
            compress_video(small_video(2), ae, stem8, GopConfig(gop_size=2, rate=ae.rate(0)))

    def test_gop_size_validated(self, models):
        ae, _ = models
        with pytest.raises(ValueError):
            GopConfig(gop_size=0, rate=ae.rate(0))


def serial_latents(stream, ae, stem):
    """The latents of a clean stream decoded one frame at a time."""
    shape = (ae.latent_channels, *(-(-n // ae.downsample_factor) for n in (stream.header.height, stream.header.width)))
    rate, flags = ae.rate(stream.header.rate_index), StemFlags(*unpack_flags(stream.header.flags))
    latents = []
    for chunk in stream.chunks:
        if chunk.frame_type == FRAME_I:
            latents.append(decompress_iframe(chunk, rate, ae, shape)[1])
        else:
            latents.append(decode_pframe([chunk], latents[-1][None], flags, stem)[0])
    return latents


@pytest.fixture(scope="module")
def fuzz_blob(models):
    """Two GOPs of an I- and a P-frame at 16x16: the header, both frame
    types and a lockstep pair of P-frames in 100-odd bytes."""
    ae, stem = models
    return compress_video(small_video(4), ae, stem, GopConfig(gop_size=2, rate=ae.rate(0))).to_bytes()


class TestContainerFuzz:
    """Every byte string parses and decodes to frames of the header's
    geometry or raises ContainerError (DigestMismatchError included)."""

    @staticmethod
    def decode_or_reject(models, data: bytes) -> None:
        ae, stem = models
        try:
            stream = VideoBitstream.from_bytes(data)
            frames = decompress_video(stream, ae, stem)
        except ContainerError:
            return
        header = stream.header
        assert frames.shape == (header.frame_count, 3, header.height, header.width)
        assert frames.dtype == np.uint8

    @given(prefix=st.sampled_from([0, HEADER_SIZE]), tail=st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes(self, models, fuzz_blob, prefix, tail):
        # With the valid header kept, the random bytes reach the chunk parser.
        self.decode_or_reject(models, fuzz_blob[:prefix] + tail)

    @given(EDITS)
    @settings(max_examples=300, deadline=None)
    def test_mutated_valid_stream(self, models, fuzz_blob, edits):
        self.decode_or_reject(models, mutate(fuzz_blob, edits))


class TestGopWindows:
    @pytest.mark.parametrize("bad_gops", [[1], [0], [1, 2]], ids=["gop1", "gop0", "gop1-and-gop2"])
    def test_corrupt_pframe_stops_at_its_frame(self, models, bad_gops):
        # The GOPs of a window decode together, but the frames before the
        # first corrupt one in display order still come out, then its error.
        ae, stem = models
        stream = compress_video(small_video(9), ae, stem, GopConfig(gop_size=3, rate=ae.rate(0)))
        clean, latents = decompress_video(stream, ae, stem, return_latents=True)
        for g in bad_gops:
            chunk = stream.chunks[3 * g + 2]
            data = bytearray(chunk.y_stream.data)
            data[len(data) // 2] ^= 0xFF
            chunk.y_stream.data = bytes(data)
        t = 3 * bad_gops[0] + 2
        (alone,) = decode_pframe([stream.chunks[t]], latents[t - 1][None], StemFlags(), stem)
        assert isinstance(alone, CorruptStreamError)

        got = []
        with pytest.raises(ContainerError) as info:
            for frame, _ in iter_decompress_video(stream, ae, stem):
                got.append(frame)
        assert str(info.value) == f"frame {t}: {alone}"
        assert len(got) == t
        np.testing.assert_array_equal(np.stack(got), clean[:t])

    def test_each_step_walked_once(self, models, monkeypatch):
        # Two corrupt P-frames in one lockstep step leave the step's call
        # once, each with its own error: the healthy GOP is not decoded
        # again, and the iteration still stops at the first bad frame.
        ae, stem = models
        stream = compress_video(small_video(9), ae, stem, GopConfig(gop_size=3, rate=ae.rate(0)))
        _, latents = decompress_video(stream, ae, stem, return_latents=True)
        for t in (5, 8):
            chunk = stream.chunks[t]
            data = bytearray(chunk.y_stream.data)
            data[len(data) // 2] ^= 0xFF
            chunk.y_stream.data = bytes(data)
        (alone,) = decode_pframe([stream.chunks[5]], latents[4][None], StemFlags(), stem)
        assert isinstance(alone, CorruptStreamError)

        calls = []
        real = video.decode_pframe
        monkeypatch.setattr(video, "decode_pframe", lambda chunks, *args: calls.append(len(chunks)) or real(chunks, *args))
        with pytest.raises(ContainerError) as info:
            for _ in iter_decompress_video(stream, ae, stem):
                pass
        assert calls == [3, 3]
        assert str(info.value) == f"frame 5: {alone}"

    @pytest.mark.parametrize("frames, gop_size", [(10, 4), (20, 2)], ids=["uneven", "ten-gops"])
    def test_latents_equal_serial_decoder(self, models, frames, gop_size):
        # 10 frames at GOP 4 end in a 2-frame GOP; 10 GOPs take two windows.
        assert GOPS_IN_FLIGHT < 10
        ae, stem = models
        stream, enc_latents = compress_video(
            small_video(frames), ae, stem, GopConfig(gop_size=gop_size, rate=ae.rate(0)), return_latents=True
        )
        _, dec_latents = decompress_video(stream, ae, stem, return_latents=True)
        assert len(dec_latents) == frames
        for a, b, c in zip(dec_latents, serial_latents(stream, ae, stem), enc_latents):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("gop_size", [5, 1], ids=["one-gop", "all-i"])
    def test_first_gop_streams(self, models, monkeypatch, gop_size):
        # A window's first GOP is yielded as it decodes, and a GOP of one
        # I-frame is a window of its own: each frame of these streams comes
        # out before the next one is decoded.
        ae, stem = models
        stream = compress_video(small_video(5), ae, stem, GopConfig(gop_size=gop_size, rate=ae.rate(0)))
        decoded = []
        for name in ("decompress_iframe", "decode_pframe"):
            real = getattr(video, name)
            monkeypatch.setattr(video, name, lambda *args, real=real: decoded.append(args[0]) or real(*args))
        for t, _ in enumerate(iter_decompress_video(stream, ae, stem)):
            assert len(decoded) == t + 1
        assert t == 4

    @pytest.mark.parametrize("gop_size", [4, 2], ids=["p-only", "then-gop"])
    def test_leading_pframe_rejected(self, models, gop_size):
        # Without its first chunk the stream starts with P-frames: alone,
        # or before the next GOP's I-frame.
        ae, stem = models
        stream = compress_video(small_video(4), ae, stem, GopConfig(gop_size=gop_size, rate=ae.rate(0)))
        stream.chunks = stream.chunks[1:]
        assert stream.chunks[0].frame_type == FRAME_P
        with pytest.raises(ContainerError, match="^frame 0: P-frame without a preceding I-frame$"):
            next(iter_decompress_video(stream, ae, stem))


def frame_by_frame_chunks(frames, ae, stem, cfg):
    """The chunks of a clip coded one frame at a time, each P-frame against
    the latent of the frame before it."""
    chunks, prev = [], None
    for t, frame in enumerate(frames):
        padded = pad_to_multiple(frame.astype(np.float32) / 255.0, ae.downsample_factor)
        if t % cfg.gop_size == 0:
            chunk, prev = compress_iframe(padded, cfg.rate, ae)
        else:
            latent = quantize_round(analyze(Tensor(padded[None]), [cfg.rate], ae))
            chunk, prev = encode_pframe(latent[None], prev[None], cfg.flags, stem)[0], latent
        chunks.append(chunk.to_bytes())
    return chunks


class TestStackedEncode:
    @pytest.mark.parametrize("gop_size", [1, 3, 10])
    @pytest.mark.parametrize("flags", [StemFlags(), StemFlags(use_spm=False, use_residual=False)], ids=["all", "ablated"])
    def test_chunks_equal_frame_by_frame_coding(self, models, gop_size, flags):
        # 12 frames of 50x70 (13x18 latents after padding): passes of 8
        # P-frames span GOPs at GOP 3, and GOP 1 has no P-frames.
        ae, stem = models
        frames = synth_sequence("zoom", 12, 50, 70, seed=7)
        cfg = GopConfig(gop_size=gop_size, rate=ae.rate(1), flags=flags)
        stream = compress_video(frames, ae, stem, cfg)
        assert [ch.to_bytes() for ch in stream.chunks] == frame_by_frame_chunks(frames, ae, stem, cfg)

    @pytest.mark.parametrize("budget", [PFRAME_POSITIONS, 40, 16, 10], ids=["default", "two", "one", "below-one"])
    def test_passes_keep_within_the_budget(self, models, monkeypatch, budget):
        # 16x16 frames have 4x4 latents: 16 positions each.
        ae, stem = models
        frames = small_video(10)
        cfg = GopConfig(gop_size=4, rate=ae.rate(0))
        want = compress_video(frames, ae, stem, cfg).to_bytes()
        passes = []

        def spy(latents, prevs, flags, weights):
            passes.append(latents.shape)
            return encode_pframe(latents, prevs, flags, weights)

        monkeypatch.setattr(video, "PFRAME_POSITIONS", budget)
        monkeypatch.setattr(video, "encode_pframe", spy)
        assert compress_video(frames, ae, stem, cfg).to_bytes() == want
        assert sum(k for k, *_ in passes) == 7  # every P-frame once
        for k, _, h, w in passes:
            assert k * h * w <= budget or k == 1
        assert len(passes) == -(-7 // max(1, budget // 16))

    def test_frames_converted_one_at_a_time(self, models, monkeypatch):
        ae, stem = models
        seen = []
        real = video.frames_to_float
        monkeypatch.setattr(video, "frames_to_float", lambda f: seen.append(f.shape[0]) or real(f))
        compress_video(small_video(5), ae, stem, GopConfig(gop_size=5, rate=ae.rate(0)))
        assert seen == [1] * 5

    def test_out_of_range_float_frame_rejected(self, models):
        ae, stem = models
        frames = small_video(3).astype(np.float32) / 255.0
        frames[2, 0, 0, 0] = 1.5
        with pytest.raises(ValueError, match=r"float frames must lie in \[0, 1\]"):
            compress_video(frames, ae, stem, GopConfig(gop_size=3, rate=ae.rate(0)))
        with pytest.raises(ShapeError):
            compress_video(frames[:, :2], ae, stem, GopConfig(gop_size=3, rate=ae.rate(0)))


class TestSynthSequences:
    def test_translate_zero_shift_static(self):
        frames = synth_sequence("translate", 4, 16, 16, seed=7, shift=0)
        for t in range(1, 4):
            np.testing.assert_array_equal(frames[t], frames[0])

    def test_same_seed_identical(self):
        a = synth_sequence("zoom", 3, 16, 16, seed=8)
        b = synth_sequence("zoom", 3, 16, 16, seed=8)
        np.testing.assert_array_equal(a, b)

    def test_translate_overlap_matches_exactly(self):
        frames = synth_sequence("translate", 5, 16, 16, seed=9, shift=2)
        for t in range(4):
            np.testing.assert_array_equal(frames[t][:, :, 2:], frames[t + 1][:, :, :-2])

    def test_noise_static_changes_every_frame(self):
        frames = synth_sequence("noise_static", 3, 16, 16, seed=10)
        assert not np.array_equal(frames[0], frames[1])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            synth_sequence("wiggle", 2, 8, 8, seed=0)

    def test_clips_are_distinct(self):
        clips = synth_clips("translate", 3, 4, 16, 16, seed=11)
        assert len(clips) == 3
        assert not np.array_equal(clips[0][0], clips[1][0])

    def test_pad_to_multiple_edge_replicates(self):
        frame = np.arange(3 * 3 * 3).reshape(3, 3, 3).astype(np.uint8)
        padded = pad_to_multiple(frame, 4)
        assert padded.shape == (3, 4, 4)
        np.testing.assert_array_equal(padded[:, 3, :3], frame[:, 2, :])
        np.testing.assert_array_equal(padded[:, :3, 3], frame[:, :, 2])


def scipy_smooth_texture(rng: np.random.Generator, h: int, w: int, cell: int = 8) -> np.ndarray:
    """The SciPy texture the synthetic sequences were defined on, verbatim."""
    coarse = rng.random((3, h // cell + 2, w // cell + 2))
    up = np.repeat(np.repeat(coarse, cell, axis=1), cell, axis=2)
    up = gaussian_filter(up, sigma=(0, cell / 2, cell / 2))
    up = up[:, :h, :w]
    lo, hi = up.min(), up.max()
    return (up - lo) / max(hi - lo, 1e-9)


class TestBlurMatchesScipy:
    """The NumPy blur gives SciPy's floats, so synthetic inputs, and the
    streams coded from them, stay what they were."""

    @pytest.mark.parametrize("h, w", [(1, 1), (7, 16), (8, 8), (16, 33), (24, 7), (64, 64), (50, 130), (256, 256)])
    def test_texture_bits_equal(self, h, w):
        # h or w below 8 blurs an axis of length 16, where the mirror pad equals the array
        got = video._smooth_texture(np.random.default_rng(h * 1000 + w), h, w)
        want = scipy_smooth_texture(np.random.default_rng(h * 1000 + w), h, w)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(1, 16, 16), (3, 16, 40), (2, 5, 3), (3, 17, 31), (3, 48, 272)])
    @pytest.mark.parametrize("sigma", [4.0, 1.5])
    def test_blur_bits_equal(self, shape, sigma):
        a = np.random.default_rng(sum(shape)).random(shape)
        assert np.array_equal(video._gaussian_blur(a, sigma), gaussian_filter(a, sigma=(0, sigma, sigma)))

    @pytest.mark.parametrize("kind", ["translate", "zoom", "noise_static"])
    def test_synth_sequence_unchanged(self, kind, monkeypatch):
        got = synth_sequence(kind, 4, 40, 56, seed=5)
        monkeypatch.setattr(video, "_smooth_texture", scipy_smooth_texture)
        np.testing.assert_array_equal(got, synth_sequence(kind, 4, 40, 56, seed=5))


class TestEvaluate:
    def test_rows_and_accounting(self, models):
        ae, stem = models
        frames = small_video(4, h=24, w=24)
        cfg = GopConfig(gop_size=2, rate=ae.rate(0))
        stream = compress_video(frames, ae, stem, cfg)
        rows = evaluate_video(stream, frames, ae, stem)
        assert [r["frame_type"] for r in rows] == ["I", "P", "I", "P"]
        assert all(r["bits"] > 0 for r in rows)
        assert all(np.isfinite(r["psnr"]) for r in rows)
        assert all(0 <= r["ms_ssim"] <= 1 for r in rows)

    def test_rows_score_the_decoded_frames(self, models):
        ae, stem = models
        frames = small_video(5, h=24, w=40)
        stream = compress_video(frames, ae, stem, GopConfig(gop_size=3, rate=ae.rate(1)))
        decoded = decompress_video(stream, ae, stem)
        rows = evaluate_video(stream, frames, ae, stem)
        assert [r["frame_index"] for r in rows] == list(range(5))
        assert [r["psnr"] for r in rows] == [metrics.psnr(frames[t], decoded[t]) for t in range(5)]
        assert [r["ms_ssim"] for r in rows] == [metrics.ms_ssim(frames[t], decoded[t], scales=2) for t in range(5)]
        with pytest.raises(ShapeError, match="stream's"):
            evaluate_video(stream, frames[:4], ae, stem)
