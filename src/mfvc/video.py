"""GOP orchestration over the frame codec: padding, the latent buffer,
container serialization, and synthetic test sequences.

Every frame's latent is transmitted losslessly and the buffer holds the
previous frame's integer latent, never a lossy reconstruction, so decoded
quality is a function of the frame and the rate index alone; GOP position
cannot degrade it. For the same reason every P-frame's coding context is
known once the clip is analysed: the encoder codes the I-frames and
analyses the P-frames first, then codes the P-frames in passes of up to
``PFRAME_POSITIONS`` latent positions, which may span GOPs. Decoding is sequential within a GOP; the
decoder walks the P-frames of up to ``GOPS_IN_FLIGHT`` consecutive GOPs in
lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .container import (
    FRAME_I,
    FRAME_P,
    HEADER_SIZE,
    ContainerError,
    DigestMismatchError,
    FrameChunk,
    VideoHeader,
    pack_flags,
    unpack_flags,
)
from .image import AutoencoderWeights, RateIndex, analyze, compress_iframe, decompress_iframe, synthesize
from .serialize import weights_digest
from .stem import StemFlags, StemWeights, decode_pframe, encode_pframe
from .tensor import ConfigError, ShapeError, Tensor, quantize_round

# GOPs decoded in lockstep by iter_decompress_video. Each GOP in flight
# holds its P-frame's 6C*h*w float32 fusion inputs and its (C, h + 4, w + 4)
# int64 context plane for a (C, h, w) latent, 2.2 MB for a 64x64 latent of
# 16 channels. Every GOP of a window but the first also holds its decoded
# latents and its I-frame's 3*H*W float32 picture until they are yielded.
# On a shared 2-vCPU machine at one BLAS thread, a P-frame with a 16x16
# latent of 16 channels took a median of about 30 ms alone, 14 ms with 8 in
# flight and 13 ms with 16 (six runs, each the best of five decodes).
GOPS_IN_FLIGHT = 8

# Latent positions (K frames of h*w) that compress_video codes in one
# stacked encode_pframe pass: 8 P-frames of 16x16 latents. A pass holds about
# 31*C float32 values per position at once, its SPM patches and fusion
# inputs, 4.1 MB at 16 channels; a frame of this many positions or more goes
# alone. On a shared 2-vCPU machine at two BLAS threads, 8-frame passes
# raised the encode rate of three 10-frame 64x64 GOPs from a median of 147
# to 178 frames/s (five pairs of 20 s runs), with peak RSS unchanged.
PFRAME_POSITIONS = 2048


@dataclass(frozen=True)
class GopConfig:
    """Group-of-pictures layout plus the coding knobs shared by all frames."""

    gop_size: int
    rate: RateIndex
    flags: StemFlags = StemFlags()

    def __post_init__(self):
        if self.gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {self.gop_size}")


@dataclass
class VideoBitstream:
    header: VideoHeader
    chunks: list[FrameChunk]

    def to_bytes(self) -> bytes:
        return self.header.to_bytes() + b"".join(c.to_bytes() for c in self.chunks)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VideoBitstream":
        header = VideoHeader.from_bytes(data)
        chunks = []
        offset = HEADER_SIZE
        for i in range(header.frame_count):
            try:
                chunk, offset = FrameChunk.from_bytes(data, offset)
            except ContainerError as exc:
                raise ContainerError(f"frame {i}: {exc}") from exc
            chunks.append(chunk)
        if offset != len(data):
            raise ContainerError(f"{len(data) - offset} trailing bytes after frame {header.frame_count - 1}")
        return cls(header, chunks)

    @property
    def total_bits(self) -> int:
        return 8 * HEADER_SIZE + sum(c.total_bits for c in self.chunks)


def gop_schedule(frame_count: int, gop_size: int) -> list[int]:
    """Frame types for a sequence: frame t is I iff t mod gop_size == 0."""
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    if gop_size < 1:
        raise ValueError("gop_size must be >= 1")
    return [FRAME_I if t % gop_size == 0 else FRAME_P for t in range(frame_count)]


def pad_to_multiple(frame: np.ndarray, factor: int) -> np.ndarray:
    """Edge-replicate the bottom/right borders up to the next multiple."""
    _, h, w = frame.shape
    ph = (-h) % factor
    pw = (-w) % factor
    if ph == 0 and pw == 0:
        return frame
    return np.pad(frame, ((0, 0), (0, ph), (0, pw)), mode="edge")


def _video_array(frames) -> np.ndarray:
    """``frames`` as an array, checked to be (n, 3, H, W)."""
    frames = np.asarray(frames)
    if frames.ndim != 4 or frames.shape[1] != 3:
        raise ShapeError(f"video must be (frames, 3, H, W), got {frames.shape}")
    return frames


def frames_to_float(frames: np.ndarray) -> np.ndarray:
    """(n, 3, H, W) frames, uint8 or float in [0, 1], as float32 in [0, 1]."""
    frames = _video_array(frames)
    if frames.dtype == np.uint8:
        return frames.astype(np.float32) / 255.0
    frames = frames.astype(np.float32)
    if frames.size and (frames.min() < 0.0 or frames.max() > 1.0):
        raise ValueError("float frames must lie in [0, 1]")
    return frames


def _to_uint8(frame_tensor: Tensor) -> np.ndarray:
    return np.clip(np.rint(frame_tensor.data[0] * 255.0), 0, 255).astype(np.uint8)


def _stream_digest(weights: AutoencoderWeights, stem_weights: StemWeights) -> bytes:
    return weights_digest(weights.to_bytes(), stem_weights.to_bytes())


def compress_video(
    frames: np.ndarray,
    weights: AutoencoderWeights,
    stem_weights: StemWeights,
    cfg: GopConfig,
    return_latents: bool = False,
):
    """Code a whole sequence; I-frames stand alone, P-frames code the
    residual against the buffered previous latent.

    ``frames`` is (n, 3, H, W) uint8 (or float in [0, 1]); dimensions that
    do not divide the downsampling factor are padded by edge replication
    and recorded in the header. Each frame is converted to float32 as it
    is analysed, so the clip is never copied whole.

    I-frames are coded and P-frames analysed in display order; every
    P-frame's previous latent is then known, so the P-frames are coded in
    display order in stacked :func:`~mfvc.stem.encode_pframe` passes of K
    consecutive frames, which may span GOPs, with K*h*w at most
    ``PFRAME_POSITIONS`` (K = 1 for a larger latent). Each chunk equals
    that of a pass of its own.
    """
    if stem_weights.latent_channels != weights.latent_channels:
        raise ShapeError("auto-encoder and entropy-model latent channel counts differ")
    frames = _video_array(frames)
    n, _, height, width = frames.shape
    header = VideoHeader(
        width=width,
        height=height,
        frame_count=n,
        gop_size=cfg.gop_size,
        rate_index=cfg.rate.index,
        latent_channels=weights.latent_channels,
        downsample_factor=weights.downsample_factor,
        flags=pack_flags(cfg.flags.use_spm, cfg.flags.use_tpm, cfg.flags.use_residual),
        model_digest=_stream_digest(weights, stem_weights),
    )
    schedule = gop_schedule(n, cfg.gop_size)
    chunks: list[Optional[FrameChunk]] = []
    latents: list[np.ndarray] = []
    for t in range(n):
        padded = pad_to_multiple(frames_to_float(frames[t : t + 1])[0], weights.downsample_factor)
        if schedule[t] == FRAME_I:
            chunk, latent = compress_iframe(padded, cfg.rate, weights)
        else:
            chunk, latent = None, quantize_round(analyze(Tensor(padded[None]), [cfg.rate], weights))
        chunks.append(chunk)
        latents.append(latent)
    p_frames = [t for t in range(n) if schedule[t] == FRAME_P]
    _, h, w = latents[0].shape
    k = max(1, PFRAME_POSITIONS // (h * w))
    for i in range(0, len(p_frames), k):
        ts = p_frames[i : i + k]
        coded = encode_pframe(
            np.stack([latents[t] for t in ts]), np.stack([latents[t - 1] for t in ts]), cfg.flags, stem_weights
        )
        for t, chunk in zip(ts, coded):
            chunks[t] = chunk
    stream = VideoBitstream(header, chunks)
    return (stream, latents) if return_latents else stream


def iter_decompress_video(
    stream: VideoBitstream,
    weights: AutoencoderWeights,
    stem_weights: StemWeights,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (uint8 frame, latent plane) pairs in display order.

    Every I-frame starts a GOP. GOPs are decoded in windows of up to
    ``GOPS_IN_FLIGHT`` consecutive GOPs, and a GOP without P-frames starts
    a window of its own: step s decodes frame s of every GOP of the window
    that has one, its P-frames in one lockstep
    :func:`~mfvc.stem.decode_pframe` call. The window's first GOP is
    yielded as it decodes; the others are held until it is done: their
    latents and their I-frames' pictures, with P-frames synthesized as
    they are yielded. So a one-GOP stream, or one of I-frames only, holds
    one frame at a time. Each GOP in flight also costs its P-frame's
    6C*h*w float32 fusion inputs plus its int64 context plane.

    Raises :class:`DigestMismatchError` before yielding anything if the
    weights do not match the stream; a corrupted chunk, one too short for
    the symbols the header's geometry promises (the frame decoders check
    before they size anything), or a leading P-frame only stops the
    iteration at its own frame index, after every frame before it. A
    corrupt P-frame stops only its own GOP: the other GOPs of its lockstep
    call decode on, so each step is walked once.
    """
    header = stream.header
    if header.model_digest != _stream_digest(weights, stem_weights):
        raise DigestMismatchError(
            "model digest mismatch: the stream was encoded with different weights"
        )
    if header.latent_channels != weights.latent_channels or header.downsample_factor != weights.downsample_factor:
        raise DigestMismatchError("stream geometry does not match the weights")
    try:
        rate = weights.rate(header.rate_index)
    except ConfigError as exc:  # a stream that does not fit the weights, not a usage error
        raise DigestMismatchError(str(exc)) from exc
    flags = StemFlags(*unpack_flags(header.flags))
    f = header.downsample_factor
    latent_shape = (header.latent_channels, -(-header.height // f), -(-header.width // f))
    chunks = stream.chunks

    failed: dict[int, ValueError] = {}  # GOP -> the error of its first frame without a latent
    gops: list[list[int]] = []  # frame indices; leading P-frames form a GOP that fails at its first frame
    for t, chunk in enumerate(chunks):
        if chunk.frame_type == FRAME_I or not gops:
            gops.append([])
        gops[-1].append(t)
    if chunks and chunks[0].frame_type != FRAME_I:
        failed[0] = ContainerError("P-frame without a preceding I-frame")
    windows: list[list[int]] = []  # GOP indices; a GOP without P-frames gains nothing in lockstep
    for g, gop in enumerate(gops):
        if windows and len(windows[-1]) < GOPS_IN_FLIGHT and len(gop) > 1:
            windows[-1].append(g)
        else:
            windows.append([g])

    prev: dict[int, np.ndarray] = {}  # GOP -> the latent of its last decoded frame
    held: dict[int, tuple[Optional[Tensor], np.ndarray]] = {}  # frame -> (I-frame picture, latent) until yielded

    def emit(g: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        if t not in held:
            raise ContainerError(f"frame {t}: {failed[g]}") from failed[g]
        picture, latent = held.pop(t)
        try:
            frame_t = synthesize(latent, rate, weights) if picture is None else picture
        except (ContainerError, ValueError) as exc:
            raise ContainerError(f"frame {t}: {exc}") from exc
        return _to_uint8(frame_t)[:, : header.height, : header.width], latent

    for window in windows:
        for s in range(max(len(gops[g]) for g in window)):
            pending = []  # GOPs whose frame s is a P-frame
            for g in window:
                if s >= len(gops[g]) or g in failed:
                    continue
                chunk = chunks[gops[g][s]]
                if chunk.frame_type != FRAME_I:
                    pending.append(g)
                    continue
                try:
                    picture, prev[g] = decompress_iframe(chunk, rate, weights, latent_shape)
                    held[gops[g][s]] = picture, prev[g]
                except ValueError as exc:
                    failed[g] = exc
            if pending:
                latents = decode_pframe(
                    [chunks[gops[g][s]] for g in pending], np.stack([prev[g] for g in pending]), flags, stem_weights
                )
                for g, latent in zip(pending, latents):
                    if isinstance(latent, ValueError):
                        failed[g] = latent
                    else:
                        prev[g], held[gops[g][s]] = latent, (None, latent)
            first = gops[window[0]]
            if s < len(first):  # the window's first GOP comes first in display order: yield it as it decodes
                yield emit(window[0], first[s])
        for g in window[1:]:
            for t in gops[g]:
                yield emit(g, t)
        prev.clear()


def decompress_video(
    stream: VideoBitstream,
    weights: AutoencoderWeights,
    stem_weights: StemWeights,
    return_latents: bool = False,
):
    """Decode a bitstream to (n, 3, H, W) uint8 frames."""
    frames: list[np.ndarray] = []
    latents: list[np.ndarray] = []
    for frame, latent in iter_decompress_video(stream, weights, stem_weights):
        frames.append(frame)
        latents.append(latent)
    out = np.stack(frames) if frames else np.zeros((0, 3, stream.header.height, stream.header.width), np.uint8)
    return (out, latents) if return_latents else out


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------


def _gaussian_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """Float for float SciPy's ``gaussian_filter(a, (0, sigma, sigma))`` of a
    (C, H, W) float64 array: SciPy's taps out to 4 sigma, mirrored borders
    (d c b a | a b c d), and each output adds the mirrored pairs to the
    centre tap outermost first, the order of SciPy's symmetric-kernel loop."""
    r = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    taps = taps / taps.sum()
    for axis in (1, 2):
        n = a.shape[axis]
        p = np.pad(np.moveaxis(a, axis, -1), ((0, 0), (0, 0), (r, r)), mode="symmetric")
        out = p[..., r : r + n] * taps[r]
        for j in range(r, 0, -1):
            out += (p[..., r - j : r - j + n] + p[..., r + j : r + j + n]) * taps[r - j]
        a = np.moveaxis(out, -1, axis)
    return a


def _smooth_texture(rng: np.random.Generator, h: int, w: int, cell: int = 8) -> np.ndarray:
    coarse = rng.random((3, h // cell + 2, w // cell + 2))
    up = np.repeat(np.repeat(coarse, cell, axis=1), cell, axis=2)
    up = _gaussian_blur(up, cell / 2)
    up = up[:, :h, :w]
    lo, hi = up.min(), up.max()
    return (up - lo) / max(hi - lo, 1e-9)


def synth_sequence(kind: str, n_frames: int, h: int, w: int, seed: int, shift: int = 2) -> np.ndarray:
    """Deterministic synthetic uint8 sequences for desk-scale experiments.

    ``translate`` slides a window over a smooth texture by ``shift`` pixels
    per frame, ``zoom`` rescales around the center, and ``noise_static``
    adds fresh i.i.d. noise (sigma 8/255) to a fixed texture each frame.
    """
    if h < 1 or w < 1 or n_frames < 1:
        raise ValueError("sequence dimensions must be positive")
    rng = np.random.default_rng(seed)
    if kind == "translate":
        big = _smooth_texture(rng, h, w + shift * max(n_frames - 1, 0) + 1)
        frames = np.stack([big[:, :, t * shift : t * shift + w] for t in range(n_frames)])
    elif kind == "zoom":
        big = _smooth_texture(rng, 2 * h, 2 * w)
        cy, cx = h, w
        ys = np.arange(h) - h / 2
        xs = np.arange(w) - w / 2
        frames = np.zeros((n_frames, 3, h, w))
        for t in range(n_frames):
            scale = 1.0 + 0.03 * t
            iy = np.clip(np.rint(cy + ys / scale).astype(int), 0, 2 * h - 1)
            ix = np.clip(np.rint(cx + xs / scale).astype(int), 0, 2 * w - 1)
            frames[t] = big[:, iy[:, None], ix[None, :]]
    elif kind == "noise_static":
        base = _smooth_texture(rng, h, w)
        frames = base[None] + rng.normal(0.0, 8.0 / 255.0, size=(n_frames, 3, h, w))
    else:
        raise ValueError(f"unknown sequence kind '{kind}'")
    return np.clip(np.rint(frames * 255.0), 0, 255).astype(np.uint8)


def synth_clips(kind: str, n_clips: int, frames_per_clip: int, h: int, w: int, seed: int,
                shift: int = 2) -> list[np.ndarray]:
    """Independent clips (different seeds) for P-frame training."""
    return [
        synth_sequence(kind, frames_per_clip, h, w, seed + 1000 * i, shift=shift)
        for i in range(n_clips)
    ]


def evaluate_video(
    stream: VideoBitstream,
    original: np.ndarray,
    weights: AutoencoderWeights,
    stem_weights: StemWeights,
) -> list[dict]:
    """Per-frame rate and quality rows (the data behind quality-vs-time plots).

    Bits per frame include the chunk framing; the container header's bits
    are in no row (``stream.total_bits`` counts them). Each frame is scored
    as it decodes, so the decoded clip is never held whole.
    """
    from . import metrics

    original = np.asarray(original)
    header = stream.header
    shape = (len(stream.chunks), 3, header.height, header.width)
    if original.shape != shape:
        raise ShapeError(f"original shape {original.shape} does not match the stream's {shape}")
    scales = _max_scales(header)
    rows = []
    for t, (decoded, _) in enumerate(iter_decompress_video(stream, weights, stem_weights)):
        chunk = stream.chunks[t]
        rows.append(
            {
                "frame_index": t,
                "frame_type": "I" if chunk.frame_type == FRAME_I else "P",
                "bits": chunk.total_bits,
                "bpp": metrics.bpp(chunk.total_bits, header.width, header.height, 1),
                "psnr": metrics.psnr(original[t], decoded),
                "ms_ssim": metrics.ms_ssim(original[t], decoded, scales=scales),
            }
        )
    return rows


def _max_scales(header: VideoHeader) -> int:
    side = min(header.width, header.height)
    scales = 1
    while scales < 5 and side >= 2 ** scales * 11:
        scales += 1
    return scales
