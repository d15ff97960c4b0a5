"""Spatiotemporal entropy model for P-frame latents.

P-frames transmit the integer residual between the current and previous
latent planes. Its symbol distributions come from three fused sources: a
joint hyper-prior over both latents, a temporal prior extracted from the
previous latent, and a causal spatial prior over the residual itself.
Because the spatial prior is autoregressive, decoding walks spatial
positions serially, recomputing the causal context from already-decoded
symbols; hyper and temporal features for a frame are computed once. The
coding path takes ``(K, C, h, w)`` stacks of K frames: the encoder codes
any K frames whose previous latents are known in one hyper, feature,
fusion and grid pass, and the decoder walks K frames from different groups
of pictures in lockstep, with one fusion and one grid lookup per position
for all K. Both sides fuse through one entry point,
:meth:`_PositionParams.at`, over any set of positions.

The model is rate-agnostic: one set of weights serves every rate index of
the auto-encoder that produced the latents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import coder
from .container import FRAME_P, FrameChunk
from .image import LEAKY_SLOPE, CodecWeights, _conv, _run_chain, check_arch, laplace_params, read_weights, scaled_width
from .tensor import (
    ConvLayer,
    ShapeError,
    Tensor,
    causal_mask,
    concat_channels,
    laplace_nll_bits,
    masked_conv2d,
    sum_all,
)

# Channel widths of the full-size model; desk models scale them by C/320.
_PHE_WIDTH = 256
_PHD_WIDTH = 256
_TPM_WIDTHS = (426, 533)
_EPM_WIDTHS = (1600, 1280)
_SPM_KERNEL = 5
_PAD = _SPM_KERNEL // 2  # zero border of the context the causal mask reads
_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1


@dataclass(frozen=True)
class StemFlags:
    """Branch switches; disabled branches feed zeros into the fusion, and
    ``use_residual=False`` codes the current latent directly."""

    use_spm: bool = True
    use_tpm: bool = True
    use_residual: bool = True


@dataclass
class StemWeights(CodecWeights):
    KIND = 2

    phe: list[ConvLayer]
    phd: list[ConvLayer]
    tpm: list[ConvLayer]
    spm: ConvLayer
    epm: list[ConvLayer]
    z_prior: tuple[Tensor, Tensor]
    latent_channels: int

    @property
    def hyper_channels(self) -> int:
        return self.phe[-1].out_channels

    def layer_groups(self):
        return (("phe", self.phe), ("phd", self.phd), ("tpm", self.tpm), ("spm", [self.spm]), ("epm", self.epm))

    def meta(self):
        return {"meta.arch": np.array([self.latent_channels, 0, 0, 0], dtype=np.float32).reshape(1, 4, 1, 1)}

    def hyper_encoder(self):
        return self.phe

    def hyper_decoder(self):
        return self.phd


def init_stem(latent_channels: int = 32, seed: int = 0) -> StemWeights:
    """Fresh weights with channel widths scaled from the full-size layout."""
    rng = np.random.default_rng(seed)
    c = latent_channels
    hc = scaled_width(_PHE_WIDTH, c)
    t1, t2 = (scaled_width(v, c) for v in _TPM_WIDTHS)
    e1, e2 = (scaled_width(v, c) for v in _EPM_WIDTHS)

    phe = [
        _conv(rng, 2 * c, hc, 3, stride=1),
        _conv(rng, hc, hc, 5, stride=2),
        _conv(rng, hc, hc, 5, stride=2),
    ]
    phd = [
        _conv(rng, hc, hc, 5, stride=2, transpose=True),
        _conv(rng, hc, hc, 5, stride=2, transpose=True),
        _conv(rng, hc, 2 * c, 3, stride=1, gain=0.1),
    ]
    tpm = [
        _conv(rng, c, t1, 5, stride=1),
        _conv(rng, t1, t2, 5, stride=1),
        _conv(rng, t2, 2 * c, 5, stride=1, gain=0.1),
    ]
    spm_kernel = _conv(rng, c, 2 * c, _SPM_KERNEL, stride=1, gain=0.1)
    spm = ConvLayer(
        kernel=spm_kernel.kernel,
        bias=spm_kernel.bias,
        stride=1,
        mask=causal_mask(_SPM_KERNEL, _SPM_KERNEL),
    )
    epm = [
        _conv(rng, 6 * c, e1, 1),
        _conv(rng, e1, e2, 1),
        _conv(rng, e2, 2 * c, 1, gain=0.05),
    ]
    z_prior = (
        Tensor(np.zeros((1, hc, 1, 1), dtype=np.float32)),
        Tensor(np.zeros((1, hc, 1, 1), dtype=np.float32)),
    )
    return StemWeights(phe=phe, phd=phd, tpm=tpm, spm=spm, epm=epm, z_prior=z_prior, latent_channels=c)


def load_stem(path) -> StemWeights:
    named, arch = read_weights(path, StemWeights, "a spatiotemporal-model")
    c = int(arch[0])
    # Every width init_stem uses is proportional to c, so this tensor of
    # about c^2 values bounds the size of the model it builds.
    check_arch(named, {"phe.0.kernel": (scaled_width(_PHE_WIDTH, c), 2 * c, 3, 3)})
    w = init_stem(latent_channels=c, seed=0)
    w.load_named(named)
    return w


# ---------------------------------------------------------------------------
# Latent arithmetic
# ---------------------------------------------------------------------------


def _check_planes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"latent planes differ in shape: {a.shape} vs {b.shape}")


def residual_latent(latent: np.ndarray, prev_latent: np.ndarray) -> np.ndarray:
    """Exact integer difference between consecutive latent planes; values outside int32 raise ValueError."""
    latent = coder.to_int32(latent, ValueError)
    prev_latent = coder.to_int32(prev_latent, ValueError)
    _check_planes(latent, prev_latent)
    return latent - prev_latent


def reconstruct_latent(residual: np.ndarray, prev_latent: np.ndarray) -> np.ndarray:
    """Exact integer inverse of :func:`residual_latent`; values outside int32 raise ValueError."""
    residual = coder.to_int32(residual, ValueError)
    prev_latent = coder.to_int32(prev_latent, ValueError)
    _check_planes(residual, prev_latent)
    return residual + prev_latent


def _as_batch(plane: np.ndarray) -> np.ndarray:
    arr = np.asarray(plane)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4:
        raise ShapeError(f"latents must be (C, h, w) or (b, C, h, w), got {arr.shape}")
    return arr.astype(np.float32)


# ---------------------------------------------------------------------------
# Prior branches
# ---------------------------------------------------------------------------


def _check_stacks(latents: np.ndarray, prev_latents: np.ndarray) -> None:
    _check_planes(latents, prev_latents)
    if latents.ndim != 4:
        raise ShapeError(f"latents must be a (K, C, h, w) stack, got {latents.shape}")


def hyper_encode(latents: np.ndarray, prev_latents: np.ndarray, weights: StemWeights):
    """Quantized joint hyper latents of a ``(K, C, h, w)`` stack and their
    prior cross entropies: the ``(K, hc, h', w')`` latents and a list of K
    bit counts, in one batched pass whose convolutions keep one GEMM per
    frame, so each frame gets the bits of a pass of its own."""
    pair = [np.asarray(a, dtype=np.float32) for a in (latents, prev_latents)]
    _check_stacks(*pair)
    zt = weights.hyper_latent(concat_channels(*map(Tensor, pair)))
    bits = [sum_all(Tensor(nll[None])).item() for nll in weights.z_prior_nll(zt).data]
    return zt.data.astype(np.int32), bits


def temporal_prior(prev_latent: np.ndarray, weights: StemWeights) -> Tensor:
    """Stride-1 feature stack over the previous latent; extents preserved."""
    return _run_chain(Tensor(_as_batch(prev_latent)), weights.tpm)


def spatial_prior(residual_plane: np.ndarray, weights: StemWeights) -> Tensor:
    """Causal masked convolution over the plane being coded."""
    return masked_conv2d(Tensor(_as_batch(residual_plane)), weights.spm)


def entropy_params(
    phd_out: Tensor,
    spm_out: Optional[Tensor],
    tpm_out: Optional[Tensor],
    weights: StemWeights,
) -> tuple[Tensor, Tensor]:
    """Fuse the hyper, spatial and temporal features into per-symbol
    Laplacian parameters (mean, clamped log scale).

    A disabled branch is passed as ``None`` and enters the fusion as zeros
    shaped like the hyper features, so one weight layout serves every
    ablation.
    """
    zeros = Tensor(np.zeros(phd_out.shape, dtype=np.float32))
    fused = concat_channels(
        concat_channels(phd_out, zeros if spm_out is None else spm_out),
        zeros if tpm_out is None else tpm_out,
    )
    return laplace_params(_run_chain(fused, weights.epm), weights.latent_channels)


# ---------------------------------------------------------------------------
# Rate estimation (training and eval)
# ---------------------------------------------------------------------------


def _rate_forward(latent, prev_latent, flags: StemFlags, weights: StemWeights,
                  training: bool, noise_seed: int) -> tuple[Tensor, Tensor]:
    """Elementwise (latent nll, hyper nll) tensors for one P-frame."""
    dtype = weights.spm.kernel.dtype
    lt = Tensor(_as_batch(latent).astype(dtype), dtype=dtype)
    pv = Tensor(_as_batch(prev_latent).astype(dtype), dtype=dtype)
    if lt.shape != pv.shape:
        raise ShapeError(f"latent extents differ: {lt.shape} vs {pv.shape}")
    _, _, h, w = lt.shape

    seeds = [noise_seed] * lt.shape[0] if training else None
    z_tilde = weights.hyper_latent(concat_channels(lt, pv), seeds)
    z_nll = weights.z_prior_nll(z_tilde)

    phd_out = weights.hyper_features(z_tilde, h, w)
    plane = lt - pv if flags.use_residual else lt
    spm_out = masked_conv2d(plane, weights.spm) if flags.use_spm else None
    tpm_out = _run_chain(pv, weights.tpm) if flags.use_tpm else None
    mu, log_scale = entropy_params(phd_out, spm_out, tpm_out, weights)
    return laplace_nll_bits(plane, mu, log_scale), z_nll


def p_frame_rate(
    latent: np.ndarray,
    prev_latent: np.ndarray,
    flags: StemFlags,
    weights: StemWeights,
    training: bool = False,
    noise_seed: int = 0,
) -> tuple[Tensor, Tensor]:
    """Differentiable estimate of (latent bits, hyper bits) for one P-frame.

    In training mode the hyper latent uses the additive-noise surrogate;
    in eval mode it is rounded. The spatial prior always sees the true
    integer plane being coded, which matches the serial decoder exactly
    because that plane is transmitted losslessly.
    """
    y_nll, z_nll = _rate_forward(latent, prev_latent, flags, weights, training, noise_seed)
    return sum_all(y_nll), sum_all(z_nll)


def p_frame_symbol_bits(latent: np.ndarray, prev_latent: np.ndarray, flags: StemFlags,
                        weights: StemWeights) -> tuple[np.ndarray, float]:
    """Per-symbol rate estimate for one frame: ((C, h, w) bits plane,
    hyper bits). Feeds the entropy heatmaps."""
    y_nll, z_nll = _rate_forward(latent, prev_latent, flags, weights, training=False, noise_seed=0)
    if y_nll.shape[0] != 1:
        raise ShapeError("per-symbol bits need a single plane, not a batch")
    return y_nll.data[0].astype(np.float64), sum_all(z_nll).item()


# ---------------------------------------------------------------------------
# Serial coding
# ---------------------------------------------------------------------------


class _PositionParams:
    """Per-position fusion shared by the encoder and the serial decoder,
    over a stack of K frames: ``phd_feat`` and ``tpm_feat`` are
    ``(K, 2C, h, w)``, and the fusion input ``[phd; spm; tpm]`` is laid out
    once as ``(K, h, w, 6C)`` with zeros in the SPM slot. The SPM reads the
    ``(K, C, h + 4, w + 4)`` zero-bordered int32 planes ``padded_planes``
    through a position-major window view, so symbols the decoder writes
    into them join the context.

    Both sides must produce bit-identical Laplacian parameters. The serial
    decoder calls :meth:`at` at each position; the encoder, which knows the
    whole plane, calls it once with slices. Its products are stacks of
    matrix-vector products: NumPy's matmul runs a stack as one BLAS gemv
    per row, so a position's bits do not depend on how many rows share the
    call. One GEMM would sum each dot product in another order.
    ``tests/test_stem.py::TestFrameFusion`` and ``TestLockstepDecode`` pin
    this bit for bit on the installed NumPy.

    When the SPM is on, :meth:`at` fills the SPM slot of the positions it
    fuses in place, so each call rewrites the slot it reads.
    ``spm_mat`` is ``kernel * mask``, so every tap at or after the position
    multiplies a finite int32-valued float32 by +-0 and adds an exact zero:
    the encoder's full plane and the decoder's partly decoded one give
    parameters that differ at most in the sign of a zero, which
    :func:`coder.grid_index` maps to the same row. The parameters are C
    means then C log-scales, unclamped; ``grid_index`` clamps them.
    """

    def __init__(self, weights: StemWeights, flags: StemFlags, phd_feat: np.ndarray, tpm_feat: np.ndarray,
                 padded_planes: np.ndarray):
        c = weights.latent_channels
        self.c = c
        self.use_spm = flags.use_spm
        fused = np.concatenate([phd_feat, np.zeros_like(phd_feat), tpm_feat], axis=1)
        self.fused = np.ascontiguousarray(fused.transpose(0, 2, 3, 1))  # (K, h, w, 6C)
        windows = sliding_window_view(padded_planes, (_SPM_KERNEL, _SPM_KERNEL), axis=(2, 3))
        self.windows = windows.transpose(0, 2, 3, 1, 4, 5)  # (K, h, w, C, k, k)
        kd = weights.spm.kernel.data * weights.spm.mask
        self.spm_mat = np.ascontiguousarray(kd.reshape(2 * c, -1).T)  # (C*k*k, 2C)
        self.spm_bias = weights.spm.bias.data.reshape(-1)
        self.epm = [
            (np.ascontiguousarray(l.kernel.data.reshape(l.out_channels, l.in_channels)), l.bias.data.reshape(-1))
            for l in weights.epm
        ]
        self.slope = np.float32(LEAKY_SLOPE)

    def at(self, rs, cs) -> np.ndarray:
        """The parameters of positions ``(rs, cs)`` of every frame, indexed
        as ``plane[rs, cs]`` would be: ``(K, 2C)`` for one position given by
        ints, ``(K, h, w, 2C)`` for the whole plane given by slices, ``(K,
        n, 2C)`` for n positions given by index arrays. The last axis is C
        means then C log-scales, the layout :func:`coder.grid_index` maps
        in one call, so both coders hand it the result as it is. A position
        gets the same bits whichever set it is fused in. Every product is a
        stack of matrix-vector products, ``mat @ x[:, :, None]``, never ``x
        @ mat.T``; the SPM patches take a transient ``K * n * C * 25``
        float32 array."""
        x = self.fused[:, rs, cs]
        lead = x.shape[:-1]
        x = x.reshape(-1, x.shape[-1])
        if self.use_spm:
            patches = np.ascontiguousarray(self.windows[:, rs, cs], dtype=np.float32).reshape(len(x), 1, -1)
            np.add((patches @ self.spm_mat)[:, 0], self.spm_bias, out=x[:, 2 * self.c : 4 * self.c])
        for i, (mat, bias) in enumerate(self.epm):
            if i:
                x = np.maximum(x, x * self.slope)  # leaky ReLU, slope in (0, 1)
            x = (mat @ x[:, :, None])[:, :, 0] + bias
        return x.reshape(*lead, -1)


def _frame_features(z_hats: np.ndarray, prevs: np.ndarray, flags: StemFlags, weights: StemWeights):
    """Hyper-decoder and temporal features of K frames in one batched pass:
    ``(K, 2C, h, w)`` each from the stacked hyper latents and ``(K, C, h,
    w)`` previous latents; a disabled TPM gives zeros. Every convolution
    multiplies each batch item's column matrix in its own GEMM, so each
    frame gets the bits of a pass of its own."""
    h, w = prevs.shape[-2:]
    phd = weights.hyper_features(Tensor(z_hats.astype(np.float32)), h, w).data
    tpm = temporal_prior(prevs, weights).data if flags.use_tpm else np.zeros_like(phd)
    return phd, tpm


def encode_pframe(latents: np.ndarray, prev_latents: np.ndarray, flags: StemFlags,
                  weights: StemWeights) -> list[FrameChunk]:
    """Code P-frame latents against their buffered previous latents.

    A ``(K, C, h, w)`` stack with its ``(K, C, h, w)`` previous latents
    gives a list of K chunks, each equal to the chunk of a stack of its
    own, as :func:`decode_pframe` takes them.

    The coded plane is the integer residual (or the latent itself when
    ``use_residual`` is off); its symbols go out position by position in
    spatial raster order, all channels of a position together, so the
    serial decoder can rebuild the causal context as it goes. The encoder
    knows every symbol, so a pass makes one :func:`hyper_encode`, one
    :func:`_frame_features`, one :meth:`_PositionParams.at` over the whole
    plane (bit for bit the decoder's per-position calls) and one
    :func:`coder.grid_index` of its ``(K, h, w, 2C)`` result for all K
    frames, then codes each frame's
    hyper latent and plane on its own. Every convolution keeps one GEMM per
    frame and the fusion one gemv per position, so no frame's bits depend on
    K. A pass holds about ``31 * K * h * w * C`` float32 values at once:
    the SPM patches of :meth:`_PositionParams.at` and the fusion inputs.
    """
    latents = coder.to_int32(latents, ValueError)
    prevs = coder.to_int32(prev_latents, ValueError)
    _check_stacks(latents, prevs)

    z_hats, _ = hyper_encode(latents, prevs, weights)
    planes = residual_latent(latents, prevs) if flags.use_residual else latents
    phd, tpm = _frame_features(z_hats, prevs, flags, weights)

    padded = np.pad(planes, ((0, 0), (0, 0), (_PAD, _PAD), (_PAD, _PAD)))
    params = _PositionParams(weights, flags, phd, tpm, padded).at(slice(None), slice(None))
    index, offset = coder.grid_index(params)
    chunks = []
    for z_hat, plane, i, o in zip(z_hats, planes, index, offset):
        y_stream = coder.encode_plane(plane.transpose(1, 2, 0), i, o)  # position-major, as the decoder reads
        chunks.append(FrameChunk(FRAME_P, weights.encode_z(z_hat), y_stream))
    return chunks


class CorruptFrameError(coder.CorruptStreamError):
    """A corrupt stream of one frame of a :func:`decode_pframe` call:
    ``index`` is the frame's place in the call and the message is that
    frame's own error."""

    def __init__(self, index: int, cause: coder.CorruptStreamError):
        super().__init__(str(cause))
        self.index = index


def decode_pframe(chunks: Sequence[FrameChunk], prev_latents: np.ndarray, flags: StemFlags,
                  weights: StemWeights) -> np.ndarray:
    """Exact inverse of :func:`encode_pframe` for the same weights, flags
    and previous latents.

    ``chunks`` is a sequence of K chunks, each from its own group of
    pictures, with their previous latents stacked as ``(K, C, h, w)``,
    giving the ``(K, C, h, w)`` latents. The K frames' streams are
    independent, so they are walked in lockstep: at each position one
    :meth:`_PositionParams.at` and one :func:`coder.grid_index` over the
    ``(K, 2C)`` parameters serve all K frames, each frame pops its C
    symbols from its own decoder through :func:`coder.decode_symbol`, and
    one int32-checked write adds the offsets and puts all K * C values
    into the contexts. The result equals K calls of one frame each, bit
    for bit.

    The module's one serial loop: positions are decoded in raster order
    into zero-bordered int32 contexts, so each position's fusion reads
    only the symbols already decoded; the encoder pushed them last to
    first, so they pop in this order. A frame whose y stream cannot hold its
    plane (checked before its z stream is decoded), whose streams fail to
    decode, give a value outside int32 or leave bytes after the last
    symbol, or whose coder state does not end at 2^16 raises
    :class:`CorruptFrameError` naming its place in the call, with the error
    it raises alone. Of several bad frames the first error found names its
    frame; at a position every frame pops before the values are checked,
    so there a later frame's stream error comes before an earlier frame's
    int32 one. Previous latents outside int32 raise ``ValueError``. A wrong
    previous latent goes undetected: garbage from the first diverging
    position on.
    """
    chunks = list(chunks)
    prevs = coder.to_int32(prev_latents, ValueError)
    if prevs.ndim != 4 or len(chunks) != len(prevs):
        raise ShapeError(f"{len(chunks)} chunks need ({len(chunks)}, C, h, w) previous latents, got {prevs.shape}")
    k, c, h, w = prevs.shape

    z_hats, decs = [], []
    try:  # j is the frame being decoded whenever a stream error is raised
        for j, ch in enumerate(chunks):
            coder.check_capacity(ch.y_stream, (c, h, w))
            z_hats.append(weights.decode_z(ch.z_stream, h, w))
            decs.append(coder.RansDecoder(ch.y_stream.data))
        phd, tpm = _frame_features(np.stack(z_hats), prevs, flags, weights)
        padded = np.zeros((k, c, h + 2 * _PAD, w + 2 * _PAD), dtype=np.int32)
        planes = padded[:, :, _PAD : _PAD + h, _PAD : _PAD + w]  # a view: decoded symbols join the contexts
        at = _PositionParams(weights, flags, phd, tpm, padded).at
        grid, buckets = coder.table_grid(), coder.grid_buckets()
        for r in range(h):
            for col in range(w):
                index, offset = coder.grid_index(at(r, col))
                symbols = []
                for j, (dec, rows) in enumerate(zip(decs, index.tolist())):
                    symbols.append([coder.decode_symbol(dec, grid[i], buckets[i]) for i in rows])
                values = offset + symbols  # (K, C) int64
                if values.min() < _INT32_MIN or values.max() > _INT32_MAX:
                    outside = (values < _INT32_MIN) | (values > _INT32_MAX)
                    j = int(outside.any(axis=1).argmax())  # the first frame with such a value
                    raise coder.CorruptStreamError("symbol outside int32")
                planes[:, :, r, col] = values
        for j, dec in enumerate(decs):
            dec.finish()
    except coder.CorruptStreamError as exc:
        raise CorruptFrameError(j, exc) from exc
    return reconstruct_latent(planes, prevs) if flags.use_residual else planes.copy()
