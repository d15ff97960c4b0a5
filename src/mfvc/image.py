"""Unified frame auto-encoder: rate-conditioned analysis/synthesis transforms
with a hyper-prior entropy model for standalone (I-frame) compression.

One model serves every rate in its lambda set through per-channel
conditional scale/shift pairs selected by a rate index; the latent itself
is transmitted losslessly, so reconstruction quality depends only on the
frame and the chosen rate. Weights are read-only during inference and may
be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import coder, serialize
from .container import FRAME_I, FrameChunk
from .tensor import (
    ConfigError,
    ConvLayer,
    ShapeError,
    Tensor,
    _make_node,
    add_row_noise,
    clamp,
    conv2d,
    crop_hw,
    expand_param,
    expand_params,
    laplace_nll_bits,
    leaky_relu,
    mul,
    quantize_round,
    round_half_away,
    softplus,
    sum_all,
    transpose_conv2d,
)

LEAKY_SLOPE = 0.2

# Channel widths scale linearly from the full-size model (320 latent
# channels, hyper width 256); desk-scale models keep the same ratios.
REFERENCE_LATENT_CHANNELS = 320
REFERENCE_HYPER_WIDTH = 256

DEFAULT_LAMBDA_SET = (16.0, 64.0, 256.0, 1024.0)

# Full-scale training rate sets (MSE-optimized and MS-SSIM-optimized).
FULL_SCALE_LAMBDA_SET_MSE = (50.0, 105.0, 160.0, 300.0, 480.0, 710.0, 1000.0, 1780.0, 2915.0)
FULL_SCALE_LAMBDA_SET_MSSSIM = (3.0, 5.0, 8.0, 14.0, 20.0, 35.0, 52.0, 98.0, 145.0)


def scaled_width(reference_width: int, latent_channels: int) -> int:
    """Proportional channel count for a desk-scale model."""
    return max(2, round(reference_width * latent_channels / REFERENCE_LATENT_CHANNELS))


@dataclass(frozen=True)
class RateIndex:
    """Position in the configured lambda set plus the multiplier itself."""

    index: int
    lambda_value: float


class CodecWeights:
    """Weight plumbing shared by the auto-encoder and the entropy model: the
    named-tensor round trip, the hyper path and the channel-wise Laplacian
    prior over the quantized hyper latent.

    A subclass sets ``KIND`` and ``hyper_channels`` and declares its layer
    groups, its ``meta.*`` tensors and its hyper-encoder and hyper-decoder
    layers; anything else it trains goes in :meth:`extra_tensors`.
    """

    KIND: ClassVar[int]
    z_prior: tuple[Tensor, Tensor]
    hyper_channels: int

    def layer_groups(self) -> tuple[tuple[str, list[ConvLayer]], ...]:
        raise NotImplementedError

    def meta(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def hyper_encoder(self) -> list[ConvLayer]:
        raise NotImplementedError

    def hyper_decoder(self) -> list[ConvLayer]:
        raise NotImplementedError

    def extra_tensors(self) -> list[tuple[str, Tensor]]:
        return []

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for _, layers in self.layer_groups():
            for layer in layers:
                params.extend(layer.parameters())
        params.extend(t for _, t in self.extra_tensors())
        params.extend(self.z_prior)
        return params

    def set_trainable(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag

    def hyper_extents(self, latent_h: int, latent_w: int) -> tuple[int, int, int]:
        h, w = latent_h, latent_w
        for layer in self.hyper_encoder():
            h = -(-h // layer.stride)
            w = -(-w // layer.stride)
        return self.hyper_channels, h, w

    def to_named(self) -> dict[str, np.ndarray]:
        named = {"meta.kind": np.full((1, 1, 1, 1), float(self.KIND), dtype=np.float32), **self.meta()}
        for group, layers in self.layer_groups():
            for i, layer in enumerate(layers):
                named[f"{group}.{i}.kernel"] = layer.kernel.data
                named[f"{group}.{i}.bias"] = layer.bias.data
        for name, t in self.extra_tensors():
            named[name] = t.data
        named["z_prior.mean"] = self.z_prior[0].data
        named["z_prior.log_scale"] = self.z_prior[1].data
        return named

    def load_named(self, named: dict[str, np.ndarray]) -> None:
        mine = self.to_named()
        for name, arr in mine.items():
            if name.startswith("meta."):
                continue
            if name not in named:
                raise serialize.WeightsFormatError(f"missing tensor '{name}'")
            if named[name].shape != arr.shape:
                raise serialize.WeightsFormatError(
                    f"tensor '{name}' has shape {named[name].shape}, expected {arr.shape}"
                )
            arr[...] = named[name]

    def to_bytes(self) -> bytes:
        return serialize.serialize_named_tensors(self.to_named())

    def save(self, path) -> None:
        serialize.save_named_tensors(path, self.to_named())

    def hyper_latent(self, x: Tensor, noise_seeds: Optional[Sequence[int]] = None) -> Tensor:
        """Hyper-encoded ``x``, rounded half away from zero, or with the
        uniform-noise surrogate of rounding when training seeds are given,
        one per batch item (see :func:`~mfvc.tensor.add_row_noise`)."""
        z = _run_chain(x, self.hyper_encoder())
        if noise_seeds is not None:
            return add_row_noise(z, noise_seeds)
        return Tensor(round_half_away(z.data).astype(z.dtype), dtype=z.dtype)

    def hyper_features(self, z: Tensor, h: int, w: int) -> Tensor:
        """Hyper-decoded ``z`` cropped to the h x w latent extents."""
        return crop_hw(_run_chain(z, self.hyper_decoder()), h, w)

    # Hyper-latent prior: one Laplacian per hyper channel.

    def z_prior_nll(self, z: Tensor) -> Tensor:
        """Elementwise bits of a (b, hyper channels, h, w) hyper latent."""
        mu, ls = self.z_prior
        return laplace_nll_bits(
            z, expand_param(mu, z), clamp(expand_param(ls, z), coder.LOG_SCALE_MIN, coder.LOG_SCALE_MAX)
        )

    def _z_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid rows and offsets of the prior, shaped (channels, 1, 1) to
        broadcast over a hyper plane."""
        return coder.grid_index(self.z_prior[0].data.reshape(-1, 1, 1), self.z_prior[1].data.reshape(-1, 1, 1))

    def encode_z(self, z_hat: np.ndarray) -> coder.CodedStream:
        return coder.encode_plane(z_hat, *self._z_rows())

    def decode_z(self, stream: coder.CodedStream, latent_h: int, latent_w: int) -> np.ndarray:
        return coder.decode_plane(stream, self.hyper_extents(latent_h, latent_w), *self._z_rows())


def read_weights(path, cls: type[CodecWeights], what: str) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Named tensors of a ``cls`` weights file and its ``meta.arch`` vector."""
    named = serialize.load_named_tensors(path)
    kind = named.get("meta.kind")
    if kind is None or kind.size != 1 or float(kind.reshape(())) != cls.KIND:
        raise serialize.WeightsFormatError(f"not {what} weights file")
    arch = named.get("meta.arch")
    if arch is None or arch.size != 4 or not np.all(np.isfinite(arch) & (arch >= 0) & (arch == np.round(arch))):
        raise serialize.WeightsFormatError("meta.arch must hold four non-negative integers")
    return named, arch.reshape(-1).astype(int)


def check_arch(named: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise :class:`~mfvc.serialize.WeightsFormatError` unless each tensor
    in ``shapes`` is in the file with that shape. Loaders call it with the
    shapes ``meta.arch`` implies before building a model from ``meta.arch``,
    so what they allocate is bounded by the tensors the file holds."""
    for name, shape in shapes.items():
        if name not in named or named[name].shape != shape:
            raise serialize.WeightsFormatError(f"meta.arch does not match tensor '{name}'")


@dataclass
class AutoencoderWeights(CodecWeights):
    KIND = 1

    analysis: list[ConvLayer]
    synthesis: list[ConvLayer]
    lambda_table: dict[str, list[tuple[Tensor, Tensor]]]
    hyper_enc: list[ConvLayer]
    hyper_dec: list[ConvLayer]
    z_prior: tuple[Tensor, Tensor]
    lambda_set: tuple[float, ...]
    latent_channels: int
    downsample_factor: int
    hyper_channels: int

    def rate(self, index: int) -> RateIndex:
        if not 0 <= index < len(self.lambda_set):
            raise ConfigError(f"rate index {index} outside lambda set of size {len(self.lambda_set)}")
        return RateIndex(index, self.lambda_set[index])

    def latent_extents(self, height: int, width: int) -> tuple[int, int, int]:
        f = self.downsample_factor
        if height % f or width % f:
            raise ShapeError(
                f"frame extents {height}x{width} are not divisible by the downsampling factor {f}; "
                "pad the frame first (the video pipeline pads by edge replication)"
            )
        return self.latent_channels, height // f, width // f

    def layer_groups(self):
        return (
            ("analysis", self.analysis),
            ("synthesis", self.synthesis),
            ("hyper_enc", self.hyper_enc),
            ("hyper_dec", self.hyper_dec),
        )

    def meta(self):
        arch = [self.latent_channels, self.downsample_factor, self.hyper_channels, len(self.lambda_set)]
        return {
            "meta.arch": np.array(arch, dtype=np.float32).reshape(1, 4, 1, 1),
            "meta.lambda_set": np.asarray(self.lambda_set, dtype=np.float32).reshape(1, -1, 1, 1),
        }

    def hyper_encoder(self):
        return self.hyper_enc

    def hyper_decoder(self):
        return self.hyper_dec

    def extra_tensors(self):
        return [
            (f"cond.{j}.{layer_id}.{part}", t)
            for layer_id in sorted(self.lambda_table)
            for j, pair in enumerate(self.lambda_table[layer_id])
            for part, t in zip(("scale", "bias"), pair)
        ]


def _he_kernel(rng: np.random.Generator, out_ch: int, in_ch: int, kh: int, kw: int, gain: float = 1.0):
    std = gain * np.sqrt(2.0 / (in_ch * kh * kw))
    return Tensor(rng.normal(0.0, std, size=(out_ch, in_ch, kh, kw)).astype(np.float32))


def _zero_bias(ch: int, value: float = 0.0) -> Tensor:
    return Tensor(np.full((1, ch, 1, 1), value, dtype=np.float32))


def _conv(rng, in_ch, out_ch, k, stride=1, transpose=False, bias_value=0.0, gain=1.0) -> ConvLayer:
    if transpose:
        kernel = _he_kernel(rng, in_ch, out_ch, k, k, gain)
    else:
        kernel = _he_kernel(rng, out_ch, in_ch, k, k, gain)
    return ConvLayer(kernel=kernel, bias=_zero_bias(out_ch, bias_value), stride=stride, transpose=transpose)


_SOFTPLUS_ONE = float(np.log(np.expm1(1.0)))  # softplus(x) == 1


def init_autoencoder(
    latent_channels: int = 32,
    downsample_factor: int = 4,
    lambda_set=DEFAULT_LAMBDA_SET,
    hyper_channels: int | None = None,
    seed: int = 0,
) -> AutoencoderWeights:
    """Fresh desk-scale weights; conditional scales start as the identity."""
    steps = int(downsample_factor).bit_length() - 1
    if 2**steps != downsample_factor or steps < 1:
        raise ConfigError(f"downsampling factor must be a power of two >= 2, got {downsample_factor}")
    if hyper_channels is None:
        hyper_channels = scaled_width(REFERENCE_HYPER_WIDTH, latent_channels)
    rng = np.random.default_rng(seed)
    c = latent_channels

    analysis = []
    in_ch = 3
    for _ in range(steps):
        analysis.append(_conv(rng, in_ch, c, 5, stride=2))
        in_ch = c
    synthesis = []
    for i in range(steps):
        out_ch = 3 if i == steps - 1 else c
        bias = 0.5 if i == steps - 1 else 0.0
        synthesis.append(_conv(rng, c, out_ch, 5, stride=2, transpose=True, bias_value=bias))

    hyper_enc = [
        _conv(rng, c, hyper_channels, 3, stride=1),
        _conv(rng, hyper_channels, hyper_channels, 5, stride=2),
        _conv(rng, hyper_channels, hyper_channels, 5, stride=2),
    ]
    hyper_dec = [
        _conv(rng, hyper_channels, hyper_channels, 5, stride=2, transpose=True),
        _conv(rng, hyper_channels, hyper_channels, 5, stride=2, transpose=True),
        _conv(rng, hyper_channels, 2 * c, 3, stride=1, gain=0.1),
    ]

    lambda_table: dict[str, list[tuple[Tensor, Tensor]]] = {}
    for group, layers in (("analysis", analysis), ("synthesis", synthesis)):
        for i, layer in enumerate(layers):
            pairs = []
            for _ in lambda_set:
                scale = Tensor(np.full((1, layer.out_channels, 1, 1), _SOFTPLUS_ONE, dtype=np.float32))
                bias = Tensor(np.zeros((1, layer.out_channels, 1, 1), dtype=np.float32))
                pairs.append((scale, bias))
            lambda_table[f"{group}.{i}"] = pairs

    z_prior = (
        Tensor(np.zeros((1, hyper_channels, 1, 1), dtype=np.float32)),
        Tensor(np.zeros((1, hyper_channels, 1, 1), dtype=np.float32)),
    )
    return AutoencoderWeights(
        analysis=analysis,
        synthesis=synthesis,
        lambda_table=lambda_table,
        hyper_enc=hyper_enc,
        hyper_dec=hyper_dec,
        z_prior=z_prior,
        lambda_set=tuple(float(v) for v in lambda_set),
        latent_channels=latent_channels,
        downsample_factor=downsample_factor,
        hyper_channels=hyper_channels,
    )


def load_autoencoder(path) -> AutoencoderWeights:
    named, arch = read_weights(path, AutoencoderWeights, "an auto-encoder")
    lambda_set = named.get("meta.lambda_set")
    if lambda_set is None:
        raise serialize.WeightsFormatError("missing tensor 'meta.lambda_set'")
    c, f, hc = (int(v) for v in arch[:3])
    # Kernels hold c*hc, hc^2, c^2 or 3c floats; a factor 2^(n + 1) has n c^2 ones in analysis and in synthesis.
    n = f.bit_length() - 2
    square = {f"{name}.kernel": (c, c, 5, 5) for i in range(n) for name in (f"analysis.{i + 1}", f"synthesis.{i}")}
    check_arch(named, {"hyper_enc.0.kernel": (hc, c, 3, 3), "hyper_enc.1.kernel": (hc, hc, 5, 5), **square})
    w = init_autoencoder(
        latent_channels=c,
        downsample_factor=f,
        lambda_set=tuple(float(v) for v in lambda_set.reshape(-1)),
        hyper_channels=hc,
        seed=0,
    )
    w.load_named(named)
    return w


# ---------------------------------------------------------------------------
# Forward transforms
# ---------------------------------------------------------------------------


def conditional_scale(features: Tensor, rates: Sequence[RateIndex], layer_id: str,
                      weights: AutoencoderWeights) -> Tensor:
    """Per-channel softplus(scale) * features + bias, batch item k taking the
    pair of ``rates[k]``; a rate no item takes stays out of the graph."""
    if layer_id not in weights.lambda_table:
        raise ConfigError(f"no conditional table for layer '{layer_id}'")
    if len(rates) != features.shape[0]:
        raise ShapeError(f"{len(rates)} rates for a batch of {features.shape[0]}")
    present = sorted({r.index for r in rates})
    rows = [present.index(r.index) for r in rates]
    pairs = [weights.lambda_table[layer_id][j] for j in present]
    gain = expand_params([softplus(scale) for scale, _ in pairs], rows, features)
    return mul(gain, features) + expand_params([bias for _, bias in pairs], rows, features)


def _run_chain(x: Tensor, layers: list[ConvLayer]) -> Tensor:
    """Convolutions with leaky ReLU between them (none after the last)."""
    for i, layer in enumerate(layers):
        if i:
            x = leaky_relu(x, LEAKY_SLOPE)
        x = transpose_conv2d(x, layer) if layer.transpose else conv2d(x, layer)
    return x


def analyze(frame: Tensor, rates: Sequence[RateIndex], weights: AutoencoderWeights) -> Tensor:
    """Frames (b, 3, H, W) in [0, 1] to latents (b, C, H/f, W/f), item k at
    ``rates[k]``."""
    if frame.shape[1] != 3:
        raise ShapeError(f"frames have 3 channels, got {frame.shape[1]}")
    weights.latent_extents(frame.shape[2], frame.shape[3])
    if float(frame.data.min()) < 0.0 or float(frame.data.max()) > 1.0:
        raise ValueError("frame values must lie in [0, 1]")
    x = frame
    for i, layer in enumerate(weights.analysis):
        x = conv2d(x, layer)
        x = leaky_relu(x, LEAKY_SLOPE)
        x = conditional_scale(x, rates, f"analysis.{i}", weights)
    return x


def synthesis_transform(latent: Tensor, rates: Sequence[RateIndex], weights: AutoencoderWeights) -> Tensor:
    """Latents (b, C, h, w) to frames clamped to [0, 1], item k at ``rates[k]``."""
    x = latent
    for i, layer in enumerate(weights.synthesis):
        x = transpose_conv2d(x, layer)
        x = leaky_relu(x, LEAKY_SLOPE)
        x = conditional_scale(x, rates, f"synthesis.{i}", weights)
    return clamp(x, 0.0, 1.0)


def synthesize(latent: np.ndarray, rate: RateIndex, weights: AutoencoderWeights) -> Tensor:
    """Reconstruct a frame from an integer latent plane (C, h, w)."""
    latent = np.asarray(latent)
    if latent.ndim != 3 or latent.shape[0] != weights.latent_channels:
        raise ShapeError(
            f"latent plane must be ({weights.latent_channels}, h, w), got {latent.shape}"
        )
    return synthesis_transform(Tensor(latent[None].astype(np.float32)), [rate], weights)


def hyper_synthesis(z: Tensor, weights: AutoencoderWeights, latent_h: int, latent_w: int) -> tuple[Tensor, Tensor]:
    """Hyper decoder output split into latent means and clamped log scales."""
    return laplace_params(weights.hyper_features(z, latent_h, latent_w), weights.latent_channels)


def laplace_params(out: Tensor, c: int) -> tuple[Tensor, Tensor]:
    """Split 2C channels into C Laplacian means and C clamped log scales."""
    return crop_channels(out, 0, c), clamp(crop_channels(out, c, 2 * c), coder.LOG_SCALE_MIN, coder.LOG_SCALE_MAX)


def crop_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channel slice as a graph operation."""
    y = np.ascontiguousarray(x.data[:, start:stop])

    def bwd(gy):
        g = np.zeros(x.shape, dtype=gy.dtype)
        g[:, start:stop] = gy
        return (g,)

    return _make_node(y, (x,), bwd)


def i_entropy_params(latent_hat: np.ndarray, weights: AutoencoderWeights):
    """Hyper path for one quantized latent plane.

    Returns (mu, log_scale, z_hat, z_bits): the per-symbol Laplacian
    parameters predicted from the quantized hyper latent, the hyper latent
    itself as int32, and its cross entropy under the channel-wise prior.
    """
    latent_hat = np.asarray(latent_hat)
    zt = weights.hyper_latent(Tensor(latent_hat[None].astype(np.float32)))
    mu, log_scale = hyper_synthesis(zt, weights, latent_hat.shape[1], latent_hat.shape[2])
    z_bits = sum_all(weights.z_prior_nll(zt)).item()
    return mu, log_scale, zt.data[0].astype(np.int32), z_bits


# ---------------------------------------------------------------------------
# I-frame coding
# ---------------------------------------------------------------------------


def compress_iframe(frame: np.ndarray, rate: RateIndex, weights: AutoencoderWeights):
    """Code one frame on its own; returns (chunk, latent_hat).

    ``frame`` is (3, H, W) float in [0, 1] with extents divisible by the
    downsampling factor. The latent plane is returned for the GOP buffer.
    """
    frame = np.asarray(frame, dtype=np.float32)
    if frame.ndim != 3:
        raise ShapeError(f"frame must be (3, H, W), got {frame.shape}")
    latent = analyze(Tensor(frame[None]), [rate], weights)
    latent_hat = quantize_round(latent)
    # i_entropy_params without the hyper latent's rate, which coding does not need.
    zt = weights.hyper_latent(Tensor(latent_hat[None].astype(np.float32)))
    mu, log_scale = hyper_synthesis(zt, weights, *latent_hat.shape[1:])
    z_stream = weights.encode_z(zt.data[0].astype(np.int32))
    y_stream = coder.encode_plane(latent_hat, *coder.grid_index(mu.data[0], log_scale.data[0]))
    return FrameChunk(FRAME_I, z_stream, y_stream), latent_hat


def decompress_iframe(chunk: FrameChunk, rate: RateIndex, weights: AutoencoderWeights, latent_shape):
    """Invert :func:`compress_iframe`, y stream capacity first; returns (frame tensor, latent_hat)."""
    c, h, w = latent_shape
    coder.check_capacity(chunk.y_stream, latent_shape)
    z_hat = weights.decode_z(chunk.z_stream, h, w)
    zt = Tensor(z_hat[None].astype(np.float32))
    mu, log_scale = hyper_synthesis(zt, weights, h, w)
    latent_hat = coder.decode_plane(chunk.y_stream, (c, h, w), *coder.grid_index(mu.data[0], log_scale.data[0]))
    return synthesize(latent_hat, rate, weights), latent_hat
