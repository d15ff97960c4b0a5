"""Minimal dense 4-D tensor engine with reverse-mode gradients.

Everything the codec networks need lives here: strided (transpose)
convolutions with zero "same" padding, causal masked convolution, leaky
ReLU, the rate-conditioned scale and shift, channel concatenation,
quantization, the uniform-noise training surrogate, and a handful of
elementwise/reduction helpers used by the loss functions.

Tensors are immutable once produced by an operation, except for gradient
accumulation into ``grad``. Forward evaluation of independent tensors may
run concurrently; accumulation into a single tensor is serialized by the
caller (the trainer runs one backward pass at a time).

Forward/backward math runs in float32 by default; reductions and the
finite-difference oracle accumulate in float64.

Convolutions are matrix products over a column matrix, one per
convolution per pass: conv2d keeps its forward columns (im2col) for the
kernel gradient, transpose_conv2d builds its output gradient's columns
once in backward for both gradients, and the adjoint (col2im, the
transpose forward and conv2d's input gradient) builds its own. All are
tap-major, (b, c*kh*kw, oh*ow): ``kernel @ cols`` is already the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor extents do not satisfy an operation's contract."""


class ConfigError(ValueError):
    """Raised when a layer or model is configured inconsistently."""


def _as4d(data, dtype) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim != 4:
        raise ShapeError(f"tensors are 4-D (batch, channel, height, width); got ndim={arr.ndim}")
    return arr


class Tensor:
    """Dense (batch, channel, height, width) array with an optional grad buffer.

    Operations record their inputs so that :func:`backward` can replay the
    chain rule; tensors created directly are graph leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = _as4d(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return affine(self, float(other), 0.0)

    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        return sum_all(self)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


def _make_node(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        # Constant subgraph: keep the tape empty so inference builds no graph.
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _result_dtype(*tensors: Tensor):
    return np.result_type(*(t.dtype for t in tensors))


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf that requires it with d(loss)/d(leaf).

    ``loss`` must be a single-element tensor produced by recorded
    operations. Gradients accumulate additively across uses of a tensor
    and across repeated backward calls (the optimizer zeroes them).
    Intermediate tensors keep ``grad`` at None: their gradients flow to
    their parents and are dropped, each checked against its tensor's shape
    on the way.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if g.shape != node.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {node.shape}")
        if node._backward_fn is None:
            if node.requires_grad and node.grad is None:
                node.grad = g.astype(node.dtype, copy=True)
            elif node.requires_grad:
                node.grad = node.grad + g.astype(node.dtype, copy=False)
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            pg = np.asarray(pg, dtype=parent.dtype)
            if id(parent) in flowing:
                flowing[id(parent)] = flowing[id(parent)] + pg
            else:
                flowing[id(parent)] = pg


# ---------------------------------------------------------------------------
# Convolution machinery (im2col / col2im)
# ---------------------------------------------------------------------------


def _same_pad(size: int, k: int, stride: int) -> tuple[int, int, int]:
    """Output extent and (lo, hi) zero padding for ceil(size/stride) outputs."""
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    lo = total // 2
    return out, lo, total - lo


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    """Tap-major column matrix (b, c*kh*kw, oh*ow) of a "same"-padded
    convolution over ``x``, taps in (c, kh, kw) order; returns (cols, (oh, ow)).
    A contiguous ``x`` that needs no padding (a 1x1 stride-1 layer) is its own
    columns; any other is copied along output rows, always to C order, since
    the products' bits follow the layout."""
    b, c, h, w = x.shape
    oh, ph_lo, ph_hi = _same_pad(h, kh, stride)
    ow, pw_lo, pw_hi = _same_pad(w, kw, stride)
    xp = x
    if ph_lo or ph_hi or pw_lo or pw_hi:
        xp = np.zeros((b, c, h + ph_lo + ph_hi, w + pw_lo + pw_hi), dtype=x.dtype)
        xp[:, :, ph_lo : ph_lo + h, pw_lo : pw_lo + w] = x
    sb, sc, sh, sw = xp.strides
    # Padding makes every window fit, so the bounds-free view reads only xp.
    win = np.lib.stride_tricks.as_strided(
        xp, (b, c, kh, kw, oh, ow), (sb, sc, sh, sw, sh * stride, sw * stride), writeable=False
    )
    return np.ascontiguousarray(win.reshape(b, c * kh * kw, oh * ow)), (oh, ow)


def _conv_fwd(cols: np.ndarray, kernel: np.ndarray, oh: int, ow: int) -> np.ndarray:
    co = kernel.shape[0]
    return (kernel.reshape(co, -1) @ cols).reshape(cols.shape[0], co, oh, ow)


def _conv_grad_kernel(cols: np.ndarray, gy: np.ndarray, kernel_shape) -> np.ndarray:
    # One (co, c*kh*kw) product per batch item, the columns read transposed in place, summed in batch order.
    gm = gy.reshape(gy.shape[0], kernel_shape[0], -1)
    return (gm @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel_shape)


def _conv_grad_input(gy: np.ndarray, kernel: np.ndarray, stride: int, x_shape) -> np.ndarray:
    """Adjoint of a "same"-padded strided convolution (col2im): maps ``gy``
    (b, co, oh, ow) onto an input of ``x_shape`` (b, ci, h, w).

    It is transpose_conv2d's forward (image synthesis and both hyper
    decoders) and conv2d's input gradient (training). The padded input is
    kept as s*s row-contiguous phase planes of wq = ow + ceil(kw/s) - 1
    columns, one per (row, column) offset modulo the stride s. Tap (i, j) =
    (s*a + py, s*b + px) lands on plane (py, px) shifted by (a, b), so with
    ``gy``'s rows zero-padded to wq columns its tap-major columns
    ``km.T @ gy`` (b, ci, kh, kw, oh*wq) are added as one block per offset
    (a, b): its up to s*s taps, one per plane, each a contiguous run at
    a*wq + b (9 adds for a 5x5 stride-2 kernel, not 25). One interleaving
    copy and the crop finish it. Every element gets the same tap products
    in the same (i, j) order from a +0 start as with one strided add per tap
    over an (oh, ow) plane, and the padded columns add only +-0, so the bits
    are the same; tests/test_tensor.py pins them against the position-major
    helper at one and at two BLAS threads.
    """
    b, ci, h, w = x_shape
    co, _, kh, kw = kernel.shape
    oh, ph_lo, ph_hi = _same_pad(h, kh, stride)
    ow, pw_lo, pw_hi = _same_pad(w, kw, stride)
    if gy.shape != (b, co, oh, ow):
        raise ShapeError(f"conv adjoint expects gradient shape {(b, co, oh, ow)}, got {gy.shape}")
    km = kernel.reshape(co, ci * kh * kw)
    if kh == kw == stride == 1:  # the product is the result; + 0 turns -0 into +0, as a +0 start does
        gx = (km.T @ gy.reshape(b, co, oh * ow)).astype(gy.dtype, copy=False)
        gx += 0
        return gx.reshape(x_shape)
    s = stride
    rq, wq = oh - 1 - (-kh // s), ow - 1 - (-kw // s)
    if wq > ow and oh > 1:  # one row needs no padding: a 1x1 gy stays a matrix-vector product
        gyq = np.zeros((b, co, oh, wq), dtype=gy.dtype)
        gyq[..., :ow] = gy
        gy = gyq
    gcols = (km.T @ gy.reshape(b, co, -1)).reshape(b, ci, kh, kw, -1)
    n = (oh - 1) * wq + ow  # the last row's padded columns add nothing
    planes = np.zeros((b, ci, s, s, rq * wq), dtype=gy.dtype)
    for a in range(-(-kh // s)):
        for c in range(-(-kw // s)):
            at = a * wq + c
            block = gcols[:, :, s * a : s * a + s, s * c : s * c + s, :n]
            planes[:, :, : block.shape[2], : block.shape[3], at : at + n] += block
    planes = planes.reshape(b, ci, s, s, rq, wq)
    if s == 1:
        return planes[:, :, 0, 0, ph_lo : ph_lo + h, pw_lo : pw_lo + w]
    gx = np.empty(x_shape, dtype=planes.dtype)
    for y in range(s):  # output row y + s*t is padded row y + ph_lo + s*t
        py, r0 = (y + ph_lo) % s, (y + ph_lo) // s
        for x in range(s):
            px, c0 = (x + pw_lo) % s, (x + pw_lo) // s
            phase = gx[:, :, y::s, x::s]
            phase[...] = planes[:, :, py, px, r0 : r0 + phase.shape[2], c0 : c0 + phase.shape[3]]
    return gx


@dataclass
class ConvLayer:
    """One (transpose) convolution: kernel, per-output-channel bias, stride.

    ``kernel`` is stored in forward-convolution orientation
    (conv_out, conv_in, kh, kw). For ``transpose=True`` the layer computes
    the adjoint map, so its input channels are ``kernel.shape[0]`` and its
    output channels are ``kernel.shape[1]``; the bias always matches the
    layer's own output channel count. ``mask``, when present, is a binary
    (kh, kw) array applied multiplicatively to the kernel.
    """

    kernel: Tensor
    bias: Tensor
    stride: int = 1
    transpose: bool = False
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kernel.data.ndim != 4:
            raise ConfigError("kernel must be 4-D (out_ch, in_ch, kh, kw)")
        kh, kw = self.kernel.shape[2:]
        if self.stride < 1:
            raise ConfigError(f"stride must be positive, got {self.stride}")
        if self.stride == 1 and (kh % 2 == 0 or kw % 2 == 0):
            raise ConfigError(f"stride-1 kernels need odd spatial extents for symmetric padding, got {kh}x{kw}")
        if self.mask is not None:
            if self.mask.shape != (kh, kw):
                raise ConfigError(f"mask shape {self.mask.shape} does not match kernel {kh}x{kw}")
            if not np.isin(self.mask, (0, 1)).all():
                raise ConfigError("mask must be binary")
        if self.bias.shape != (1, self.out_channels, 1, 1):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match output channels {self.out_channels}"
            )

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[0] if self.transpose else self.kernel.shape[1]

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[1] if self.transpose else self.kernel.shape[0]

    def parameters(self) -> list[Tensor]:
        return [self.kernel, self.bias]


def causal_mask(kh: int, kw: int) -> np.ndarray:
    """Binary mask passing only positions strictly before the kernel center
    in raster order (the center itself is zeroed)."""
    mask = np.zeros((kh, kw), dtype=np.float32)
    cr, cc = kh // 2, kw // 2
    mask[:cr, :] = 1.0
    mask[cr, :cc] = 1.0
    return mask


def conv2d(x: Tensor, layer: ConvLayer) -> Tensor:
    """Strided cross-correlation with zero "same" padding plus bias.

    Output spatial extents are ceil(h/stride) x ceil(w/stride).
    """
    if layer.transpose:
        raise ConfigError("conv2d needs a non-transpose layer")
    if x.shape[1] != layer.in_channels:
        raise ShapeError(f"input channel extent {x.shape[1]} does not match layer in_ch {layer.in_channels}")
    kernel, bias, stride = layer.kernel, layer.bias, layer.stride
    kd = kernel.data if layer.mask is None else kernel.data * layer.mask
    cols, (oh, ow) = _im2col(x.data, *kd.shape[2:], stride)
    y = _conv_fwd(cols, kd, oh, ow)
    y += bias.data
    mask = layer.mask

    def bwd(gy):
        gx = _conv_grad_input(gy, kd, stride, x.shape) if x.requires_grad else None
        if kernel.requires_grad:
            gk = _conv_grad_kernel(cols, gy, kernel.shape)
            if mask is not None:
                gk = gk * mask
        else:
            gk = None
        gb = gy.sum(axis=(0, 2, 3), keepdims=True, dtype=np.float64) if bias.requires_grad else None
        return gx, gk, gb

    return _make_node(y, (x, kernel, bias), bwd)


def masked_conv2d(x: Tensor, layer: ConvLayer) -> Tensor:
    """conv2d with the kernel multiplied by the layer's causal mask.

    With a raster-causal mask, output position i depends only on input
    positions strictly before i.
    """
    if layer.mask is None:
        raise ConfigError("masked_conv2d needs a layer with a mask")
    if layer.stride != 1:
        raise ConfigError("masked convolution is stride-1 only")
    return conv2d(x, layer)


def transpose_conv2d(x: Tensor, layer: ConvLayer) -> Tensor:
    """Adjoint of conv2d with the same kernel and stride, plus bias.

    Output spatial extents are h*stride x w*stride.
    """
    if not layer.transpose:
        raise ConfigError("transpose_conv2d needs a transpose layer")
    if x.shape[1] != layer.in_channels:
        raise ShapeError(f"input channel extent {x.shape[1]} does not match layer in_ch {layer.in_channels}")
    kernel, bias, stride = layer.kernel, layer.bias, layer.stride
    b, _, h, w = x.shape
    out_shape = (b, layer.out_channels, h * stride, w * stride)
    y = _conv_grad_input(x.data, kernel.data, stride, out_shape) + bias.data

    def bwd(gy):
        gx = gk = None
        if x.requires_grad or kernel.requires_grad:
            cols, _ = _im2col(gy, *kernel.shape[2:], stride)
            gx = _conv_fwd(cols, kernel.data, h, w) if x.requires_grad else None
            gk = _conv_grad_kernel(cols, x.data, kernel.shape) if kernel.requires_grad else None
        gb = gy.sum(axis=(0, 2, 3), keepdims=True, dtype=np.float64) if bias.requires_grad else None
        return gx, gk, gb

    return _make_node(y, (x, kernel, bias), bwd)


# ---------------------------------------------------------------------------
# Elementwise and structural operations
# ---------------------------------------------------------------------------


def _leaky(xd: np.ndarray, slope: float) -> np.ndarray:
    """x where x >= 0, slope*x otherwise, for 0 < slope < 1. The rounded
    slope*x lies between 0 and x, so the larger of the two is the selected
    float for every non-NaN x, without a per-element select."""
    if not 0.0 < slope < 1.0:
        raise ConfigError(f"leaky_relu slope must be in (0, 1), got {slope}")
    return np.maximum(xd, xd * xd.dtype.type(slope))


def _leaky_slopes(xd: np.ndarray, slope: float) -> np.ndarray:
    """The leaky ReLU's derivative at ``xd``: slope where x < 0, 1 elsewhere,
    as floats of xd's dtype picked by bit pattern. A gradient times it is,
    bit for bit, the gradient times slope where x < 0 and the gradient
    elsewhere; NumPy's select is several times slower than the integer ops."""
    ints = np.dtype(f"u{xd.itemsize}")
    one, low = (np.array(v, dtype=xd.dtype).view(ints) for v in (1.0, slope))
    bits = (xd < 0).astype(ints)
    bits *= one ^ low
    bits ^= one
    return bits.view(xd.dtype)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """x where x >= 0, slope*x otherwise; slope must lie in (0, 1)."""
    y = _leaky(x.data, slope)

    def bwd(gy):
        return (gy * _leaky_slopes(x.data, slope),)

    return _make_node(y, (x,), bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis; ``a`` occupies the leading channels."""
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"batch/spatial extents differ: {a.shape} vs {b.shape}")
    ca = a.shape[1]
    y = np.concatenate([a.data, b.data], axis=1)

    def bwd(gy):
        return gy[:, :ca], gy[:, ca:]

    return _make_node(y, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} vs {b.shape}")

    def bwd(gy):
        return gy, gy

    return _make_node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub needs matching shapes, got {a.shape} vs {b.shape}")

    def bwd(gy):
        return gy, -gy

    return _make_node(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul needs matching shapes, got {a.shape} vs {b.shape}")

    def bwd(gy):
        return gy * b.data, gy * a.data

    return _make_node(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"div needs matching shapes, got {a.shape} vs {b.shape}")
    y = a.data / b.data

    def bwd(gy):
        return gy / b.data, -gy * y / b.data

    return _make_node(y, (a, b), bwd)


def affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """scale*x + shift with scalar constants."""
    dt = x.dtype.type

    def bwd(gy):
        return (gy * scale,)

    return _make_node(x.data * dt(scale) + dt(shift), (x,), bwd)


def _softplus(xd: np.ndarray) -> np.ndarray:
    return (np.maximum(xd, 0) + np.log1p(np.exp(-np.abs(xd)))).astype(xd.dtype, copy=False)


def _sigmoid(xd: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-xd))


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed stably."""
    xd = x.data

    def bwd(gy):
        return (gy * _sigmoid(xd),)

    return _make_node(_softplus(xd), (x,), bwd)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes through the closed interval."""
    inside = (x.data >= lo) & (x.data <= hi)
    y = np.clip(x.data, lo, hi)

    def bwd(gy):
        return (np.where(inside, gy, 0),)

    return _make_node(y, (x,), bwd)


def powp(x: Tensor, p: float) -> Tensor:
    """Elementwise x**p for strictly positive x."""
    y = np.power(x.data, p)

    def bwd(gy):
        return (gy * p * np.power(x.data, p - 1.0),)

    return _make_node(y.astype(x.dtype, copy=False), (x,), bwd)


def _check_param(p: Tensor, channels: int) -> None:
    if p.shape[0] != 1 or p.shape[2] != 1 or p.shape[3] != 1:
        raise ShapeError(f"per-channel parameters are (1, C, 1, 1), got {p.shape}")
    if p.shape[1] != channels:
        raise ShapeError(f"channel extent {p.shape[1]} does not match target {channels}")


def _row_sum(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """float64 (1, C, 1, 1) sum of ``g`` over its batch items ``rows`` (a mask)
    and its spatial extents."""
    return (g if rows.all() else g[rows]).sum(axis=(0, 2, 3), keepdims=True, dtype=np.float64)


def expand_param(p: Tensor, like: Tensor) -> Tensor:
    """Broadcast a (1, C, 1, 1) parameter to the shape of ``like``."""
    _check_param(p, like.shape[1])
    y = np.empty(like.shape, dtype=p.dtype)
    y[...] = p.data

    def bwd(gy):
        return (gy.sum(axis=(0, 2, 3), keepdims=True, dtype=np.float64),)

    return _make_node(y, (p,), bwd)


def conditional_affine(x: Tensor, scales: Sequence[Tensor], biases: Sequence[Tensor], index: Sequence[int],
                       slope: Optional[float] = None) -> Tensor:
    """softplus(scales[j]) * f(x) + biases[j] on batch item k, j = index[k],
    as one graph node; f is leaky_relu(., slope), or the identity when
    ``slope`` is None. Scales and biases are (1, C, 1, 1), and each item's
    pair is broadcast, not expanded.

    The floats are those of the chain leaky_relu, softplus, an expanded
    gain times f(x), plus an expanded bias, in its order: each parameter's
    gradient sums its own items' products in float64, the scale's is cast
    to the scale's dtype before the softplus derivative scales it, and a
    pair no item takes gets no gradient.
    """
    if len(scales) != len(biases):
        raise ShapeError(f"{len(scales)} scales for {len(biases)} biases")
    for p in (*scales, *biases):
        _check_param(p, x.shape[1])
    if len(index) != x.shape[0]:
        raise ShapeError(f"{len(index)} parameter indices for a batch of {x.shape[0]}")
    feat = x.data if slope is None else _leaky(x.data, slope)
    gains = [_softplus(s.data) for s in scales]
    gain = np.concatenate([gains[j] for j in index])
    y = feat * gain
    y += np.concatenate([biases[j].data for j in index])
    index = np.asarray(index)

    def bwd(gy):
        gx = None
        if x.requires_grad:
            gx = (gy * gain).astype(feat.dtype, copy=False)
            if slope is not None:
                gx *= _leaky_slopes(x.data, slope)
        gs, gb = [None] * len(scales), [None] * len(biases)
        gf = gy * feat if any(s.requires_grad for s in scales) else None
        for j in np.unique(index):
            rows = index == j
            if scales[j].requires_grad:
                gs[j] = _row_sum(gf, rows).astype(scales[j].dtype) * _sigmoid(scales[j].data)
            if biases[j].requires_grad:
                gb[j] = _row_sum(gy, rows)
        return (gx, *gs, *gb)

    return _make_node(y, (x, *scales, *biases), bwd)


def crop_hw(x: Tensor, h: int, w: int) -> Tensor:
    """Keep the top-left h x w spatial window."""
    if h > x.shape[2] or w > x.shape[3]:
        raise ShapeError(f"cannot crop {x.shape[2]}x{x.shape[3]} to {h}x{w}")
    y = np.ascontiguousarray(x.data[:, :, :h, :w])

    def bwd(gy):
        g = np.zeros(x.shape, dtype=gy.dtype)
        g[:, :, :h, :w] = gy
        return (g,)

    return _make_node(y, (x,), bwd)


def take_rows(x: Tensor, rows) -> Tensor:
    """Batch items ``rows`` (distinct indices) of ``x``, in that order."""
    rows = np.asarray(rows)

    def bwd(gy):
        g = np.zeros(x.shape, dtype=gy.dtype)
        g[rows] = gy
        return (g,)

    return _make_node(x.data[rows], (x,), bwd)


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2; trailing odd rows/columns drop."""
    b, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    if oh == 0 or ow == 0:
        raise ShapeError(f"spatial extents {h}x{w} too small for 2x2 pooling")
    v = x.data[:, :, : oh * 2, : ow * 2].reshape(b, c, oh, 2, ow, 2)
    y = v.mean(axis=(3, 5))

    def bwd(gy):
        g = np.zeros(x.shape, dtype=gy.dtype)
        g[:, :, : oh * 2, : ow * 2] = np.repeat(np.repeat(gy, 2, axis=2), 2, axis=3) * 0.25
        return (g,)

    return _make_node(y.astype(x.dtype, copy=False), (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a (1, 1, 1, 1) tensor; float64 accumulation."""
    y = np.array(x.data.sum(dtype=np.float64), dtype=x.dtype).reshape(1, 1, 1, 1)

    def bwd(gy):
        return (np.full(x.shape, gy.reshape(()), dtype=x.dtype),)

    return _make_node(y, (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    return affine(sum_all(x), 1.0 / x.data.size, 0.0)


# ---------------------------------------------------------------------------
# Quantization and its training surrogate
# ---------------------------------------------------------------------------


def quantize_round(x: Tensor) -> np.ndarray:
    """Round half away from zero to an int32 latent plane (channels, h, w).

    The batch extent must be 1; rounding is symmetric around zero to match
    the signed distribution of residual latents.
    """
    if x.shape[0] != 1:
        raise ShapeError(f"quantize_round expects batch extent 1, got {x.shape[0]}")
    return round_half_away(x.data[0])


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Array version of the codec rounding rule; rejects non-finite values
    and values that round outside int32."""
    d = np.asarray(values, dtype=np.float64)
    if not np.isfinite(d).all():
        raise ValueError("rounding needs finite values")
    d = np.trunc(d + np.copysign(0.5, d))
    if d.size and (d.min() < -(1 << 31) or d.max() >= 1 << 31):
        raise ValueError("rounded value outside int32")
    return d.astype(np.int32)


def add_uniform_noise(x: Tensor, rng_seed: int) -> Tensor:
    """Add i.i.d. uniform noise on [-0.5, 0.5); deterministic given the seed."""
    return add_row_noise(x, [rng_seed] * x.shape[0])


def add_row_noise(x: Tensor, seeds: Sequence[int]) -> Tensor:
    """Add i.i.d. uniform noise on [-0.5, 0.5), batch item k's drawn from
    ``seeds[k]``. The items that share a seed take one draw in batch order,
    so their noise does not depend on the other items in the batch."""
    if len(seeds) != x.shape[0]:
        raise ShapeError(f"{len(seeds)} noise seeds for a batch of {x.shape[0]}")
    u = np.empty(x.shape, dtype=x.dtype)
    for seed in dict.fromkeys(seeds):
        rows = [k for k, s in enumerate(seeds) if s == seed]
        rng = np.random.default_rng(seed)
        u[rows] = (rng.random((len(rows),) + x.shape[1:], dtype=np.float64) - 0.5).astype(x.dtype)

    def bwd(gy):
        return (gy,)

    return _make_node(x.data + u, (x,), bwd)


# ---------------------------------------------------------------------------
# Laplacian interval negative log-likelihood
# ---------------------------------------------------------------------------


def laplace_nll_bits(value: Tensor, mu: Tensor, log_scale: Tensor) -> Tensor:
    """Elementwise -log2 of the Laplacian mass on [value-0.5, value+0.5].

    The distribution has mean ``mu`` and scale ``exp(log_scale)``.
    Differentiable in all three inputs; internals run in float64 and use
    log-domain tail formulas so extreme scales stay finite.
    """
    if value.shape != mu.shape or value.shape != log_scale.shape:
        raise ShapeError(
            f"laplace_nll_bits needs matching shapes, got {value.shape}, {mu.shape}, {log_scale.shape}"
        )
    v = value.data.astype(np.float64)
    m = mu.data.astype(np.float64)
    s = log_scale.data.astype(np.float64)
    b = np.exp(s)
    d = v - m
    a = np.abs(d)
    tail = a >= 0.5

    # Tail: log p = log(1/2) - (a - 1/2)/b + log(1 - e^{-1/b})
    w = np.exp(-1.0 / b)
    log1mw = np.log1p(-w)
    logp_tail = np.log(0.5) - (a - 0.5) / b + log1mw

    # Center: p = -1/2 (expm1(-(1/2 - d)/b) + expm1(-(1/2 + d)/b)).
    # d is pinned to the center interval so the unused branch cannot overflow.
    dc = np.clip(d, -0.5, 0.5)
    p_center = -0.5 * (np.expm1(-(0.5 - dc) / b) + np.expm1(-(0.5 + dc) / b))
    p_center = np.maximum(p_center, 1e-300)

    inv_ln2 = 1.0 / np.log(2.0)
    bits = np.where(tail, -logp_tail * inv_ln2, -np.log(p_center) * inv_ln2)
    out_dtype = _result_dtype(value, mu, log_scale)

    def bwd(gy):
        # d(log p)/d(d) and d(log p)/d(log_scale), split by case; built only
        # when a gradient flows, so untaped calls pay for the bits alone.
        e1 = np.exp(-(0.5 - dc) / b)
        e2 = np.exp(-(0.5 + dc) / b)
        dlogp_dd = np.where(tail, -np.sign(d) / b, -0.5 * (e1 - e2) / (b * p_center))
        dlogp_ds = np.where(
            tail,
            (a - 0.5) / b - w / (b * (1.0 - w)),
            -0.5 * (e1 * (0.5 - dc) + e2 * (0.5 + dc)) / (b * p_center),
        )
        g = gy.astype(np.float64) * (-inv_ln2)
        gv = g * dlogp_dd if value.requires_grad else None
        gm = -g * dlogp_dd if mu.requires_grad else None
        gs = g * dlogp_ds if log_scale.requires_grad else None
        return gv, gm, gs

    return _make_node(bits.astype(out_dtype), (value, mu, log_scale), bwd)


# ---------------------------------------------------------------------------
# Gradient verification oracle
# ---------------------------------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-3) -> float:
    """Max relative disagreement between backward() and central differences.

    ``f`` maps a tensor to a scalar tensor. Both sides are evaluated in
    float64; the relative error for each element is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise ValueError("finite_diff_check needs h > 0")
    base = x.data.astype(np.float64)

    probe = Tensor(base.copy(), requires_grad=True, dtype=np.float64)
    backward(f(probe))
    analytic = probe.grad.astype(np.float64)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(Tensor(base, dtype=np.float64)).item()
        flat[i] = orig - h
        lo = f(Tensor(base, dtype=np.float64)).item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
