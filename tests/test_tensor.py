import hashlib
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from mfvc.tensor import (
    ConfigError,
    ConvLayer,
    ShapeError,
    Tensor,
    _make_node,
    add_row_noise,
    add_uniform_noise,
    affine,
    avg_pool2,
    backward,
    causal_mask,
    clamp,
    concat_channels,
    conditional_affine,
    conv2d,
    crop_hw,
    div,
    expand_param,
    finite_diff_check,
    laplace_nll_bits,
    leaky_relu,
    masked_conv2d,
    mul,
    powp,
    quantize_round,
    round_half_away,
    softplus,
    sub,
    sum_all,
    take_rows,
    transpose_conv2d,
)


def make_layer(kernel, bias=None, stride=1, transpose=False, mask=None, grad=False):
    kernel = np.asarray(kernel, dtype=np.float32)
    out_ch = kernel.shape[1] if transpose else kernel.shape[0]
    if bias is None:
        bias = np.zeros((1, out_ch, 1, 1), dtype=np.float32)
    else:
        bias = np.asarray(bias, dtype=np.float32).reshape(1, out_ch, 1, 1)
    return ConvLayer(
        kernel=Tensor(kernel, requires_grad=grad),
        bias=Tensor(bias, requires_grad=grad),
        stride=stride,
        transpose=transpose,
        mask=mask,
    )


def ref_conv2d(x, kernel, bias, stride):
    """Scalar nested-loop cross-correlation with zero 'same' padding."""
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    oh = -(-h // stride)
    ow = -(-w // stride)
    ph = max((oh - 1) * stride + kh - h, 0) // 2
    pw = max((ow - 1) * stride + kw - w, 0) // 2
    out = np.zeros((b, co, oh, ow), dtype=np.float64)
    for bi in range(b):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = float(bias[o])
                    for i in range(ci):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - ph
                                ix = ox * stride + kx - pw
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += float(x[bi, i, iy, ix]) * float(kernel[o, i, ky, kx])
                    out[bi, o, oy, ox] = acc
    return out


class TestConv2d:
    def test_all_ones_center(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        layer = make_layer(np.ones((1, 1, 3, 3)))
        y = conv2d(x, layer)
        assert y.data[0, 0, 1, 1] == pytest.approx(9.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 5, 7)).astype(np.float32))
        k = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            k[c, c, 1, 1] = 1.0
        y = conv2d(x, make_layer(k))
        np.testing.assert_array_equal(y.data, x.data)

    def test_stride2_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        k = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        y = conv2d(Tensor(x), make_layer(k, stride=2))
        assert y.shape == (1, 1, 2, 2)
        expected = ref_conv2d(x, k, np.zeros(1), stride=2)
        np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_multichannel_matches_scalar_reference(self, stride):
        rng = np.random.default_rng(stride)
        x = rng.normal(size=(2, 3, 6, 5)).astype(np.float32)
        k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        y = conv2d(Tensor(x), make_layer(k, bias=bias, stride=stride))
        expected = ref_conv2d(x, k, bias, stride)
        np.testing.assert_allclose(y.data, expected, rtol=1e-4, atol=1e-5)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        layer = make_layer(np.ones((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, layer)

    def test_even_kernel_at_stride1_rejected(self):
        with pytest.raises(ConfigError):
            make_layer(np.ones((1, 1, 2, 2)), stride=1)


# Reference convolution helpers, built the plain way: every convolution pads
# its input and copies its column matrix anew in forward and again in
# backward. The columns are tap-major, (b, c*kh*kw, oh*ow), as in the
# package, and the forward and kernel-gradient products are the package's
# tap-major products; the adjoint is the position-major one the package had
# before it built its columns tap-major, kept verbatim. The package's
# shared, uncopied and unpadded columns must give the same floats, bit for
# bit. Position-major forward columns (``cols @ km.T``) differ from these
# in the last bit for some planes of at most 256 output positions.
def _ref_same_pad(size, k, stride):
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    lo = total // 2
    return out, lo, total - lo


def _ref_im2col(x, kh, kw, stride):
    b, c, h, w = x.shape
    oh, ph_lo, ph_hi = _ref_same_pad(h, kh, stride)
    ow, pw_lo, pw_hi = _ref_same_pad(w, kw, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (ph_lo, ph_hi), (pw_lo, pw_hi)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (b, c, oh, ow, kh, kw)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), (oh, ow), (ph_lo, ph_hi, pw_lo, pw_hi)


def _ref_conv_fwd(x, kernel, stride):
    co, ci, kh, kw = kernel.shape
    cols, (oh, ow), _ = _ref_im2col(x, kh, kw, stride)
    km = kernel.reshape(co, ci * kh * kw)
    return (km @ cols).reshape(x.shape[0], co, oh, ow)


def _ref_conv_grad_kernel(x, gy, kernel_shape, stride):
    co, ci, kh, kw = kernel_shape
    cols, (oh, ow), _ = _ref_im2col(x, kh, kw, stride)
    gm = gy.reshape(gy.shape[0], co, oh * ow)
    # Sum over positions per batch item, (co, ci*kh*kw) each, then over the batch.
    return (gm @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(co, ci, kh, kw)


def _ref_conv_grad_input(gy, kernel, stride, x_shape):
    b, ci, h, w = x_shape
    co, _, kh, kw = kernel.shape
    oh, ph_lo, ph_hi = _ref_same_pad(h, kh, stride)
    ow, pw_lo, pw_hi = _ref_same_pad(w, kw, stride)
    km = kernel.reshape(co, ci * kh * kw)
    gcols = gy.reshape(b, co, oh * ow).transpose(0, 2, 1) @ km  # (b, oh*ow, ci*kh*kw)
    gcols = gcols.reshape(b, oh, ow, ci, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros((b, ci, h + ph_lo + ph_hi, w + pw_lo + pw_hi), dtype=gy.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += gcols[:, :, i, j]
    return gxp[:, :, ph_lo : ph_lo + h, pw_lo : pw_lo + w]


def _forward_and_grads(op, x, layer, gy):
    """Output, input gradient and kernel gradient of ``op`` when the output
    gradient is ``gy`` (the loss sum(y * gy) passes it on exactly)."""
    xt = Tensor(x, requires_grad=True)
    y = op(xt, layer)
    backward(sum_all(mul(y, Tensor(gy))))
    return y.data, xt.grad, layer.kernel.grad


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


# Batch 1 and 2, one to 16 input channels, one to 32 output channels, kernel
# extents 1, 3 and 5 at strides 1 and 2, a 1x1 plane up to 16x16, one-row
# and one-column planes and odd 13x17 extents; plus the bench model's
# largest training layers, its two synthesis layers (16 -> 16 channels at
# 64x64 -> 128x128, 16 -> 3 at 128x128 -> 256x256) and its 13-channel hyper
# decoder layer at the sizes a 256x256 decode runs them, a 1x1 stride-1 and
# a 3x3 stride-2 layer at 64x64, even and stride-3 kernels at odd extents,
# 1x1 planes summing 4 channels, where a matrix-vector product and a
# matrix product of the same sums differ in bits on the installed OpenBLAS,
# and the widest adjoint sum: a 1x1 layer with 1,600 output channels, the
# full-size entropy model's first layer. The adjoint adds the taps of one
# (row, column) offset block at once, so the grid also holds the shapes
# where blocks are ragged or stacked: the 13-channel 5x5 stride-2 hyper
# decoder layers at 2x2 and 4x4 inputs in batches of 3 (a three-GOP
# lockstep step) and 4 (a training batch), the 3x3 output layer after them
# at batch 3, a 7x7 stride-3 and a 4x4 stride-2 kernel at 13x17.
_GRID = [
    (b, ci, co, k, s, hw)
    for b in (1, 2)
    for ci in (1, 3, 16)
    for co in (1, 5, 32)
    for k in (1, 3, 5)
    for s in (1, 2)
    for hw in ((1, 1), (1, 7), (7, 1), (3, 5), (8, 8), (13, 17), (16, 16))
] + [
    (4, 96, 80, 1, 1, (8, 8)), (4, 27, 32, 5, 1, (8, 8)), (4, 3, 16, 5, 2, (32, 32)), (4, 16, 16, 5, 2, (16, 16)),
    (1, 3, 16, 5, 2, (128, 128)), (1, 16, 16, 5, 2, (64, 64)), (1, 13, 13, 5, 2, (16, 16)), (1, 1920, 1600, 1, 1, (4, 4)),
    (1, 16, 16, 1, 1, (64, 64)), (1, 16, 16, 3, 2, (64, 64)),
    (2, 5, 7, 2, 2, (13, 17)), (2, 5, 7, 4, 2, (13, 17)), (2, 4, 6, 5, 3, (13, 17)), (1, 4, 6, 3, 3, (1, 7)),
    (1, 3, 4, 3, 1, (1, 1)), (1, 16, 4, 5, 2, (1, 1)), (2, 3, 4, 3, 2, (1, 1)),
    (3, 13, 13, 5, 2, (2, 2)), (3, 13, 13, 5, 2, (4, 4)), (4, 13, 13, 5, 2, (2, 2)), (4, 13, 13, 5, 2, (4, 4)),
    (3, 13, 32, 3, 1, (8, 8)), (2, 4, 6, 7, 3, (13, 17)), (1, 6, 4, 4, 2, (13, 17)),
]


class TestConvBitsMatchReference:
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["conv", "masked", "tconv"])
    def test_forward_and_gradients_bit_identical(self, kind, batch):
        rng = np.random.default_rng(batch)
        cases = 0
        for b, ci, co, k, s, (h, w) in _GRID:
            if b != batch or (kind == "masked" and (s != 1 or k == 1)):
                continue
            kernel = rng.normal(size=(co, ci, k, k)).astype(np.float32)
            bias = rng.normal(size=(1, ci if kind == "tconv" else co, 1, 1)).astype(np.float32)
            if kind == "tconv":
                # The adjoint of a (co, ci) convolution maps co channels to ci.
                x = rng.normal(size=(b, co, h, w)).astype(np.float32)
                layer = make_layer(kernel, bias, stride=s, transpose=True, grad=True)
                y_shape = (b, ci, h * s, w * s)
                gy = rng.normal(size=y_shape).astype(np.float32)
                got = _forward_and_grads(transpose_conv2d, x, layer, gy)
                want = (
                    _ref_conv_grad_input(x, kernel, s, y_shape) + bias,
                    _ref_conv_fwd(gy, kernel, s),
                    _ref_conv_grad_kernel(gy, x, kernel.shape, s),
                )
            else:
                x = rng.normal(size=(b, ci, h, w)).astype(np.float32)
                mask = causal_mask(k, k) if kind == "masked" else None
                kd = kernel if mask is None else kernel * mask
                layer = make_layer(kernel, bias, stride=s, mask=mask, grad=True)
                gy = rng.normal(size=(b, co, -(-h // s), -(-w // s))).astype(np.float32)
                got = _forward_and_grads(conv2d, x, layer, gy)
                gk = _ref_conv_grad_kernel(x, gy, kernel.shape, s)
                want = (
                    _ref_conv_fwd(x, kd, s) + bias,
                    _ref_conv_grad_input(gy, kd, s, x.shape),
                    gk if mask is None else gk * mask,
                )
            for name, g, r in zip(("output", "input gradient", "kernel gradient"), got, want):
                assert g.shape == r.shape and g.dtype == r.dtype == np.float32, (name, b, ci, co, k, s, h, w)
                np.testing.assert_array_equal(_bits(g), _bits(r), err_msg=f"{name} at {(b, ci, co, k, s, h, w)}")
            cases += 1
        assert cases


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS's order


def _session_blas_threads() -> int:
    """OpenBLAS's pool size in this process: the first positive count among
    the variables it reads, capped at the cores it may run on."""
    cores = len(os.sched_getaffinity(0))
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), cores)
    return cores


class TestConvBitsAtOtherThreadCount:
    def test_reference_bits_hold_at_the_other_blas_thread_count(self):
        # BLAS splits a product's work by thread count, so the bits above are
        # checked again in a fresh process at one thread, or at two when this
        # one runs at one.
        threads = 1 if _session_blas_threads() > 1 else 2
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), **{var: str(threads) for var in _BLAS_THREAD_VARS})
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               f"{Path(__file__).resolve()}::TestConvBitsMatchReference"]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
        assert "12 passed" in proc.stdout, proc.stdout[-2000:]


class TestTransposeConv2d:
    def test_stride1_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        k = np.zeros((2, 2, 3, 3), dtype=np.float32)
        for c in range(2):
            k[c, c, 1, 1] = 1.0
        y = transpose_conv2d(x, make_layer(k, transpose=True))
        np.testing.assert_allclose(y.data, x.data, atol=1e-7)

    def test_stride2_spreading(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        y = transpose_conv2d(x, make_layer(np.ones((1, 1, 2, 2)), stride=2, transpose=True))
        assert y.shape == (1, 1, 4, 4)
        expected = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
        np.testing.assert_array_equal(y.data, expected)

    def test_zero_input_gives_bias(self):
        layer = make_layer(np.ones((2, 3, 5, 5)), bias=[1.0, -2.0, 0.5], stride=2, transpose=True)
        y = transpose_conv2d(Tensor(np.zeros((1, 2, 3, 3))), layer)
        assert y.shape == (1, 3, 6, 6)
        np.testing.assert_array_equal(y.data[0, 0], np.full((6, 6), 1.0))
        np.testing.assert_array_equal(y.data[0, 1], np.full((6, 6), -2.0))

    @pytest.mark.parametrize("stride,size", [(1, 5), (2, 3), (2, 4)])
    def test_adjoint_identity(self, stride, size):
        # <conv(a), b> == <a, tconv(b)> for zero-bias layers.
        rng = np.random.default_rng(10 * stride + size)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        a = rng.normal(size=(1, 2, size * stride, size * stride)).astype(np.float32)
        conv_out = conv2d(Tensor(a), make_layer(k, stride=stride)).data
        b = rng.normal(size=conv_out.shape).astype(np.float32)
        t_out = transpose_conv2d(Tensor(b), make_layer(k, stride=stride, transpose=True)).data
        lhs = float((conv_out.astype(np.float64) * b).sum())
        rhs = float((a.astype(np.float64) * t_out).sum())
        bound = 1e-4 * np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(lhs - rhs) <= bound


class TestMaskedConv2d:
    def test_first_position_is_bias(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
        layer = make_layer(
            np.ones((3, 2, 3, 3)), bias=[0.25, -1.0, 2.0], mask=causal_mask(3, 3)
        )
        y = masked_conv2d(x, layer)
        np.testing.assert_allclose(y.data[0, :, 0, 0], [0.25, -1.0, 2.0], atol=1e-7)

    def test_causality_exhaustive_8x8(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
        layer = make_layer(
            rng.normal(size=(1, 1, 5, 5)).astype(np.float32),
            bias=[0.3],
            mask=causal_mask(5, 5),
        )
        y0 = masked_conv2d(Tensor(base), layer).data[0, 0]
        for j in range(64):
            r, c = divmod(j, 8)
            bumped = base.copy()
            bumped[0, 0, r, c] += 7.5
            y1 = masked_conv2d(Tensor(bumped), layer).data[0, 0]
            flat0 = y0.reshape(-1)[: j + 1]
            flat1 = y1.reshape(-1)[: j + 1]
            np.testing.assert_array_equal(flat0, flat1)

    def test_5x5_mask_has_12_ones(self):
        m = causal_mask(5, 5)
        # Independent count: positions (r, c) with r < 2 or (r == 2 and c < 2).
        expected = sum(1 for r in range(5) for c in range(5) if r < 2 or (r == 2 and c < 2))
        assert expected == 12
        assert int(m.sum()) == 12
        assert m[2, 2] == 0

    def test_missing_mask_rejected(self):
        layer = make_layer(np.ones((1, 1, 3, 3)))
        with pytest.raises(ConfigError, match="mask"):
            masked_conv2d(Tensor(np.zeros((1, 1, 4, 4))), layer)

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ConfigError, match="binary"):
            make_layer(np.ones((1, 1, 3, 3)), mask=np.full((3, 3), 0.5, dtype=np.float32))


class TestElementwise:
    def test_leaky_relu_negative(self):
        y = leaky_relu(Tensor(np.full((1, 1, 1, 1), -1.0)), slope=0.2)
        assert y.item() == pytest.approx(-0.2)

    def test_leaky_relu_nonnegative_unchanged(self):
        x = np.abs(np.random.default_rng(5).normal(size=(1, 2, 3, 3))).astype(np.float32)
        y = leaky_relu(Tensor(x))
        np.testing.assert_array_equal(y.data, x)

    def test_leaky_relu_monotone(self):
        xs = np.linspace(-3, 3, 101, dtype=np.float32).reshape(1, 1, 1, 101)
        y = leaky_relu(Tensor(xs), slope=0.3).data.reshape(-1)
        assert (np.diff(y) > 0).all()

    def test_concat_channels(self):
        a = Tensor(np.ones((1, 2, 4, 4)))
        b = Tensor(np.full((1, 3, 4, 4), 2.0))
        y = concat_channels(a, b)
        assert y.shape == (1, 5, 4, 4)
        np.testing.assert_array_equal(y.data[:, :2], a.data)
        np.testing.assert_array_equal(y.data[:, 2:], b.data)

    def test_concat_empty(self):
        a = Tensor(np.ones((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 0, 4, 4)))
        y = concat_channels(a, b)
        np.testing.assert_array_equal(y.data, a.data)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            concat_channels(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 5, 4))))


class TestQuantize:
    def test_rounding_rule(self):
        x = Tensor(np.array([0.49, 0.5, -0.5, 1.49, -1.5, 2.0]).reshape(1, 1, 1, 6))
        np.testing.assert_array_equal(quantize_round(x).reshape(-1), [0, 1, -1, 1, -2, 2])

    def test_integer_input_unchanged(self):
        v = np.arange(-5, 6, dtype=np.float32).reshape(1, 1, 1, 11)
        np.testing.assert_array_equal(quantize_round(Tensor(v)).reshape(-1), v.reshape(-1))

    def test_within_half(self):
        x = np.random.default_rng(6).uniform(-20, 20, size=(1, 4, 8, 8)).astype(np.float32)
        q = quantize_round(Tensor(x))
        assert np.max(np.abs(q - x[0])) <= 0.5

    def test_idempotent(self):
        x = np.random.default_rng(7).uniform(-9, 9, size=(1, 2, 5, 5)).astype(np.float32)
        q1 = quantize_round(Tensor(x))
        q2 = quantize_round(Tensor(q1[None].astype(np.float32)))
        np.testing.assert_array_equal(q1, q2)

    def test_nonfinite_rejected(self):
        bad = np.array([[[[np.inf]]]], dtype=np.float32)
        with pytest.raises(ValueError):
            quantize_round(Tensor(bad))

    def test_int32_limits_kept(self):
        edge = np.array([2**31 - 1.4, -(2**31) - 0.4])
        np.testing.assert_array_equal(round_half_away(edge), [2**31 - 1, -(2**31)])

    @pytest.mark.parametrize("value", [1e10, -3e9, 2.2e9, 2**31 - 0.5, -(2**31) - 0.5])
    def test_beyond_int32_rejected(self, value):
        # Finite but not representable: casting would wrap to the int32 minimum.
        with pytest.raises(ValueError, match="int32"):
            round_half_away(np.array([0.0, value]))


class TestUniformNoise:
    def test_same_seed_identical(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        a = add_uniform_noise(x, 123).data
        b = add_uniform_noise(x, 123).data
        np.testing.assert_array_equal(a, b)

    def test_bounded(self):
        x = Tensor(np.zeros((1, 4, 16, 16)))
        u = add_uniform_noise(x, 9).data
        assert np.max(np.abs(u)) < 0.5

    def test_items_sharing_a_seed_take_one_draw(self):
        u = add_row_noise(Tensor(np.zeros((4, 2, 3, 3))), [5, 7, 5, 5]).data
        np.testing.assert_array_equal(u[[0, 2, 3]], add_uniform_noise(Tensor(np.zeros((3, 2, 3, 3))), 5).data)
        np.testing.assert_array_equal(u[1:2], add_uniform_noise(Tensor(np.zeros((1, 2, 3, 3))), 7).data)
        with pytest.raises(ShapeError, match="3 noise seeds for a batch of 4"):
            add_row_noise(Tensor(np.zeros((4, 1, 1, 1))), [1, 2, 3])

    def test_mean_near_zero(self):
        # Law of large numbers: |mean| < 0.002 is ~3 sigma at 1e6 draws.
        x = Tensor(np.zeros((1, 1, 1000, 1000)))
        u = add_uniform_noise(x, 2024).data
        assert abs(float(u.mean())) < 0.002


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(8).normal(size=(1, 2, 3, 3)), requires_grad=True)
        backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_conv_interior_gradient(self):
        x = Tensor(np.random.default_rng(9).normal(size=(1, 1, 6, 6)), requires_grad=True)
        layer = make_layer(np.ones((1, 1, 3, 3)))
        backward(sum_all(conv2d(x, layer)))
        # Interior elements contribute to all 9 kernel taps.
        np.testing.assert_allclose(x.grad[0, 0, 1:-1, 1:-1], 9.0, atol=1e-6)

    def test_leaky_relu_chain_scales_gradient(self):
        x = Tensor(np.full((1, 1, 1, 1), -2.0), requires_grad=True)
        backward(sum_all(leaky_relu(x, slope=0.2)))
        assert x.grad.reshape(()) == pytest.approx(0.2)

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        backward(sum_all(add := x + x))
        assert add is not None
        assert x.grad.reshape(()) == pytest.approx(2.0)

    def test_backward_on_non_scalar_raises(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x + x)

    def test_only_leaves_keep_gradients(self):
        rng = np.random.default_rng(10)
        layer = make_layer(rng.normal(size=(2, 1, 3, 3)), bias=rng.normal(size=2), stride=2, grad=True)
        pair = [Tensor(rng.normal(size=(1, 2, 1, 1)), requires_grad=True) for _ in range(2)]
        x = Tensor(rng.normal(size=(2, 1, 6, 6)), requires_grad=True)
        y = conditional_affine(conv2d(x, layer), pair[:1], pair[1:], [0, 0], 0.2)
        loss = sum_all(mul(y, softplus(y)))
        backward(loss)
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node._parents)
        leaves = [t for t in nodes if not t._parents]
        assert {id(t) for t in leaves} == {id(t) for t in (x, layer.kernel, layer.bias, *pair)}
        assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)
        assert len(nodes) > len(leaves) and all(t.grad is None for t in nodes if t._parents)

    @pytest.mark.parametrize("parent", ["leaf", "intermediate"])
    def test_a_wrong_shaped_gradient_raises(self, parent):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        below = x if parent == "leaf" else affine(x, 2.0, 0.0)
        bad = _make_node(below.data * 3.0, (below,), lambda gy: (np.ones((1, 1, 3, 3), dtype=gy.dtype),))
        with pytest.raises(ShapeError, match=r"gradient shape \(1, 1, 3, 3\) does not match tensor shape \(1, 1, 2, 2\)"):
            backward(sum_all(bad))
        assert x.grad is None


class TestFiniteDiff:
    def test_sum_of_squares(self):
        x = Tensor(np.random.default_rng(11).normal(size=(1, 1, 4, 4)))
        err = finite_diff_check(lambda t: sum_all(mul(t, t)), x, h=1e-3)
        assert err <= 1e-4

    def test_linear(self):
        x = Tensor(np.random.default_rng(12).normal(size=(1, 1, 3, 3)))
        err = finite_diff_check(sum_all, x, h=1e-3)
        assert err <= 1e-7

    def test_two_layer_network(self):
        rng = np.random.default_rng(13)
        l1 = make_layer(rng.normal(size=(4, 2, 3, 3)).astype(np.float32), bias=rng.normal(size=4), stride=2)
        l2 = make_layer(rng.normal(size=(3, 4, 3, 3)).astype(np.float32), bias=rng.normal(size=3))

        def f(t):
            h = leaky_relu(conv2d(t, l1), 0.2)
            return sum_all(mul(y := conv2d(h, l2), y))

        # Offset inputs away from activation kinks.
        x = Tensor(rng.normal(size=(1, 2, 8, 8)) + 0.05)
        assert finite_diff_check(f, x, h=1e-4) <= 1e-3

    @pytest.mark.parametrize(
        "name",
        [
            "conv",
            "tconv",
            "masked",
            "leaky",
            "concat",
            "softplus",
            "clamp",
            "div",
            "powp",
            "expand",
            "crop",
            "pool",
            "noise",
        ],
    )
    def test_every_primitive_matches_finite_differences(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hashes change per process
        x = Tensor(rng.normal(size=(1, 2, 6, 6)) * 0.7 + 0.11)
        other = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float64) + 3.0)

        if name == "conv":
            layer = make_layer(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), bias=rng.normal(size=3), stride=2)
            f = lambda t: sum_all(mul(y := conv2d(t, layer), y))
        elif name == "tconv":
            layer = make_layer(rng.normal(size=(2, 3, 3, 3)).astype(np.float32), bias=rng.normal(size=3), stride=2, transpose=True)
            f = lambda t: sum_all(mul(y := transpose_conv2d(t, layer), y))
        elif name == "masked":
            layer = make_layer(rng.normal(size=(2, 2, 3, 3)).astype(np.float32), bias=rng.normal(size=2), mask=causal_mask(3, 3))
            f = lambda t: sum_all(mul(y := masked_conv2d(t, layer), y))
        elif name == "leaky":
            f = lambda t: sum_all(mul(y := leaky_relu(t, 0.2), y))
        elif name == "concat":
            f = lambda t: sum_all(mul(y := concat_channels(t, other), y))
        elif name == "softplus":
            f = lambda t: sum_all(mul(y := softplus(t), y))
        elif name == "clamp":
            f = lambda t: sum_all(mul(y := clamp(t, -0.4, 0.9), y))
        elif name == "div":
            f = lambda t: sum_all(div(t, other))
        elif name == "powp":
            f = lambda t: sum_all(powp(clamp(t, 0.05, 10.0), 1.7))
        elif name == "expand":
            p_like = Tensor(np.zeros((1, 2, 6, 6)))
            f = lambda t: sum_all(mul(y := expand_param(t, p_like), y))
            x = Tensor(rng.normal(size=(1, 2, 1, 1)))
        elif name == "crop":
            f = lambda t: sum_all(mul(y := crop_hw(t, 4, 3), y))
        elif name == "pool":
            f = lambda t: sum_all(mul(y := avg_pool2(t), y))
        elif name == "noise":
            f = lambda t: sum_all(mul(y := add_uniform_noise(t, 55), y))
        else:
            raise AssertionError(name)

        kinks = {"leaky": (0.0,), "clamp": (-0.4, 0.9), "powp": (0.05,)}.get(name, ())
        if kinks:
            # Keep probe values at least 0.02 away from the kinks, where a
            # central difference would straddle the change of slope.
            data = x.data.copy()
            for kink in kinks:
                data[np.abs(data - kink) < 0.02] += 0.05
            assert all(np.abs(data - kink).min() >= 0.02 for kink in kinks)
            x = Tensor(data)
        assert finite_diff_check(f, x, h=1e-4) <= 1e-3

    def test_laplace_nll_gradients(self):
        rng = np.random.default_rng(14)
        v = Tensor(rng.integers(-4, 5, size=(1, 2, 4, 4)).astype(np.float64) + 0.23)
        m = Tensor(rng.normal(size=(1, 2, 4, 4)) * 0.5)
        s = Tensor(rng.uniform(-1.5, 1.5, size=(1, 2, 4, 4)))
        assert finite_diff_check(lambda t: sum_all(laplace_nll_bits(t, m, s)), v, h=1e-4) <= 1e-3
        assert finite_diff_check(lambda t: sum_all(laplace_nll_bits(v, t, s)), m, h=1e-4) <= 1e-3
        assert finite_diff_check(lambda t: sum_all(laplace_nll_bits(v, m, t)), s, h=1e-4) <= 1e-3

    def test_conv_kernel_and_bias_gradients(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        bias = Tensor(np.zeros((1, 3, 1, 1)))

        def fk(k):
            layer = ConvLayer(kernel=k, bias=bias, stride=2)
            return sum_all(mul(y := conv2d(x, layer), y))

        k0 = Tensor(rng.normal(size=(3, 2, 3, 3)))
        assert finite_diff_check(fk, k0, h=1e-4) <= 1e-3

    @pytest.mark.parametrize(
        "kind,stride", [("conv", 1), ("conv", 2), ("masked", 1), ("tconv", 1), ("tconv", 2)]
    )
    def test_kernel_gradients_at_batch_2(self, kind, stride):
        # The kernel gradient sums over batch items and positions of columns
        # shared with another pass: forward's for conv2d, the input
        # gradient's for transpose_conv2d.
        rng = np.random.default_rng(16 + stride)
        mask = causal_mask(3, 3) if kind == "masked" else None
        in_ch = 3 if kind == "tconv" else 2
        x = Tensor(rng.normal(size=(2, in_ch, 5, 4)), dtype=np.float64)
        bias = Tensor(np.zeros((1, 2 if kind == "tconv" else 3, 1, 1)), dtype=np.float64)
        op = {"conv": conv2d, "masked": masked_conv2d, "tconv": transpose_conv2d}[kind]

        def fk(k):
            layer = ConvLayer(kernel=k, bias=bias, stride=stride, transpose=kind == "tconv", mask=mask)
            return sum_all(mul(y := op(x, layer), y))

        k0 = Tensor(rng.normal(size=(3, 2, 3, 3)), dtype=np.float64)
        assert finite_diff_check(fk, k0, h=1e-4) <= 1e-3
        if mask is not None:
            probe = Tensor(k0.data, requires_grad=True, dtype=np.float64)
            backward(fk(probe))
            assert not probe.grad[:, :, mask == 0].any()
            assert probe.grad[:, :, mask == 1].all()


class TestLaplaceNll:
    def test_matches_quadrature(self):
        from scipy.integrate import quad

        for v, m, s in [(0.0, 0.0, 0.0), (2.0, 0.3, 0.7), (-3.0, 1.0, -1.2), (0.4, 0.0, 2.0)]:
            b = np.exp(s)
            pdf = lambda t: np.exp(-abs(t - m) / b) / (2 * b)
            p, _ = quad(pdf, v - 0.5, v + 0.5)
            got = laplace_nll_bits(
                Tensor(np.full((1, 1, 1, 1), v)),
                Tensor(np.full((1, 1, 1, 1), m)),
                Tensor(np.full((1, 1, 1, 1), s)),
            ).item()
            assert got == pytest.approx(-np.log2(p), rel=1e-6)

    # sha256 of the bits and of the three input gradients (value, mean,
    # log-scale) of a fixed float32 case: tails, centers and integers.
    BITS_SHA256 = "1e3121489a52b0b2f472f0bf86f5a2fcbe70c8412e7478bcf664272995bcc557"
    GRADS_SHA256 = "77ad24a2da3ba758b6dbcbcbd0294434b9b1b13ca0d609f50cb996688e4407a9"

    def test_bits_and_gradients_pinned(self):
        rng = np.random.default_rng(61)
        shape = (2, 3, 6, 6)
        v = (rng.normal(size=shape) * 3).astype(np.float32)
        v[0, 0] = np.round(v[0, 0])
        m = (rng.normal(size=shape) * 2).astype(np.float32)
        s = rng.uniform(-3.0, 4.0, size=shape).astype(np.float32)
        weights = Tensor(rng.normal(size=shape).astype(np.float32))
        untaped = laplace_nll_bits(Tensor(v), Tensor(m), Tensor(s))
        assert untaped._backward_fn is None
        inputs = [Tensor(a, requires_grad=True) for a in (v, m, s)]
        taped = laplace_nll_bits(*inputs)
        backward(sum_all(mul(taped, weights)))
        for out in (untaped, taped):
            assert hashlib.sha256(out.data.tobytes()).hexdigest() == self.BITS_SHA256
        grads = b"".join(t.grad.tobytes() for t in inputs)
        assert hashlib.sha256(grads).hexdigest() == self.GRADS_SHA256

    def test_extreme_scales_stay_finite(self):
        v = Tensor(np.full((1, 1, 1, 1), 40.0))
        m = Tensor(np.zeros((1, 1, 1, 1)))
        for s in (-6.0, 6.0):
            out = laplace_nll_bits(v, m, Tensor(np.full((1, 1, 1, 1), s))).item()
            assert np.isfinite(out) and out > 0


def _ref_leaky_relu(x, slope):
    """The select-based leaky ReLU, kept verbatim as the reference for the
    package's max-and-multiplier one."""
    neg = x.data < 0
    y = np.where(neg, x.data * x.dtype.type(slope), x.data)

    def bwd(gy):
        return (np.where(neg, gy * slope, gy),)

    return _make_node(y, (x,), bwd)


def _ref_expand_params(params, index, like):
    """The broadcast the rate-conditioned layers chained with leaky_relu,
    softplus, mul and add before conditional_affine fused them, kept verbatim
    as its reference: batch item k takes ``params[index[k]]``."""
    y = np.empty(like.shape, dtype=np.result_type(*(p.dtype for p in params)))
    y[...] = np.concatenate([params[j].data for j in index])
    index = np.asarray(index)

    def bwd(gy):
        grads = []
        for j in range(len(params)):
            rows = index == j
            if not rows.any():
                grads.append(None)
                continue
            g = gy if rows.all() else gy[rows]
            grads.append(g.sum(axis=(0, 2, 3), keepdims=True, dtype=np.float64))
        return grads

    return _make_node(y, tuple(params), bwd)


class TestConditionalAffine:
    @pytest.mark.parametrize("slope", [0.2, None], ids=["leaky", "identity"])
    @pytest.mark.parametrize("index", [[2, 0, 2, 2, 0], [1, 1, 1]], ids=["pair-1-absent", "one-pair"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_the_chain(self, dtype, index, slope):
        rng = np.random.default_rng(len(index) + (slope is None))
        shape = (len(index), 6, 5, 7)
        x0 = rng.normal(size=shape).astype(dtype)
        gy = Tensor(rng.normal(size=shape), dtype=dtype)
        p0 = [rng.normal(size=(1, 6, 1, 1)).astype(dtype) for _ in range(6)]

        def run(fused):
            x = Tensor(x0, requires_grad=True, dtype=dtype)
            params = [Tensor(p, requires_grad=True, dtype=dtype) for p in p0]
            scales, biases = params[:3], params[3:]
            if fused:
                y = conditional_affine(x, scales, biases, index, slope)
            else:
                f = x if slope is None else _ref_leaky_relu(x, slope)
                gain = _ref_expand_params([softplus(s) for s in scales], index, f)
                y = mul(gain, f) + _ref_expand_params(biases, index, f)
            backward(sum_all(mul(y, gy)))
            return [y.data, x.grad] + [p.grad for p in params]

        names = ["output", "input gradient"] + [f"{part} {j} gradient" for part in ("scale", "bias") for j in range(3)]
        got, want = run(True), run(False)
        assert sum(g is None for g in want) == 2 * (3 - len(set(index)))
        for name, g, r in zip(names, got, want):
            if r is None:
                assert g is None, name
                continue
            assert g.dtype == r.dtype == dtype and g.shape == r.shape, name
            assert g.tobytes() == r.tobytes(), name

    @pytest.mark.parametrize("slope", [0.2, 0.01, 0.7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_bits_match_the_select(self, dtype, slope):
        info = np.finfo(dtype)
        edges = [0.0, -0.0, info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
                 3 * info.smallest_subnormal, -3 * info.smallest_subnormal, info.max, -info.max, np.inf, -np.inf]
        rng = np.random.default_rng(7)
        values = np.concatenate([np.array(edges, dtype=dtype), rng.normal(size=52).astype(dtype),
                                 (rng.normal(size=64) * 10.0 ** rng.integers(-40, 30, 64)).astype(dtype)])
        x0 = values.reshape(2, 2, 4, 8)
        gy = Tensor(rng.normal(size=x0.shape), dtype=dtype)
        got, want = [], []
        for op, out in ((leaky_relu, got), (_ref_leaky_relu, want)):
            x = Tensor(x0, requires_grad=True, dtype=dtype)
            y = op(x, slope)
            with np.errstate(over="ignore", invalid="ignore"):  # the loss of an infinite input
                backward(sum_all(mul(y, gy)))
            out.extend([y.data, x.grad])
        for g, r in zip(got, want):
            assert g.dtype == r.dtype == dtype and g.tobytes() == r.tobytes()

    def test_gradients_follow_the_items(self):
        rng = np.random.default_rng(71)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True, dtype=np.float64)
        scales = [Tensor(rng.normal(size=(1, 2, 1, 1)), requires_grad=True, dtype=np.float64) for _ in range(3)]
        biases = [Tensor(rng.normal(size=(1, 2, 1, 1)), requires_grad=True, dtype=np.float64) for _ in range(3)]
        index = np.array([2, 0, 2, 2])
        y = conditional_affine(x, scales, biases, index)
        gain0 = np.log1p(np.exp(scales[0].data[0]))
        np.testing.assert_allclose(y.data[1], gain0 * x.data[1] + biases[0].data[0], rtol=1e-12)
        backward(sum_all(y))
        assert scales[1].grad is None and biases[1].grad is None
        for j in (0, 2):
            own = index == j
            np.testing.assert_array_equal(biases[j].grad, np.full((1, 2, 1, 1), own.sum() * 9.0))
            sig = 1.0 / (1.0 + np.exp(-scales[j].data))
            want = x.data[own].sum(axis=(0, 2, 3), keepdims=True) * sig
            np.testing.assert_allclose(scales[j].grad, want, rtol=1e-12)

        def f(t):
            return sum_all(mul(y := conditional_affine(x, [scales[0], scales[1], t], biases, index, 0.2), y))

        def g(t):
            return sum_all(mul(y := conditional_affine(x, scales, [biases[0], biases[1], t], index, 0.2), y))

        def h(t):
            return sum_all(mul(y := conditional_affine(t, scales, biases, index, 0.2), y))

        assert finite_diff_check(f, scales[2], h=1e-4) <= 1e-6
        assert finite_diff_check(g, biases[2], h=1e-4) <= 1e-6
        offset = Tensor(x.data + np.where(np.abs(x.data) < 0.02, 0.05, 0.0), dtype=np.float64)  # away from the kink
        assert finite_diff_check(h, offset, h=1e-4) <= 1e-6

    def test_checks_the_index_and_the_parameters(self):
        p = Tensor(np.zeros((1, 2, 1, 1)))
        x = Tensor(np.zeros((2, 2, 1, 1)))
        with pytest.raises(ShapeError, match="3 parameter indices for a batch of 2"):
            conditional_affine(x, [p], [p], np.zeros(3, dtype=int))
        with pytest.raises(ShapeError, match="1 scales for 2 biases"):
            conditional_affine(x, [p], [p, p], [0, 0])
        with pytest.raises(ShapeError, match=r"per-channel parameters are \(1, C, 1, 1\)"):
            conditional_affine(x, [p], [Tensor(np.zeros((1, 2, 2, 1)))], [0, 0])
        with pytest.raises(ShapeError, match="channel extent 3 does not match target 2"):
            conditional_affine(x, [Tensor(np.zeros((1, 3, 1, 1)))], [p], [0, 0])
        with pytest.raises(ConfigError, match="slope"):
            conditional_affine(x, [p], [p], [0, 0], 1.5)


class TestRowOps:
    def test_take_rows(self):
        x = Tensor(np.random.default_rng(72).normal(size=(4, 2, 3, 3)), dtype=np.float64)
        np.testing.assert_array_equal(take_rows(x, [3, 1]).data, x.data[[3, 1]])
        assert finite_diff_check(lambda t: sum_all(mul(y := take_rows(t, [3, 1]), y)), x, h=1e-4) <= 1e-6


class TestMisc:
    def test_sub_and_affine(self):
        a = Tensor(np.full((1, 1, 1, 2), 5.0))
        b = Tensor(np.full((1, 1, 1, 2), 3.0))
        np.testing.assert_array_equal(sub(a, b).data, np.full((1, 1, 1, 2), 2.0))
        np.testing.assert_array_equal((2.0 * a).data, np.full((1, 1, 1, 2), 10.0))

    def test_crop_and_pool_shapes(self):
        x = Tensor(np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6))
        assert crop_hw(x, 5, 4).shape == (1, 1, 5, 4)
        assert avg_pool2(x).shape == (1, 1, 3, 3)
        np.testing.assert_allclose(avg_pool2(x).data[0, 0, 0, 0], (0 + 1 + 6 + 7) / 4)
