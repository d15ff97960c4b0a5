import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from mfvc import metrics
from mfvc.metrics import (
    RdPoint,
    bd_rate,
    bpp,
    entropy_heatmap,
    ms_ssim,
    psnr,
    save_heatmap_csv,
    save_heatmap_pgm,
    write_eval_csv,
)
from mfvc.tensor import ShapeError


class TestPsnr:
    def test_identical_frames_hit_cap(self):
        x = np.random.default_rng(0).integers(0, 256, size=(3, 16, 16)).astype(np.uint8)
        assert psnr(x, x) == 99.0

    def test_zero_vs_sixteen(self):
        a = np.zeros((3, 8, 8), dtype=np.uint8)
        b = np.full((3, 8, 8), 16, dtype=np.uint8)
        # MSE = 256, so 10*log10(255^2 / 256).
        assert psnr(a, b) == pytest.approx(10 * np.log10(65025 / 256), abs=1e-9)
        assert psnr(a, b) == pytest.approx(24.048, abs=1e-3)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=(3, 8, 8))
        b = rng.integers(0, 256, size=(3, 8, 8))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, np.float64])
    def test_bits_equal_the_two_copy_formula(self, dtype):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 255, size=(3, 37, 53)).astype(dtype)
        b = rng.uniform(0, 255, size=(3, 37, 53)).astype(dtype)
        old_mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
        assert psnr(a, b) == min(10.0 * np.log10(255.0**2 / old_mse), 99.0)


class TestMsSsim:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(2).integers(0, 256, size=(3, 192, 192)).astype(np.uint8)
        assert ms_ssim(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, size=(1, 64, 64)).astype(np.uint8)
        b = np.clip(a + rng.integers(-20, 20, size=a.shape), 0, 255).astype(np.uint8)
        assert ms_ssim(a, b, scales=2) == pytest.approx(ms_ssim(b, a, scales=2), abs=1e-12)

    def test_constant_pair_matches_closed_form(self):
        # On constants the variance terms vanish: cs = 1 and the value is
        # the luminance term (2ab + C1) / (a^2 + b^2 + C1).
        a = np.full((11, 11), 100.0)
        b = np.full((11, 11), 150.0)
        c1 = (0.01 * 255) ** 2
        expected = (2 * 100 * 150 + c1) / (100**2 + 150**2 + c1)
        assert ms_ssim(a, b, scales=1) == pytest.approx(expected, rel=1e-9)

    def test_too_small_frames_error_names_minimum(self):
        with pytest.raises(ValueError, match="176"):
            ms_ssim(np.zeros((3, 64, 64)), np.zeros((3, 64, 64)), scales=5)

    def test_bounded_for_correlated_inputs(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 256, size=(3, 96, 96)).astype(np.float64)
        b = np.clip(a + rng.normal(0, 12, size=a.shape), 0, 255)
        v = ms_ssim(a, b, scales=3)
        assert 0.0 <= v <= 1.0
        assert v < 1.0


def dense_ms_ssim(a, b, scales):
    """MS-SSIM with every Gaussian mean summed over the full 121-tap window
    of a sliding-window view, the reference for the separable filter."""
    window = metrics.gaussian_window()

    def mean(img):
        view = np.lib.stride_tricks.sliding_window_view(img, window.shape)
        return np.tensordot(view, window, axes=([2, 3], [0, 1]))

    def single(x, y):
        weights = np.asarray(metrics.MSSSIM_WEIGHTS[:scales]) / sum(metrics.MSSSIM_WEIGHTS[:scales])
        c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
        value = 1.0
        for s in range(scales):
            mx, my = mean(x), mean(y)
            cs = (2.0 * (mean(x * y) - mx * my) + c2) / (mean(x * x) - mx**2 + mean(y * y) - my**2 + c2)
            lum = (2.0 * mx * my + c1) / (mx**2 + my**2 + c1)
            term = float(np.mean(lum * cs if s == scales - 1 else cs))
            value *= max(term, 0.0) ** weights[s]
            h, w = x.shape[0] // 2, x.shape[1] // 2
            x = x[: 2 * h, : 2 * w].reshape(h, 2, w, 2).mean(axis=(1, 3))
            y = y[: 2 * h, : 2 * w].reshape(h, 2, w, 2).mean(axis=(1, 3))
        return value

    a = np.asarray(a, np.float64).reshape((-1,) + np.shape(a)[-2:])
    b = np.asarray(b, np.float64).reshape(a.shape)
    return float(np.mean([single(a[c], b[c]) for c in range(a.shape[0])]))


class TestSeparableFilter:
    def test_window_is_the_outer_product_of_the_taps(self):
        taps = metrics._gaussian_taps()
        assert np.array_equal(metrics.gaussian_window(), np.outer(taps, taps))
        assert metrics.gaussian_window().sum() == pytest.approx(1.0, abs=1e-15)

    def test_filter_matches_dense_window(self):
        img = np.random.default_rng(6).uniform(0, 255, size=(41, 29))
        view = np.lib.stride_tricks.sliding_window_view(img, (11, 11))
        dense = np.tensordot(view, metrics.gaussian_window(), axes=([2, 3], [0, 1]))
        got = metrics._valid_filter(img, metrics._gaussian_taps())
        assert got.shape == dense.shape == (31, 19)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("scales", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape", [(3, 181, 203), (181, 203), (3, 176, 176)])
    def test_ms_ssim_matches_dense_oracle(self, shape, scales):
        rng = np.random.default_rng(scales + sum(shape))
        a = rng.integers(0, 256, size=shape).astype(np.uint8)
        b = np.clip(a + rng.normal(0, 14, size=shape), 0, 255).astype(np.uint8)
        assert ms_ssim(a, b, scales) == pytest.approx(dense_ms_ssim(a, b, scales), rel=1e-12, abs=0)

    def test_memory_is_bounded_by_the_frame(self):
        # One float64 512x512 plane is 2 MB; the 121-tap window view copied
        # out (H-10)(W-10) x 121 float64 values per mean, 256 MB in all.
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, size=(3, 512, 512)).astype(np.uint8)
        b = rng.integers(0, 256, size=(3, 512, 512)).astype(np.uint8)
        tracemalloc.start()
        try:
            ms_ssim(a, b, scales=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestBpp:
    def test_unit(self):
        assert bpp(1, 1, 1, 1) == 1.0

    def test_doubling_frames_halves_bpp(self):
        assert bpp(1000, 10, 10, 2) == bpp(1000, 10, 10, 1) / 2


class TestBdRate:
    def curve(self, scale=1.0):
        return [
            RdPoint(0.1 * scale, 30.0),
            RdPoint(0.2 * scale, 33.0),
            RdPoint(0.4 * scale, 36.0),
            RdPoint(0.8 * scale, 39.0),
        ]

    def test_identical_curves(self):
        assert bd_rate(self.curve(), self.curve()) == pytest.approx(0.0, abs=1e-9)

    def test_double_rate_is_plus_hundred_percent(self):
        assert bd_rate(self.curve(), self.curve(scale=2.0)) == pytest.approx(100.0, abs=1.0)

    def test_antisymmetric_sign(self):
        fwd = bd_rate(self.curve(), self.curve(scale=1.7))
        rev = bd_rate(self.curve(scale=1.7), self.curve())
        assert fwd > 0 and rev < 0

    def test_invariant_under_reordering(self):
        shuffled = list(reversed(self.curve(1.3)))
        assert bd_rate(self.curve(), shuffled) == pytest.approx(bd_rate(self.curve(), self.curve(1.3)))

    def test_no_overlap_raises(self):
        low = [RdPoint(0.1, 10.0), RdPoint(0.2, 11.0), RdPoint(0.3, 12.0), RdPoint(0.4, 13.0)]
        high = [RdPoint(0.1, 40.0), RdPoint(0.2, 41.0), RdPoint(0.3, 42.0), RdPoint(0.4, 43.0)]
        with pytest.raises(ValueError, match="overlap"):
            bd_rate(low, high)

    def test_needs_four_points(self):
        three = self.curve()[:3]
        with pytest.raises(ValueError, match="4"):
            bd_rate(three, self.curve())


def scipy_bd_rate(anchor, test):
    """BD-rate on SciPy's PchipInterpolator, the reference."""

    def curve(points):
        pts = sorted(points, key=lambda p: p.quality)
        q = np.array([p.quality for p in pts])
        return q, PchipInterpolator(q, np.log([p.bpp for p in pts]))

    qa, fa = curve(anchor)
    qt, ft = curve(test)
    lo, hi = max(qa[0], qt[0]), min(qa[-1], qt[-1])
    return float((np.exp((ft.integrate(lo, hi) - fa.integrate(lo, hi)) / (hi - lo)) - 1.0) * 100.0)


def end_clamps(points):
    """The end-slope clamps SciPy's fit applies to a curve: 'zero' where
    the end slope is zeroed against a nonzero secant, 'three' where it is
    cut to three times the secant."""
    pts = sorted(points, key=lambda p: p.quality)
    q = np.array([p.quality for p in pts])
    r = np.log([p.bpp for p in pts])
    slope = PchipInterpolator(q, r).derivative()
    found = set()
    for x, secant in ((q[0], (r[1] - r[0]) / (q[1] - q[0])), (q[-1], (r[-1] - r[-2]) / (q[-1] - q[-2]))):
        d = slope(x)
        if d == 0 and secant != 0:
            found.add("zero")
        elif d == 3 * secant:
            found.add("three")
    return found


class TestBdRateMatchesScipy:
    def test_clamped_curve(self):
        # log-rate secants 1, -5, 4, 1: the first end is cut to 3x its
        # secant, the last is zeroed, and the two sign changes zero the
        # interior slopes between them
        curve = [RdPoint(float(np.exp(r)), q) for q, r in zip((30.0, 31.0, 32.0, 33.0, 34.0), (0, 1, -4, 0, 1))]
        assert end_clamps(curve) == {"zero", "three"}
        other = [RdPoint(0.5 * p.bpp, p.quality + 0.4) for p in curve]
        assert bd_rate(curve, other) == pytest.approx(scipy_bd_rate(curve, other), rel=1e-12, abs=0)
        assert bd_rate(other, curve) == pytest.approx(scipy_bd_rate(other, curve), rel=1e-12, abs=0)

    def test_random_curves(self):
        rng = np.random.default_rng(2021)

        def curve():
            q = np.sort(rng.uniform(28.0, 40.0, int(rng.integers(4, 8)))) + rng.uniform(-4.0, 4.0)
            return [RdPoint(float(b), float(x)) for x, b in zip(q, np.exp(rng.normal(-1.0, 0.8, len(q))))]

        clamps, sign_changes, staggered, compared = set(), 0, 0, 0
        for _ in range(400):
            anchor, test = curve(), curve()
            qa = [p.quality for p in anchor]
            qt = [p.quality for p in test]
            if min(max(qa), max(qt)) <= max(min(qa), min(qt)):
                continue
            for c in (anchor, test):
                clamps |= end_clamps(c)
                r = np.log([p.bpp for p in sorted(c, key=lambda p: p.quality)])
                sign_changes += int(np.any(np.diff(np.sign(np.diff(r))) != 0))
            # neither quality range holds the other: each fit is cut inside a segment
            staggered += int((min(qa) < min(qt)) == (max(qa) < max(qt)))
            assert bd_rate(anchor, test) == pytest.approx(scipy_bd_rate(anchor, test), rel=1e-12, abs=0)
            compared += 1
        assert clamps == {"zero", "three"}
        assert sign_changes > 100 and staggered > 100 and compared > 300


class TestHeatmap:
    def test_uniform_bits_give_uniform_map(self):
        plane = np.full((2, 4, 4), 0.5)
        hm = entropy_heatmap(plane, 4)
        assert hm.shape == (16, 16)
        np.testing.assert_allclose(hm, hm[0, 0])

    def test_conservation(self):
        rng = np.random.default_rng(5)
        plane = rng.random((3, 6, 5)) * 4
        hm = entropy_heatmap(plane, 4)
        assert hm.sum() == pytest.approx(plane.sum(), rel=1e-12)

    def test_writers(self, tmp_path):
        hm = entropy_heatmap(np.random.default_rng(6).random((2, 4, 4)), 2)
        csv_path = tmp_path / "hm.csv"
        pgm_path = tmp_path / "hm.pgm"
        save_heatmap_csv(csv_path, hm)
        save_heatmap_pgm(pgm_path, hm)
        loaded = np.loadtxt(csv_path, delimiter=",")
        np.testing.assert_allclose(loaded, hm, rtol=1e-5)
        data = pgm_path.read_bytes()
        assert data.startswith(b"P5\n8 8\n255\n")
        assert len(data) - len(b"P5\n8 8\n255\n") == 64

    def test_eval_csv_columns(self, tmp_path):
        rows = [
            {"frame_index": 0, "frame_type": "I", "bits": 100, "bpp": 0.5, "psnr": 30.0, "ms_ssim": 0.9},
            {"frame_index": 1, "frame_type": "P", "bits": 40, "bpp": 0.2, "psnr": 30.0, "ms_ssim": 0.9},
        ]
        path = tmp_path / "eval.csv"
        write_eval_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame_index,frame_type,bits,bpp,psnr,ms_ssim"
        assert lines[1].startswith("0,I,100,")
