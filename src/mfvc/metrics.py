"""Rate and quality instruments: PSNR, multiscale SSIM, bits per pixel,
rate-curve comparison, and per-pixel entropy heatmaps.

Frames follow the 8-bit convention (peak 255) whether stored as uint8 or
float. PSNR is computed over all RGB channels jointly; MS-SSIM is computed
per channel and averaged. MS-SSIM's Gaussian means are taken with the
separable form of the 11x11 window, 11 taps down the columns and then 11
across the rows, one float64 channel at a time, so scoring a frame takes
O(H*W) memory. Everything here is a pure function.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import ShapeError

PSNR_CAP_DB = 99.0

MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_WINDOW_SIZE = 11
_WINDOW_SIGMA = 1.5


@dataclass(frozen=True)
class RdPoint:
    """One operating point of a codec: rate in bits per pixel, quality in
    PSNR dB or MS-SSIM."""

    bpp: float
    quality: float

    def __post_init__(self):
        if self.bpp <= 0:
            raise ValueError(f"bpp must be positive, got {self.bpp}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at peak 255, capped at 99 dB."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"frames differ in shape: {a.shape} vs {b.shape}")
    d = np.subtract(a, b, dtype=np.float64)
    mse = float(np.mean(np.square(d, out=d)))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(255.0**2 / mse), PSNR_CAP_DB)


def _gaussian_taps() -> np.ndarray:
    x = np.arange(_WINDOW_SIZE, dtype=np.float64) - (_WINDOW_SIZE - 1) / 2
    g = np.exp(-(x**2) / (2.0 * _WINDOW_SIGMA**2))
    return g / g.sum()


def gaussian_window() -> np.ndarray:
    g = _gaussian_taps()
    return np.outer(g, g)


def _valid_filter(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The 'valid' correlation of ``img`` with ``np.outer(taps, taps)``:
    one pass of scaled adds down the columns, one across the rows."""
    k = len(taps)
    h = img.shape[0] - k + 1
    w = img.shape[1] - k + 1
    cols = taps[0] * img[:h]
    for i in range(1, k):
        cols += taps[i] * img[i : i + h]
    out = taps[0] * cols[:, :w]
    for j in range(1, k):
        out += taps[j] * cols[:, j : j + w]
    return out


def _ssim_terms(a: np.ndarray, b: np.ndarray, taps: np.ndarray):
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    mu_a = _valid_filter(a, taps)
    mu_b = _valid_filter(b, taps)
    var_a = _valid_filter(a * a, taps) - mu_a**2
    var_b = _valid_filter(b * b, taps) - mu_b**2
    cov = _valid_filter(a * b, taps) - mu_a * mu_b
    cs = (2.0 * cov + c2) / (var_a + var_b + c2)
    lum = (2.0 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
    return lum, cs


def _downsample2(img: np.ndarray) -> np.ndarray:
    h, w = img.shape[0] // 2, img.shape[1] // 2
    return img[: 2 * h, : 2 * w].reshape(h, 2, w, 2).mean(axis=(1, 3))


def _ms_ssim_single(a: np.ndarray, b: np.ndarray, scales: int) -> float:
    taps = _gaussian_taps()
    weights = np.asarray(MSSSIM_WEIGHTS[:scales], dtype=np.float64)
    weights = weights / weights.sum()
    value = 1.0
    for s in range(scales):
        lum, cs = _ssim_terms(a, b, taps)
        if s == scales - 1:
            term = float(np.mean(lum * cs))
        else:
            term = float(np.mean(cs))
        value *= max(term, 0.0) ** weights[s]
        if s != scales - 1:
            a = _downsample2(a)
            b = _downsample2(b)
    return value


def ms_ssim(a: np.ndarray, b: np.ndarray, scales: int = 5) -> float:
    """Multiscale SSIM with an 11x11 Gaussian window (sigma 1.5).

    The luminance term enters at the coarsest scale only; with fewer than
    five scales the leading standard weights are renormalized. RGB inputs
    are scored per channel and averaged, each converted to float64 only
    while it is scored.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"frames differ in shape: {a.shape} vs {b.shape}")
    if not 1 <= scales <= len(MSSSIM_WEIGHTS):
        raise ValueError(f"scales must be in [1, {len(MSSSIM_WEIGHTS)}]")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.ndim != 3:
        raise ShapeError(f"frames must be (C, H, W) or (H, W), got shape {a.shape}")
    minimum = 2 ** (scales - 1) * _WINDOW_SIZE
    if min(a.shape[1], a.shape[2]) < minimum:
        raise ValueError(
            f"frames of {a.shape[1]}x{a.shape[2]} are too small for {scales} scales; "
            f"the minimum extent is {minimum}"
        )
    return float(np.mean([
        _ms_ssim_single(a[c].astype(np.float64), b[c].astype(np.float64), scales) for c in range(a.shape[0])
    ]))


def bpp(stream_bits: int, width: int, height: int, frames: int) -> float:
    """Bits per pixel; header bits are included in ``stream_bits`` by
    convention."""
    if width < 1 or height < 1 or frames < 1:
        raise ValueError("dimensions must be positive")
    return stream_bits / (width * height * frames)


def _curve(points: Sequence[RdPoint]):
    pts = sorted(points, key=lambda p: p.quality)
    q = np.array([p.quality for p in pts], dtype=np.float64)
    r = np.log(np.array([p.bpp for p in pts], dtype=np.float64))
    if len(q) < 4:
        raise ValueError(f"need at least 4 rate points per curve, got {len(q)}")
    if np.any(np.diff(q) <= 0):
        raise ValueError("curve has duplicate quality values")
    return q, r


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """The one-sided three-point slope at an end knot, zeroed if it opposes
    the end secant and cut to three times it where the secants change sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    return 3 * m0 if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0) else d


def _pchip_integral(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of the monotone piecewise-cubic Hermite fit of
    Fritsch & Carlson (1980), in closed form. Knot slopes are SciPy
    ``PchipInterpolator``'s: the weighted harmonic mean of the neighbouring
    secants, zero where they change sign or one is zero."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d = np.concatenate(([_pchip_end_slope(h[0], h[1], m[0], m[1])], inner,
                        [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]))
    # each segment's cubic in powers of x - x[k], integrated from a to b
    coef = np.stack((y[:-1], d[:-1], (3 * m - 2 * d[:-1] - d[1:]) / h, (d[:-1] + d[1:] - 2 * m) / h**2))
    a, b = (np.clip(t, x[:-1], x[1:]) - x[:-1] for t in (lo, hi))
    p = np.arange(1, 5)[:, None]
    return float(np.sum(coef * (b**p - a**p) / p))


def bd_rate(anchor: Sequence[RdPoint], test: Sequence[RdPoint]) -> float:
    """Average rate difference of ``test`` against ``anchor`` in percent,
    integrated over the overlapping quality interval on monotone
    piecewise-cubic fits of log-rate versus quality."""
    qa, ra = _curve(anchor)
    qt, rt = _curve(test)
    lo = max(qa[0], qt[0])
    hi = min(qa[-1], qt[-1])
    if hi <= lo:
        raise ValueError(f"quality ranges do not overlap: [{qa[0]}, {qa[-1]}] vs [{qt[0]}, {qt[-1]}]")
    diff = (_pchip_integral(qt, rt, lo, hi) - _pchip_integral(qa, ra, lo, hi)) / (hi - lo)
    return float((np.exp(diff) - 1.0) * 100.0)


def entropy_heatmap(bits_plane: np.ndarray, factor: int) -> np.ndarray:
    """Spread per-latent bits uniformly over their pixel footprints.

    ``bits_plane`` is (C, h, w) or (h, w) per-symbol bits; the result is an
    (h*factor, w*factor) map whose sum equals the total bits exactly.
    """
    plane = np.asarray(bits_plane, dtype=np.float64)
    if plane.ndim == 3:
        plane = plane.sum(axis=0)
    if plane.ndim != 2:
        raise ShapeError(f"bits plane must be (C, h, w) or (h, w), got shape {plane.shape}")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return np.kron(plane, np.ones((factor, factor))) / (factor * factor)


def save_heatmap_csv(path, heatmap: np.ndarray) -> None:
    np.savetxt(path, np.asarray(heatmap), delimiter=",", fmt="%.6g")


def save_heatmap_pgm(path, heatmap: np.ndarray) -> None:
    """8-bit binary PGM, normalized to the map maximum."""
    hm = np.asarray(heatmap, dtype=np.float64)
    peak = hm.max()
    img = np.zeros_like(hm, dtype=np.uint8) if peak <= 0 else np.clip(
        np.rint(hm / peak * 255.0), 0, 255
    ).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


EVAL_CSV_COLUMNS = ("frame_index", "frame_type", "bits", "bpp", "psnr", "ms_ssim")


def write_eval_csv(path, rows: Sequence[dict]) -> None:
    """Per-frame evaluation table; one row per frame in display order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVAL_CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in EVAL_CSV_COLUMNS])
