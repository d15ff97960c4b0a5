"""
Quality metrics and entropy heatmaps
====================================

PSNR and MS-SSIM follow the 8-bit convention (peak 255). Rate curves are
compared by the average log-rate difference over the overlapping quality
interval. Per-symbol rate estimates can be spread over pixel footprints
to visualize where the bits go.
"""

import numpy as np

from mfvc import metrics
from mfvc.stem import StemFlags, init_stem, p_frame_symbol_bits
from mfvc.video import synth_sequence

rng = np.random.default_rng(7)

a = rng.integers(0, 256, size=(3, 192, 192)).astype(np.uint8)
noisy = np.clip(a + rng.normal(0, 8, size=a.shape), 0, 255).astype(np.uint8)
print(f"psnr(x, x)      = {metrics.psnr(a, a):.1f} dB (capped)")
print(f"psnr(x, noisy)  = {metrics.psnr(a, noisy):.2f} dB")
print(f"ms_ssim(x, x)   = {metrics.ms_ssim(a, a):.6f}")
print(f"ms_ssim(x, noisy) = {metrics.ms_ssim(a, noisy):.4f}")

# A codec that spends twice the bits at equal quality costs +100%.
curve = [metrics.RdPoint(0.1 * 2**i, 30 + 3 * i) for i in range(4)]
double = [metrics.RdPoint(p.bpp * 2, p.quality) for p in curve]
print(f"bd_rate(curve, curve)  = {metrics.bd_rate(curve, curve):+.2f}%")
print(f"bd_rate(curve, double) = {metrics.bd_rate(curve, double):+.2f}%")
print(f"bd_rate(double, curve) = {metrics.bd_rate(double, curve):+.2f}%")

# Entropy heatmap: per-symbol bits of one P-frame spread over pixels.
stem = init_stem(latent_channels=8, seed=8)
seq = synth_sequence("translate", 2, 32, 32, seed=9, shift=2)
prev = rng.integers(-10, 11, size=(8, 8, 8)).astype(np.int32)
cur = prev + rng.integers(-2, 3, size=prev.shape).astype(np.int32)
bits_plane, hyper_bits = p_frame_symbol_bits(cur, prev, StemFlags(), stem)
heat = metrics.entropy_heatmap(bits_plane, factor=4)
print(f"heatmap {heat.shape}, sum {heat.sum():.1f} bits == plane total {bits_plane.sum():.1f}")
metrics.save_heatmap_csv("heatmap.csv", heat)
metrics.save_heatmap_pgm("heatmap.pgm", heat)
print("wrote heatmap.csv and heatmap.pgm to the working directory")
