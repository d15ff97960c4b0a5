"""
Entropy coding with discretized Laplacians
==========================================

Integer symbol planes are coded against per-symbol Laplacian models. Each
model becomes an integer frequency table (total exactly 2^16, floor 1 per
symbol) so any integer is decodable; values outside the table's support
escape through an overflow slot plus Exp-Golomb bits. The codec itself
codes every symbol against one fixed grid of such tables, indexed by the
quantized scale and the fractional part of the mean. The coder is rANS:
the encoder pushes symbols last to first, and the decoder pops them in
order.
"""

import numpy as np

from mfvc.coder import (
    GRID_MEANS,
    GRID_SCALES,
    RansEncoder,
    decode_plane,
    discretize_laplacian,
    encode_plane,
    encode_symbol,
    grid_index,
    laplace_interval_probs,
    plane_cross_entropy,
    table_grid,
)

rng = np.random.default_rng(1)

# Interval masses of the unit Laplacian: p(0) = 1 - e^{-1/2}.
probs, overflow = laplace_interval_probs(0.0, 0.0, -8, 8)
print(f"p(0) = {probs[0][8]:.5f}   (1 - e^-0.5 = {1 - np.exp(-0.5):.5f})")
print(f"p(1) = {probs[0][9]:.5f}")
print(f"total mass = {probs[0].sum() + overflow[0]:.12f}")

pmf = discretize_laplacian(mu=0.0, log_scale=0.5)
print(f"frequencies sum to {int(pmf.freq.sum()) + pmf.overflow_freq} (2^16 = 65536)")

# The codec's table grid: each (mean, log-scale) prediction picks a grid row
# and an integer offset; the symbol minus the offset is coded on that row.
grid = table_grid()
print(f"table grid: {GRID_SCALES} scales x {GRID_MEANS} mean bins = {len(grid)} rows")

# Lossless roundtrip, including a wild outlier through the escape path.
# One (mean, log-scale) pair broadcasts to every symbol of the plane.
plane = rng.integers(-40, 41, size=2048, dtype=np.int64)
plane[100] = 12345
index, offset = grid_index(0.0, 0.5)
stream = encode_plane(plane, index, offset)
decoded = decode_plane(stream, plane.shape, index, offset)
# encode_plane is a loop over encode_symbol, which returns the bypass bits
# an escape spends (0 for a symbol inside the support). rANS decodes in the
# reverse of encode order, so the loop runs from the last symbol back.
enc = RansEncoder()
row = grid[int(index)]
bypass = sum(encode_symbol(enc, v - int(offset), row) for v in reversed(plane.tolist()))
print("roundtrip exact:", bool(np.array_equal(decoded, plane)),
      f"({len(stream.data)} bytes, {bypass} bypass bits)")
print("symbol loop gives the same bytes:", enc.finish() == stream.data)

# The coded length hugs the table's cross entropy.
h = plane_cross_entropy(plane, index, offset)
print(f"cross entropy {h:.0f} bits vs coded {8 * len(stream.data)} bits "
      f"(+{8 * len(stream.data) - h:.0f})")

# Wider scales can only make an all-zero plane more expensive.
zeros = np.zeros(2048, dtype=np.int64)
print("all-zero plane bytes by log-scale:")
for ls in (-6.0, -2.0, 0.0, 2.0, 6.0):
    n = len(encode_plane(zeros, *grid_index(0.0, ls)).data)
    print(f"  log_scale {ls:+.0f}: {n:5d} bytes")

# Per-symbol predictions: one grid row and offset per symbol.
mu = rng.uniform(-30, 30, size=2048)
log_scale = rng.uniform(-2, 3, size=2048)
symbols = np.rint(mu + rng.laplace(0.0, np.exp(log_scale))).astype(np.int64)
index, offset = grid_index(mu, log_scale)
stream = encode_plane(symbols, index, offset)
decoded = decode_plane(stream, symbols.shape, index, offset)
print("grid roundtrip exact:", bool(np.array_equal(decoded, symbols)), f"({len(stream.data)} bytes)")
