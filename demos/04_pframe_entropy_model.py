"""
P-frame spatiotemporal entropy model
====================================

P-frames code the integer residual between consecutive latents. The
symbol distributions fuse three signals: a joint hyper-prior over both
latents, a temporal prior from the previous latent, and a causal spatial
prior over the residual itself. Decoding replays the causal context
position by position, which is why it is serial.
"""

import time

import numpy as np

from mfvc.stem import (
    StemFlags,
    decode_pframe,
    encode_pframe,
    init_stem,
    p_frame_rate,
    residual_latent,
)

rng = np.random.default_rng(3)
weights = init_stem(latent_channels=16, seed=4)

prev = rng.integers(-12, 13, size=(16, 16, 16)).astype(np.int32)
drift = rng.integers(-2, 3, size=prev.shape).astype(np.int32)  # small temporal change
cur = prev + drift

res = residual_latent(cur, prev)
print(f"residual magnitudes: mean |r| = {np.abs(res).mean():.2f} vs |latent| = {np.abs(cur).mean():.2f}")

flags = StemFlags()
(chunk,) = encode_pframe(cur[None], prev[None], flags, weights)
(decoded,) = decode_pframe([chunk], prev[None], flags, weights)
print("serial decode reproduces the latent exactly:", bool(np.array_equal(decoded, cur)))
print(f"coded size: {len(chunk.y_stream.data)} latent bytes + {len(chunk.z_stream.data)} hyper bytes")

# The differentiable rate estimate tracks what the coder actually spends.
y_bits, z_bits = p_frame_rate(cur, prev, flags, weights)
estimate = y_bits.item() + z_bits.item()
actual = 8 * (len(chunk.y_stream.data) + len(chunk.z_stream.data))
print(f"estimated {estimate:.0f} bits vs coded {actual} bits ({100 * abs(estimate - actual) / actual:.2f}% apart)")

# The spatial prior is the serial part: decode time scales with the
# number of latent positions.
for size in (16, 32):
    a = rng.integers(-8, 9, size=(4, size, size)).astype(np.int32)
    b = rng.integers(-8, 9, size=(4, size, size)).astype(np.int32)
    small = init_stem(latent_channels=4, seed=5)
    ch = encode_pframe(a[None], b[None], flags, small)
    t0 = time.perf_counter()
    decode_pframe(ch, b[None], flags, small)
    print(f"decode {size}x{size} latents: {1000 * (time.perf_counter() - t0):.0f} ms")

# Every branch can be switched off; the coder stays lossless either way.
for fl in (StemFlags(use_spm=False), StemFlags(use_tpm=False), StemFlags(use_residual=False)):
    (ch,) = encode_pframe(cur[None], prev[None], fl, weights)
    ok = np.array_equal(decode_pframe([ch], prev[None], fl, weights)[0], cur)
    print(f"{fl}: roundtrip {ok}, {len(ch.y_stream.data)} bytes")
