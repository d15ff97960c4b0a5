"""Lossless coding of integer symbol planes under per-symbol Laplacian models.

A scalar rANS coder (Duda, arXiv:1311.2540) consumes integer frequency
tables of total 2^16 discretized from Laplacian distributions. Its state
lives in [2^16, 2^32) and moves in 16-bit words. Pushing the slot
[lo, lo + f) writes the state's low word and shifts it out if the state
is at least f * 2^16, then sets it to (x // f) * 2^16 + x % f + lo.
Popping reads ``slot = x & 0xFFFF``, finds the slot's symbol, sets the
state to f * (x >> 16) + slot - lo and reads one word if it fell below
2^16: no division and no carry. rANS pops in the reverse of push order,
so encoders push a stream's symbols last to first. The stream is the
final state (4 bytes) followed by the words in decode order, all
big-endian. Symbols outside a table's support are escaped through a
reserved overflow slot followed by an Exp-Golomb magnitude and a side
bit, each bit coded as a 2^15-of-2^16 symbol.

Every symbol is coded against one fixed grid of cumulative tables over
the default support, built once per process: ``GRID_SCALES`` log-scale
levels times ``GRID_MEANS`` bins of the mean's fractional part.
:func:`grid_index` maps a predicted (mean, log-scale) pair to a grid row
and an integer offset (the rounded mean); the symbol minus its offset is
coded against that row. It clamps means and log-scales together in one
float64 buffer, maps both as (x - shift) / unit with per-row constants,
floors the means and rounds the log-scales to the nearest level, then
splits offsets and rows in int64: a fixed number of NumPy calls however
many pairs a call maps. The grid constants are part of the bitstream
format.

Every symbol goes through one call of the module-global
:func:`encode_symbol` or :func:`decode_symbol`, which step the coder's
state themselves; only escape bits go through the coder's methods. Tools
that count symbols wrap those two functions from outside; on a 2-vCPU
machine the call costs about 2 ms per 65,536 symbols. A pop finds its
symbol through :func:`grid_buckets`, which splits the 2^16 slots into 64
buckets and keeps, per grid row, the symbol holding each bucket's first
slot: the slot's symbol is that one, or is bisected for from the next
one on, so most pops read two or three row entries, not about nine.

Coding of one stream is strictly serial; distinct streams may be coded
concurrently.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

TOTAL_FREQ = 1 << 16
DEFAULT_SUPPORT_MIN = -127
DEFAULT_SUPPORT_MAX = 128
LOG_SCALE_MIN = -6.0
LOG_SCALE_MAX = 6.0
GRID_SCALES = 64
GRID_MEANS = 16

_MEAN_BOUND = 1e6  # predicted means are clamped to [-1e6, 1e6]
_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1

_STATE_MIN = 1 << 16  # the coder's state lives in [2^16, 2^32)
_SWAP_WORDS = sys.byteorder == "little"  # words are stored big-endian
_MAX_EG_PREFIX = 48


class CorruptStreamError(ValueError):
    """Raised when a coded stream cannot be decoded to the promised symbols."""


# ---------------------------------------------------------------------------
# rANS coder
# ---------------------------------------------------------------------------


class RansEncoder:
    """rANS encoder: push the symbols in reverse decode order, then call
    :meth:`finish` exactly once."""

    def __init__(self):
        self._state = _STATE_MIN
        self._words = array("H")  # in the order written, the reverse of decode order

    def encode_bit(self, bit: int) -> None:
        """Push ``bit`` as the slot [bit * 2^15, (bit + 1) * 2^15)."""
        x = self._state
        if x >> 31:
            self._words.append(x & 0xFFFF)
            x >>= 16
        self._state = (x >> 15 << 16) | (bit << 15) | (x & 0x7FFF)

    def finish(self) -> bytes:
        words = self._words[::-1]
        if _SWAP_WORDS:
            words.byteswap()
        return self._state.to_bytes(4, "big") + words.tobytes()


class RansDecoder:
    """Pops the symbols of a :class:`RansEncoder` stream in decode order."""

    def __init__(self, data: bytes):
        if len(data) < 4:
            raise CorruptStreamError("stream exhausted before all symbols were decoded")
        self._state = int.from_bytes(data[:4], "big")
        if self._state < _STATE_MIN:
            raise CorruptStreamError("initial coder state below 2^16")
        self._words = array("H", data[4 : len(data) - len(data) % 2])
        if _SWAP_WORDS:
            self._words.byteswap()
        self._pos = 0
        self._size = len(data)

    def _refill(self, x: int) -> int:
        """A state ``x`` below 2^16 with the next word shifted in."""
        pos = self._pos
        if pos == len(self._words):
            raise CorruptStreamError("stream exhausted before all symbols were decoded")
        self._pos = pos + 1
        return (x << 16) | self._words[pos]

    def decode_bit(self) -> int:
        """Inverse of :meth:`RansEncoder.encode_bit`."""
        x = self._state
        bit = (x >> 15) & 1
        x = (x >> 16 << 15) | (x & 0x7FFF)
        self._state = x if x >= _STATE_MIN else self._refill(x)
        return bit

    def finish(self) -> None:
        """Raise :class:`CorruptStreamError` unless the symbols decoded read
        every byte and left the encoder's initial state, 2^16. Words are
        whole, so an odd length always leaves a byte."""
        left = self._size - 4 - 2 * self._pos
        if left:
            raise CorruptStreamError(f"bytes left after the last symbol: {left}")
        if self._state != _STATE_MIN:
            raise CorruptStreamError(f"final coder state {self._state:#x}, not 2^16")


# ---------------------------------------------------------------------------
# Discretized Laplacian frequency tables
# ---------------------------------------------------------------------------


@dataclass
class DiscretePmf:
    """Integer frequency table over [support_min, support_max] plus overflow.

    Frequencies are all >= 1 and sum with ``overflow_freq`` to exactly 2^16,
    so every integer symbol is codable.
    """

    support_min: int
    support_max: int
    freq: np.ndarray
    overflow_freq: int

    def validate(self) -> None:
        if not self.support_min <= 0 <= self.support_max:
            raise ValueError("support must contain zero")
        if len(self.freq) != self.support_max - self.support_min + 1:
            raise ValueError("frequency table length does not match support")
        if (self.freq < 1).any() or self.overflow_freq < 1:
            raise ValueError("all frequencies must be >= 1")
        if int(self.freq.sum()) + self.overflow_freq != TOTAL_FREQ:
            raise ValueError("frequencies must sum to 2^16")


def _clamped(x, lo, hi, out=None) -> np.ndarray:
    """``x`` clamped to [lo, hi] (which broadcast against it), with NaN as
    0, in a new C-ordered float64 array or in the float64 array ``out``."""
    out = np.asarray(np.maximum(x, lo, out=out, dtype=np.float64, order="C"))
    np.minimum(out, hi, out=out)
    np.copyto(out, 0.0, where=np.isnan(out))
    return out


def _sanitize(mu, log_scale) -> tuple[np.ndarray, np.ndarray]:
    """The input policy of the table build, which :func:`grid_index` shares
    through :func:`_clamped` with the same bounds: new float64 arrays with
    NaN as 0, means clamped to [-1e6, 1e6] (infinities included) and
    log-scales to [LOG_SCALE_MIN, LOG_SCALE_MAX]."""
    return _clamped(mu, -_MEAN_BOUND, _MEAN_BOUND), _clamped(log_scale, LOG_SCALE_MIN, LOG_SCALE_MAX)


def laplace_interval_probs(mu, log_scale, support_min: int, support_max: int):
    """Real-valued interval masses p(k) for k in the support, plus overflow mass.

    p(k) = F(k+1/2) - F(k-1/2) for the Laplacian CDF F with mean ``mu`` and
    scale exp(``log_scale``); the overflow mass is everything beyond the
    support on both sides. Inputs broadcast over a leading batch axis.
    """
    mu, ls = _sanitize(mu, log_scale)
    mu = np.atleast_1d(mu)
    b = np.exp(np.atleast_1d(ls))
    k = np.arange(support_min, support_max + 1, dtype=np.float64)
    d = k[None, :] - mu[:, None]
    bb = b[:, None]
    a = np.abs(d)
    tail = 0.5 * np.exp(-(a - 0.5) / bb) * (-np.expm1(-1.0 / bb))
    dc = np.clip(d, -0.5, 0.5)
    center = -0.5 * (np.expm1(-(0.5 - dc) / bb) + np.expm1(-(0.5 + dc) / bb))
    probs = np.where(a >= 0.5, tail, center)

    lo = (support_min - 0.5) - mu
    hi = (support_max + 0.5) - mu
    left = np.where(lo <= 0, 0.5 * np.exp(np.minimum(lo, 0) / b), 1.0 - 0.5 * np.exp(-np.maximum(lo, 0) / b))
    right = np.where(hi >= 0, 0.5 * np.exp(-np.maximum(hi, 0) / b), 1.0 - 0.5 * np.exp(np.minimum(hi, 0) / b))
    return probs, left + right


def quantize_rows(probs: np.ndarray) -> np.ndarray:
    """Largest-remainder quantization of probability rows to integer
    frequencies with floor 1 and exact row sums of 2^16."""
    probs = np.maximum(np.asarray(probs, dtype=np.float64), 0.0)
    sums = probs.sum(axis=1, keepdims=True)
    bad = sums[:, 0] <= 0
    if bad.any():
        probs[bad] = 1.0
        sums = probs.sum(axis=1, keepdims=True)
    target = probs / sums * TOTAL_FREQ
    base = np.floor(target).astype(np.int64)
    freqs = np.maximum(base, 1)
    diff = TOTAL_FREQ - freqs.sum(axis=1)

    over = diff > 0
    if over.any():
        rem = np.where(freqs == base, target - base, -1.0)
        order = np.argsort(-rem[over], axis=1, kind="stable")
        take = np.arange(probs.shape[1])[None, :] < diff[over, None]
        bump = np.zeros_like(freqs[over])
        np.put_along_axis(bump, order, take.astype(np.int64), axis=1)
        freqs[over] += bump

    under = diff < 0
    if under.any():
        rows = np.nonzero(under)[0]
        for i in rows:
            need = -int(diff[i])
            row = freqs[i]
            while need > 0:
                j = int(np.argmax(row))
                give = min(need, int(row[j]) - 1)
                if give <= 0:
                    raise ValueError("cannot renormalize frequency row")
                row[j] -= give
                need -= give
    return freqs


def discretize_laplacian_rows(mu, log_scale, support_min: int = DEFAULT_SUPPORT_MIN,
                              support_max: int = DEFAULT_SUPPORT_MAX) -> np.ndarray:
    """Frequency rows (one per (mu, log_scale) pair); the last column is the
    overflow frequency."""
    probs, overflow = laplace_interval_probs(mu, log_scale, support_min, support_max)
    return quantize_rows(np.concatenate([probs, overflow[:, None]], axis=1))


def discretize_laplacian(mu: float, log_scale: float, support_min: int = DEFAULT_SUPPORT_MIN,
                         support_max: int = DEFAULT_SUPPORT_MAX) -> DiscretePmf:
    """Integer frequency table for one Laplacian, floor 1 per symbol,
    largest-remainder renormalization to a total of exactly 2^16."""
    if support_min >= support_max:
        raise ValueError(f"support_min {support_min} must be below support_max {support_max}")
    if not support_min <= 0 <= support_max:
        raise ValueError("support must contain zero")
    row = discretize_laplacian_rows(float(mu), float(log_scale), support_min, support_max)[0]
    return DiscretePmf(support_min, support_max, row[:-1], int(row[-1]))


def pmfs_from_rows(rows: np.ndarray) -> np.ndarray:
    """Cumulative tables (n, S+2) from frequency rows (n, S+1) whose last
    column is the overflow frequency; each row starts at 0 and ends at 2^16."""
    s = rows.shape[1] - 1
    cums = np.zeros((rows.shape[0], s + 2), dtype=np.int64)
    np.cumsum(rows[:, :-1], axis=1, out=cums[:, 1 : s + 1])
    cums[:, s + 1] = TOTAL_FREQ
    return cums


# ---------------------------------------------------------------------------
# The scale x mean table grid
# ---------------------------------------------------------------------------

_GRID_STEP = (LOG_SCALE_MAX - LOG_SCALE_MIN) / (GRID_SCALES - 1)
_BUCKET_SHIFT = 10  # a pop's slot >> _BUCKET_SHIFT is its bucket


@cache
def table_grid() -> tuple[tuple[int, ...], ...]:
    """The cumulative tables every model is coded against, built on first use.

    Row ``level * GRID_MEANS + m`` is the Laplacian with log-scale
    ``LOG_SCALE_MIN + level * step`` (``step`` spreads ``GRID_SCALES`` levels
    over [LOG_SCALE_MIN, LOG_SCALE_MAX]) and mean ``m / GRID_MEANS - 1/2``,
    over the default support. Rows are tuples of Python ints, which the
    per-symbol coder indexes and bisects fastest, and are read-only.

    Rows are built one scale level at a time, and every row holds the one
    int object of each value, so the grid keeps about 3.3 MiB (7.4 MiB
    with an int per entry) and its build peaks near 5 MiB, not 14 MiB.
    """
    ints = list(range(TOTAL_FREQ + 1))
    log_scales = np.repeat(LOG_SCALE_MIN + _GRID_STEP * np.arange(GRID_SCALES), GRID_MEANS)
    means = np.tile(np.arange(GRID_MEANS) / GRID_MEANS - 0.5, GRID_SCALES)
    rows: list[tuple[int, ...]] = []
    for lo in range(0, len(means), GRID_MEANS):
        level = slice(lo, lo + GRID_MEANS)
        cums = pmfs_from_rows(discretize_laplacian_rows(means[level], log_scales[level]))
        rows.extend(tuple(map(ints.__getitem__, row)) for row in cums.tolist())
    return tuple(rows)


@cache
def grid_buckets() -> tuple[tuple[int, ...], ...]:
    """Per :func:`table_grid` row, the slot index (0 to 256, the overflow
    slot last) that holds the first slot of each of the 64 buckets of
    2^``_BUCKET_SHIFT`` slots, built on first use. A pop starts its search
    there: the slot's symbol is that one or a later one.

    Entries are small ints, which Python shares, so the table keeps about
    0.56 MiB; it is built a row at a time, with no array of the grid.
    """
    starts = range(0, TOTAL_FREQ, 1 << _BUCKET_SHIFT)
    # row[0] is 0, so the last of the 257 slot starts at or below a
    # bucket's start is the slot holding it.
    return tuple(tuple([bisect_right(row, s, 0, _OVERFLOW_SLOT + 1) - 1 for s in starts]) for row in table_grid())


@cache
def _grid_array() -> np.ndarray:
    """:func:`table_grid` as one read-only int64 array, built on the first
    vectorized rate estimate."""
    cums = np.asarray(table_grid(), dtype=np.int64)
    cums.flags.writeable = False
    return cums


# The grid map's constants, for means (row 0) and log-scales (row 1): the
# clamp bounds, then the shift and the unit of the rounding grid.
_GRID_CONSTANTS = np.array([
    [-_MEAN_BOUND, LOG_SCALE_MIN],
    [_MEAN_BOUND, LOG_SCALE_MAX],
    [-0.5 / GRID_MEANS, LOG_SCALE_MIN],
    [1.0 / GRID_MEANS, _GRID_STEP],
])[:, :, None, None]
_GRID_CONSTANTS.flags.writeable = False
_MEAN_BITS = GRID_MEANS.bit_length() - 1
_SMALL_GRID_MAP = 4096  # pairs per call below which the constants are materialized


@lru_cache(maxsize=8)
def _small_grid_constants(m: int, c: int) -> tuple[np.ndarray, ...]:
    """The four rows of :data:`_GRID_CONSTANTS`, each spread over ``(2, m,
    c)``: a NumPy call on a few dozen values costs about half as much with
    operands of one shape as with broadcast ones, and the serial decoder
    makes a grid map per position."""
    rows = tuple(np.ascontiguousarray(np.broadcast_to(row, (2, m, c))) for row in _GRID_CONSTANTS)
    for row in rows:
        row.flags.writeable = False
    return rows


def grid_index(mu, log_scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Grid row and integer offset per (mean, log-scale) pair.

    Given two arguments, the pairs broadcast: the row index has the
    broadcast shape of the inputs, the offset the shape of the mean. Given
    one, ``mu`` is a ``(..., 2C)`` stack of C means then C log-scales per
    leading index, the STEM fusion's layout, and both outputs are ``(...,
    C)``. Both outputs are int64. The map is elementwise, so one call over
    a whole plane gives the rows of one call per position.

    The mean is rounded to the nearest multiple of 1/GRID_MEANS (halves
    round up) and split into an integer offset and a fractional bin in
    [-1/2, 1/2); the log-scale goes to the nearest grid level (halves to
    even). Inputs are sanitized as for the table build, so NaN and
    infinities give valid rows and finite offsets.
    """
    if log_scale is None:
        params = np.asarray(mu)
        c = params.shape[-1] // 2
        pairs = params.reshape(-1, 2, c).transpose(1, 0, 2)  # (2, m, C): means, then log-scales
    else:
        mu, log_scale = np.asarray(mu), np.asarray(log_scale)
        pairs = np.zeros((2, 1, max(mu.size, log_scale.size)))  # the shorter row padded with zeros
        pairs[0, 0, : mu.size] = mu.reshape(-1)
        pairs[1, 0, : log_scale.size] = log_scale.reshape(-1)
    m, c = pairs.shape[1:]
    lo, hi, shift, unit = _small_grid_constants(m, c) if m * c < _SMALL_GRID_MAP else _GRID_CONSTANTS
    # One pass over both rows in float64, as (x - shift) / unit. For the
    # means that is 16 * rnd(mu + 1/32) = rnd(16 * mu + 1/2), exactly:
    # GRID_MEANS is a power of two and |mu| <= 1e6. Only the rounding
    # differs: means take the floor, log-scales the nearest level.
    grid = _clamped(pairs, lo, hi, out=None if log_scale is None else pairs)  # the pairs' own copy in place
    np.subtract(grid, shift, out=grid)
    np.divide(grid, unit, out=grid)
    fine, level = grid
    np.floor(fine, out=fine)
    np.rint(level, out=level)
    fine, level = grid.astype(np.int64)
    np.add(fine, GRID_MEANS // 2, out=fine)  # + 1/2 in mean units, so the offset is a floor
    if log_scale is not None:  # back to the inputs' own shapes, which broadcast
        fine, level = fine[0, : mu.size].reshape(mu.shape), level[0, : log_scale.size].reshape(log_scale.shape)
    elif params.ndim != 2:  # a (K, 2C) stack's rows are (K, C) already
        fine, level = fine.reshape(params.shape[:-1] + (c,)), level.reshape(params.shape[:-1] + (c,))
    # GRID_MEANS is a power of two: the offset is a shift, the bin a mask.
    return (level << _MEAN_BITS) + (fine & (GRID_MEANS - 1)), fine >> _MEAN_BITS


# ---------------------------------------------------------------------------
# Plane coding
# ---------------------------------------------------------------------------


@dataclass
class CodedStream:
    """rANS output: the final 4-byte state, then the 16-bit words in decode
    order, with no internal framing. Symbol counts come from the plane
    geometry at decode time."""

    data: bytes


_OVERFLOW_SLOT = DEFAULT_SUPPORT_MAX - DEFAULT_SUPPORT_MIN + 1

# The largest frequency of one slot: a row's other 256 slots keep >= 1 each.
_MAX_FREQ = TOTAL_FREQ - _OVERFLOW_SLOT
_MIN_SYMBOL_BITS = math.log2(1 + (TOTAL_FREQ - _MAX_FREQ - 1) / (2 * _MAX_FREQ))


def check_capacity(stream: CodedStream, shape) -> None:
    """Raise :class:`CorruptStreamError` if ``stream`` is too short to hold
    a plane of ``shape``, before anything is sized from ``shape``.

    No symbol costs less than log2(1 + 255 / (2 * 65,280)), about 0.00281
    bits, and every stream the encoder writes has at least 16 bits more.
    Proof: let P = 16 * (words written) + log2(state). It starts at 16, and
    the stream's 32 + 16 * words bits exceed it, as the state is below
    2^32. A push of the slot [lo, lo + f), f <= F = 2^16 - 256 (escape bits
    have f = 2^15), takes the state y = q * f + r left after any word
    write, q >= 1 and r < f, to q * 2^16 + r + lo >= q * 2^16 + r.
    Without a word, y >= 2^16 and P rises by at least
    log2((q * 2^16 + r) / (q * f + r)) >= log2(1 + (2^16 - f) / (2 * f)).
    With one, the state x became y = x >> 16 >= f with x < (y + 1) * 2^16,
    so P rises by more than log2((q * 2^16 + r) / (q * f + r + 1)) >=
    log2(1 + (q * (2^16 - f) - 1) / ((q + 1) * f)), least at q = 1. Both
    bounds fall as f grows, so each push, and so each symbol, raises P by
    at least log2(1 + (2^16 - F - 1) / (2 * F)).
    """
    count = math.prod(shape)
    if count * _MIN_SYMBOL_BITS > 8 * len(stream.data):
        raise CorruptStreamError(f"a {len(stream.data)}-byte stream cannot hold {count} symbols")


def _encode_overflow(enc: RansEncoder, value: int) -> int:
    """Push the escape bits of ``value`` last to first: the side bit, then
    n = excess + 1 from its lowest bit up, then the k - 1 zeros that lead
    n's k-bit Exp-Golomb code. Returns the 2k bits pushed."""
    if value > DEFAULT_SUPPORT_MAX:
        excess, side = value - DEFAULT_SUPPORT_MAX - 1, 1
    else:
        excess, side = DEFAULT_SUPPORT_MIN - 1 - value, 0
    n = excess + 1
    k = n.bit_length()
    enc.encode_bit(side)
    for i in range(k):
        enc.encode_bit((n >> i) & 1)
    for _ in range(k - 1):
        enc.encode_bit(0)
    return 2 * k


def _decode_overflow(dec: RansDecoder) -> int:
    zeros = 0
    while dec.decode_bit() == 0:
        zeros += 1
        if zeros > _MAX_EG_PREFIX:
            raise CorruptStreamError("malformed overflow magnitude")
    n = 1
    for _ in range(zeros):
        n = (n << 1) | dec.decode_bit()
    excess = n - 1
    side = dec.decode_bit()
    return DEFAULT_SUPPORT_MAX + 1 + excess if side else DEFAULT_SUPPORT_MIN - 1 - excess


def encode_symbol(enc: RansEncoder, value: int, row) -> int:
    """Push one symbol against a cumulative row over the default support (a
    :func:`table_grid` row); returns the bypass bit count spent on an
    overflow escape (0 otherwise). The escape bits follow the overflow
    slot in decode order, so they are pushed before it."""
    k = value - DEFAULT_SUPPORT_MIN
    bits = 0
    if not 0 <= k < _OVERFLOW_SLOT:
        bits = _encode_overflow(enc, value)
        k = _OVERFLOW_SLOT  # every row ends at 2^16, so the slot takes the same step
    lo = row[k]
    freq = row[k + 1] - lo
    x = enc._state
    if x >= freq << 16:
        enc._words.append(x & 0xFFFF)
        x >>= 16
    enc._state = (x // freq << 16) | (x % freq + lo)
    return bits


def decode_symbol(dec: RansDecoder, row, buckets) -> int:
    """Inverse of :func:`encode_symbol` for the same row; ``buckets`` is
    that row's :func:`grid_buckets` entry."""
    x = dec._state
    slot = x & 0xFFFF
    k = buckets[slot >> _BUCKET_SHIFT]
    if row[k + 1] <= slot:
        # Bisecting only up to the 257th slot start maps every slot from the
        # overflow slot's start on to that slot.
        k = bisect_right(row, slot, k + 1, _OVERFLOW_SLOT + 1) - 1
    lo = row[k]
    x = (row[k + 1] - lo) * (x >> 16) + slot - lo
    dec._state = x if x >= _STATE_MIN else dec._refill(x)
    if k < _OVERFLOW_SLOT:
        return DEFAULT_SUPPORT_MIN + k
    return _decode_overflow(dec)


def encode_symbols(enc: RansEncoder, symbols, index) -> None:
    """Push ``symbols[i]`` against grid row ``index[i]`` in the order given
    (sequences of Python ints); rANS pops them in the reverse order."""
    grid = table_grid()
    for v, i in zip(symbols, index):
        encode_symbol(enc, v, grid[i])


def decode_symbols(dec: RansDecoder, index) -> list[int]:
    """Pop one symbol against each grid row ``index[i]`` in turn: what
    :func:`encode_symbols` pushed, in reverse order."""
    grid, buckets = table_grid(), grid_buckets()
    return [decode_symbol(dec, grid[i], buckets[i]) for i in index]


def to_int32(values, error: type[ValueError] = CorruptStreamError) -> np.ndarray:
    """Symbols as int32. A value outside int32 raises ``error``: by default
    :class:`CorruptStreamError`, because to a decoder it means a damaged
    stream; encoders pass ``ValueError``."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < _INT32_MIN or values.max() > _INT32_MAX):
        raise error("symbol outside int32")
    return values.astype(np.int32)


def _broadcast(shape, index, offset) -> tuple[np.ndarray, np.ndarray]:
    """Flat per-symbol grid rows and offsets broadcast over ``shape``; raises
    ``ValueError`` if they do not broadcast or a row is not in the grid."""
    index = np.broadcast_to(np.asarray(index, dtype=np.int64), shape).reshape(-1)
    if index.size and (index.min() < 0 or index.max() >= GRID_SCALES * GRID_MEANS):
        raise ValueError("row indices outside the table grid")
    return index, np.broadcast_to(np.asarray(offset, dtype=np.int64), shape).reshape(-1)


def encode_plane(plane: np.ndarray, index, offset) -> CodedStream:
    """rANS-code an int32 plane in C order (channel-major raster for (C, h, w)).

    Symbol ``i`` is coded as ``plane[i] - offset[i]`` against grid row
    ``index[i]``, as given by :func:`grid_index`; ``index`` and ``offset``
    broadcast over the plane.
    """
    plane = to_int32(plane, ValueError)
    index, offset = _broadcast(plane.shape, index, offset)
    symbols = plane.reshape(-1) - offset  # int64
    enc = RansEncoder()
    encode_symbols(enc, symbols[::-1].tolist(), index[::-1].tolist())  # last to first
    return CodedStream(enc.finish())


def decode_plane(stream: CodedStream, shape, index, offset) -> np.ndarray:
    """Exact inverse of :func:`encode_plane` for the same row indices and
    offsets. A stream that cannot hold a plane of ``shape`` (:func:`check_capacity`),
    runs out before the last symbol, or does not end exactly there (bytes
    left, or a final state other than 2^16) raises :class:`CorruptStreamError`."""
    check_capacity(stream, shape)
    index, offset = _broadcast(shape, index, offset)
    dec = RansDecoder(stream.data)
    symbols = decode_symbols(dec, index.tolist())
    dec.finish()
    return to_int32(offset + np.asarray(symbols, dtype=np.int64)).reshape(shape)


def plane_cross_entropy(plane: np.ndarray, index, offset) -> float:
    """Code length implied by the grid rows, in bits.

    In-support symbols cost -log2(freq/2^16); overflow symbols cost the
    escape slot plus their bypass bits. Rows and offsets are given as for
    :func:`encode_plane`.
    """
    plane = np.asarray(plane)
    index, offset = _broadcast(plane.shape, index, offset)
    cums = _grid_array()
    symbols = plane.astype(np.int64).reshape(-1) - offset
    inside = (symbols >= DEFAULT_SUPPORT_MIN) & (symbols <= DEFAULT_SUPPORT_MAX)
    k = np.where(inside, symbols - DEFAULT_SUPPORT_MIN, _OVERFLOW_SLOT)
    freq = cums[index, k + 1] - cums[index, k]
    bits = float(-np.log2(freq / TOTAL_FREQ).sum())
    for v in symbols[~inside].tolist():
        excess = (v - DEFAULT_SUPPORT_MAX - 1) if v > DEFAULT_SUPPORT_MAX else (DEFAULT_SUPPORT_MIN - 1 - v)
        bits += 2 * (excess + 1).bit_length()
    return bits
