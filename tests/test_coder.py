import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvc import coder
from mfvc.coder import (
    DEFAULT_SUPPORT_MAX,
    DEFAULT_SUPPORT_MIN,
    GRID_MEANS,
    GRID_SCALES,
    LOG_SCALE_MAX,
    LOG_SCALE_MIN,
    TOTAL_FREQ,
    CodedStream,
    CorruptStreamError,
    RansDecoder,
    RansEncoder,
    decode_plane,
    decode_symbol,
    decode_symbols,
    discretize_laplacian,
    discretize_laplacian_rows,
    encode_plane,
    encode_symbol,
    encode_symbols,
    grid_buckets,
    grid_index,
    laplace_interval_probs,
    plane_cross_entropy,
    pmfs_from_rows,
    table_grid,
)

INT32_MAX = 2**31 - 1


def spy_coder(monkeypatch, name: str = "encode_symbol") -> list[int]:
    """Record the return value of every call of the module-global
    ``coder.<name>``: the bypass bits of ``encode_symbol``, the value of
    ``decode_symbol``. The encoder pushes symbols last to first, so its
    record runs in reverse plane order."""
    returns = []
    real = getattr(coder, name)

    def spy(*args):
        returns.append(real(*args))
        return returns[-1]

    monkeypatch.setattr(coder, name, spy)
    return returns


def bypass_bits(value: int) -> int:
    """The escape bits ``encode_symbol`` reports for one symbol."""
    if DEFAULT_SUPPORT_MIN <= value <= DEFAULT_SUPPORT_MAX:
        return 0
    excess = value - DEFAULT_SUPPORT_MAX - 1 if value > DEFAULT_SUPPORT_MAX else DEFAULT_SUPPORT_MIN - 1 - value
    return 2 * (excess + 1).bit_length()


class ReferenceEncoder:
    """Textbook rANS (Duda, arXiv:1311.2540): a state in [2^16, 2^32),
    16-bit words, one :meth:`put` per slot with a while-loop
    renormalization. The reference that :func:`coder.encode_symbol` must
    match byte for byte."""

    def __init__(self):
        self.state = 1 << 16
        self.words = []

    def put(self, lo, freq):
        while self.state >= freq * 2**16:
            self.words.append(self.state % 2**16)
            self.state //= 2**16
        self.state = self.state // freq * 2**16 + self.state % freq + lo

    def put_bit(self, bit):
        self.put(bit * 2**15, 2**15)

    def finish(self):
        return self.state.to_bytes(4, "big") + b"".join(w.to_bytes(2, "big") for w in reversed(self.words))


class ReferenceDecoder:
    """Mirror of :class:`ReferenceEncoder`."""

    def __init__(self, data):
        self.data = data
        self.pos = 4
        self.state = int.from_bytes(data[:4], "big")

    def get(self, lo, freq):
        self.state = freq * (self.state // 2**16) + self.state % 2**16 - lo
        while self.state < 1 << 16:
            if self.pos + 2 > len(self.data):
                raise CorruptStreamError("stream exhausted")
            self.state = self.state * 2**16 + int.from_bytes(self.data[self.pos : self.pos + 2], "big")
            self.pos += 2

    def get_bit(self):
        bit = self.state % 2**16 // 2**15
        self.get(bit * 2**15, 2**15)
        return bit

    def done(self):
        return self.pos == len(self.data) and self.state == 1 << 16


def reference_encode(values, rows) -> bytes:
    """Lay out every slot in decode order (an escape adds the Exp-Golomb
    bits of excess + 1 and a side bit), then put them last to first."""
    slots = []
    for v, row in zip(values, rows):
        if DEFAULT_SUPPORT_MIN <= v <= DEFAULT_SUPPORT_MAX:
            k = v - DEFAULT_SUPPORT_MIN
            slots.append((row[k], row[k + 1] - row[k]))
            continue
        slots.append((row[-2], TOTAL_FREQ - row[-2]))
        side = v > DEFAULT_SUPPORT_MAX
        n = v - DEFAULT_SUPPORT_MAX if side else DEFAULT_SUPPORT_MIN - v  # excess + 1
        code = "0" * (n.bit_length() - 1) + format(n, "b") + str(int(side))
        slots += [(int(b) * 2**15, 2**15) for b in code]
    enc = ReferenceEncoder()
    for lo, freq in reversed(slots):
        enc.put(lo, freq)
    return enc.finish()


def reference_decode_symbol(dec: ReferenceDecoder, row) -> int:
    k = bisect.bisect_right(row, dec.state % 2**16) - 1
    dec.get(row[k], row[k + 1] - row[k])
    if k < coder._OVERFLOW_SLOT:
        return DEFAULT_SUPPORT_MIN + k
    zeros = 0
    while dec.get_bit() == 0:
        zeros += 1
    n = 1
    for _ in range(zeros):
        n = 2 * n + dec.get_bit()
    return DEFAULT_SUPPORT_MAX + n if dec.get_bit() else DEFAULT_SUPPORT_MIN - n


def row_of(freq) -> list[int]:
    """Cumulative row of default width from its 256 symbol frequencies and
    the overflow frequency."""
    assert len(freq) == DEFAULT_SUPPORT_MAX - DEFAULT_SUPPORT_MIN + 2
    return pmfs_from_rows(np.asarray(freq, dtype=np.int64)[None])[0].tolist()


def reference_grid_index(mu: float, ls: float) -> tuple[int, int]:
    """:func:`grid_index` of one pair in Python floats (IEEE doubles)."""
    mu = 0.0 if math.isnan(mu) else min(max(mu, -1e6), 1e6)
    ls = 0.0 if math.isnan(ls) else min(max(ls, LOG_SCALE_MIN), LOG_SCALE_MAX)
    fine = math.floor(mu * GRID_MEANS + 0.5)
    offset = (fine + GRID_MEANS // 2) // GRID_MEANS
    step = (LOG_SCALE_MAX - LOG_SCALE_MIN) / (GRID_SCALES - 1)
    level = round((ls - LOG_SCALE_MIN) / step)  # halves to even
    return level * GRID_MEANS + fine - offset * GRID_MEANS + GRID_MEANS // 2, offset


class TestDiscretization:
    def test_unit_scale_closed_form(self):
        # Laplacian CDF: F(x) = 1/2 + sign(x) * (1 - e^{-|x|}) / 2 at mu=0, b=1.
        probs, _ = laplace_interval_probs(0.0, 0.0, -8, 8)
        p = probs[0]
        k0 = 8  # index of symbol 0
        assert p[k0] == pytest.approx(1.0 - np.exp(-0.5), abs=1e-4)
        assert p[k0] == pytest.approx(0.39347, abs=1e-4)
        assert p[k0 + 1] == pytest.approx(0.5 * np.exp(-0.5) - 0.5 * np.exp(-1.5), abs=1e-4)
        assert p[k0 + 1] == pytest.approx(0.19170, abs=1e-4)

    def test_symmetry_at_zero_mean(self):
        probs, _ = laplace_interval_probs(0.0, 0.7, -16, 16)
        p = probs[0]
        np.testing.assert_allclose(p, p[::-1], rtol=1e-12)

    def test_mass_sums_to_one(self):
        for mu, ls in [(0.0, 0.0), (3.3, -2.0), (-40.0, 1.5), (200.0, 6.0)]:
            probs, overflow = laplace_interval_probs(mu, ls, -127, 128)
            assert probs[0].sum() + overflow[0] == pytest.approx(1.0, abs=1e-9)

    def test_frequencies_sum_exactly(self):
        pmf = discretize_laplacian(0.0, 0.0)
        pmf.validate()
        assert int(pmf.freq.sum()) + pmf.overflow_freq == TOTAL_FREQ
        assert (pmf.freq >= 1).all()

    @given(
        mu=st.floats(-200, 200),
        ls=st.floats(-10, 10),
        half=st.integers(1, 160),
    )
    @settings(max_examples=150, deadline=None)
    def test_frequency_invariants_hold_everywhere(self, mu, ls, half):
        pmf = discretize_laplacian(mu, ls, -half, half)
        pmf.validate()

    def test_extreme_mu_is_still_codable(self):
        pmf = discretize_laplacian(1e9, 0.0, -4, 4)
        pmf.validate()
        assert pmf.overflow_freq > TOTAL_FREQ // 2

    def test_batch_rows_match_scalar(self):
        mus = np.array([0.0, 1.2, -3.4, 50.0])
        lss = np.array([0.0, -2.0, 2.0, 5.0])
        rows = discretize_laplacian_rows(mus, lss, -32, 32)
        for i in range(4):
            single = discretize_laplacian(float(mus[i]), float(lss[i]), -32, 32)
            np.testing.assert_array_equal(rows[i, :-1], single.freq)
            assert int(rows[i, -1]) == single.overflow_freq

    def test_invalid_support_rejected(self):
        with pytest.raises(ValueError):
            discretize_laplacian(0.0, 0.0, 5, 4)
        with pytest.raises(ValueError):
            discretize_laplacian(0.0, 0.0, 1, 8)


class TestRoundtrip:
    def test_random_planes_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            index, offset = grid_index(rng.uniform(-20, 20), rng.uniform(-6, 6))
            if rng.random() < 0.5:
                symbols = rng.integers(-64, 65, size=n, dtype=np.int64)
            else:
                # Beyond the +-127 support: escapes.
                symbols = rng.integers(-600, 600, size=n, dtype=np.int64)
            stream = encode_plane(symbols, index, offset)
            out = decode_plane(stream, (n,), index, offset)
            np.testing.assert_array_equal(out, symbols)

    def test_empty_plane(self, monkeypatch):
        index, offset = grid_index(0.0, 0.0)
        coded = spy_coder(monkeypatch)
        stream = encode_plane(np.zeros((0,), dtype=np.int32), index, offset)
        assert coded == []
        out = decode_plane(stream, (0,), index, offset)
        assert out.size == 0

    def test_far_overflow_survives(self, monkeypatch):
        index, offset = grid_index(0.0, 1.0)
        plane = np.array([10000, -9999, 0, 129], dtype=np.int64)
        coded = spy_coder(monkeypatch)
        stream = encode_plane(plane, index, offset)
        assert coded[::-1] == [bypass_bits(v) for v in (plane - offset).tolist()]
        assert sum(coded) > 0
        out = decode_plane(stream, (4,), index, offset)
        np.testing.assert_array_equal(out, plane)

    def test_one_module_global_call_per_symbol(self, monkeypatch):
        # The traced benchmark counts symbols by wrapping these two
        # functions; an escape must not add a call.
        rng = np.random.default_rng(15)
        plane = rng.integers(-300, 300, size=(3, 5, 7), dtype=np.int32)
        index, offset = grid_index(rng.uniform(-3, 3, (3, 1, 1)), rng.uniform(-2, 2, (3, 1, 1)))
        coded = spy_coder(monkeypatch, "encode_symbol")
        decoded = spy_coder(monkeypatch, "decode_symbol")
        stream = encode_plane(plane, index, offset)
        out = decode_plane(stream, plane.shape, index, offset)
        np.testing.assert_array_equal(out, plane)
        symbols = (plane - offset).reshape(-1).tolist()
        assert len(coded) == len(decoded) == 105
        assert decoded == symbols
        assert coded[::-1] == [bypass_bits(v) for v in symbols]
        assert sum(coded) > 0

    def test_plane_shape_restored(self):
        rng = np.random.default_rng(7)
        plane = rng.integers(-5, 6, size=(3, 4, 5), dtype=np.int32)
        index, offset = grid_index(0.0, 1.0)
        stream = encode_plane(plane, index, offset)
        out = decode_plane(stream, (3, 4, 5), index, offset)
        np.testing.assert_array_equal(out, plane)

    def test_per_channel_tables(self):
        rng = np.random.default_rng(8)
        plane = rng.integers(-10, 11, size=(3, 6, 6), dtype=np.int32)
        index, offset = grid_index(np.array([0.0, 2.0, -2.0]).reshape(3, 1, 1), np.array([0.5, 1.0, 1.5]).reshape(3, 1, 1))
        assert index.shape == (3, 1, 1)
        stream = encode_plane(plane, index, offset)
        out = decode_plane(stream, plane.shape, index, offset)
        np.testing.assert_array_equal(out, plane)

    def test_adaptive_tables_see_prefix(self):
        # The table for each symbol depends on the previous symbol; the
        # decoder rebuilds the same choice from what it has decoded.
        sharp, wide = (int(grid_index(0.0, ls)[0]) for ls in (-2.0, 2.0))

        def table(prev):
            return wide if prev is None or prev % 2 else sharp

        rng = np.random.default_rng(9)
        plane = rng.integers(-30, 31, size=64, dtype=np.int64).tolist()
        enc = RansEncoder()
        # The encoder knows every symbol, so it can push them last to first.
        for v, prev in reversed(list(zip(plane, [None, *plane[:-1]]))):
            encode_symbol(enc, v, table_grid()[table(prev)])
        dec = RansDecoder(enc.finish())
        out, prev = [], None
        for _ in plane:
            i = table(prev)
            prev = decode_symbol(dec, table_grid()[i], grid_buckets()[i])
            out.append(prev)
        assert out == plane

    def test_symbol_loop_matches_plane(self):
        rng = np.random.default_rng(14)
        n = 300
        plane = rng.integers(-300, 300, size=n, dtype=np.int64)
        index, offset = grid_index(rng.uniform(-40, 40, n), rng.uniform(-3, 3, n))
        symbols = plane - offset
        enc = RansEncoder()
        encode_symbols(enc, symbols[::-1].tolist(), index[::-1].tolist())
        data = enc.finish()
        assert data == encode_plane(plane, index, offset).data
        assert decode_symbols(RansDecoder(data), index.tolist()) == symbols.tolist()

    @given(st.lists(st.integers(-500, 500), min_size=0, max_size=120), st.floats(-5, 5), st.floats(-6, 6))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_property(self, values, mu, ls):
        index, offset = grid_index(mu, ls)
        plane = np.asarray(values, dtype=np.int64)
        stream = encode_plane(plane, index, offset)
        out = decode_plane(stream, (len(values),), index, offset)
        np.testing.assert_array_equal(out, plane)

    def test_truncated_stream_raises(self):
        index, offset = grid_index(0.0, 2.0)
        rng = np.random.default_rng(10)
        plane = rng.integers(-8, 9, size=500, dtype=np.int64)
        stream = encode_plane(plane, index, offset)
        clipped = CodedStream(stream.data[: max(4, len(stream.data) // 3)])
        with pytest.raises(CorruptStreamError):
            decode_plane(clipped, (500,), index, offset)

    @pytest.mark.parametrize("extra", [b"\x00", b"\xff\x80\x01"])
    def test_bytes_after_the_last_symbol_raise(self, extra):
        # The decoder reads the 4-byte state plus one 16-bit word per
        # renormalization, so a whole stream leaves none over; an odd
        # byte is never read.
        rng = np.random.default_rng(11)
        index, offset = grid_index(rng.uniform(-20, 20, 300), rng.uniform(-6, 6, 300))
        plane = rng.integers(-600, 600, size=300, dtype=np.int64)
        stream = encode_plane(plane, index, offset)
        np.testing.assert_array_equal(decode_plane(stream, (300,), index, offset), plane)
        with pytest.raises(CorruptStreamError, match=f"bytes left after the last symbol: {len(extra)}"):
            decode_plane(CodedStream(stream.data + extra), (300,), index, offset)

    def test_malformed_overflow_magnitude_raises(self):
        # An escape followed by coded zero bits drives the Exp-Golomb
        # prefix past its cap. They are put last to first.
        enc = ReferenceEncoder()
        index, offset = grid_index(0.0, -6.0)
        row = table_grid()[int(index)]
        for _ in range(70):
            enc.put_bit(0)
        enc.put(row[-2], TOTAL_FREQ - row[-2])  # escape
        stream = CodedStream(enc.finish())
        with pytest.raises(CorruptStreamError):
            decode_plane(stream, (1,), index, offset)


class TestReferenceCoder:
    def test_bytes_and_values_match_the_method_chain(self):
        rng = np.random.default_rng(16)
        grid = table_grid()
        n = 20000
        rows = rng.integers(0, len(grid), n)
        rows[::50] = 0  # the sharpest row
        values = rng.integers(DEFAULT_SUPPORT_MIN, DEFAULT_SUPPORT_MAX + 1, n)
        small = rng.random(n) < 0.5
        values[small] = np.rint(rng.laplace(0, 2, small.sum()))
        edges = [DEFAULT_SUPPORT_MIN, DEFAULT_SUPPORT_MAX, DEFAULT_SUPPORT_MIN - 1, DEFAULT_SUPPORT_MAX + 1,
                 -1000, 1000, -INT32_MAX - 1, INT32_MAX]
        at = rng.choice(n, 40 * len(edges), replace=False)
        values[at] = np.resize(edges, at.size)
        values, rows = values.tolist(), rows.tolist()

        data = reference_encode(values, [grid[i] for i in rows])
        enc = RansEncoder()
        for v, i in zip(reversed(values), reversed(rows)):
            encode_symbol(enc, v, grid[i])
        assert enc.finish() == data

        ref_dec = ReferenceDecoder(data)
        assert [reference_decode_symbol(ref_dec, grid[i]) for i in rows] == values
        assert ref_dec.done()
        dec = RansDecoder(data)
        buckets = grid_buckets()
        assert [decode_symbol(dec, grid[i], buckets[i]) for i in rows] == values
        dec.finish()


class TestDamagedStreams:
    @given(st.binary(max_size=700), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_streams_decode_or_raise(self, data, seed):
        # Any bytes must decode to a plane or raise CorruptStreamError:
        # every state the decoder can reach stays in [2^16, 2^32), and no
        # slot falls below a row's start.
        rng = np.random.default_rng(seed)
        shape = (4, 8, 8)
        index, offset = grid_index(rng.uniform(-20, 20, shape), rng.uniform(-6, 6, shape))
        try:
            out = decode_plane(CodedStream(data), shape, index, offset)
        except CorruptStreamError:
            return
        assert out.shape == shape and out.dtype == np.int32
        assert encode_plane(out, index, offset).data == data  # only the encoder's bytes decode

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda d: d[:3], "exhausted"),
            (lambda d: b"\x00\x00\xff\xff" + d[4:], "initial coder state below 2"),
            (lambda d: d[:-2], "exhausted"),  # the last refill finds no word
        ],
        ids=["short", "low-state", "refill-past-end"],
    )
    def test_each_damage_raises(self, damage, match):
        # Bytes left after the last symbol, odd lengths included, are
        # TestRoundtrip::test_bytes_after_the_last_symbol_raise.
        rng = np.random.default_rng(18)
        index, offset = grid_index(rng.uniform(-20, 20, 300), rng.uniform(-6, 6, 300))
        data = encode_plane(rng.integers(-600, 600, size=300, dtype=np.int64), index, offset).data
        with pytest.raises(CorruptStreamError, match=match):
            decode_plane(CodedStream(damage(data)), (300,), index, offset)

    def test_final_state_must_be_the_initial_state(self):
        index, offset = grid_index(0.0, 0.0)
        assert encode_plane(np.zeros(0, np.int32), index, offset).data == b"\x00\x01\x00\x00"
        with pytest.raises(CorruptStreamError, match="final coder state 0x10001, not 2"):
            decode_plane(CodedStream(b"\x00\x01\x00\x01"), (0,), index, offset)


class TestRates:
    def test_all_zero_plane_at_min_scale(self):
        n = 4096
        stream = encode_plane(np.zeros(n, dtype=np.int64), *grid_index(0.0, -6.0))
        assert len(stream.data) <= n / 8 + 8

    def test_uniform_pmf_costs_eight_bits(self):
        row = row_of([255] * 256 + [TOTAL_FREQ - 256 * 255])
        rng = np.random.default_rng(11)
        n = 8192
        enc = RansEncoder()
        for v in rng.integers(-127, 129, size=n, dtype=np.int64).tolist():
            encode_symbol(enc, v, row)
        bits = 8 * len(enc.finish())
        assert bits <= 8.0056 * n * 1.01 + 64

    def test_single_half_probability_symbol(self):
        # Symbol 0 holds 2^15, symbol 1 the remainder, every other slot 1.
        freq = [1] * 257
        freq[-DEFAULT_SUPPORT_MIN] = TOTAL_FREQ // 2
        freq[1 - DEFAULT_SUPPORT_MIN] = TOTAL_FREQ // 2 - 255
        row = row_of(freq)
        enc = RansEncoder()
        encode_symbol(enc, 0, row)
        assert 8 * len(enc.finish()) <= 1 + 32

    def test_cross_entropy_uniform(self):
        # A plane holding every in-support symbol once has an empirical
        # entropy of exactly 8 bits a symbol; by Gibbs' inequality no grid
        # row can code it for less, and each costs the sum of its in-support
        # -log2(freq/2^16).
        plane = np.arange(DEFAULT_SUPPORT_MIN, DEFAULT_SUPPORT_MAX + 1, dtype=np.int64)
        for ls in np.linspace(LOG_SCALE_MIN, LOG_SCALE_MAX, GRID_SCALES):
            index, offset = grid_index(0.0, ls)
            assert int(offset) == 0
            freq = np.diff(table_grid()[int(index)])[: plane.size]
            bits = plane_cross_entropy(plane, index, offset)
            assert bits == pytest.approx(-np.log2(freq / TOTAL_FREQ).sum(), rel=1e-12)
            assert bits >= 8 * plane.size

    def test_cross_entropy_matches_symbol_loop(self):
        rng = np.random.default_rng(13)
        n = 300
        index, offset = grid_index(rng.uniform(-5, 5, n), rng.uniform(-3, 6, n))
        plane = rng.integers(-200, 201, size=n, dtype=np.int64)
        expected = 0.0
        for i, o, v in zip(index.tolist(), offset.tolist(), plane.tolist()):
            row, s = table_grid()[i], v - o
            if DEFAULT_SUPPORT_MIN <= s <= DEFAULT_SUPPORT_MAX:
                k = s - DEFAULT_SUPPORT_MIN
                expected -= np.log2((row[k + 1] - row[k]) / TOTAL_FREQ)
            else:
                excess = s - DEFAULT_SUPPORT_MAX - 1 if s > DEFAULT_SUPPORT_MAX else DEFAULT_SUPPORT_MIN - 1 - s
                expected += -np.log2((row[-1] - row[-2]) / TOTAL_FREQ) + 2 * (excess + 1).bit_length()
        # Summation order differs from the loop, so allow float64 rounding.
        assert plane_cross_entropy(plane, index, offset) == pytest.approx(expected, rel=1e-12)

    def test_cross_entropy_floor_symbol(self):
        # At the sharpest scale symbol 100 keeps only the floor frequency 1.
        index, offset = grid_index(0.0, -6.0)
        row = table_grid()[int(index)]
        assert row[100 - DEFAULT_SUPPORT_MIN + 1] - row[100 - DEFAULT_SUPPORT_MIN] == 1
        assert plane_cross_entropy(np.array([100]), index, offset) == pytest.approx(16.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_length_tracks_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        n = 4096
        index, offset = grid_index(rng.uniform(-3, 3), rng.uniform(-2, 2))
        # Draw symbols from the grid row itself so the model matches the data.
        p = np.diff(table_grid()[int(index)]) / TOTAL_FREQ
        draws = rng.choice(len(p), size=n, p=p)
        overflow = DEFAULT_SUPPORT_MAX + 3
        symbols = np.where(draws < len(p) - 1, draws + DEFAULT_SUPPORT_MIN, overflow) + offset
        stream = encode_plane(symbols, index, offset)
        h = plane_cross_entropy(symbols, index, offset)
        assert abs(8 * len(stream.data) - h) <= 0.02 * h + 64

    def test_rate_monotone_in_scale(self):
        n = 2048
        plane = np.zeros(n, dtype=np.int64)
        lengths = []
        for ls in (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0):
            lengths.append(len(encode_plane(plane, *grid_index(0.0, ls)).data))
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))


class TestRangeCoderCore:
    def test_bit_roundtrip(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=2000).tolist()
        enc = RansEncoder()
        for b in reversed(bits):
            enc.encode_bit(b)
        dec = RansDecoder(enc.finish())
        assert [dec.decode_bit() for _ in bits] == bits
        dec.finish()

    def test_per_symbol_tables(self):
        index, offset = grid_index(np.arange(10) * 1.3, np.linspace(-2.0, 2.0, 10))
        assert len(set(index.tolist())) == 10
        plane = np.arange(10, dtype=np.int64)
        stream = encode_plane(plane, index, offset)
        np.testing.assert_array_equal(decode_plane(stream, (10,), index, offset), plane)

    def test_table_count_must_fit_plane(self):
        # An index that does not broadcast to the plane is refused.
        index, offset = grid_index(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            encode_plane(np.zeros(4, dtype=np.int64), index, offset)
        with pytest.raises(ValueError):
            decode_plane(CodedStream(bytes(8)), (4,), index, 0)


class TestTableGrid:
    def test_rows_are_complete_cumulative_tables(self):
        grid = np.asarray(table_grid())
        assert grid.shape == (GRID_SCALES * GRID_MEANS, DEFAULT_SUPPORT_MAX - DEFAULT_SUPPORT_MIN + 3)
        assert (grid[:, 0] == 0).all()
        assert (grid[:, -1] == TOTAL_FREQ).all()
        # Every symbol and the overflow slot keep a frequency of at least 1.
        assert (np.diff(grid, axis=1) >= 1).all()

    def test_grid_is_built_once(self):
        assert table_grid() is table_grid()

    def test_rate_queries_share_one_read_only_grid(self, monkeypatch):
        seen = []
        real = coder._grid_array

        def spy():
            seen.append(real())
            return seen[-1]

        monkeypatch.setattr(coder, "_grid_array", spy)
        for _ in range(2):
            plane_cross_entropy(np.arange(-2, 2), 3, 0)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0].dtype == np.int64 and not seen[0].flags.writeable
        assert seen[0].tolist() == list(map(list, table_grid()))

    def test_index_sanitizes_inputs(self):
        mu = np.array([np.nan, np.inf, -np.inf, 1e6, -1e6, 1e300, -1e300, 0.0, 0.0, 0.0, 0.0])
        ls = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.nan, np.inf, -np.inf, 1e9])
        index, offset = grid_index(mu, ls)
        assert index.dtype == offset.dtype == np.int64
        assert ((index >= 0) & (index < GRID_SCALES * GRID_MEANS)).all()
        assert (np.abs(offset) <= 10**6).all()
        np.testing.assert_array_equal(offset[:7], [0, 10**6, -(10**6), 10**6, -(10**6), 10**6, -(10**6)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_index_is_elementwise(self, dtype):
        # The P-frame encoder maps a whole frame in one call and the decoder
        # one position at a time, so both must give the same rows; each
        # must also be the scalar rule, on every edge case.
        step = (LOG_SCALE_MAX - LOG_SCALE_MIN) / (GRID_SCALES - 1)
        level_ties = [LOG_SCALE_MIN + (k + 0.5) * step for k in range(GRID_SCALES - 1)]
        mean_ties = [k / (2 * GRID_MEANS) for k in range(-41, 42, 2)]
        edges = [np.nan, np.inf, -np.inf, 1e6 + 0.5, -1e6 - 0.5, 1e6 - 1 / 32, -1e6 + 1 / 32, 1e30, -1e30,
                 LOG_SCALE_MIN - 0.5, LOG_SCALE_MAX + 0.5, LOG_SCALE_MIN, LOG_SCALE_MAX, 0.0, -0.0]
        rng = np.random.default_rng(40)
        h, w, c = 6, 7, 8
        n = h * w * c
        mu = np.concatenate([mean_ties, edges, level_ties, rng.uniform(-300, 300, n)])[:n]
        ls = np.concatenate([level_ties, edges, mean_ties, rng.uniform(-8, 8, n)])[:n]
        mu = rng.permutation(mu).astype(dtype).reshape(h, w, c)
        ls = ls.astype(dtype).reshape(h, w, c)

        index, offset = grid_index(mu, ls)
        assert index.shape == offset.shape == (h, w, c)
        assert index.dtype == offset.dtype == np.int64
        for r in range(h):
            for col in range(w):
                row_index, row_offset = grid_index(mu[r, col], ls[r, col])
                np.testing.assert_array_equal(row_index, index[r, col])
                np.testing.assert_array_equal(row_offset, offset[r, col])
        expected = [reference_grid_index(float(m), float(v)) for m, v in zip(mu.reshape(-1), ls.reshape(-1))]
        assert list(zip(index.reshape(-1).tolist(), offset.reshape(-1).tolist())) == expected

    @pytest.mark.parametrize("k", [1, 3])
    def test_index_of_stacked_parameters(self, k):
        # The serial P-frame decoder maps its (K, 2C) float32 fusion output,
        # C means then C log-scales per frame, in one call; the encoder maps
        # (K, h, w, 2C). Every pair must get the scalar rule's row and offset.
        # -4, 0 and 4 are the float32 values halfway between two levels; the
        # others are the nearest float32 values to the float64 midpoints.
        step = (LOG_SCALE_MAX - LOG_SCALE_MIN) / (GRID_SCALES - 1)
        level_ties = [-4.0, 0.0, 4.0] + [LOG_SCALE_MIN + (j + 0.5) * step for j in range(GRID_SCALES - 1)]
        mean_ties = [j / (2 * GRID_MEANS) for j in range(-41, 42)]  # odd j: halfway between bins
        edges = [np.nan, np.inf, -np.inf, 1e6 + 0.5, -1e6 - 0.5, 3e6, -3e6,
                 LOG_SCALE_MIN - 0.5, LOG_SCALE_MAX + 0.5, -40.0, 40.0, 0.0, -0.0]
        rng = np.random.default_rng(41)
        c = 48
        mu = np.concatenate([edges, mean_ties, rng.uniform(-300, 300, k * c)])[: k * c]
        ls = np.concatenate([edges, level_ties, rng.uniform(-8, 8, k * c)])[: k * c]
        mu = rng.permutation(mu).astype(np.float32).reshape(k, c)
        ls = rng.permutation(ls).astype(np.float32).reshape(k, c)
        params = np.concatenate([mu, ls], axis=1)

        index, offset = grid_index(params)
        assert index.shape == offset.shape == (k, c)
        assert index.dtype == offset.dtype == np.int64
        expected = [reference_grid_index(float(m), float(v)) for m, v in zip(mu.reshape(-1), ls.reshape(-1))]
        assert list(zip(index.reshape(-1).tolist(), offset.reshape(-1).tolist())) == expected
        plane_index, plane_offset = grid_index(np.broadcast_to(params, (2, 3, k, 2 * c)))
        np.testing.assert_array_equal(plane_index, np.broadcast_to(index, (2, 3, k, c)))
        np.testing.assert_array_equal(plane_offset, np.broadcast_to(offset, (2, 3, k, c)))

    def test_offset_has_the_mean_shape(self):
        index, offset = grid_index(np.full((3, 1, 1), 2.2), np.zeros((3, 4, 5)))
        assert index.shape == (3, 4, 5) and offset.shape == (3, 1, 1)
        np.testing.assert_array_equal(offset, 2)

    @given(st.floats(-1e4, 1e4), st.floats(LOG_SCALE_MIN, LOG_SCALE_MAX))
    @settings(max_examples=200, deadline=None)
    def test_row_is_the_nearest_grid_point(self, mu, ls):
        index, offset = grid_index(mu, ls)
        level, mean_bin = divmod(int(index), GRID_MEANS)
        step = (LOG_SCALE_MAX - LOG_SCALE_MIN) / (GRID_SCALES - 1)
        assert abs(mu - (offset + mean_bin / GRID_MEANS - 0.5)) <= 0.5 / GRID_MEANS + 1e-9
        assert abs(ls - (LOG_SCALE_MIN + level * step)) <= 0.5 * step + 1e-9

    def test_row_matches_its_laplacian(self):
        index, offset = grid_index(2.3, 0.5)
        level, mean_bin = divmod(int(index), GRID_MEANS)
        step = (LOG_SCALE_MAX - LOG_SCALE_MIN) / (GRID_SCALES - 1)
        pmf = discretize_laplacian(mean_bin / GRID_MEANS - 0.5, LOG_SCALE_MIN + level * step)
        assert int(offset) == 2
        assert np.diff(table_grid()[int(index)]).tolist() == [*pmf.freq.tolist(), pmf.overflow_freq]

    def test_escapes_and_extreme_means_roundtrip(self):
        rng = np.random.default_rng(21)
        n = 400
        mu = rng.uniform(-20, 20, n)
        mu[:6] = [1e6 - 0.3, -1e6 + 0.4, np.inf, -np.inf, np.nan, 5e5]
        ls = rng.uniform(LOG_SCALE_MIN - 1, LOG_SCALE_MAX + 1, n)
        plane = np.rint(np.nan_to_num(mu, posinf=1e6, neginf=-1e6) + rng.laplace(0, 3, n)).astype(np.int64)
        plane[6:12] = [INT32_MAX, -INT32_MAX - 1, 40000, -40000, 0, 999_999]
        index, offset = grid_index(mu, ls)
        stream = encode_plane(plane, index, offset)
        out = decode_plane(stream, (n,), index, offset)
        np.testing.assert_array_equal(out, plane)
        assert plane_cross_entropy(plane, index, offset) > 0

    def test_row_index_must_exist(self):
        with pytest.raises(ValueError, match="row indices"):
            encode_plane(np.zeros(3, dtype=np.int64), len(table_grid()), 0)
        with pytest.raises(ValueError, match="row indices"):
            decode_plane(CodedStream(bytes(8)), (3,), -1, 0)


class TestBucketTable:
    def test_entries_are_the_slot_holding_each_bucket_start(self):
        buckets = grid_buckets()
        assert buckets is grid_buckets()
        grid = np.asarray(table_grid())
        n, slots = len(grid), coder._OVERFLOW_SLOT + 1
        starts = np.arange(64) * (TOTAL_FREQ // 64)
        # One searchsorted over every row's 257 slot starts, each row lifted
        # above the last, gives searchsorted(row[:257], start, "right") - 1.
        lift = np.arange(n)[:, None] * 2 * TOTAL_FREQ
        found = np.searchsorted((grid[:, :slots] + lift).ravel(), (starts + lift).ravel(), "right")
        want = found.reshape(n, 64) - 1 - np.arange(n)[:, None] * slots
        assert np.asarray(buckets).shape == (n, 64)
        np.testing.assert_array_equal(np.asarray(buckets), want)

    def test_pops_on_bucket_and_symbol_starts_match_the_reference(self):
        # Every row, with the state's slot on each bucket start, on each
        # symbol's first and last slot, and in the overflow slot, which is
        # followed by random escape bits; the state's upper 16 bits are random.
        grid, buckets = table_grid(), grid_buckets()
        rng = np.random.default_rng(23)
        cases = []
        for i, row in enumerate(grid):
            edges = {*range(0, TOTAL_FREQ, TOTAL_FREQ // 64), *row[:-1], *(lo - 1 for lo in row[1:])}
            cases += [(i, slot) for slot in sorted(edges)]
        data = rng.integers(0, 256, 4 + 8 * len(cases), dtype=np.uint8).tobytes()
        dec, ref = RansDecoder(data), ReferenceDecoder(data)
        hits = {"bucket": 0, "bisect": 0, "escape": 0}
        for (i, slot), high in zip(cases, rng.integers(1, 1 << 16, len(cases)).tolist()):
            dec._state = ref.state = high << 16 | slot
            value = decode_symbol(dec, grid[i], buckets[i])
            assert value == reference_decode_symbol(ref, grid[i]), (i, slot)
            assert dec._state == ref.state and 4 + 2 * dec._pos == ref.pos, (i, slot)
            k = value - DEFAULT_SUPPORT_MIN
            if not 0 <= k < coder._OVERFLOW_SLOT:
                hits["escape"] += 1
            else:
                hits["bucket" if k == buckets[i][slot >> 10] else "bisect"] += 1
        assert min(hits.values()) > 1000, hits


class TestCapacity:
    def test_sharpest_row_streams_fit_the_bound(self):
        # The most probable symbol of the narrowest row is the cheapest one
        # the coder can write; its streams come closest to the bound.
        index, offset = grid_index(0.0, LOG_SCALE_MIN)
        for n in (0, 1, 1000, 20000):
            stream = encode_plane(np.zeros(n, dtype=np.int64), index, offset)
            coder.check_capacity(stream, (n,))
            assert n * coder._MIN_SYMBOL_BITS <= 8 * len(stream.data) - 16

    def test_slot_zero_peak_fits_the_bound(self):
        # A row whose slot 0 holds all but the other slots' floor of 1:
        # the largest frequency a slot can have, at lo = 0. Its symbols
        # cost less than -log2(1 - 2^-8) bits each, a floor that would
        # reject this stream.
        row = row_of([TOTAL_FREQ - 256] + [1] * 256)
        n = 100_000
        enc = RansEncoder()
        for _ in range(n):
            encode_symbol(enc, DEFAULT_SUPPORT_MIN, row)
        stream = CodedStream(enc.finish())
        coder.check_capacity(stream, (n,))
        assert n * coder._MIN_SYMBOL_BITS <= 8 * len(stream.data) - 16
        assert n * -math.log2(1 - 2**-8) > 8 * len(stream.data)

    def test_too_many_symbols_rejected(self):
        stream = CodedStream(bytes(10))
        coder.check_capacity(stream, (math.floor(80 / coder._MIN_SYMBOL_BITS),))
        with pytest.raises(CorruptStreamError, match="10-byte stream cannot hold"):
            coder.check_capacity(stream, (math.floor(80 / coder._MIN_SYMBOL_BITS) + 1,))
        with pytest.raises(CorruptStreamError):
            coder.check_capacity(stream, (16, 2**27, 2**27))

    def test_decode_plane_checks_before_sizing(self):
        # The plane's rows and offsets alone would take 24 MiB; at
        # 16 x 3000 x 3000 they ran out of memory.
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError, match="4-byte stream cannot hold 640000 symbols"):
                decode_plane(CodedStream(b"\x00\x01\x00\x00"), (4, 400, 400), 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestInt32Range:
    def test_encoder_rejects_symbols_outside_int32(self):
        index, offset = grid_index(0.0, 1.0)
        for bad in (2**40 + 5, INT32_MAX + 1, -INT32_MAX - 2):
            with pytest.raises(ValueError, match="int32"):
                encode_plane(np.array([bad, 3], dtype=np.int64), index, offset)

    def test_decoder_rejects_decoded_symbol_outside_int32(self):
        index, offset = grid_index(0.0, 1.0)
        row = table_grid()[int(index)]
        enc = RansEncoder()
        for v in (3, 2**40 + 5):  # pushed last to first
            encode_symbol(enc, v, row)
        with pytest.raises(CorruptStreamError, match="int32"):
            decode_plane(CodedStream(enc.finish()), (2,), index, offset)

    def test_decoder_rejects_offset_sum_outside_int32(self):
        index, offset = grid_index(0.0, 1.0)
        stream = encode_plane(np.array([INT32_MAX, 0], dtype=np.int64), index, offset)
        np.testing.assert_array_equal(decode_plane(stream, (2,), index, offset), [INT32_MAX, 0])
        with pytest.raises(CorruptStreamError, match="int32"):
            decode_plane(stream, (2,), index, offset + 1)
