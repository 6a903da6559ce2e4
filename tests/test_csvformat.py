"""The block formatter against per-value ``f"{v:.17g}"``, byte for byte."""

import math
import os
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsync import csvformat
from pwsync.csvformat import format_block


def _reference(block) -> bytes:
    """The CSV text of a block, one f"{v:.17g}" per value."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in np.asarray(block).tolist()).encode()


def _assert_formats(block):
    block = np.asarray(block, dtype=float)
    got, want = format_block(block), _reference(block)
    if got != want:
        bad = next((g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w)
        raise AssertionError(f"block formatter wrote {bad[0]!r}, f-string {bad[1]!r}")


def _spy(monkeypatch):
    """Record every value the formatter hands to its exact path."""
    taken = []
    exact = csvformat.format_exact

    def spy(values):
        taken.extend(values.tolist())
        return exact(values)

    monkeypatch.setattr(csvformat, "format_exact", spy)
    return taken


def _ties():
    """Doubles m/2^p whose exact decimal expansion m·5^p has 18 significant
    digits ending in 5: the 17th digit is an exact tie, rounded to even."""
    rng = np.random.default_rng(5)
    found = [(2 ** 17 + 1) / 2 ** 17]
    for p in range(2, 25):
        low, high = -(-10 ** 17 // 5 ** p), min(2 ** 53, 10 ** 18 // 5 ** p)
        found += [m / 2 ** p for m in (int(m) | 1 for m in rng.integers(low, high, size=4)) if m < high]
    for value in found:
        digits = Decimal(value).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, value
    return np.array(found)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ulps_from(value: float, steps: int) -> float:
    """The double ``steps`` ulps above a positive ``value`` (below for
    negative steps)."""
    return _from_bits(max(struct.unpack("<Q", struct.pack("<d", value))[0] + steps, 0))


_powers_of_ten = st.one_of(st.integers(-6, 18), st.integers(-323, 308)).map(lambda k: float(f"1e{k}"))
_magnitudes = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits),  # raw bit patterns, subnormals and nans included
    st.sampled_from([0.0, math.inf, math.nan]),
    st.builds(_ulps_from, _powers_of_ten, st.integers(-3, 3)),
    # the notation switches, at X = −5, −4, 16 and 17
    st.builds(_ulps_from, st.sampled_from([1e-5, 1e-4, 1e16, 1e17]), st.integers(-3, 3)),
    st.builds(lambda k, dt: k * dt, st.integers(0, 10 ** 6), st.sampled_from([5e-5, 1e-3, 4e-3, 0.25])),
    st.integers(0, 10 ** 17).map(float),  # integral values, many trailing zeros
    st.builds(lambda m, j: m / 10 ** j, st.integers(0, 10 ** 17), st.integers(0, 21)),  # short decimals
    # every decade of fixed notation and the next ones, so a point falls after each digit
    st.builds(lambda f, x: f * 10.0 ** x, st.floats(1.0, 10.0, exclude_max=True), st.integers(-6, 18)),
)
_values = st.builds(lambda v, negative: -v if negative else v, _magnitudes, st.booleans())


@st.composite
def _blocks(draw):
    """A block from 1×1 to rows of 300 values: up to 40 drawn values,
    repeated to fill the shape."""
    values = draw(st.lists(_values, min_size=1, max_size=40))
    cols = draw(st.one_of(st.integers(1, 8), st.integers(9, 300)))
    rows = draw(st.integers(1, 4))
    return np.resize(np.array(values), (rows, cols))


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_blocks())
def test_any_block_formats_as_per_value_f_strings(block):
    _assert_formats(block)


def test_raw_bit_patterns_of_every_exponent():
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2 ** 64, size=120_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    exponents = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    assert np.unique(exponents).size > 2000  # nearly all of the 2048, subnormals included
    for cols in (1, 3, 8, 101):
        _assert_formats(values[: values.size // cols * cols].reshape(-1, cols))
    subnormal = rng.integers(1, 2 ** 52, size=4000, dtype=np.uint64).view(np.float64)
    _assert_formats(np.concatenate([subnormal, -subnormal]).reshape(-1, 4))


def test_exact_ties_round_to_even(monkeypatch):
    assert format_block(np.array([[1.00000762939453125]])) == b"1.0000076293945312\n"
    ties = _ties()
    taken = _spy(monkeypatch)
    _assert_formats(np.concatenate([ties, -ties]).reshape(-1, 2))
    assert set(np.abs(taken)) >= set(ties)  # every tie took the exact path


def test_powers_of_ten_their_neighbours_and_notation_switches():
    powers = 10.0 ** np.arange(-323, 309)
    switches = np.array([1e-4, 1e-5, 9.9999999999999995e-5, 1e16, 1e17, 9.9999999999999984e16,
                         99999999999999992.0, 1e15, 0.5, 1.0, 1e-280, 1e280, 1e-281, 1e281])
    values = np.concatenate([powers, switches])
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    _assert_formats(np.concatenate([values, -values])[:, None])
    _assert_formats(np.concatenate([values, -values]).reshape(-1, 2))


def test_zeros_and_non_finite_values():
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
    _assert_formats(np.array(special)[:, None])
    _assert_formats(np.array(special).reshape(2, 5))
    assert format_block(np.array([[-0.0, math.nan, -math.inf]])) == b"-0,nan,-inf\n"


def test_short_and_integral_values():
    rng = np.random.default_rng(3)
    scaled = np.round(rng.normal(size=6000) * 1000.0, 3)
    integral = rng.integers(-10 ** 6, 10 ** 6, size=3000).astype(float)
    steps = np.arange(3001) * 1e-3  # a time column: many short, many 17-digit values
    _assert_formats(scaled.reshape(-1, 6))
    _assert_formats(integral.reshape(-1, 3))
    _assert_formats(steps[:, None])


def test_normal_states_take_the_fast_path_except_zeros(monkeypatch):
    rng = np.random.default_rng(11)
    states = rng.normal(size=(2000, 12)) * 10.0 ** rng.integers(-6, 7, size=(1, 12))
    states[::7, 3] = 0.0
    taken = _spy(monkeypatch)
    _assert_formats(states)
    assert taken and all(v == 0.0 for v in taken)
    assert len(taken) == int((states == 0.0).sum())


def test_one_column_and_a_partial_last_block(tmp_path):
    rng = np.random.default_rng(8)
    column = rng.normal(size=csvformat._CSV_BLOCK * 2 + 123)
    path = tmp_path / "column.csv"
    csvformat.write_csv(path, {"n": 1}, "x", column)
    assert path.read_bytes() == b"# n = 1\nx\n" + _reference(column[:, None])
    table = rng.normal(size=(csvformat._CSV_BLOCK // 7 * 3 + 5, 7))
    csvformat.write_csv(path, {}, "t,a,b,c,d,e,f", table[:, 0], table[:, 1:])
    assert path.read_bytes() == b"t,a,b,c,d,e,f\n" + _reference(table)


@pytest.mark.parametrize("width", [7, csvformat._CSV_BLOCK + 5])
def test_write_csv_formats_bounded_blocks(tmp_path, monkeypatch, width):
    blocks = []
    block_of = csvformat.format_block

    def spy(block):
        blocks.append(np.shape(block))
        return block_of(block)

    monkeypatch.setattr(csvformat, "format_block", spy)
    table = np.random.default_rng(4).normal(size=(3 * csvformat._CSV_BLOCK // width + 2, width))
    path = tmp_path / "table.csv"
    csvformat.write_csv(path, {}, "t,x", table[:, 0], table[:, 1:])
    assert path.read_bytes() == b"t,x\n" + _reference(table)
    assert sum(rows for rows, _ in blocks) == len(table) and len(blocks) > 1
    assert max(rows * cols for rows, cols in blocks) <= max(csvformat._CSV_BLOCK, width)


def test_power_table_is_correctly_rounded():
    hi, lo, high, low = csvformat._powers()
    for q, h, l in zip(csvformat._POWERS, hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** q
        assert h == float(exact)  # hi is 10^q rounded to nearest
        assert l == float(exact - Fraction(h))  # and lo the rest, rounded
    assert np.array_equal(high + low, hi)
    assert (np.abs(lo[lo != 0.0]) >= 2.2250738585072014e-308).all()  # no subnormal lo


def test_tables_are_built_on_first_use_only():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, pwsync, pwsync.cli\n"
            "from pwsync import csvformat\n"
            "assert csvformat._powers.cache_info().currsize == 0\n"
            "assert csvformat._layouts.cache_info().currsize == 0\n"
            "assert 'fractions' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
