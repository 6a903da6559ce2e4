"""CSV text of float64 blocks, byte for byte C's ``%.17g``.

:func:`format_block` turns a (rows, cols) block into its CSV lines in a
few dozen NumPy calls, and gives exactly what ``f"{v:.17g}"`` joined by
"," with a newline after each row gives: the same digits, notation, ``inf``,
``-inf``, ``nan`` and ``-0``.  The digits are Grisu's (Loitsch, *Printing
Floating-Point Numbers Quickly and Accurately with Integers*, PLDI 2010):
the scaled value is computed with a known error, by Dekker's exact
product (*A floating-point technique for extending the available
precision*, 1971), and the few values that error could round either way
go through :func:`format_exact`, one Python call each.  The lookup
tables are built on first use.  :func:`write_csv` writes a file of
``# key = value`` meta lines, a header and the stacked columns, a block
at a time.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["format_block", "format_exact", "meta_lines", "write_csv"]


_CSV_BLOCK = 4096  # values per formatted block of a file (:func:`write_csv`)

# A formatted value is one record of six 8-byte words: its sign, the
# lead-in "0.000", the first digit and a point slot; four words of digits
# 2-17, each followed by a point slot; then "e", the exponent's sign, its
# three digits and the separator.  Unused bytes are NUL and are dropped.
_RECORD = 48
_COMPACT = 512  # records per np.compress, which holds an int64 index per kept byte
_POWERS = range(-270, 301)  # the exponents q of the table of 10^q
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into halves
_LEADS, _EXPONENTS = 10000, 10010  # rows of the word table (see _layouts)
_KINDS = 330  # exponents -330..330 index the layout kinds


@cache
def _powers() -> np.ndarray:
    """10^q for q in ``_POWERS`` as double-doubles hi + lo, rounded to
    nearest, with Dekker's halves of hi: rows (hi, lo, hi_high, hi_low).
    Built from exact integers: Python rounds int -> float and int / int
    correctly."""
    rows = []
    for q in _POWERS:
        if q >= 0:
            hi = float(10 ** q)
            lo = float(10 ** q - int(hi))
        else:
            den = 10 ** -q
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)
        split = _SPLIT * hi
        high = split - (split - hi)
        rows.append((hi, lo, high, hi - high))
    table = np.array(rows).T.copy()
    table.flags.writeable = False
    return table


@cache
def _layouts():
    """The tables that lay out a record (see ``_RECORD``).

    ``words``: rows 0-9999 are the four-digit groups, each digit followed by a NUL,
    rows ``_LEADS`` + d the first digit d at byte 6, rows ``_EXPONENTS`` +
    |X| the exponent's three digits at bytes 2-4.  ``keep`` and ``put``,
    one row per layout class (kind, last digit shown, sign), mask the record's
    digits and separator and add its sign, lead-in, point and "e±".  The
    kind is X + 4 in fixed notation (−4 ≤ X ≤ 16), else 21-24 for the
    exponent signs + and − with two, then three digits.  ``kinds``: the
    class of each exponent X + ``_KINDS`` with all 17 digits and sign +."""
    i = np.arange(10000, dtype=np.int16)
    words = np.zeros((_EXPONENTS + 400, 8), np.uint8)
    words[:_LEADS, 0::2] = 48 + i[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    words[_LEADS:_EXPONENTS, 6] = 48 + i[:10]
    words[_EXPONENTS:, 2:5] = 48 + i[:400, None] // np.array([100, 10, 1], np.int16) % 10

    digits = np.r_[6, 8:40:2]  # the byte of each of the 17 digits
    x = np.arange(25)[:, None] - 4  # X of the fixed kinds
    fixed = x <= 16
    last = np.arange(17)
    shown = np.where(fixed & (x >= 0), np.maximum(last, x), last)  # (kind, last)
    point = np.where(fixed, np.where(x >= 0, x, -1), 0)  # the digit a point follows
    keep = np.zeros((25, 17, 2, _RECORD), np.uint8)
    put = np.zeros((25, 17, 2, _RECORD), np.uint8)
    keep[..., digits] = 255 * (np.arange(17) <= shown[..., None, None])
    keep[21:, ..., 43:45] = 255
    keep[23:, ..., 42] = 255
    keep[..., 45] = 255
    put[:, :, 1, 0] = ord("-")
    for lead in range(1, 5):  # X = −lead: "0." and lead − 1 zeros
        put[4 - lead, ..., 1:2 + lead] = np.frombuffer(b"0.000"[:1 + lead], np.uint8)
    kind, end = np.nonzero((point >= 0) & (point < shown))
    put[kind, end, :, digits[point[kind, 0]] + 1] = ord(".")
    put[21:, ..., 40] = ord("e")
    put[21:, ..., 41] = np.array([ord("+"), ord("-"), ord("+"), ord("-")])[:, None, None]
    record = f"V{_RECORD}"
    keep = keep.reshape(-1, _RECORD).view(record).ravel()
    put = put.reshape(-1, _RECORD).view(record).ravel()
    e = np.arange(-_KINDS, _KINDS + 1)
    kinds = np.where((e >= -4) & (e < 17), e + 4, 21 + (e < 0) + 2 * (np.abs(e) >= 100))
    return words.view(np.uint64).ravel(), keep, put, kinds * 34 + 32


def _scaled(a, e, powers):
    """s = a·10^(16−e) as a double-double (hi, lo): Dekker's exact product
    of a with the table's hi, plus a times its lo, so s is off by a few
    parts in 10^31."""
    ph, pl, phh, phl = powers.take(16 - _POWERS.start - e, axis=1)
    ah = a * _SPLIT
    al = ah - a
    ah -= al  # the high half of a, and a - ah its low half
    np.subtract(a, ah, out=al)
    hi = a * ph
    lo = ah * phh
    lo -= hi
    lo += np.multiply(ah, phl, out=ah)
    lo += np.multiply(al, phh, out=phh)
    lo += np.multiply(al, phl, out=phl)
    lo += np.multiply(a, pl, out=pl)
    s = hi + lo
    hi -= s
    lo += hi
    return s, lo


def _digits(flat):
    """The 17 significant digits of each |x| as an integer D in [10^16,
    10^17), its decimal exponent X (|x| rounds to D·10^(X−16)), and a mask
    of the values these are exact for.

    Grisu's idea (Loitsch, PLDI 2010): with X = ⌊log10|x|⌋, s =
    |x|·10^(16−X) is computed with a known error (:func:`_scaled`) and D
    is s rounded to an integer.  The mask leaves out 0, non-finite values,
    |x| outside [1e-280, 1e280] (where the table's lo would be subnormal)
    and each s within 1e-9 of a half, where the error could decide the
    rounding (every exact tie among them)."""
    a = np.abs(flat)
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0  # a stand-in for the values left out
    e = np.floor(np.log10(a)).astype(np.intp)
    powers = _powers()
    hi, lo = _scaled(a, e, powers)
    # log10 can miss the decade next to a power of ten
    off = np.flatnonzero(((hi - 1e16) + lo < 0.0) | ((hi - 1e17) + lo >= 0.0))
    if off.size:
        e[off] += np.where(hi[off] > 5e16, 1, -1)
        hi[off], lo[off] = _scaled(a[off], e[off], powers)
        # still outside [1e16, 1e17) after one decade: the exact path (never
        # seen, as log10 is within an ulp)
        ok[off] &= ((hi[off] - 1e16) + lo[off] >= 0.0) & ((hi[off] - 1e17) + lo[off] < 0.0)
    whole = np.rint(lo)  # hi is an integer: s rounds to hi + whole
    lo -= whole
    ok &= np.abs(lo) < 0.5 - 1e-9
    digits = hi.astype(np.int64)
    digits += whole.astype(np.int64)
    carry = np.flatnonzero(digits == 10 ** 17)
    digits[carry] = 10 ** 16
    e[carry] += 1
    return digits, e, ok


def _word_rows(digits, e):
    """The rows of each record's six words in the word table: (n, 6),
    the first digit, the four groups of four digits and the exponent.
    Row-major, so ``take`` reads it without a copy, and freed once read."""
    idx = np.empty((digits.size, 6), np.int64)
    groups = idx[:, 1:5].reshape(-1, 2, 2)  # [[g1, g2], [g3, g4]]
    np.floor_divide(digits, 10 ** 8, out=groups[:, 0, 1])
    np.multiply(groups[:, 0, 1], -10 ** 8, out=groups[:, 1, 1])
    groups[:, 1, 1] += digits
    np.floor_divide(groups[:, :, 1], 10 ** 4, out=groups[:, :, 0])
    groups[:, :, 1] -= groups[:, :, 0] * 10 ** 4
    np.floor_divide(idx[:, 1], 10 ** 4, out=idx[:, 0])
    idx[:, 1] -= idx[:, 0] * 10 ** 4
    idx[:, 0] += _LEADS
    np.abs(e, out=idx[:, 5])
    idx[:, 5] += _EXPONENTS
    return idx


def _records(x):
    """The records (see ``_RECORD``) of a (rows, cols) float block, row
    after row: (rows·cols, ``_RECORD``) bytes with "," or a newline as
    each value's separator.  The layout follows the "g" rules: fixed notation
    for −4 ≤ X < 17, else d.ddde±XX, and no trailing zeros."""
    flat = x.reshape(-1)
    digits, e, ok = _digits(flat)
    words, keep, put, kinds = _layouts()
    # the layout class: kind, last digit shown (16 less trailing zeros), sign
    cls = kinds.take(e + _KINDS)
    cls += flat < 0.0
    ends = np.flatnonzero(digits % 10 == 0)
    if ends.size:
        tail = digits[ends]
        cls[ends] -= 2 * sum(tail % 10 ** k == 0 for k in range(1, 17))
    record = words.take(_word_rows(digits, e)).view(np.uint8)
    separators = record.reshape(*x.shape, _RECORD)[..., 45]
    separators[:] = ord(",")
    separators[:, -1] = ord("\n")
    record &= keep.take(cls).view(np.uint8).reshape(record.shape)
    record |= put.take(cls).view(np.uint8).reshape(record.shape)
    exact = np.flatnonzero(~ok)
    if exact.size:
        text = "".join(s.ljust(45, "\0") for s in format_exact(flat[exact]))
        record[exact, :45] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 45)
    return record


def format_exact(values) -> list:
    """Each value as ``f"{v:.17g}"``, one Python call per value."""
    return [f"{v:.17g}" for v in values.tolist()]


def format_block(block) -> bytes:
    """A (rows, cols) float block as CSV text: each value as
    ``f"{v:.17g}"``, byte for byte, joined by "," with a newline after
    each row.  Each value fills one NUL-padded record (:func:`_records`) and
    compresses drop the NULs; :func:`format_exact` formats what
    :func:`_digits` leaves out."""
    text = _records(np.ascontiguousarray(block, dtype=float)).reshape(-1)
    step = _COMPACT * _RECORD
    parts = (text[start:start + step] for start in range(0, text.size, step))
    return b"".join(np.compress(part != 0, part).tobytes() for part in parts)


def meta_lines(meta: dict) -> list:
    """``# key = value`` lines, sorted by key."""
    return [f"# {key} = {meta[key]}" for key in sorted(meta)]


def write_csv(path, meta: dict, header: str, *columns) -> None:
    """'#' meta lines, the header, then one line per row of the stacked
    columns, each float as C's ``%.17g`` (``f"{v:.17g}"``), in UTF-8 with
    LF line ends.  The columns are stacked and formatted ``_CSV_BLOCK``
    values at a time (:func:`format_block`), so neither the whole table
    nor its Python floats are ever held at once."""
    width = sum(1 if np.ndim(column) == 1 else np.shape(column)[1] for column in columns)
    rows = max(1, _CSV_BLOCK // width)
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in meta_lines(meta) + [header]).encode("utf-8"))
        for start in range(0, len(columns[0]), rows):
            fh.write(format_block(np.column_stack([column[start:start + rows] for column in columns])))
