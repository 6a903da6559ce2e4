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

# A formatted value is one record of four little-endian 8-byte words.  Word
# 0: its sign, the lead-in "0.000", the first digit and a point slot.  Words
# 1-2: digits 2-17, where a point after digit X + 1 (1 ≤ X ≤ 15) shifts the
# later digits one byte on.  Word 3: the digit shifted out, "e", the
# exponent's sign and three digits, a NUL and the separator.  Unused bytes
# are NUL and are dropped.
_RECORD = 32
_POWERS = range(-270, 301)  # the exponents q of the table of 10^q
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into halves
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
    """The tables that fill the words of a record (see ``_RECORD``).

    ``groups``: the four ASCII digits of each group 0-9999 in bytes 0-3
    (``high``: in bytes 4-7); ``zeros``: twice its trailing zeros;
    ``leads``: the first digit in word 0.  Per exponent X + ``_KINDS``:
    ``kinds``, the layout class of X with all 17 digits and sign +, and
    ``tails``, word 3.  The kind is X + 4 in fixed notation (−4 ≤ X ≤ 16),
    else 21-24 for the exponent signs + and − with two, then three digits.
    ``classes``, one column per layout class (kind, last digit shown,
    sign): word 0 with its sign, lead-in and point; the masks of the
    digits 2-17 shown and of those before a point among them; that point."""
    g = np.arange(10000)
    groups = sum((48 + g // 10 ** (3 - j) % 10) << 8 * j for j in range(4)).astype(np.uint64)
    zeros = 2 * sum(g % 10 ** k == 0 for k in range(1, 5))
    leads = (48 + np.arange(10, dtype=np.uint64)) << np.uint64(48)
    e = np.arange(-_KINDS, _KINDS + 1)
    fixed = (e >= -4) & (e <= 16)
    kinds = np.where(fixed, e + 4, 21 + (e < 0) + 2 * (np.abs(e) >= 100))
    tails = np.zeros((e.size, 8), np.uint8)
    tails[:, 1] = ord("e")
    tails[:, 2] = np.where(e < 0, ord("-"), ord("+"))
    tails[:, 3:6] = 48 + np.abs(e)[:, None] // np.array([100, 10, 1]) % 10
    tails[np.abs(e) < 100, 3] = 0
    tails[fixed] = 0

    kind, last, sign = np.unravel_index(np.arange(25 * 17 * 2), (25, 17, 2))
    x = kind - 4
    shown = np.where((x >= 0) & (x <= 16), np.maximum(last, x), last)  # the last digit shown
    point = np.where((x >= 1) & (x <= 15) & (shown > x), x, 16)  # its byte in words 1-2
    table = np.zeros((kind.size, 56), np.uint8)
    table[sign == 1, 0] = ord("-")
    for lead in range(1, 5):  # X = −lead: "0." and lead − 1 zeros
        table[x == -lead, 1:2 + lead] = np.frombuffer(b"0.000"[:1 + lead], np.uint8)
    table[((x == 0) | (kind > 20)) & (shown > 0), 7] = ord(".")
    byte = np.arange(16)
    table[:, 8:24] = 255 * (byte < shown[:, None])
    table[:, 24:40] = 255 * (byte < np.minimum(point, shown)[:, None])
    table[:, 40:56] = ord(".") * (byte == point[:, None])
    return (groups, groups << np.uint64(32), zeros, leads, kinds * 34 + 32,
            tails.view(np.uint64).ravel(), table.view(np.uint64).T.copy())


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


def _records(x):
    """The records (see ``_RECORD``) of a (rows, cols) float block, row
    after row, as (rows·cols, 4) words, with "," or a newline as each
    value's separator.  The layout follows the "g" rules: fixed notation
    for −4 ≤ X < 17, else d.ddde±XX, and no trailing zeros."""
    # Each temporary is dropped once read.  That keeps a block's peak heap
    # near 0.4 MB; at the 0.8 MB it took otherwise, malloc handed the top of
    # the heap back after every block and page-faulted it in on the next.
    flat = x.reshape(-1)
    digits, e, ok = _digits(flat)
    groups, high, zeros, leads, kinds, tails, classes = _layouts()
    top = digits // 10 ** 8
    lower = np.empty((2, flat.size), np.int64)
    np.subtract(digits, top * 10 ** 8, out=lower[1])
    del digits
    lead = top // 10 ** 8
    np.subtract(top, lead * 10 ** 8, out=lower[0])
    del top
    upper = lower // 10 ** 4  # digits 2-5 and 10-13, then 6-9 and 14-17
    lower -= upper * 10 ** 4
    # the layout class: kind, last digit shown (16 less trailing zeros), sign
    e += _KINDS
    cls = kinds.take(e)
    cls += flat < 0.0
    cls -= zeros.take(lower[1])
    more = np.flatnonzero(lower[1] == 0)
    for group in (upper[1], lower[0], upper[0]):
        if not more.size:
            break
        cls[more] -= zeros.take(group[more])
        more = more[group[more] == 0]
    words = groups.take(upper)
    del upper
    words |= high.take(lower)
    del lower
    words &= classes[1:3].take(cls, axis=1)
    record = np.empty((flat.size, 4), np.uint64)
    np.bitwise_or(classes[0].take(cls), leads.take(lead), out=record[:, 0])
    del lead
    record[:, 3] = tails.take(e)
    if ((e - (_KINDS + 1)).view(np.uint64) < np.uint64(15)).any():  # some 1 ≤ X ≤ 15
        before = classes[3:5].take(cls, axis=1)
        before &= words
        words ^= before  # the digits after the point, moved one byte on
        shifted = words >> np.uint64(56)  # word 1's last digit, and the one shifted out
        words <<= np.uint64(8)
        words |= before
        words |= classes[5:7].take(cls, axis=1)
        words[1] |= shifted[0]
        record[:, 3] |= shifted[1]
    record[:, 1] = words[0]
    record[:, 2] = words[1]
    separators = np.full(x.shape[1], ord(",") << 56, np.uint64)
    separators[-1] = ord("\n") << 56
    record.reshape(*x.shape, 4)[..., 3] |= separators
    exact = np.flatnonzero(~ok)
    if exact.size:
        width = _RECORD - 1  # all but the separator
        text = "".join(s.ljust(width, "\0") for s in format_exact(flat[exact]))
        record.view(np.uint8)[exact, :width] = np.frombuffer(text.encode(), np.uint8).reshape(-1, width)
    return record


def format_exact(values) -> list:
    """Each value as ``f"{v:.17g}"``, one Python call per value."""
    return [f"{v:.17g}" for v in values.tolist()]


def format_block(block) -> bytes:
    """A (rows, cols) float block as CSV text: each value as
    ``f"{v:.17g}"``, byte for byte, joined by "," with a newline after
    each row.  Each value fills one NUL-padded record (:func:`_records`)
    and ``bytes.translate`` drops the NULs in one C pass; :func:`format_exact`
    formats what :func:`_digits` leaves out."""
    return _records(np.ascontiguousarray(block, dtype=float)).tobytes().translate(None, b"\0")


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
