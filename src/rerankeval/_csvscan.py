"""The vectorized scan behind ingest's plain-shape ratings reader: the file's
bytes, as a uint8 array buf, are cut into fields by the offsets of their
commas and LFs, field n of a column being buf[before[n] + 1:stops[n]], and
each column is parsed a block of rows at a time, so that no temporary spans
the file or the rows. The id columns are parsed to sort keys, which ids()
codes once the bytes are dropped.
"""

import numpy as np

# rows parsed per block, so that no temporary grows with the rows
_BLOCK_ROWS = 8192
# file bytes classified per step of the separator scans, so that no
# temporary grows with the file
_SCAN_BYTES = 1 << 16
# an id column at most this many bytes wide is sorted as one uint64 key per row
_KEY_BYTES = 8
# A rating at most this wide holds at most 15 digits, so the digits as an
# integer and the power of ten are exact doubles, and one division gives
# float()'s correctly rounded value.
_EXACT_RATING_WIDTH = 15
_POW10 = np.array([float(10 ** k) for k in range(_EXACT_RATING_WIDTH)])


def separators(buf, index):
    """Five arrays of offsets, of integer type index, that cut buf's lines
    into fields: field k of line n is buf[cuts[k][n] + 1:cuts[k + 1][n]];
    None unless every byte is LF or printable ASCII without space
    (0x21-0x7e), none a quote, and each line holds three commas. The first
    and the last array are views of one. Two scans step through buf
    _SCAN_BYTES at a time: the first checks and counts, the second fills
    the offsets in."""
    lines = commas = 0
    for lo in range(0, len(buf), _SCAN_BYTES):
        chunk = buf[lo:lo + _SCAN_BYTES]
        lf = np.count_nonzero(chunk == ord("\n"))
        if (lf + np.count_nonzero(chunk - np.uint8(0x21) < 0x5e) != len(chunk)
                or np.count_nonzero(chunk == ord('"'))):
            return None
        lines += lf
        commas += np.count_nonzero(chunk == ord(","))
    if commas != 3 * lines:
        return None
    lf = np.empty(lines + 1, dtype=index)  # -1, then each line's LF
    lf[0] = -1
    cuts = [lf[:-1], *(np.empty(lines, dtype=index) for _ in range(3)), lf[1:]]
    done = 0  # separator s, a comma or an LF, is number s % 4 of line s // 4
    for lo in range(0, len(buf), _SCAN_BYTES):
        chunk = buf[lo:lo + _SCAN_BYTES]
        found = np.flatnonzero((chunk == ord(",")) | (chunk == ord("\n"))) + lo
        for k in range(4):
            first = (k - done) % 4
            part = found[first::4]
            line = (done + first) // 4
            cuts[k + 1][line:line + len(part)] = part
        done += len(found)
    # with three commas per LF in all, each line's fourth separator its LF
    return cuts if (buf[cuts[4]] == ord("\n")).all() else None


def column(parse, buf, before, stops, *args):
    """parse(buf, before, stops, *args) of the fields buf[before[n] +
    1:stops[n]] of each block of _BLOCK_ROWS rows, as one column; None if
    parse gives None for a block. The offsets are cast to intp, so that an
    offset plus a byte position cannot wrap."""
    out = None
    for lo in range(0, len(before), _BLOCK_ROWS):
        block = parse(buf, before[lo:lo + _BLOCK_ROWS].astype(np.intp),
                      stops[lo:lo + _BLOCK_ROWS].astype(np.intp), *args)
        if block is None:
            return None
        if out is None:
            out = np.empty(len(before), dtype=block.dtype)
        out[lo:lo + len(block)] = block
    return out


def _field(buf, before, stops, width):
    """buf[before[n] + 1:stops[n]] of each row n, as a bytes column `width`
    wide (at least the longest)."""
    at = before[:, None] + np.arange(1, width + 1)
    field = buf.take(at, mode="clip")
    field[at >= stops[:, None]] = 0
    return field.view(f"S{width}").ravel()


def _byte(buf, before, stops, j):
    """Byte j of each field buf[before[n] + 1:stops[n]], 0 past its end."""
    at = before + (j + 1)
    byte = buf.take(at, mode="clip")
    byte[at >= stops] = 0
    return byte


def key(buf, before, stops, width):
    """A sort key per id field buf[before[n] + 1:stops[n]], `width` bytes the
    longest. Ids of at most _KEY_BYTES bytes get one uint64, their bytes
    big-endian and NUL-padded: plain ids hold no NUL, so key order is byte
    order, and ASCII byte order is code point order, as
    Interactions.from_columns sorts. Longer ids are their fields, NUL-padded
    to `width` bytes."""
    if width > _KEY_BYTES:
        return _field(buf, before, stops, width)
    packed = np.zeros(len(before), dtype=np.uint64)
    for j in range(width):
        packed <<= np.uint64(8)
        packed |= _byte(buf, before, stops, j)
    return packed << np.uint64(8 * (_KEY_BYTES - width))


def ids(keys, width, index):
    """(sorted distinct ids as a str array, code per row of integer type
    index) of the key() keys of an id column `width` bytes wide, from one
    argsort and a mask of where each run of equal keys starts.
    np.unique(keys) gives the ids too, but it loads numpy.ma, which no
    command otherwise needs."""
    order = np.argsort(keys)
    distinct = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=starts[1:])
    distinct = distinct[starts]
    ranks = np.cumsum(starts, dtype=index)  # code of each key in sorted order
    ranks -= 1
    codes = np.empty(len(keys), dtype=index)
    codes[order] = ranks
    if distinct.dtype == np.uint64:
        distinct = distinct.astype(">u8").view(f"S{_KEY_BYTES}")
    return distinct.astype(f"U{width}"), codes


def number(buf, before, stops, width, decimal):
    """Each field buf[before[n] + 1:stops[n]], `width` bytes the longest, as
    a number, or None unless every field is digits (decimal: with at most one
    point, and at least one digit). The digits are read into an int64 by one
    Horner step per byte position, exact for at most 18 of them. Without
    decimal that int64 is the column; with it, the float64 column equal to
    float() of each field: the int64 over a power of ten up to
    _EXACT_RATING_WIDTH bytes, float() of each field beyond."""
    value = np.zeros(len(before), dtype=np.int64)
    if decimal:
        after = np.zeros(len(before), dtype=np.int64)  # digits after the point
        point, any_digit = np.zeros(len(before), dtype=bool), np.zeros(len(before), dtype=bool)
    for j in range(width):
        byte = _byte(buf, before, stops, j)
        digit = byte - np.uint8(ord("0"))
        is_digit = digit < 10
        valid = is_digit | (byte == 0)
        if decimal:
            is_point = byte == ord(".")
            if (is_point & point).any():
                return None
            valid |= is_point
            point |= is_point
            after += point & is_digit
            any_digit |= is_digit
        if not valid.all():
            return None
        value = np.where(is_digit, value * 10 + digit, value)
    if not decimal:
        return value
    if not any_digit.all():
        return None
    if width <= _EXACT_RATING_WIDTH:
        return value / _POW10[after]
    return _field(buf, before, stops, width).astype(np.float64)
