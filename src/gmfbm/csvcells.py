"""The CSV writer: tables whose value cells are the bytes of ``"%.17g" % x``,
formed in numpy.

``%.17g`` writes x in fixed notation when the decimal exponent k of x
rounded to 17 significant digits is in -4..16.  There 10^q, q = 16 - k, is
an exact double, and Dekker's product (no fused multiply-add needed) gives
|x| 10^q exactly as hi + lo.  Since hi >= 1e16 > 2^53, hi is an even
integer, so D = hi + rint(lo) is the 17-digit integer rounded half to even,
as CPython rounds.  A k that log10 gets wrong by one leaves D outside
[1e16, 1e17) and is stepped once.  Every other value (zeros, nan, inf,
|x| < 1e-4, |x| >= 1e17, and any D still out of range) is formatted by
``%`` itself.

A cell is built in four little-endian 64-bit words, NUL wherever nothing is
printed.  Byte 2 takes the sign.  Byte 3 + p holds place p of four leading
places and the 17 digits d0..d16 (d0 at byte 7), so the units digit is
place u = k + 4; for k < 0, places u..3 are '0'.  The integer part (places
up to u) stays where it is.  The fraction, with its trailing zeros dropped,
moves up one byte to make room for the '.' at byte 4 + u.  Bytes 2..25 are
the cell, and the NUL bytes are dropped when the rows are joined.

``chunks`` writes every byte of a CSV table.  Only CSV output imports
this module, so JSON runs do not pay for its tables.
"""

from __future__ import annotations

import itertools

import numpy as np

CELL = 24  # the longest %.17g of a double: -2.2250738585072014e-308

# value cells formatted per slice of rows: a bound on the working set
_SLICE_CELLS = 4096

_POW10 = np.array([float(10**q) for q in range(21)])  # exact doubles


def _veltkamp(a):
    # a = hi + lo exactly, each half with at most 26 significant bits
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _tables():
    v = np.arange(10**4, dtype=np.uint64)
    digits = [v // 1000, v // 100 % 10, v // 10 % 10, v % 10]
    four = sum(dj << np.uint64(8 * j) for j, dj in enumerate(digits)) | np.uint64(0x30303030)
    zeros = sum(v % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    lead = np.zeros((5, 10, 8), np.uint8)  # bytes 0-7 by min(u, 4) and d0
    keep = np.zeros((21, 24), np.uint8)    # the integer part's bytes by u
    body = np.zeros((17, 24), np.uint8)    # all but tz trailing zero digits
    for u in range(5):
        lead[u, :, 3 + u:7] = ord("0")
        lead[u, :, 7] = ord("0") + np.arange(10)
    for u in range(21):
        keep[u, 3:4 + u] = 255
    for tz in range(17):
        body[tz, :24 - tz] = 255
    # one table per word, indexed by u or tz
    words = [a.view("<u8").T.copy() for a in (keep, body)]
    return four, zeros, lead.view("<u8").ravel(), *words


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
_FOUR_DIGITS, _TRAILING_ZEROS, _LEAD, _KEEP_INT, _BODY = _tables()


def _digits17(ax: np.ndarray, k: np.ndarray) -> np.ndarray:
    # ax 10^(16-k) rounded half to even, as int64, by Dekker's exact product
    q = 16 - k
    p, p_hi, p_lo = _POW10[q], _POW10_HI[q], _POW10_LO[q]
    hi = ax * p
    a_hi, a_lo = _veltkamp(ax)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def fill_value_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the bytes of ``"%.17g" % v`` for each float v in x to
    out[..., :CELL], NUL-padded; out has x's shape plus that last axis."""
    v = np.ravel(x)
    ax = np.abs(v)
    fixed = (ax >= 1e-4) & (ax < 1e17)
    ax[~fixed] = 1.0
    k = np.clip(np.floor(np.log10(ax)), -4, 16).astype(np.intp)
    d = _digits17(ax, k)
    step = (d >= 10**17).astype(np.intp) - (d < 10**16)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] = np.clip(k[redo] + step[redo], -4, 16)
        d[redo] = _digits17(ax[redo], k[redo])
        fixed &= (d >= 10**16) & (d < 10**17)
    # d = d0, then four groups of four digits
    d0, hi8 = d // 10**16, d // 10**8
    g01, g23 = hi8 - d0 * 10**8, d - hi8 * 10**8
    g0, g2 = g01 // 10**4, g23 // 10**4
    groups = (g0, g01 - g0 * 10**4, g2, g23 - g2 * 10**4)
    four = [_FOUR_DIGITS[g] for g in groups]
    t = [_TRAILING_ZEROS[g] for g in groups]
    tz = (t[3] + (t[3] == 4) * (t[2] + (t[2] == 4) * (t[1] + (t[1] == 4) * t[0]))).astype(np.intp)
    u = k + 4
    places = (_LEAD[np.minimum(u, 4) * 10 + d0],
              four[0] | four[1] << np.uint64(32), four[2] | four[3] << np.uint64(32))
    words, carry, frac_any = [], np.uint64(0), np.uint64(0)
    for j, a in enumerate(places):
        keep = _KEEP_INT[j][u]
        frac = a & ~keep & _BODY[j][tz]
        words.append((a & keep) | (frac << np.uint64(8)) | carry)
        carry = frac >> np.uint64(56)
        frac_any = frac_any | frac
    words.append(carry)
    words[0] |= (v < 0) * np.uint64(ord("-") << 16)
    cells = np.stack(words, axis=1).astype("<u8", copy=False).view(np.uint8)
    out[...] = cells.reshape(x.shape + (32,))[..., 2:2 + CELL]
    # the '.' goes to byte 4 + u of the words, byte 2 + u of the cell
    dot = (frac_any != 0) * np.uint8(ord("."))
    np.put_along_axis(out, (u + 2).reshape(x.shape + (1,)), dot.reshape(x.shape + (1,)), axis=-1)
    other = np.flatnonzero(~fixed)
    if other.size:
        text = np.array(["%.17g" % f for f in v[other].tolist()], dtype=f"S{CELL}")
        out[np.unravel_index(other, x.shape)] = text.view(np.uint8).reshape(-1, CELL)


def chunks(names: list[str], inner: list, blocks):
    """The CSV text of one table, a slice of rows at a time: the header
    ``names``, then per row its key cells (``%d`` for integer keys, else
    ``%.17g``) and its value cells, from the blocks that ``cli._emit`` takes."""
    n_values = len(names) - 1 - len(inner)
    # per inner key: its cells, each after a ',', and the ',' before the values
    tails = _padded(["".join("," + cell for cell in key) + ","
                     for key in itertools.product(*map(_key_cells, inner))])
    step = max(1, _SLICE_CELLS // (len(tails) * n_values))
    head = ",".join(names) + "\n"
    for outer, values in blocks:
        keys = _padded(_key_cells(outer))
        w_key, width = keys.shape[1], keys.shape[1] + tails.shape[1]
        values = np.reshape(np.asarray(values, dtype=float), (len(keys), len(tails), n_values))
        for lo in range(0, len(keys), step):
            # NUL-padded rows: key, tail, then each value cell and a ',' or '\n'
            key = keys[lo:lo + step]
            rows = np.empty((len(key), len(tails), width + n_values * (CELL + 1)), np.uint8)
            rows[:, :, :w_key] = key[:, None]
            rows[:, :, w_key:width] = tails
            cells = rows[:, :, width:].reshape(rows.shape[:2] + (n_values, CELL + 1))
            cells[..., CELL] = ord(",")
            cells[..., -1, CELL] = ord("\n")
            fill_value_cells(values[lo:lo + step], cells[..., :CELL])
            yield head + rows[rows != 0].tobytes().decode("ascii")
            head = ""


def _key_cells(keys) -> list[str]:
    # %d for integers, else 17 significant digits: an exact round trip for doubles
    keys = np.asarray(keys)
    fmt = "%d" if keys.dtype.kind in "iu" else "%.17g"
    return [fmt % k for k in keys.tolist()]


def _padded(cells: list[str]) -> np.ndarray:
    # the cells as rows of NUL-padded bytes
    cells = np.array(cells, dtype="S")
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize)
