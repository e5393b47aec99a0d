"""The text of float64 arrays, written without a Python float per value.

Two writers, each equal byte for byte to the library call it replaces,
and each an iterator over ASCII bytes, a chunk of _CHUNK values at a
time, so that a caller can write each piece to its file as it comes:

- ``json_chunks(a)`` gives ``json.dumps(a.tolist())`` for a 1-D or 2-D
  float64 array. Each finite number is Python's ``repr``: the shortest
  decimal digits that read back to the same double, the closest such
  digits when there is a choice, written positionally when the decimal
  point position ``decpt`` (value = 0.d1d2... x 10^decpt) has
  -4 < decpt <= 16 and as ``d.ddde±XX`` otherwise, with ``.0`` after an
  integer.
- ``csv_chunks(a)`` gives the CSV lines ``'%d,%.16e,...,%.16e\r\n' %
  (k, *a[k])`` of a 2-D float64 array. ``'%.16e'`` is the exact value
  correctly rounded to 17 significant digits, ties to even: not the
  shortest digits, so it needs digits of its own.

``dumps`` and ``csv_rows`` join those pieces into one string.

Both sets of digits come from one 126-bit product per value: the
significand c times a power-of-ten table entry g(k), in fixed-width
integer arithmetic, as in Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; OpenJDK's ``DoubleToDecimal`` is the reference
implementation). Here that arithmetic runs on whole uint64 arrays. Every
operand is uint64, or an int64 exponent kept apart from them: numpy
turns a uint64/int64 mix into float64. Each value's k, shifts and table
entries depend on its exponent field alone and are read from one table
per kernel. ``shortest`` is Schubfach's search. It needs the product at
the value and at the two ends of its rounding interval; the ends differ
from the value's product by a shift of g, so all three come from the one
product, and an end is taken from its own product only where its sum
lies within a few units of 2^-63 of an integer (none of 10^5 N(0,1)
draws). ``seventeen`` takes the integer part and 63 fraction bits of
c 2^q 10^-k, 17 or 18 digits before the point, from the product, and
rounds them; the product is less than 2 units of 2^-63 from the exact
value, so only a value that close to a rounding tie is left open.

The text is assembled a chunk at a time, in a uint8 matrix with one
column per value (JSON) or per CSV line and one row per character
position. Each character a column does not use is set to 0; the matrix
is read column by column, and the zeros are left out. A chunk's buffers
(its uint64 temporaries, its table rows and its text matrix) stay below
128 KiB: glibc maps a larger block afresh on every allocation, by
default, and its pages are faulted in again each time.

Subnormals, NaN and the infinities are written one at a time by the call
being replaced, and so are the values ``seventeen`` leaves open: below the
normal range Schubfach returns at least two digits (``7.9e-323`` where
``repr`` gives ``8e-323``), and ``seventeen`` needs a normal significand.
"""

from __future__ import annotations

import functools
import json

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_C_MIN = _U(1 << 52)            # the hidden bit of a normal significand
_K_MIN, _K_MAX = -325, 292      # decimal exponents the table covers
_CHUNK = 2560                   # values per chunk of text: the JSON
                                # text matrix is 49 x 2560 bytes


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| <= 5456721."""
    return (e * 661971961083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), exact for |e| <= 5456721."""
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), exact for |e| <= 6432162."""
    return (e * 913124641741) >> 38


@functools.cache
def _table() -> tuple[np.ndarray, np.ndarray]:
    """g1(k), g0(k) for k in [_K_MIN, _K_MAX]: g = g1 2^63 + g0 is
    floor(10^-k 2^-r) + 1, with r the integer that puts 10^-k 2^-r in
    [2^125, 2^126). Built with Python ints on first use."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num = 10 ** max(-k, 0) << max(-r, 0)
        g = num // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=_U), np.array(g0, dtype=_U)


def _mulhi(a, b0, b1):
    """The high 64 bits of the 128-bit products a (b1 2^32 + b0),
    elementwise, for a < 2^63, b0 < 2^32 and b1 < 2^29: then the middle
    sum below stays under 2^64."""
    a0, a1 = a & _M32, a >> _U(32)
    return a1 * b1 + ((a1 * b0 + a0 * b1 + ((a0 * b0) >> _U(32)))
                      >> _U(32))


def _product(g, cp):
    """g cp 2^-127, with g = g[1] 2^63 + g[0] and cp < 2^61, as its
    integer part and the 63 bits after the point; the bits below those
    are dropped, less than 1.5 units of 2^-63 in all. The two rows of g
    broadcast against cp."""
    c0, c1 = cp & _M32, cp >> _U(32)
    x1, y1 = _mulhi(g, c0, c1)
    z = ((g[1] * cp) >> _U(1)) + x1
    return y1 + (z >> _U(63)), z & _M63


def _rop(g, cp):
    """Round to odd of g cp 2^-127, with g = g[1] 2^63 + g[0]."""
    whole, frac = _product(g, cp)
    return whole | ((frac + _M63) >> _U(63))


def _scaled(g1, g0, h):
    """g 2^(h-63), with g = g1 2^63 + g0, as its integer part and the 63
    bits after the point; the bits below those are dropped."""
    return g1 >> (_U(63) - h), ((g1 << h) | (g0 >> (_U(63) - h))) & _M63


@functools.cache
def _constants() -> tuple[np.ndarray, np.ndarray]:
    """What `shortest` and `seventeen` need of each value's exponent, read
    with np.take, one column per value. Fields 0 and 2047 (zeros,
    subnormals, NaN and the infinities) get field 1's constants as a
    stand-in.

    shortest: column 2 e + p for exponent field e, with p = 1 for the
    significand 2^52; rows k, h + 2, g0, g1, then what takes the value's
    product to the ends of its rounding interval, -g 2^(h-63-p) and
    +g 2^(h-63) in units of 2^-63: the 63 bits after the point of each
    (the lower one as 2^63 - bits, so that its carry out is 1 less the
    borrow) and the integer part of each (the lower one as -part - 1).
    seventeen: column e; rows k, h, g0, g1.
    """
    col = np.arange(2 * 2048)
    p = (col & 1).astype(_U)
    q = np.clip(col >> 1, 1, 2046) - 1075
    k = np.where(p == 1, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U)           # in [2, 5]
    g1, g0 = (part[k - _K_MIN] for part in _table())
    (lw, lf), (dw, df) = _scaled(g1, g0, h - p), _scaled(g1, g0, h)
    short = np.stack([k.view(_U), h + _U(2), g0, g1, _U(1 << 63) - lf, df,
                      ~lw, dw])
    # c 2^q 10^-k lies in [4.5 10^16, 9 10^17): 17 or 18 digits before
    # the point; c << h < 2^61 for h in [5, 8]
    q = q[::2]
    k = _flog10pow2(q) - 1
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g1, g0 = (part[k - _K_MIN] for part in _table())
    return short, np.stack([k.view(_U), h, g0, g1])


# Where an end's sum lies within this many units of 2^-63 of an integer,
# the end is taken from its own product instead
_WINDOW = _U(16)
# Between s 10^k and (s+1) 10^k, both in the rounding interval, the
# closer one (s on a tie when s is even), by the last three bits of vb
_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=bool)


def shortest(c, q):
    """Shortest closest digits of the normal doubles c 2^q.

    `c` is the uint64 significand with its hidden bit, `q` the int64
    binary exponent. Returns (f, k) with c 2^q ~ f 10^k: f is uint64, has
    16 or 17 digits and may end in zeros; k is int64.
    """
    irregular = c == _C_MIN     # a power of two: the gap below is half
    cols = ((q + 1075) << 1) + irregular
    # in two blocks, each below a chunk's limit
    k, shift = np.take(_constants()[0][:2], cols, axis=1)
    rows = np.take(_constants()[0][2:], cols, axis=1)
    g = rows[:2]
    whole, frac = _product(g, c << shift)
    vb = whole | (frac != 0)
    # Schubfach's ends of the rounding interval, g (4c -+ 2) 2^h 2^-127,
    # or g (4c - 1) 2^h 2^-127 below a power of two, are this product
    # moved by the table's offsets. Each side drops less than 1.5 units of
    # 2^-63 from the product it stands for, and an offset less than 1
    # more: where the sum lies at least 3 units from an integer, the
    # rounding to odd of both is the same, its integer part with the last
    # bit set.
    ends = frac + rows[2:4]
    vbl, vbr = (whole + rows[4:] + (ends >> _U(63))) | _U(1)
    ends &= _M63
    near = (((ends + _WINDOW) & _M63) < _WINDOW + _WINDOW).any(axis=0)
    if near.any():
        cb = c[near] << _U(2)
        cp = np.stack([cb - _U(2) + irregular[near], cb + _U(2)])
        vbl[near], vbr[near] = _rop(g[:, None, near],
                                    cp << (shift[near] - _U(2)))
    out = c & _U(1)             # an even significand keeps its ends
    lo, hi = vbl + out, vbr - out
    s = vb >> _U(2)
    s4 = vb & ~_U(3)
    # u = s 10^k or w = (s+1) 10^k: the one in the rounding interval, or
    # the closer one when both are
    win = s4 + _U(4) <= hi
    take_w = win & ((lo > s4) | _UP[(vb & _U(7)).view(np.int64)])
    # one digit fewer, when exactly one multiple of 10 is in the interval
    # (s has 16 or 17 digits, so there is always room for one fewer)
    sp40 = s // _U(10) * _U(40)
    wpin = sp40 + _U(40) <= hi
    return np.where((lo <= sp40) != wpin, (sp40 >> _U(2)) + wpin * _U(10),
                    s + take_w), k.view(np.int64)


_HALF = _U(1 << 62)             # 1/2 in the 63 bits after the point
_TIE = _U(2)                    # the product's error bound, in 2^-63


def seventeen(c, q):
    """``'%.16e'`` digits of the normal doubles c 2^q.

    `c` is the uint64 significand with its hidden bit, `q` the int64
    binary exponent. Returns (f, e, near) with c 2^q ~ f 10^(e-16)
    rounded to 17 significant digits: f is uint64 in [10^16, 10^17), e
    is int64. Where `near` is set the value lies within the product's
    error of a rounding tie, and f may be one off.
    """
    rows = np.take(_constants()[1], q + 1075, axis=1)
    k, h = rows[:2]
    # g overshoots 10^-k 2^-r by at most 1, which adds less than 2^-66 to
    # the product, and _product drops less than 1.5 units of 2^-63: the
    # exact c 2^q 10^-k is less than 2 units of 2^-63 from whole.frac
    whole, frac = _product(rows[2:], c << h)
    long = whole >= _POW10[17]
    tens = whole // _U(10)
    last = whole - tens * _U(10)
    f = np.where(long, tens + (last >= 5), whole + (frac >= _HALF))
    # the tie is at .5 with 17 digits and at 5.0 in the last digit of 18
    near = np.where(long, ((last == 5) & (frac <= _TIE))
                    | ((last == 4) & (frac > _M63 - _TIE)),
                    frac - _HALF + _TIE <= _TIE + _TIE)
    # 9.99...95 and above round up to the next power of ten; with 18
    # digits whole < 9 10^17 leaves no room to carry
    carry = f == _POW10[17]
    return (np.where(carry, _POW10[16], f), k.view(np.int64) + 16 + long
            + carry, near)


_POW10 = np.array([10 ** i for i in range(18)], dtype=_U)

# The character positions, one row each:
#   ", ["   separator, then the opening bracket of a matrix row
#   "-"     sign
#   "0.000" lead of a positional value below 1
#   17 digits before the point, ".", the last 16 of them after it
#   "e+000" exponent
#   "]"     end of a matrix row
_TEMPLATE = np.frombuffer(b", [-0.000" + b"0" * 17 + b"." + b"0" * 16
                          + b"e+000]", dtype=np.uint8)[:, None]
_SIGN, _LEAD, _HEAD, _DOT, _TAIL = 3, 4, 9, 26, 27 + 16
_WIDTH = len(_TEMPLATE)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]
_ROW = np.arange(17, dtype=np.int8)[:, None]


def dumps(a) -> str:
    """``json.dumps(a.tolist())`` of a 1-D or 2-D float64 array."""
    return b"".join(json_chunks(a)).decode("ascii")


def json_chunks(a):
    """``json.dumps(a.tolist())`` of a 1-D or 2-D float64 array as ASCII
    bytes, in pieces of at most _CHUNK values each."""
    a = np.asarray(a)
    if a.dtype != np.float64 or a.ndim not in (1, 2):
        raise ValueError(f"need a 1-D or 2-D float64 array, got "
                         f"{a.ndim}-D {a.dtype}")
    if a.size == 0:
        yield json.dumps(a.tolist()).encode("ascii")
        return
    flat = a.ravel()
    cols = a.shape[1] if a.ndim == 2 else 0     # 0: no brackets per row
    yield b"["
    for r in range(0, flat.size, _CHUNK):
        text = _columns(flat[r:r + _CHUNK])
        text[2] = text[-1] = 0
        if cols:
            # the brackets of the rows that start and end in this chunk
            text[2, -r % cols::cols] = ord("[")
            text[-1, (-r - 1) % cols::cols] = ord("]")
        if r == 0:
            text[:2, 0] = 0
        # value by value, from the rows that some value uses
        yield text[text.any(axis=1)].T.tobytes().translate(None, b"\0")
    yield b"]"


def _decimal(x):
    """(f, decpt, normal) of the values x: |x| = 0.f x 10^decpt, with f a
    17-digit integer, its shortest digits followed by zeros, where x is
    normal; elsewhere f = 0 and decpt = 1, the digits of 0.0."""
    bits = x.view(_U)
    field = (bits >> _U(52)) & _U(0x7FF)
    normal = field - _U(1) < _U(2046)
    # the first value alone spares a chunk that is not all integers the
    # two whole-chunk tests
    if (float(x[0]).is_integer() and np.all(np.abs(x) < 2.0 ** 53)
            and np.all(np.floor(x) == x)):
        # integers below 2^53 are their own shortest digits
        f = np.abs(x).astype(_U)
        decpt = np.searchsorted(_POW10, f, side="right")
        f *= _POW10[17 - decpt]
    else:
        # fields 0 and 2047 get a stand-in, replaced below
        f, k = shortest((bits & (_C_MIN - _U(1))) | _C_MIN,
                        field.view(np.int64) - 1075)
        short = f < _POW10[16]
        f = np.where(short, f * _U(10), f)
        decpt = k + 17 - short
    if not normal.all():
        f[~normal] = 0
        decpt[~normal] = 1
    return f, decpt, normal


def _digit_rows(f, out):
    """Write the 17 digits of each f < 10^17 as ASCII into the 17 rows of
    `out`: the first, then two groups of eight split into fours, twos and
    ones, each split one division for all of them."""
    first = f // _POW10[16]
    out[0] = first
    rest = f - first * _POW10[16]
    eights = np.empty((2, f.size), dtype=_U)
    eights[0] = rest // _POW10[8]
    eights[1] = rest - eights[0] * _POW10[8]
    eights = eights.astype(np.uint32)
    fours = np.empty((2, 2, f.size), dtype=np.uint16)
    fours[:, 0] = high = eights // np.uint32(10 ** 4)
    fours[:, 1] = eights - high * np.uint32(10 ** 4)
    twos = np.empty((4, 2, f.size), dtype=np.uint8)
    fours = fours.reshape(4, f.size)
    twos[:, 0] = high = fours // np.uint16(100)
    twos[:, 1] = fours - high * np.uint16(100)
    twos = twos.reshape(8, f.size)
    ones = out[1:].reshape(8, 2, f.size)
    ones[:, 0] = high = twos // np.uint8(10)
    ones[:, 1] = twos - high * np.uint8(10)
    out += np.uint8(ord("0"))


def _exponent_rows(e, out):
    """Write the sign and the three digits of each exponent e, |e| < 1000,
    as ASCII into the 4 rows of `out`; a hundreds digit 0 is written as
    0, to be left out."""
    out[0] = np.where(e < 0, ord("-"), ord("+"))
    a = np.abs(e).astype(np.int16)
    high = a // 100
    out[1] = (high + ord("0")) * (high != 0)
    a -= high * 100
    out[2] = high = a // 10
    out[3] = a - high * 10
    out[2:] += np.uint8(ord("0"))


def _columns(x: np.ndarray) -> np.ndarray:
    """The text of the values x, one column each: the characters a value
    uses, and 0 for the others, from row _SIGN on. Rows 0 to 2 and the
    last hold the separator and the brackets, for the caller to keep or
    set to 0.
    """
    f, decpt, normal = _decimal(x)
    text = np.empty((_WIDTH, x.size), dtype=np.uint8)
    text[:] = _TEMPLATE
    head = text[_HEAD:_DOT]
    _digit_rows(f, head)
    text[_DOT + 1:_TAIL] = head[1:]
    nd = np.maximum(((head != ord("0")) * _PLACES).max(axis=0),
                    1).view(np.int8)

    # the digits kept: [0, head_end) before the point and [p, end) after
    # it; a positional value below 1 has "0." and -decpt zeros in front
    # of all its digits instead; every other character is set to 0
    span = (decpt + 3).view(_U)
    positional = span < _U(20)      # -4 < decpt <= 16
    below = span < _U(4)            # and decpt <= 0
    above = positional ^ below
    d = decpt.astype(np.int8)       # read where positional only
    p = np.where(above, d, 1)
    end = np.where(above, np.maximum(nd, d + 1), nd)
    end[below] = 1
    text[_SIGN] *= np.signbit(x)
    if below.any():
        text[_LEAD:_HEAD] *= _ROW[:5] < np.where(below, 2 - d, 0)
    else:
        text[_LEAD:_HEAD] = 0
    head_end = np.where(below, nd, p)
    m = head_end.max()
    text[_HEAD:_HEAD + m] *= _ROW[:m] < head_end
    text[_HEAD + m:_DOT] = 0
    text[_DOT] *= end > p
    # tail row i is digit i + 1: p <= i + 1 < end, as one unsigned
    # comparison
    m = end.max() - 1
    if m > 0:
        text[_DOT + 1:_DOT + 1 + m] *= ((_ROW[1:m + 1] - p).view(np.uint8)
                                        < (end - p).view(np.uint8))
    text[_DOT + 1 + max(m, 0):_TAIL] = 0

    # the exponent of d.ddd
    if positional.all():
        text[_TAIL:-1] = 0
    else:
        _exponent_rows(decpt - 1, text[_TAIL + 1:-1])
        text[_TAIL:-1] *= ~positional

    # NaN, the infinities and subnormals
    if not normal.all():
        _patch(text[_SIGN:-1], x, np.flatnonzero(~normal & (x != 0)),
               json.dumps)
    return text


def _patch(out, x, which, write) -> None:
    """Put write(float(x[i])) over column i of `out`, for each i in
    `which`, one value at a time."""
    for i in which:
        word = np.frombuffer(write(float(x[i])).encode("ascii"),
                             dtype=np.uint8)
        out[:, i] = 0
        out[:word.size, i] = word


# '%.16e': sign, a digit, ".", 16 digits, "e", the exponent's sign and
# three digits, the first only from 100 on
_SCI = np.frombuffer(b"-0.0000000000000000e+000", dtype=np.uint8)[:, None]


def csv_rows(a) -> str:
    """``"".join("%d,%.16e,...,%.16e\\r\\n" % (k, *a[k]) for k in
    range(len(a)))`` of a 2-D float64 array: one CSV line per row, led
    by the row's index."""
    return b"".join(csv_chunks(a)).decode("ascii")


def csv_chunks(a):
    """The lines of ``csv_rows(a)`` as ASCII bytes, in pieces of whole
    lines, at most _CHUNK values each (or one line, if longer)."""
    a = np.asarray(a)
    if a.dtype != np.float64 or a.ndim != 2:
        raise ValueError(f"need a 2-D float64 array, got {a.ndim}-D "
                         f"{a.dtype}")
    n, cols = a.shape
    width = len(str(max(n - 1, 0)))        # digits of the last index
    places = 10 ** np.arange(width - 1, -1, -1)[:, None]
    block = 1 + len(_SCI)                  # "," and one value
    step = max(1, _CHUNK // max(cols, 1))
    for r in range(0, n, step):
        rows = a[r:r + step]
        m = len(rows)
        text = np.empty((width + cols * block + 2, m), dtype=np.uint8)
        # the index without leading zeros: digit j is lead[j] mod 10
        lead = np.arange(r, r + m) // places
        shown = lead[:-1] != 0
        lead[1:] -= lead[:-1] * 10
        text[:width] = lead + ord("0")
        text[:width - 1] *= shown
        values = text[width:-2].reshape(cols, block, m)
        values[:, 0] = ord(",")
        # the values column by column, each column's text a block of rows
        values[:, 1:] = _sci(rows.ravel(order="F")).reshape(
            len(_SCI), cols, m).transpose(1, 0, 2)
        text[-2:] = np.frombuffer(b"\r\n", dtype=np.uint8)[:, None]
        yield text.T.tobytes().translate(None, b"\0")


def _sci(x: np.ndarray) -> np.ndarray:
    """The text ``'%.16e' % v`` of each value v of x, one column each, with
    0 for the characters a value does not use."""
    bits = x.view(_U)
    field = (bits >> _U(52)) & _U(0x7FF)
    normal = field - _U(1) < _U(2046)
    zero = bits << _U(1) == 0
    # fields 0 and 2047 get a stand-in, replaced below
    f, e, near = seventeen((bits & (_C_MIN - _U(1))) | _C_MIN,
                           field.view(np.int64) - 1075)
    if zero.any():
        f[zero] = 0
        e[zero] = 0

    text = np.empty((len(_SCI), x.size), dtype=np.uint8)
    text[:] = _SCI
    text[0] *= np.signbit(x)
    _digit_rows(f, text[2:19])
    text[1] = text[2]
    text[2] = ord(".")
    _exponent_rows(e, text[20:])

    # NaN, the infinities, subnormals and the values next to a tie
    _patch(text, x, np.flatnonzero(~normal & ~zero | near), "%.16e".__mod__)
    return text
