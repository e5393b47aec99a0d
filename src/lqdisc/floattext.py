"""The text of float64 arrays, written without a Python float per value.

Two writers, each equal character for character to the library call it
replaces:

- ``dumps(a)`` returns ``json.dumps(a.tolist())`` for a 1-D or 2-D
  float64 array. Each finite number is Python's ``repr``: the shortest
  decimal digits that read back to the same double, the closest such
  digits when there is a choice, written positionally when the decimal
  point position ``decpt`` (value = 0.d1d2... x 10^decpt) has
  -4 < decpt <= 16 and as ``d.ddde±XX`` otherwise, with ``.0`` after an
  integer.
- ``csv_rows(a)`` returns the CSV lines ``'%d,%.16e,...,%.16e\r\n' %
  (k, *a[k])`` of a 2-D float64 array. ``'%.16e'`` is the exact value
  correctly rounded to 17 significant digits, ties to even: not the
  shortest digits, so it needs digits of its own.

Both sets of digits come from one 126-bit power-of-ten table entry g(k)
and fixed-width integer arithmetic, as in Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; OpenJDK's ``DoubleToDecimal`` is
the reference implementation). Here that arithmetic runs on whole uint64
arrays. Every operand is uint64, or an int64 exponent kept apart from
them: numpy turns a uint64/int64 mix into float64. ``shortest`` is
Schubfach's search. ``seventeen`` takes the integer part and 63 fraction
bits of c 2^q 10^-k, 17 or 18 digits before the point, from one product,
and rounds them; the product is less than 2 units of 2^-63 from the exact
value, so only a value that close to a rounding tie is left open.

The text is assembled a chunk at a time, in a uint8 matrix with one
column per value (``dumps``) or per CSV line (``csv_rows``) and one row
per character position. Each character a column does not use is set to
0; the matrix is read column by column, and the zeros are left out.

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
_CHUNK = 4096                   # values (dumps) or rows (csv_rows) per
                                # chunk of text assembly


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


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a*b, elementwise."""
    a0, a1 = a & _M32, a >> _U(32)
    b0, b1 = b & _M32, b >> _U(32)
    lo_hi = a0 * b1
    hi_lo = a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (lo_hi & _M32) + (hi_lo & _M32)
    return (a1 * b1 + (lo_hi >> _U(32)) + (hi_lo >> _U(32))
            + (mid >> _U(32)))


def _product(g1, g0, cp):
    """g cp 2^-127, with g = g1 2^63 + g0, as its integer part and the 63
    bits after the point; the bits below those are dropped."""
    x1 = _mulhi(g0, cp)
    y1 = _mulhi(g1, cp)
    z = ((g1 * cp) >> _U(1)) + x1
    return y1 + (z >> _U(63)), z & _M63


def _rop(g1, g0, cp):
    """Round to odd of g cp 2^-127, with g = g1 2^63 + g0."""
    whole, frac = _product(g1, g0, cp)
    return whole | ((frac + _M63) >> _U(63))


def shortest(c, q):
    """Shortest closest digits of the normal doubles c 2^q.

    `c` is the uint64 significand with its hidden bit, `q` the int64
    binary exponent. Returns (f, k) with c 2^q ~ f 10^k: f is uint64, has
    16 or 17 digits and may end in zeros; k is int64.
    """
    irregular = c == _C_MIN     # a power of two: the gap below is half
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g1, g0 = (part[k - _K_MIN] for part in _table())
    cb = c << _U(2)
    cbl = cb - _U(2) + irregular.astype(_U)
    vb, vbl, vbr = _rop(g1, g0, np.stack([cb, cbl, cb + _U(2)]) << h)
    out = c & _U(1)             # an even significand keeps its bounds
    s = vb >> _U(2)
    # u = s 10^k or w = (s+1) 10^k: the one in the rounding interval, or
    # the closer one when both are (u on a tie when s is even)
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    take_w = win & (~uin | (vb > mid) | ((vb == mid) & (s & _U(1) == 1)))
    f = s + take_w.astype(_U)
    # one digit fewer, when exactly one multiple of 10 is in the interval
    sp10 = s // _U(10) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    fewer = (s >= _U(100)) & (upin != wpin)
    return np.where(fewer, sp10 + wpin.astype(_U) * _U(10), f), k


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
    # c 2^q 10^-k lies in [4.5 10^16, 9 10^17): 17 or 18 digits before
    # the point; c << h < 2^61 for h in [5, 8]
    k = _flog10pow2(q) - 1
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g1, g0 = (part[k - _K_MIN] for part in _table())
    # g overshoots 10^-k 2^-r by at most 1, which adds less than 2^-66 to
    # the product, and _product drops less than 1.5 units of 2^-63: the
    # exact c 2^q 10^-k is less than 2 units of 2^-63 from whole.frac
    whole, frac = _product(g1, g0, c << h)
    long = whole >= _POW10[17]
    last = whole % _U(10)
    f = np.where(long, whole // _U(10) + (last >= 5),
                 whole + (frac >= _HALF))
    # the tie is at .5 with 17 digits and at 5.0 in the last digit of 18
    near = np.where(long, ((last == 5) & (frac <= _TIE))
                    | ((last == 4) & (frac > _M63 - _TIE)),
                    frac - _HALF + _TIE <= _TIE + _TIE)
    # 9.99...95 and above round up to the next power of ten; with 18
    # digits whole < 9 10^17 leaves no room to carry
    carry = f == _POW10[17]
    return np.where(carry, _POW10[16], f), k + 16 + long + carry, near


_POW10 = np.array([10 ** i for i in range(18)], dtype=_U)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)),
                       dtype=np.uint16)     # "00" to "99"

# The character positions, one row each:
#   ", ["   separator, then the opening bracket of a matrix row
#   "-"     sign
#   "0.000" lead of a positional value below 1
#   17 digits before the point, ".", the same 17 digits after it
#   "e+000" exponent
#   "]"     end of a matrix row
_TEMPLATE = np.frombuffer(b", [-0.000" + b"0" * 17 + b"." + b"0" * 17
                          + b"e+000]", dtype=np.uint8)[:, None]
_SIGN, _LEAD, _HEAD, _DOT, _TAIL = 3, 4, 9, 26, 27 + 17
_WIDTH = len(_TEMPLATE)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def dumps(a) -> str:
    """``json.dumps(a.tolist())`` of a 1-D or 2-D float64 array."""
    a = np.asarray(a)
    if a.dtype != np.float64 or a.ndim not in (1, 2):
        raise ValueError(f"need a 1-D or 2-D float64 array, got "
                         f"{a.ndim}-D {a.dtype}")
    if a.size == 0:
        return json.dumps(a.tolist())
    rows = a.reshape(len(a), -1)
    cols = rows.shape[1]
    step = max(1, _CHUNK // cols)
    out = bytearray(b"[")
    for r in range(0, len(rows), step):
        x = rows[r:r + step].ravel()
        text = _columns(x)
        if a.ndim == 2:
            position = np.arange(x.size) % cols
            text[2] *= position == 0
            text[-1] *= position == cols - 1
        else:
            text[2] = text[-1] = 0
        if r == 0:
            text[:2, 0] = 0
        # value by value, from the rows that some value uses
        out += text[text.any(axis=1)].T.tobytes().translate(None, b"\0")
    out += b"]"
    return out.decode("ascii")


def _decimal(x, normal):
    """(f, decpt) of the normal values of x: |x| = 0.f x 10^decpt, with f
    a 17-digit integer, its shortest digits followed by zeros. Elsewhere
    f = 0 and decpt = 1, the digits of 0.0."""
    mag = np.abs(x)
    if np.all(mag < 2.0 ** 53) and np.all(np.floor(mag) == mag):
        # integers below 2^53 are their own shortest digits
        f = mag.astype(_U)
        digits = np.searchsorted(_POW10, f, side="right")
        f *= _POW10[17 - digits]
        decpt = digits
    else:
        bits = mag.view(_U)
        field = (bits >> _U(52)).astype(np.int64)
        c = (bits & (_C_MIN - _U(1))) | _C_MIN
        # fields 0 and 2047 get an in-range stand-in, replaced below
        f, k = shortest(c, np.clip(field, 1, 2046) - 1075)
        short = f < _POW10[16]
        f = np.where(short, f * _U(10), f)
        decpt = k + 17 - short
    if not normal.all():
        f[~normal] = 0
        decpt[~normal] = 1
    return f, decpt


def _digit_rows(f, out):
    """Write the 17 digits of each f < 10^17 as ASCII into the 17 rows of
    `out`: the first alone, then two halves of four pairs each."""
    first = f // _U(10 ** 16)
    out[0] = first + _U(ord("0"))
    rest = f - first * _U(10 ** 16)
    halves = np.empty((2, 1, f.size), dtype=np.intp)
    halves[0] = rest // _U(10 ** 8)
    halves[1] = rest % _U(10 ** 8)
    pairs = np.empty((2, 4, f.size), dtype=np.intp)
    for i in (3, 2, 1):
        tens = halves // 100
        pairs[:, i:i + 1] = halves - tens * 100
        halves = tens
    pairs[:, :1] = halves
    # pair i of half h is digits 1 + 8h + 2i and the next one
    chars = np.take(_PAIRS, pairs).view(np.uint8).reshape(2, 4, f.size, 2)
    out[1:].reshape(2, 4, 2, f.size)[...] = chars.transpose(0, 1, 3, 2)


def _columns(x: np.ndarray) -> np.ndarray:
    """The text of the values x, one column each: the characters a value
    uses, and 0 for the others, from row _SIGN on. Rows 0 to 2 and the
    last hold the separator and the brackets, for the caller to keep or
    set to 0.
    """
    n = x.size
    bits = x.view(_U)
    field = (bits >> _U(52)) & _U(0x7FF)
    normal = (field != 0) & (field != 0x7FF)
    f, decpt = _decimal(x, normal)

    text = np.empty((_WIDTH, n), dtype=np.uint8)
    text[:] = _TEMPLATE
    head = text[_HEAD:_DOT]
    _digit_rows(f, head)
    text[_DOT + 1:_TAIL] = head
    nd = np.maximum(((head != ord("0")) * _PLACES).max(axis=0), 1)

    # the digits kept: [0, head_end) before the point and [p, end) after
    # it; a positional value below 1 has "0." and -decpt zeros in front
    # of all its digits instead; every other character is set to 0
    positional = (decpt > -4) & (decpt <= 16)
    below = positional & (decpt <= 0)
    p = np.where(positional & ~below, decpt, 1).astype(np.int8)
    end = np.where(positional, np.maximum(nd, p + 1), nd).astype(np.int8)
    end[below] = 1
    j = np.arange(17, dtype=np.int8)[:, None]
    text[_SIGN] *= bits >> _U(63) == 1
    if below.any():
        text[_LEAD:_HEAD] *= j[:5] < np.where(below, 2 - decpt, 0)
    else:
        text[_LEAD:_HEAD] = 0
    head_end = np.where(below, nd, p)
    m = head_end.max()
    text[_HEAD:_HEAD + m] *= j[:m] < head_end
    text[_HEAD + m:_DOT] = 0
    text[_DOT] *= end > p
    # p <= j < end, as one unsigned comparison
    m = end.max()
    text[_DOT + 1:_DOT + 1 + m] *= ((j[:m] - p).view(np.uint8)
                                    < (end - p).view(np.uint8))
    text[_DOT + 1 + m:_TAIL] = 0

    # the exponent of d.ddd: its sign and two or three digits
    tail = text[_TAIL:-1]
    if positional.all():
        tail[:] = 0
    else:
        exp = np.abs(decpt - 1)
        tail[1] = np.where(decpt < 1, ord("-"), ord("+"))
        tail[2] += (exp // 100).astype(np.uint8)
        tail[3:] = np.take(_PAIRS, exp % 100).view(np.uint8).reshape(n, 2).T
        tail *= ~positional
        tail[2] *= exp >= 100

    # NaN, the infinities and subnormals
    _patch(text[_SIGN:-1], x, np.flatnonzero(~normal & (x != 0)), json.dumps)
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
    a = np.asarray(a)
    if a.dtype != np.float64 or a.ndim != 2:
        raise ValueError(f"need a 2-D float64 array, got {a.ndim}-D "
                         f"{a.dtype}")
    n, cols = a.shape
    width = len(str(max(n - 1, 0)))        # digits of the last index
    places = 10 ** np.arange(width - 1, -1, -1)[:, None]
    block = 1 + len(_SCI)                  # "," and one value
    out = bytearray()
    for r in range(0, n, _CHUNK):
        rows = a[r:r + _CHUNK]
        m = len(rows)
        text = np.empty((width + cols * block + 2, m), dtype=np.uint8)
        # the index without leading zeros
        index = np.arange(r, r + m)
        text[:width] = index // places % 10 + ord("0")
        text[:width - 1] *= index >= places[:-1]
        values = text[width:-2].reshape(cols, block, m)
        values[:, 0] = ord(",")
        # the values column by column, each column's text a block of rows
        values[:, 1:] = _sci(rows.ravel(order="F")).reshape(
            len(_SCI), cols, m).transpose(1, 0, 2)
        text[-2:] = np.frombuffer(b"\r\n", dtype=np.uint8)[:, None]
        out += text.T.tobytes().translate(None, b"\0")
    return out.decode("ascii")


def _sci(x: np.ndarray) -> np.ndarray:
    """The text ``'%.16e' % v`` of each value v of x, one column each, with
    0 for the characters a value does not use."""
    bits = x.view(_U)
    field = (bits >> _U(52)) & _U(0x7FF)
    normal = (field != 0) & (field != 0x7FF)
    zero = bits << _U(1) == 0
    c = (bits & (_C_MIN - _U(1))) | _C_MIN
    # fields 0 and 2047 get an in-range stand-in, replaced below
    f, e, near = seventeen(c, np.clip(field, 1, 2046).astype(np.int64)
                           - 1075)
    f = np.where(zero, _U(0), f)
    e = np.where(zero, 0, e)

    text = np.empty((len(_SCI), x.size), dtype=np.uint8)
    text[:] = _SCI
    text[0] *= bits >> _U(63) == 1
    _digit_rows(f, text[2:19])
    text[1] = text[2]
    text[2] = ord(".")
    exp = np.abs(e)
    text[20] = np.where(e < 0, ord("-"), ord("+"))
    text[21] += (exp // 100).astype(np.uint8)
    text[21] *= exp >= 100
    text[22:] = np.take(_PAIRS, exp % 100).view(np.uint8).reshape(-1, 2).T

    # NaN, the infinities, subnormals and the values next to a tie
    _patch(text, x, np.flatnonzero(~normal & ~zero | near), "%.16e".__mod__)
    return text
