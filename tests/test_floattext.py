"""The vectorized writers of float64 arrays against the library's own.

Every case compares text: `floattext.dumps(a)` must equal
`json.dumps(a.tolist())`, and `floattext.csv_rows(a)` the rows written
with ``'%d,%.16e,...'`` and the % operator, character for character.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lqdisc import floattext
from lqdisc.lqassemble import JSON_VECTOR_MIN, _json_array


def _same_text(a):
    a = np.asarray(a, dtype=np.float64)
    want = json.dumps(a.tolist())
    got = floattext.dumps(a)
    if got != want:
        # name the first values that differ
        bad = [(w, g) for w, g in zip(json.loads(want, parse_float=str),
                                      json.loads(got, parse_float=str))
               if w != g][:5]
        pytest.fail(f"{len(got)} vs {len(want)} characters; first "
                    f"differing values (json.dumps, floattext): {bad}")


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_random_bit_patterns():
    """250 000 seeded 64-bit patterns: every exponent field and both signs
    come up hundreds of times, NaNs and subnormals included."""
    rng = np.random.default_rng(20201)
    bits = rng.integers(0, 2 ** 64, size=250_000, dtype=np.uint64,
                        endpoint=False)
    fields = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    assert np.unique(fields).size == 2048
    assert 0 < np.count_nonzero(bits >> np.uint64(63)) < bits.size
    for chunk in np.split(bits, 5):
        _same_text(_from_bits(chunk))


def test_every_exponent_both_signs():
    """Each of the 2046 normal exponents with random significands, and each
    value negated."""
    rng = np.random.default_rng(7)
    field = np.repeat(np.arange(1, 2047, dtype=np.uint64), 20)
    frac = rng.integers(0, 2 ** 52, size=field.size, dtype=np.uint64)
    x = _from_bits((field << np.uint64(52)) | frac)
    _same_text(np.concatenate([x, -x]))


def _edges():
    """The values where the digits or the layout change."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    # the spacing below a power of two is half the spacing above it
    neighbours = [np.nextafter(twos, 0.0), np.nextafter(twos, np.inf)]
    ints = 2.0 ** 53 + np.arange(-8, 9)
    switches = []
    for v in (1e15, 1e16, 1e17, 1e-4, 1e-5, 1e-3, 0.1, 1.0, 10.0, 1e21,
              1e22, 1e23, 9.999999999999999e15, 5e-324, 1e308):
        switches += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    info = np.finfo(np.float64)
    extremes = [info.max, info.tiny, np.nextafter(info.tiny, 0.0),
                np.nextafter(info.tiny, np.inf), 5e-324, 1e-323, 8e-323,
                2.2250738585072014e-308, 1e-310, 0.0, np.nan, np.inf]
    x = np.concatenate([twos, *neighbours, ints, switches, extremes,
                        np.arange(0.0, 2000.0), np.arange(-1000, 1000) * 0.1,
                        10.0 ** np.arange(-325, 309)])
    return np.concatenate([x, -x])


def test_edge_table():
    x = _edges()
    assert np.isnan(x).any() and np.isinf(x).any() and (x == 0).any()
    assert np.signbit(x[x == 0]).any()
    _same_text(x)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (1,), (1, 1),
                                   (17, 1), (5000, 1)])
def test_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    _same_text(rng.standard_normal(shape) * 10.0 ** rng.integers(
        -30, 30, size=shape))


def test_chunk_boundaries():
    """Rows that do not divide the chunk, and arrays of several chunks in
    one and two dimensions; the first value of each chunk follows a
    separator, only the very first does not."""
    rng = np.random.default_rng(11)
    step = floattext._CHUNK
    for shape in [(step - 1,), (step,), (step + 1,), (3 * step + 5,),
                  (step // 7 + 3, 7), (2 * step // 12 + 1, 12),
                  (2, step + 3)]:
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-600, 600,
                                                            size=shape))
        _same_text(x)


def test_integer_chunks_and_mixed_chunks():
    """An all-integer chunk skips the digit search; one other value in it
    must send the chunk back through the search."""
    t = np.arange(3000.0)
    _same_text(t)
    _same_text(-t)
    for odd in (0.5, 2.0 ** 53, 1e300, np.nan, np.inf, 5e-324):
        x = t.copy()
        x[1234] = odd
        _same_text(x)


@pytest.mark.parametrize("size", [JSON_VECTOR_MIN - 1, JSON_VECTOR_MIN,
                                  JSON_VECTOR_MIN + 1])
def test_export_text_at_the_crossover(size):
    """Either side of the size where the export switches writers, in one
    and two dimensions."""
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    for a in (x, x.reshape(size, 1), np.arange(float(size))):
        assert b"".join(_json_array(a)) == json.dumps(a.tolist()).encode()
        _same_text(a)
    assert b"".join(_json_array(None)) == b"null"


def test_rejects_other_arrays():
    for bad in (np.zeros((2, 2, 2)), np.zeros(3, dtype=np.int64),
                np.float64(1.0)):
        with pytest.raises(ValueError):
            floattext.dumps(bad)


def test_shortest_digits_of_powers_of_ten():
    """The kernel alone: 10^e for every normal decimal exponent comes back
    as the digit 1 followed by zeros."""
    x = np.array([float(f"1e{e}") for e in range(-307, 309)])
    bits = x.view(np.uint64)
    field = (bits >> np.uint64(52)).astype(np.int64)
    c = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    f, k = floattext.shortest(c, field - 1075)
    for value, digits, exp in zip(x.tolist(), f.tolist(), k.tolist()):
        assert str(digits).rstrip("0") == "1", value
        assert float(f"{digits}e{exp}") == value


def _field_values(fields, significands):
    bits = (np.asarray(fields, dtype=np.uint64) << np.uint64(52)) | \
        np.asarray(significands, dtype=np.uint64)
    return bits.view(np.float64)


def test_interval_ends_from_one_product():
    """`shortest` takes the ends of each value's rounding interval from the
    value's own product and a shifted g, and only where such a sum lies
    near an integer from the end's own product. Against json.dumps:

    - every exponent field with the significands where the interval
      changes shape: 2^52 (a power of two, half the gap below), 2^52 + 1
      and 2^53 - 1, and random ones;
    - integers from 2^53 to 2^67, where g is nearly exact and about a
      third of the sums land within the window of an integer;
    - dyadic values (x.5, x.25, 2^k) and short decimals."""
    rng = np.random.default_rng(2020)
    fields = np.arange(1, 2047)
    special = [_field_values(fields, np.full(fields.size, s)) for s in
               (0, 1, 2 ** 52 - 1)]
    randoms = _field_values(np.repeat(fields, 10),
                            rng.integers(0, 2 ** 52, 10 * fields.size))
    big = np.repeat(np.arange(1076, 1091), 1000)
    integers = _field_values(big, rng.integers(0, 2 ** 52, big.size))
    assert np.all(np.floor(integers) == integers)
    dyadic = np.concatenate([np.arange(-3000, 3000) + 0.5,
                             np.arange(-3000, 3000) + 0.25,
                             np.ldexp(1.0, np.arange(-1022, 1024)),
                             np.arange(1, 5000) * 2.0 ** 60])
    decimals = np.concatenate([np.arange(1, 20000) / 1000,
                               np.arange(1, 20000) * 1e-7,
                               np.round(rng.uniform(-1e6, 1e6, 20000), 3),
                               10.0 ** np.arange(-300, 300) * 1.5])
    for x in (*special, randoms, integers, dyadic, decimals):
        _same_text(np.concatenate([x, -x]))


def test_own_products_only_near_an_integer(monkeypatch):
    """The three-product route (`_rop`) takes none of 10^5 N(0,1) draws;
    large integers do take it, and still read back exactly."""
    taken = []
    rop = floattext._rop

    def spy(g, cp):
        taken.append(cp.shape[-1])
        return rop(g, cp)

    monkeypatch.setattr(floattext, "_rop", spy)
    _same_text(np.random.default_rng(5).standard_normal(100_000))
    assert taken == []
    big = np.repeat(np.arange(1079, 1085), 500)
    _same_text(_field_values(big, np.random.default_rng(6).integers(
        0, 2 ** 52, big.size)))
    assert sum(taken) > 100


# ---------------------------------------------------------------------------
# csv_rows: the '%.16e' writer against the % operator

def _csv_reference(a):
    return "".join(("%d" + ",%.16e" * a.shape[1] + "\r\n") % (k, *row)
                   for k, row in enumerate(a.tolist()))


def _same_csv(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    want = _csv_reference(a)
    got = floattext.csv_rows(a)
    if got != want:
        bad = [(w, g) for w, g in zip(want.split("\r\n"), got.split("\r\n"))
               if w != g][:5]
        pytest.fail(f"{len(got)} vs {len(want)} characters; first "
                    f"differing lines ('%', csv_rows): {bad}")


def _exact(v):
    """The rounding step of `floattext.seventeen` for the normal double v,
    done with exact fractions: |v| 10^-k = whole + frac for the kernel's
    k, and the distance of the part rounded away from its tie. 17 digits
    round at frac = 1/2, 18 digits at (whole mod 10) + frac = 5. Returns
    (digits of whole, distance), the distance in units of 2^-63."""
    bits = int(np.float64(v).view(np.uint64)) & ((1 << 63) - 1)
    field, c = bits >> 52, (bits & ((1 << 52) - 1)) | (1 << 52)
    q = field - 1075
    k = floattext._flog10pow2(q) - 1
    t = Fraction(c) * Fraction(2) ** q / Fraction(10) ** k
    whole = int(t)
    if whole >= 10 ** 17:
        rest, tie = whole % 10 + (t - whole), 5
    else:
        rest, tie = t - whole, Fraction(1, 2)
    return len(str(whole)), (rest - tie) * 2 ** 63


def test_csv_rows_random_bit_patterns():
    """250 000 seeded 64-bit patterns, five to a row: every exponent field
    and both signs come up hundreds of times, NaNs and subnormals
    included."""
    rng = np.random.default_rng(20202)
    bits = rng.integers(0, 2 ** 64, size=250_000, dtype=np.uint64,
                        endpoint=False)
    fields = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    assert np.unique(fields).size == 2048
    assert 0 < np.count_nonzero(bits >> np.uint64(63)) < bits.size
    _same_csv(_from_bits(bits).reshape(-1, 5))


def test_csv_rows_edge_table():
    """±0, the smallest and largest normals, subnormals, ±inf, NaN, every
    power of two from 2^-1074 to 2^1023 and the doubles next to them."""
    x = _edges()
    info = np.finfo(np.float64)
    for v in (0.0, info.tiny, info.max, 5e-324, 1e-310, np.inf):
        assert (x == v).any() and (x == -v).any(), v
    assert np.isnan(x).any() and np.signbit(x[x == 0]).any()
    assert np.isin(np.ldexp(1.0, np.arange(-1074, 1024)), x).all()
    _same_csv(x)
    _same_csv(x.reshape(-1, 2))


def test_csv_rows_exact_ties():
    """Exact halfway values round to the even digit; both lie within the
    product's error of their tie, so both take the one-value path."""
    x = np.array([1e15 + 0.25, 1e15 + 0.75])
    assert floattext.csv_rows(x[:, None]) == (
        "0,1.0000000000000002e+15\r\n1,1.0000000000000008e+15\r\n")
    assert [_exact(v)[1] for v in x] == [0, 0]
    c = (x.view(np.uint64) & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = (x.view(np.uint64) >> np.uint64(52)).astype(np.int64) - 1075
    assert floattext.seventeen(c, q)[2].all()
    _same_csv(np.concatenate([x, -x, x * 2.0 ** -40, x * 2.0 ** 40]))
    # m 2^-j with m odd is m 5^j 10^-j: a tie when m 5^j has 18 digits
    rng = np.random.default_rng(17)
    ties = []
    for j in range(2, 26):
        low, high = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        m = rng.integers(low // 2, high // 2, size=100) * 2 + 1
        ties += np.ldexp(m[m < high].astype(float), -j).tolist()
    assert all(_exact(v)[1] == 0 for v in ties)
    _same_csv(np.array(ties))


def _beside_ties():
    """Normal doubles a small nonzero distance, 2^-51 to 2^-21 of a unit
    of the last digit, above or below a rounding tie. For q in [-76, -36]
    the kernel's k is negative, so c 2^q 10^-k = c 5^-k 2^-s has
    s = k - q < 53 bits after the point. c is solved mod 2^s for bits
    1/2 +- 2^-s (17 digits before the point) and mod 2^(s+1) for
    5 +- 5 2^-s in the last digit and the bits (18 digits); `_exact`
    keeps the solutions that land in the case they were solved for."""
    found = []
    for q in range(-76, -35):
        k = floattext._flog10pow2(q) - 1
        s, a = k - q, 5 ** -k
        for sign in (1, -1):
            for period, rest, unit in ((s, 2 ** (s - 1) + sign, a),
                                       (s + 1, 2 ** s + sign, a // 5)):
                c = rest * pow(unit, -1, 2 ** period) % 2 ** period
                c += -(-(2 ** 52 - c) // 2 ** period) * 2 ** period
                if c < 2 ** 53:
                    found.append(float(c) * 2.0 ** q)
    return [v for v in found if 2 < abs(_exact(v)[1]) < 2 ** 50]


def test_csv_rows_next_to_ties():
    """Just above a tie rounds up and just below rounds down, with 17 and
    with 18 digits, far inside the product's exactness."""
    x = _beside_ties()
    cases = {(_exact(v)[0], _exact(v)[1] > 0) for v in x}
    assert cases == {(17, False), (17, True), (18, False), (18, True)}
    assert len(x) > 40
    _same_csv(np.array(x))
    _same_csv(-np.array(x))


def test_csv_rows_carry_to_the_next_power_of_ten():
    """The doubles just below 10^k whose 17 digits round up to
    1.0000000000000000e+k: the carry of the 17-digit case. With 18 digits
    the kernel's whole part is below 9 10^17, so that case cannot carry."""
    below = []
    for k in range(-307, 309):
        v = float(f"1e{k}")
        for w in (v, np.nextafter(v, 0.0)):
            if Fraction(float(w)) < Fraction(10) ** k and \
                    "%.16e" % w == "1.0000000000000000e%+03d" % k:
                below.append(float(w))
    assert len(below) >= 10                 # 1e-14 and 1e+98 among them
    assert 1e-14 in below and 1e98 in below
    assert all(_exact(v)[0] == 17 for v in below)
    _same_csv(np.array(below))
    _same_csv(-np.array(below))


def test_csv_rows_one_value_path_takes_non_normal_and_near_ties(
        monkeypatch):
    """Only nonzero non-normal values and values within a few units of
    2^-63 of a tie are written one at a time."""
    taken = []
    patch = floattext._patch

    def spy(out, x, which, write):
        taken.extend(x[which].tolist())
        patch(out, x, which, write)

    monkeypatch.setattr(floattext, "_patch", spy)
    rng = np.random.default_rng(9)
    normals = rng.standard_normal(20_000) * 10.0 ** rng.integers(
        -300, 300, 20_000)
    ties = np.array([1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125,
                     123456789012345.625, -1e15 - 0.75])
    x = np.concatenate([normals, _edges(), ties])
    _same_csv(x)
    near = [v for v in taken
            if math.isfinite(v) and abs(v) >= np.finfo(np.float64).tiny]
    assert all(abs(_exact(v)[1]) < 4 for v in near)
    assert 0.0 not in taken
    assert set(ties.tolist()) <= set(near)
    # 21 of the normals, all between 1e13 and 1e16, are exact ties too:
    # their binary fractions end in a 5 at the 18th digit
    assert len(near) < 100


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (9, 3), (10, 3),
                                   (11, 2), (101, 4), (1000, 0)])
def test_csv_rows_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    _same_csv(rng.standard_normal(shape) * 10.0 ** rng.integers(
        -30, 30, size=shape))


def test_csv_rows_chunks():
    """Tables that do not divide the chunk and tables of several chunks:
    the index keeps counting and keeps its width across chunks."""
    rng = np.random.default_rng(12)
    step = floattext._CHUNK
    for rows in (step - 1, step, step + 1, 2 * step + 7, 10_001):
        _same_csv(rng.standard_normal((rows, 3)) * np.exp(
            rng.uniform(-600, 600, size=(rows, 3))))


def test_csv_rows_rejects_other_arrays():
    for bad in (np.zeros(3), np.zeros((2, 2, 2)),
                np.zeros((3, 2), dtype=np.int64)):
        with pytest.raises(ValueError):
            floattext.csv_rows(bad)
