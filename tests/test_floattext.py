"""The vectorized JSON writer of float64 arrays against json.dumps.

Every case compares text: `floattext.dumps(a)` must equal
`json.dumps(a.tolist())` character for character.
"""

import json

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
        assert _json_array(a) == json.dumps(a.tolist())
        _same_text(a)
    assert _json_array(None) == "null"


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
