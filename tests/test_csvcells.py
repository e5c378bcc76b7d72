"""The numpy CSV value cells against the ``"%.17g" %`` reference."""

import numpy as np
import pytest

from gmfbm import csvcells


def numpy_cells(x: np.ndarray) -> list[str]:
    # one cell per line, the NUL padding dropped
    lines = np.zeros(x.shape + (csvcells.CELL + 1,), np.uint8)
    lines[..., csvcells.CELL] = ord("\n")
    csvcells.fill_value_cells(x, lines[..., :csvcells.CELL])
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def assert_matches_percent(x: np.ndarray) -> None:
    # compared cell by cell and reported briefly: pytest's diff of two long
    # lists takes minutes
    ref = ["%.17g" % v for v in x.ravel().tolist()]
    got = numpy_cells(x)
    assert len(got) == len(ref)
    wrong = [(v, g, r) for v, g, r in zip(x.ravel().tolist(), got, ref) if g != r]
    assert not wrong, f"{len(wrong)} cells differ, first {wrong[:5]}"


def test_every_18th_digit_tie_in_one_to_ten():
    # m / 2^17 has 17 decimals ending in 5 for odd m: in [1, 10) every one of
    # them sits exactly halfway between two 17-digit values
    m = np.arange(2**17 + 1, 10 * 2**17, 2, dtype=np.float64)
    assert_matches_percent(m / 2**17)


def test_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{q}") for q in range(-5, 19)])
    x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    assert_matches_percent(np.concatenate([x, -x]))


def test_notation_switch_points():
    # %.17g turns to exponent notation below 1e-4 and from 1e17 on
    x = np.array([1e-4, 1e17])
    x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf),
                        np.nextafter(np.nextafter(x, 0), 0)])
    assert_matches_percent(np.concatenate([x, -x]))


def test_special_values():
    tiny = np.finfo(float).tiny
    x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  tiny, np.nextafter(tiny, 0), 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, -0.1, 1.0, -1.0, 100.0, 12.0, 1.05,
                  -0.00012, -1234.5, 120.5, 99999999999999984.0, 1e16 + 2])
    assert_matches_percent(x)


@pytest.mark.parametrize("shape", [(20000,), (50, 40, 10)])
def test_random_doubles_across_every_exponent(shape):
    rng = np.random.default_rng(18)
    # every bit pattern: mostly exponent notation, nan and inf included
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    assert_matches_percent(bits)
    # every binary exponent of the fixed-notation range and just beyond it
    n = int(np.prod(shape))
    e = rng.integers(-16, 60, size=n)
    x = np.ldexp(rng.uniform(1.0, 2.0, size=n), e) * rng.choice([-1.0, 1.0], size=n)
    assert_matches_percent(x.reshape(shape))


def test_csv_rows_match_per_row_reference():
    # two blocks of outer keys, each row keyed by (outer, inner): the header
    # once, then every row as one % format
    keys = [0, 17, 2048]
    inner = [0.5, 1e-05]
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3, 2, 3)) * 10.0 ** rng.integers(-6, 19, (3, 2, 3))
    values[1, 1, 2] = np.nan
    blocks = [(np.array(keys[:1]), values[:1]), (np.array(keys[1:]), values[1:])]
    text = "".join(csvcells.chunks(["k", "x", "u", "v", "w"], [inner], blocks))
    ref = "k,x,u,v,w\n" + "".join("%d,%.17g,%.17g,%.17g,%.17g\n" % (key, x, *values[i, j])
                                  for i, key in enumerate(keys) for j, x in enumerate(inner))
    assert text == ref
