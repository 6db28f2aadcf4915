"""Multi-index arithmetic: binomials, signs, iteration."""

import math

import pytest
from hypothesis import given, strategies as st

from confgsb.indices import (
    factorial_multi,
    falling_factorial,
    index_add,
    index_sub,
    iter_box,
    sign_of,
    unit_index,
    zero_index,
)
from helpers import binom_multi, iter_below

small_index = st.tuples(st.integers(0, 6), st.integers(0, 6))


def test_binom_multi_basics():
    assert binom_multi((3, 2), (1, 1)) == 6
    assert binom_multi((3, 2), (0, 0)) == 1
    assert binom_multi((3, 2), (3, 2)) == 1
    assert binom_multi((3, 2), (4, 0)) == 0
    assert binom_multi((3, 2), (0, 3)) == 0
    assert binom_multi((), ()) == 1


@given(m=small_index, s=small_index)
def test_binom_multi_symmetry(m, s):
    # C(m, s) = C(m, m-s) wherever s fits under m
    if all(st_ <= mt for mt, st_ in zip(m, s)):
        assert binom_multi(m, s) == binom_multi(m, index_sub(m, s))
    else:
        assert binom_multi(m, s) == 0


@given(m=small_index, s=small_index)
def test_binom_multi_absorption(m, s):
    # (s_t + 1) C(m, s + e_t) = (m_t - s_t) C(m, s), coordinate by coordinate
    for t in range(2):
        lhs = (s[t] + 1) * binom_multi(m, index_add(s, unit_index(2, t)))
        rhs = (m[t] - s[t]) * binom_multi(m, s)
        assert lhs == rhs, (m, s, t)


def test_alternating_binomial_transform():
    """(-1)^a sum_s (-1)^s C(a,s) C(k+s,j) = C(k, a+k-j), exhaustively.

    This is the identity that collapses the double sums in the reduction
    arguments; note the alternating sign inside the sum is essential
    (dropping it already fails at a = k = j = 1).
    """
    for a in range(7):
        for k in range(7):
            for j in range(7):
                acc = sum(
                    (-1) ** s * math.comb(a, s) * math.comb(k + s, j)
                    for s in range(a + 1)
                )
                want = math.comb(k, a + k - j) if a + k - j >= 0 else 0
                assert (-1) ** a * acc == want, (a, k, j)
    # the unsigned variant is genuinely different
    assert sum(math.comb(1, s) * math.comb(1 + s, 1) for s in range(2)) == 3
    assert math.comb(1, 1) == 1


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(5, 5) == 120
    assert falling_factorial(5, 6) == 0
    assert falling_factorial(0, 1) == 0
    assert falling_factorial(2, 4) == 0


@given(m=st.integers(0, 12), i=st.integers(0, 12))
def test_falling_factorial_vs_factorials(m, i):
    if i <= m:
        assert falling_factorial(m, i) == math.factorial(m) // math.factorial(m - i)
    else:
        assert falling_factorial(m, i) == 0


def test_sign_of():
    assert sign_of((0, 0)) == 1
    assert sign_of((1, 0)) == -1
    assert sign_of((1, 1)) == 1
    assert sign_of((2, 1)) == -1


def test_index_arithmetic():
    assert index_add((1, 2), (3, 4)) == (4, 6)
    assert index_sub((3, 4), (1, 2)) == (2, 2)
    assert unit_index(3, 1) == (0, 1, 0)
    assert zero_index(3) == (0, 0, 0)
    with pytest.raises(ValueError):
        index_sub((1, 0), (0, 1))
    # e_t exists only for the n coordinates, so D_t for t outside them is refused
    for t in (-1, 3):
        with pytest.raises(ValueError, match="not in range"):
            unit_index(3, t)


def test_iter_box_is_ascending_lex_and_complete():
    box = list(iter_box((2, 3)))
    assert len(box) == 6
    assert box == sorted(box)
    assert box[0] == (0, 0)
    assert box[-1] == (1, 2)
    assert all(0 <= a < 2 and 0 <= b < 3 for a, b in box)


def test_iter_below_matches_binomial_support():
    m = (2, 1)
    below = list(iter_below(m))
    assert len(below) == 6
    assert all(binom_multi(m, s) > 0 for s in below)
    assert sum(binom_multi(m, s) for s in below) == 2 ** sum(m)


def test_factorial_multi():
    assert factorial_multi((0, 0)) == 1
    assert factorial_multi((3, 2)) == 12
    assert factorial_multi((1, 1, 4)) == 24
