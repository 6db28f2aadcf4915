"""Exact arithmetic on multi-indices.

A multi-index is a tuple of n nonnegative integers.  Everything downstream
(word labels, derivation exponents, locality bounds) is built on these, so the
helpers here are deliberately small and total: signs, factorials, falling
factorials, sums, differences and boxes of indices.  All arithmetic is
arbitrary-precision by construction (Python ints).
"""

from __future__ import annotations

import math
from itertools import product

MultiIndex = tuple[int, ...]


def falling_factorial(m: int, i: int) -> int:
    """m(m-1)...(m-i+1); 1 when i == 0, and 0 whenever 0 <= m < i."""
    if i < 0:
        raise ValueError(f"falling factorial of negative order {i}")
    out = 1
    for k in range(i):
        out *= m - k
    return out


def sign_of(s: MultiIndex) -> int:
    """(-1) to the total degree of s."""
    return -1 if sum(s) % 2 else 1


def index_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def index_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise difference; ValueError if a coordinate goes negative.

    Negative labels/exponents never arise in the normalization formulas
    (binomial supports and falling-factorial zeros cut those branches first),
    so a negative here is always a bug upstream.
    """
    out = tuple(x - y for x, y in zip(a, b, strict=True))
    if min(out) < 0:
        raise ValueError(f"negative index difference {a} - {b}")
    return out


def unit_index(n: int, t: int) -> MultiIndex:
    """The t-th coordinate vector e_t of length n; ValueError unless 0 <= t < n."""
    if not 0 <= t < n:
        raise ValueError(f"derivation index {t} is not in range({n})")
    return tuple(1 if k == t else 0 for k in range(n))


def zero_index(n: int) -> MultiIndex:
    return (0,) * n


def iter_box(bounds: MultiIndex):
    """All multi-indices m with 0 <= m_t < bounds_t, ascending lex order."""
    yield from product(*(range(b) for b in bounds))


def factorial_multi(s: MultiIndex) -> int:
    """s! = s_1! ... s_n!."""
    out = 1
    for st in s:
        out *= math.factorial(st)
    return out
