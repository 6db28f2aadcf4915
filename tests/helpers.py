"""Measures that only the tests use: the leaf count, grade and D-freeness
of an expression tree, the generator sequence of a normal word, and the
componentwise binomial C(m, s) with its support."""

import math
from itertools import product

from confgsb.indices import MultiIndex
from confgsb.words import ExprTree, Leaf, NormalWord


def tree_leaves(tree: ExprTree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return tree_leaves(tree.left) + tree_leaves(tree.right)


def tree_grade(tree: ExprTree, t: int) -> int:
    """t-grading of a tree: node labels count +1 each, leaf exponents -1.

    Matches NormalWord.grade — every word in the normal form of a tree
    carries exactly this grade, coordinate by coordinate.
    """
    if isinstance(tree, Leaf):
        return -tree.dexp[t]
    return tree.label[t] + tree_grade(tree.left, t) + tree_grade(tree.right, t)


def tree_is_dfree(tree: ExprTree) -> bool:
    if isinstance(tree, Leaf):
        return not any(tree.dexp)
    return tree_is_dfree(tree.left) and tree_is_dfree(tree.right)


def word_gens(w: NormalWord) -> tuple[int, ...]:
    """The generators of w, its links' and then its tail."""
    return tuple(g for g, _ in w.links) + (w.tail,)


def binom_multi(m: MultiIndex, s: MultiIndex) -> int:
    """Product of componentwise binomial coefficients C(m_t, s_t).

    Zero as soon as any s_t > m_t, which is what cuts every infinite sum in
    the multiplication formulas down to finitely many terms.
    """
    out = 1
    for mt, st in zip(m, s, strict=True):
        if st > mt:
            return 0
        out *= math.comb(mt, st)
    return out


def iter_below(m: MultiIndex):
    """All s with 0 <= s <= m componentwise (the support of C(m, s))."""
    yield from product(*(range(mt + 1) for mt in m))
