"""Slow reference evaluator: one axiom instance per rewrite step.

This module normalizes expression trees by applying the defining axioms of
the algebra literally, one elementary step at a time:

  * derivations peel off a single coordinate per step (never the closed-form
    falling-factorial product),
  * left-nested products expand through the associativity identity
    (x<m>y)<m'>z = sum_s (-1)^|s| C(m,s) x<m-s>(y<m'+s>z),
  * an invalid label in front of a longer word expands through the inverse
    identity x<m>(y<m'>z) = sum_s C(m,s) (x<m-s>y)<m'+s>z (no alternating
    sign: composing it with the left-nested expansion telescopes to the
    identity only in this form), where the two-generator factors with
    invalid labels vanish outright,
  * an invalid label in front of a derived generator moves one derivation
    out via the product rule rearranged:
    x<m>(D_t y) = D_t(x<m>y) + m_t x<m-e_t>y.

It shares nothing with the fast engine except the output word type, and it
is deliberately unmemoized.  Use it to cross-check the engine; do not use it
for anything sizable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .words import AlgebraSignature, Leaf, LinComb, Node, NormalWord

Terms = dict[NormalWord, Fraction]


def _acc(out: Terms, w: NormalWord, c: Fraction) -> None:
    v = out.get(w, 0) + c
    if v:
        out[w] = v
    else:
        out.pop(w, None)


def _acc_all(out: Terms, terms: Terms, scale) -> None:
    if scale:
        for w, c in terms.items():
            _acc(out, w, c * scale)


def _binom(m, s) -> int:
    b = 1
    for mt, st in zip(m, s):
        b *= math.comb(mt, st)
    return b


def _sign(s) -> int:
    return -1 if sum(s) % 2 else 1


def _first_positive(i) -> int:
    for t, it in enumerate(i):
        if it > 0:
            return t
    raise ValueError(f"no positive coordinate in {i}")


def naive_normalize(sig: AlgebraSignature, comb: LinComb) -> Terms:
    """Normal form of a linear combination of expression trees."""
    out: Terms = {}
    for coeff, tree in comb:
        _acc_all(out, _norm_tree(sig, tree), Fraction(coeff))
    return out


def _norm_tree(sig: AlgebraSignature, tree) -> Terms:
    if isinstance(tree, Leaf):
        dexp = tuple(tree.dexp)
        if tree.gen not in range(len(sig.generators)) or len(dexp) != sig.n or min(dexp) < 0:
            raise ValueError(f"malformed leaf {tree!r} over {sig.n} coordinates "
                             f"and {len(sig.generators)} generators")
        return {NormalWord((), tree.gen, dexp): Fraction(1)}
    if not isinstance(tree, Node):
        raise ValueError(f"expected a Leaf or a Node, got {tree!r}")
    if len(tree.label) != sig.n or min(tree.label) < 0:
        raise ValueError(f"malformed node label {tree.label!r} over {sig.n} coordinates")
    left = _norm_tree(sig, tree.left)
    right = _norm_tree(sig, tree.right)
    out: Terms = {}
    for u, cu in left.items():
        for v, cv in right.items():
            _acc_all(out, naive_mul_words(sig, u, tree.label, v), cu * cv)
    return out


def naive_mul_words(sig: AlgebraSignature, u: NormalWord, m, v: NormalWord) -> Terms:
    """Normal form of [u] <m> [v], axiom by axiom."""
    if u.length == 1:
        if any(u.taild):
            # peel exactly one derivation off the left operand
            t = _first_positive(u.taild)
            if m[t] == 0:
                return {}
            taild = tuple(c - (k == t) for k, c in enumerate(u.taild))
            mm = tuple(c - (k == t) for k, c in enumerate(m))
            inner = naive_mul_words(sig, NormalWord((), u.tail, taild), mm, v)
            return {w: -m[t] * c for w, c in inner.items()}
        return _attach(sig, u.tail, m, v)

    # (b<m1>u1)<m>v expands through the associativity identity
    (b, m1), u1_links = u.links[0], u.links[1:]
    u1 = NormalWord(u1_links, u.tail, u.taild)
    out: Terms = {}
    for s in product(*(range(c + 1) for c in m1)):
        coeff = _sign(s) * _binom(m1, s)
        ms = tuple(a + b_ for a, b_ in zip(m, s))
        m1s = tuple(a - b_ for a, b_ in zip(m1, s))
        inner = naive_mul_words(sig, u1, ms, v)
        for w, c in inner.items():
            _acc_all(out, _attach(sig, b, m1s, w), coeff * c)
    return out


def _attach(sig: AlgebraSignature, g: int, m, v: NormalWord) -> Terms:
    """Normal form of generator g <m> [v]."""
    if sig.is_valid(m):
        return {NormalWord(((g, tuple(m)),) + v.links, v.tail, v.taild): Fraction(1)}

    if v.length == 1:
        if not any(v.taild):
            return {}  # two generators under an invalid label vanish
        # move one derivation out: g<m>(D_t y) = D_t(g<m>y) + m_t g<m-e_t>y
        t = _first_positive(v.taild)
        y = NormalWord((), v.tail, tuple(c - (k == t) for k, c in enumerate(v.taild)))
        out = _d_comb(sig, t, _attach(sig, g, m, y))
        if m[t]:
            mm = tuple(c - (k == t) for k, c in enumerate(m))
            _acc_all(out, _attach(sig, g, mm, y), Fraction(m[t]))
        return out

    # invalid label in front of a longer word: mirrored associativity, the
    # two-generator head g<m-s>c survives only where the label turns valid
    (c0, mp), rest_links = v.links[0], v.links[1:]
    rest = NormalWord(rest_links, v.tail, v.taild)
    out: Terms = {}
    for s in product(*(range(c + 1) for c in m)):
        ms = tuple(a - b_ for a, b_ in zip(m, s))
        if not sig.is_valid(ms):
            continue
        coeff = _binom(m, s)
        head = NormalWord(((g, ms),), c0, (0,) * sig.n)
        mps = tuple(a + b_ for a, b_ in zip(mp, s))
        _acc_all(out, naive_mul_words(sig, head, mps, rest), Fraction(coeff))
    return out


def naive_d_word(sig: AlgebraSignature, t: int, w: NormalWord) -> Terms:
    """Normal form of D_t [w] via the product rule, one link at a time."""
    if w.length == 1:
        bumped = tuple(c + (k == t) for k, c in enumerate(w.taild))
        return {NormalWord((), w.tail, bumped): Fraction(1)}
    (g, m), rest_links = w.links[0], w.links[1:]
    rest = NormalWord(rest_links, w.tail, w.taild)
    out: Terms = {}
    if m[t]:
        mm = tuple(c - (k == t) for k, c in enumerate(m))
        _acc(out, NormalWord(((g, mm),) + rest_links, w.tail, w.taild), Fraction(-m[t]))
    for ww, c in naive_d_word(sig, t, rest).items():
        _acc(out, NormalWord(((g, m),) + ww.links, ww.tail, ww.taild), c)
    return out


def _d_comb(sig: AlgebraSignature, t: int, terms: Terms) -> Terms:
    out: Terms = {}
    for w, c in terms.items():
        _acc_all(out, naive_d_word(sig, t, w), c)
    return out
