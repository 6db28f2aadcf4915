"""Engine correctness: frozen values, axiom properties, oracle agreement.

Every engine here is constructed with check=True, so the structural
invariants (length, grade conservation, D-free closure) are asserted inside
every single operation these tests perform.
"""

import copy
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confgsb.engine import Engine
from confgsb.envelope import enveloping_presentation, lie_algebra, lie_conformal, loop_conformal
from confgsb.indices import (
    falling_factorial,
    index_add,
    index_sub,
    iter_box,
    sign_of,
    unit_index,
)
from confgsb.naive import naive_normalize
from confgsb.rewrite import COMPLETE, LIMIT_REACHED, RewriteSystem, complete
from confgsb.words import (
    AlgebraSignature,
    ConfPoly,
    Leaf,
    Node,
    NormalWord,
    accumulate,
    single_word,
)
from helpers import binom_multi, iter_below, tree_grade, tree_is_dfree, tree_leaves

SIG2 = AlgebraSignature(n=2, locality=(2, 2), generators=("a",))
A = single_word(0, 2)


class _NoStore(dict):
    """A table that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def engine(sig, *, cache=True, cls=Engine, **kw):
    """An engine over ``sig``.  With cache=False it is the uncached reference
    that memoization must be transparent against: every table that
    ``memo_sizes()`` reports stores nothing, and interning is the identity."""
    e = cls(sig, **kw)
    if not cache:
        for table in ("_prefix_memo", "_words_memo", "_derive_memo", "_weights_memo",
                      "_interned", "_facts"):
            setattr(e, table, _NoStore())
        e._intern = lambda x, _: x
    return e


def eng(sig=SIG2, **kw):
    kw.setdefault("check", True)
    return engine(sig, **kw)


def word2(*labels, tail=0, taild=(0, 0)):
    return NormalWord(tuple((0, m) for m in labels), tail, taild)


def poly(*pairs):
    out = ConfPoly.zero()
    for coeff, w in pairs:
        out = out.add_scaled(ConfPoly.from_word(w), Fraction(coeff))
    return out


# --- frozen single-operation values ------------------------------------------


def test_mul_prefix_valid_label():
    e = eng()
    assert e.mul_prefix(0, (0, 0), A) == poly((1, word2((0, 0))))
    assert e.mul_prefix(0, (1, 1), word2((1, 0))) == poly((1, word2((1, 1), (1, 0))))


def test_mul_prefix_locality_zero():
    e = eng()
    assert e.mul_prefix(0, (2, 0), A).is_zero()
    assert e.mul_prefix(0, (0, 5), A).is_zero()


def test_mul_prefix_dodge():
    e = eng()
    assert e.mul_prefix(0, (2, 0), word2((0, 0))) == poly((2, word2((1, 0), (1, 0))))
    assert e.mul_prefix(0, (2, 1), word2((0, 0))) == poly((2, word2((1, 1), (1, 0))))
    assert e.mul_prefix(0, (2, 2), word2((0, 0))) == poly((4, word2((1, 1), (1, 1))))


def test_mul_prefix_against_derived_tail():
    e = eng()
    da = single_word(0, 2, (1, 0))
    assert e.mul_prefix(0, (2, 0), da) == poly((2, word2((1, 0))))
    assert e.mul_prefix(0, (3, 0), da).is_zero()


def test_mul_words_derived_left_operand():
    e = eng()
    da = single_word(0, 2, (1, 0))
    assert e.mul_words(da, (1, 0), A) == poly((-1, word2((0, 0))))
    assert e.mul_words(da, (0, 1), A).is_zero()
    dda = single_word(0, 2, (2, 1))
    # (−1)^3 · 2·1 · 1 · a⟨0,0⟩a from m = (2,1)
    assert e.mul_words(dda, (2, 1), A) == poly((-2, word2((0, 0))))


def test_mul_words_rejects_an_invalid_left_label():
    # the peel writes u's labels into the result, so they must be valid
    with pytest.raises(ValueError, match="not a normal word"):
        eng(check=False).mul_words(word2((2, 0)), (0, 0), A)


@pytest.mark.parametrize("call", [
    lambda e, w: e.mul_prefix(0, (0, 0), w),
    lambda e, w: e.mul_prefix_poly(0, (0, 0), ConfPoly.from_word(w)),
    lambda e, w: e.mul_words(A, (0, 0), w),
    lambda e, w: e.derive_word(0, w),
], ids=["mul_prefix", "mul_prefix_poly", "mul_words-right", "derive_word"])
def test_audit_rejects_an_operand_outside_the_box(call):
    # operands are trusted unless check=True, which rejects a right operand
    # whose label lies outside the locality box
    with pytest.raises(RuntimeError, match="is not a normal word"):
        call(eng(), word2((2, 0)))


@pytest.mark.parametrize("kw", [{"check": True}, {"check": False}, {"cache": False}],
                         ids=["check", "plain", "no-cache"])
@pytest.mark.parametrize("call, what", [
    (lambda e: e.derive_word(-1, word2((1, 0))), "derivation index"),
    (lambda e: e.derive_word(5, A), "derivation index"),
    (lambda e: e.derive_multi((1,), poly((1, word2((1, 1))))), "derivation exponent"),
    (lambda e: e.derive_multi((1, 0, 0), poly((1, word2((1, 1))))), "derivation exponent"),
    (lambda e: e.derive_multi((-1, 0), poly((1, word2((1, 1))))), "derivation exponent"),
    (lambda e: e.mul_poly(poly((1, A)), (-1, 0), poly((1, word2((1, 0))))), "label"),
    (lambda e: e.mul_poly(poly((1, A)), (0, 0, 0), poly((1, word2((1, 0))))), "label"),
    (lambda e: e.mul_poly(poly((1, A)), (1,), poly((1, word2((1, 0))))), "label"),
    (lambda e: e.mul_words(word2((1, 0)), (1,), A), "label"),
    (lambda e: e.mul_words(single_word(0, 2, (1, 0)), (-1, 0), A), "label"),
], ids=["derive_word-minus-1", "derive_word-5", "derive_multi-short", "derive_multi-long",
        "derive_multi-negative", "mul_poly-negative", "mul_poly-long", "mul_poly-short",
        "mul_words-peel-short", "mul_words-derived-negative"])
def test_malformed_index_arguments_raise(call, what, kw):
    # unchecked, each of these returns a wrong answer; a memo filled by valid
    # calls first does not let them through
    e = eng(**kw)
    e.derive_word(0, word2((1, 0)))
    e.mul_poly(poly((1, A)), (2, 0), poly((1, word2((1, 0)))))
    with pytest.raises(ValueError, match=what):
        call(e)


def test_audit_rejects_a_generator_out_of_range():
    # a bare generator's product that vanishes has no output word to audit
    with pytest.raises(RuntimeError, match="generator 5"):
        eng().mul_prefix(5, (2, 0), A)
    with pytest.raises(RuntimeError, match="generator 5"):
        eng().mul_words(single_word(5, 2), (2, 0), A)
    with pytest.raises(RuntimeError, match="generator 5"):
        eng().mul_prefix_poly(5, (1, 0), ConfPoly.from_word(A))
    # trusted without check=True
    assert eng(check=False).mul_prefix(5, (2, 0), A).is_zero()


def test_derive_word():
    e = eng()
    assert e.derive_word(0, A) == poly((1, single_word(0, 2, (1, 0))))
    assert e.derive_word(0, word2((1, 0))) == poly(
        (-1, word2((0, 0))), (1, word2((1, 0), taild=(1, 0)))
    )
    assert e.derive_word(1, word2((1, 0))) == poly(
        (1, word2((1, 0), taild=(0, 1)))
    )


def test_derive_multi():
    e = eng()
    p = poly((1, word2((1, 1))))
    assert e.derive_multi((0, 0), p) == p
    assert e.derive_multi((1, 1), ConfPoly.from_word(A)) == poly(
        (1, single_word(0, 2, (1, 1)))
    )
    out = e.derive_multi((2, 0), p)
    assert out == poly(
        (-2, word2((0, 1), taild=(1, 0))), (1, word2((1, 1), taild=(2, 0)))
    )
    assert out.leading_word() == word2((1, 1), taild=(2, 0))


def test_normalize_tree_matches_nested_products():
    e = eng()
    tree = Node(Leaf(0, (0, 0)), (2, 2), Node(Leaf(0, (0, 0)), (0, 0), Leaf(0, (0, 0))))
    assert e.normalize_tree(tree) == poly((4, word2((1, 1), (1, 1))))
    left_nested = Node(Node(Leaf(0, (0, 0)), (1, 0), Leaf(0, (0, 0))), (1, 0), Leaf(0, (0, 0)))
    expanded = ConfPoly.zero()
    for s in iter_below((1, 0)):
        tree_s = Node(
            Leaf(0, (0, 0)),
            index_sub((1, 0), s),
            Node(Leaf(0, (0, 0)), index_add((1, 0), s), Leaf(0, (0, 0))),
        )
        expanded = expanded.add_scaled(
            e.normalize_tree(tree_s), sign_of(s) * binom_multi((1, 0), s)
        )
    assert e.normalize_tree(left_nested) == expanded


def test_normalize_linear_combination():
    e = eng()
    comb = [
        (Fraction(2), Node(Leaf(0, (0, 0)), (0, 0), Leaf(0, (0, 0)))),
        (Fraction(-2), Node(Leaf(0, (0, 0)), (0, 0), Leaf(0, (0, 0)))),
        (Fraction(1, 2), Leaf(0, (0, 0))),
    ]
    assert e.normalize(comb) == poly((Fraction(1, 2), A))


def test_normalize_rejects_unknown_generator():
    with pytest.raises(ValueError):
        eng().normalize_tree(Leaf(3, (0, 0)))


@pytest.mark.parametrize("left", [Leaf(0, (0, 0)), Leaf(0, (1, 0)),
                                  Node(Leaf(0, (0, 0)), (0, 0), Leaf(0, (0, 0)))],
                         ids=["generator", "derived", "product"])
@pytest.mark.parametrize("label", [(0,), (0, 0, 0), (-1, 0), (1, -1)])
def test_normalize_rejects_malformed_node_labels(left, label):
    with pytest.raises(ValueError, match="node label"):
        eng().normalize_tree(Node(left, label, Leaf(0, (0, 1))))


def _mul_poly_route(e, tree):
    """``normalize_tree`` with every node through ``mul_poly`` after its label
    check, the route each node took before right-normed runs were prepended
    at once: the reference for the run prepend's values, order and errors."""
    if not isinstance(tree, Node):
        return e.normalize_tree(tree)
    left, right = _mul_poly_route(e, tree.left), _mul_poly_route(e, tree.right)
    e._check_index("node label", tree.label)
    return e.mul_poly(left, tree.label, right)


@pytest.mark.parametrize("kw", [{"check": True}, {"check": False}, {"cache": False}],
                         ids=["check", "plain", "no-cache"])
@pytest.mark.parametrize("sig", [AlgebraSignature(2, (2, 2), ("a", "b")),
                                 AlgebraSignature(2, (2, 3), ("a",)),
                                 AlgebraSignature(1, (3,), ("x", "y"))],
                         ids=["(2,2)", "(2,3)", "(3)"])
def test_generator_led_prepend_matches_mul_poly_route(sig, kw):
    # the same terms in the same order with the same coefficient types as
    # mul_poly gave, and the oracle's result, under valid and invalid labels
    # and over derived and D-free right operands
    rng = random.Random(f"{sig}{kw}")

    def rand_tree(leaves, dfree):
        if leaves == 1:
            dexp = tuple(0 if dfree else rng.choice((0, 0, 1, 2)) for _ in range(sig.n))
            return Leaf(rng.randrange(len(sig.generators)), dexp)
        k = rng.randint(1, leaves - 1)
        label = tuple(rng.randint(0, b) for b in sig.locality)  # b itself is invalid
        return Node(rand_tree(k, dfree), label, rand_tree(leaves - k, dfree))

    routed = words = 0
    for _ in range(60):
        tree = rand_tree(rng.randint(2, 4), dfree=rng.random() < 0.4)
        comb = [(rng.choice((1, -2, Fraction(1, 3))), tree)]
        e = engine(sig, **kw)
        got = e.normalize_tree(tree)
        want = _mul_poly_route(engine(sig, **kw), tree)
        assert list(got.terms.items()) == list(want.terms.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
        assert e.normalize(comb).terms == naive_normalize(sig, comb)
        routed += isinstance(tree.left, Leaf) and not any(tree.left.dexp)
        words += e.memo_sizes()["words"]
    assert routed > 10 and (words > 0) == kw.get("cache", True)


def test_right_nested_valid_chain_takes_no_words_memo_entry():
    e = eng()
    chain = Node(Leaf(0, (0, 0)), (1, 1), Node(Leaf(0, (0, 0)), (0, 1), Leaf(0, (1, 0))))
    assert e.normalize_tree(chain) == poly((1, word2((1, 1), (0, 1), taild=(1, 0))))
    assert e.memo_sizes()["words"] == 0 and e.memo_sizes()["prefix"] == 0


_Z = (0, 0)
_AB = AlgebraSignature(2, (2, 2), ("a", "b"))
_RUN_TREES = {
    # a run of three links over a derived leaf
    "run": Node(Leaf(0, _Z), (1, 1), Node(Leaf(1, _Z), (0, 1),
                                          Node(Leaf(0, _Z), (1, 0), Leaf(1, (1, 0))))),
    # an invalid label parts two runs
    "invalid-label": Node(Leaf(0, _Z), (1, 0), Node(Leaf(1, _Z), (2, 1),
                                                    Node(Leaf(0, _Z), (0, 1), Leaf(1, _Z)))),
    "derived-leaf": Node(Leaf(0, _Z), (1, 1), Node(Leaf(1, (1, 0)), (1, 1),
                                                   Node(Leaf(0, _Z), (1, 0), Leaf(0, _Z)))),
    "parenthesized": Node(Leaf(0, _Z), (0, 1), Node(Node(Leaf(1, _Z), (1, 0), Leaf(0, _Z)), (1, 1),
                                                    Node(Leaf(0, _Z), (0, 0), Leaf(1, _Z)))),
    # the run's rest has several words, so the prepend keeps an order
    "several-words": Node(Leaf(1, _Z), (0, 0), Node(Leaf(0, _Z), (1, 1), Node(
        Node(Leaf(1, _Z), (1, 1), Leaf(0, _Z)), (1, 0), Leaf(0, (0, 1))))),
}


@pytest.mark.parametrize("kw", [{"check": True}, {"check": False}, {"cache": False}],
                         ids=["check", "plain", "no-cache"])
@pytest.mark.parametrize("case", list(_RUN_TREES))
def test_run_prepend_matches_per_node_route(case, kw):
    tree = _RUN_TREES[case]
    e, ref = engine(_AB, **kw), engine(_AB, **kw)
    got, want = e.normalize_tree(tree), _mul_poly_route(ref, tree)
    assert list(got.terms.items()) == list(want.terms.items()) and got
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    assert got.terms == naive_normalize(_AB, [(1, tree)])
    # under check=True every word the prepend writes is audited
    assert (e.invariant_checks > 0) == kw.get("check", False)


def test_run_prepend_matches_per_node_route_on_random_chains():
    # right-leaning chains whose links are bare generators, derived ones or
    # products, under valid and invalid labels
    rng = random.Random(20)
    sig = AlgebraSignature(2, (2, 3), ("a", "b"))

    def leaf():
        return Leaf(rng.randrange(2), (rng.choice((0, 0, 0, 1)), rng.choice((0, 0, 0, 1))))

    def chain(depth):
        if depth == 0:
            return leaf()
        left = leaf() if rng.random() < 0.8 else Node(leaf(), (rng.randrange(2), 0), leaf())
        label = (rng.randint(0, 2), rng.randint(0, 2 if rng.random() < 0.2 else 3))
        return Node(left, label, chain(depth - 1))

    for check in (True, False):
        e, ref = engine(sig, check=check), engine(sig, check=check)
        for _ in range(80):
            tree = chain(rng.randint(1, 5))
            got, want = e.normalize_tree(tree), _mul_poly_route(ref, tree)
            assert list(got.terms.items()) == list(want.terms.items()), tree
        assert (e.invariant_checks > 0) == check


@pytest.mark.parametrize("tree", [
    Node(Leaf(0, _Z), (1, 0), Node(Leaf(5, _Z), (0, 1), Leaf(0, _Z))),
    Node(Leaf(0, _Z), (1, 0), Node(Leaf(1, _Z), (0, 1), Leaf(7, _Z))),
    Node(Leaf(0, _Z), (1, 0), Node(Leaf(0, _Z), (0,), Leaf(0, _Z))),
    Node(Leaf(0, _Z), (1, 0), Node(Leaf(0, _Z), (0, 0, 0), Leaf(9, _Z))),
    Node(Leaf(0, _Z), (1, 0), Node(Leaf(0, _Z), (-1, 0), Leaf(0, _Z))),
    Node(Leaf(0, _Z), (1, 1), Node(Leaf(0, (0,)), (0, 0), Leaf(0, _Z))),
    Node(Leaf(0, _Z), (0, 1), "a"),
], ids=["leaf-in-run", "leaf-as-rest", "short-label", "long-label", "negative-label",
        "short-leaf-exponent", "not-a-tree"])
def test_run_prepend_raises_as_per_node_route(tree):
    with pytest.raises(ValueError) as got:
        eng(_AB).normalize_tree(tree)
    with pytest.raises(ValueError) as want:
        _mul_poly_route(eng(_AB), tree)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("box", [(7,), (5, 5), (4, 3, 4)], ids=["n=1", "n=2", "n=3"])
def test_weight_rows_match_binomial_reference(box):
    # each valid label's row, built one coordinate at a time, equals the row
    # of binom_multi over iter_below, order included
    e = Engine(AlgebraSignature(len(box), box, ("a",)))
    for m in iter_box(box):
        want = tuple((s, index_sub(m, s), sign_of(s) * binom_multi(m, s)) for s in iter_below(m))
        assert e._weights(m) == want
        assert all(type(c) is int for _, _, c in e._weights(m))


@functools.cache
def _dodge_row(m, bound):
    """{u: weight} with gen⟨m⟩(b⟨q⟩v) = Σ_u weight · gen⟨m−u⟩(b⟨q+u⟩v), all
    m − u valid, by the defining recursion: m < bound is itself valid, and
    otherwise the vanishing gen⟨m⟩b gives Σ_s (−1)^s C(m,s) gen⟨m−s⟩(b⟨q+s⟩v)
    = 0, solved for s = 0, each term with m − s ≥ bound expanded again."""
    if m < bound:
        return {0: 1}
    row = {}
    for s in range(1, m + 1):
        for u, c in _dodge_row(m - s, bound).items():
            row[s + u] = row.get(s + u, 0) - (-1) ** s * math.comb(m, s) * c
    return {u: c for u, c in sorted(row.items()) if c}


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_dodge_rows_match_defining_recursion(bound):
    # n = 1: an invalid label's row is w_t itself, with a = m − N + 1 ≥ 1
    e = Engine(AlgebraSignature(1, (bound,), ("a",)))
    for m in range(bound, bound + 6):
        want = tuple(((u,), (m - u,), c) for u, c in _dodge_row(m, bound).items())
        assert e._weights((m,)) == want
        assert all(type(c) is int for _, _, c in e._weights((m,)))


@pytest.mark.parametrize("box", [(2, 3), (1, 2, 2)], ids=["(2,3)", "(1,2,2)"])
def test_dodge_rows_are_products_of_coordinate_rows(box):
    # an invalid label's row is the product of the coordinates' rows, a valid
    # coordinate's row being {0: 1}, and every outer label in it is valid
    e = Engine(AlgebraSignature(len(box), box, ("a",)))
    for m in iter_box(tuple(b + 4 for b in box)):
        if e.sig.is_valid(m):
            continue
        rows = [_dodge_row(mt, b) for mt, b in zip(m, box)]
        want = tuple((u, index_sub(m, u), math.prod(r[k] for r, k in zip(rows, u)))
                     for u in itertools.product(*rows))
        assert e._weights(m) == want
        assert all(e.sig.is_valid(ms) for _, ms, _ in want)


# --- the golden identity suite -----------------------------------------------


def f_poly(e):
    return e.mul_prefix(0, (0, 0), A) - ConfPoly.from_word(A)


def test_golden_identities_on_f():
    e = eng()
    f = f_poly(e)
    ap = ConfPoly.from_word(A)
    g = poly((1, word2((1, 0), (1, 0))))
    h = poly((1, word2((0, 1), (0, 1))))
    p = poly((1, word2((1, 1), (1, 0))))
    q = poly((1, word2((1, 1), (0, 1))))
    s = poly((1, word2((1, 1), (1, 1))))
    assert e.mul_poly(ap, (2, 0), f) == 2 * g
    assert e.mul_poly(ap, (0, 2), f) == 2 * h
    assert e.mul_poly(ap, (2, 1), f) == 2 * p
    assert e.mul_poly(ap, (1, 2), f) == 2 * q
    assert e.mul_poly(ap, (2, 2), f) == 4 * s


def test_golden_identities_on_pairs():
    e = eng()
    assert e.mul_prefix(0, (2, 0), word2((0, 1))) == poly((2, word2((1, 0), (1, 1))))
    assert e.mul_prefix(0, (1, 2), word2((1, 0))) == poly((2, word2((1, 1), (1, 1))))
    assert e.mul_prefix(0, (2, 1), word2((0, 1))) == poly((2, word2((1, 1), (1, 1))))


def test_max_label_appends_as_a_single_word():
    # [u]⟨N−1⟩a = [u⟨N−1⟩a] for every D-free u: nothing spills over
    e = eng()
    tip = (1, 1)
    words = [A] + [word2(m) for m in iter_below(tip)]
    words += [word2(m, mm) for m in iter_below(tip) for mm in iter_below(tip)]
    for u in words:
        expect = NormalWord(u.links + ((u.tail, tip),), 0, (0, 0))
        assert e.mul_words(u, tip, A) == ConfPoly.from_word(expect), u


# --- vanishing bounds ---------------------------------------------------------


def test_degree3_vanishing_bound():
    e = eng()
    for m in iter_below((4, 4)):
        for n in iter_below((4, 4)):
            out = e.mul_prefix_poly(0, m, e.mul_prefix(0, n, A))
            if m[0] + n[0] >= 3 or m[1] + n[1] >= 3:
                assert out.is_zero(), (m, n)


def test_degree3_nonvanishing_below_bound():
    e = eng()
    from confgsb.indices import iter_box

    for m in iter_box((2, 2)):
        for n in iter_box((2, 2)):
            if m[0] + n[0] <= 2 and m[1] + n[1] <= 2:
                out = e.mul_prefix_poly(0, m, e.mul_prefix(0, n, A))
                assert not out.is_zero(), (m, n)


# --- memoization is semantically transparent ----------------------------------


def test_cache_transparency():
    cached, plain = eng(cache=True), eng(cache=False)
    inputs = [
        ((2, 1), word2((0, 0))),
        ((2, 1), word2((0, 0))),  # repeat: served from memo the second time
        ((3, 3), word2((1, 1), (1, 0))),
        ((2, 0), single_word(0, 2, (1, 1))),
    ]
    for m, w in inputs:
        assert cached.mul_prefix(0, m, w) == plain.mul_prefix(0, m, w)
    assert cached._prefix_memo and not plain._prefix_memo


def test_invariant_auditing_counts():
    e = eng()
    assert e.invariant_checks == 0
    e.mul_prefix(0, (2, 2), word2((0, 0)))
    assert e.invariant_checks > 0


# --- axiom property suite on random words -------------------------------------

LABEL2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
WORD2 = st.builds(
    NormalWord,
    st.lists(st.tuples(st.just(0), st.tuples(st.integers(0, 1), st.integers(0, 1))), max_size=2).map(tuple),
    st.just(0),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=120, deadline=None)
@given(u=WORD2, v=WORD2, w=WORD2, m=LABEL2, mp=LABEL2)
def test_left_expansion_identity(u, v, w, m, mp):
    # (u⟨m⟩v)⟨m′⟩w = Σ_s (−1)^|s| C(m,s) u⟨m−s⟩(v⟨m′+s⟩w)
    e = eng()
    lhs = e.mul_poly(e.mul_words(u, m, v), mp, ConfPoly.from_word(w))
    rhs = ConfPoly.zero()
    for s in iter_below(m):
        inner = e.mul_words(v, index_add(mp, s), w)
        rhs = rhs.add_scaled(
            e.mul_poly(ConfPoly.from_word(u), index_sub(m, s), inner),
            sign_of(s) * binom_multi(m, s),
        )
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(u=WORD2, v=WORD2, w=WORD2, m=LABEL2, mp=LABEL2)
def test_right_expansion_identity(u, v, w, m, mp):
    # u⟨m⟩(v⟨m′⟩w) = Σ_s C(m,s) (u⟨m−s⟩v)⟨m′+s⟩w — no alternating sign here
    e = eng()
    lhs = e.mul_poly(ConfPoly.from_word(u), m, e.mul_words(v, mp, w))
    rhs = ConfPoly.zero()
    for s in iter_below(m):
        outer = e.mul_words(u, index_sub(m, s), v)
        rhs = rhs.add_scaled(
            e.mul_poly(outer, index_add(mp, s), ConfPoly.from_word(w)),
            binom_multi(m, s),
        )
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(u=WORD2, v=WORD2, m=LABEL2, t=st.integers(0, 1))
def test_leibniz_identity(u, v, m, t):
    e = eng()
    lhs = e.derive(t, e.mul_words(u, m, v))
    rhs = e.mul_poly(e.derive_word(t, u), m, ConfPoly.from_word(v)) + e.mul_poly(
        ConfPoly.from_word(u), m, e.derive_word(t, v)
    )
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(u=WORD2, v=WORD2, m=LABEL2, t=st.integers(0, 1))
def test_derived_operand_identity(u, v, m, t):
    # (D_t u)⟨m⟩v = −m_t · u⟨m−e_t⟩v
    e = eng()
    lhs = e.mul_poly(e.derive_word(t, u), m, ConfPoly.from_word(v))
    if m[t] == 0:
        assert lhs.is_zero()
    else:
        rhs = e.mul_words(u, index_sub(m, unit_index(2, t)), v) * (-m[t])
        assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(w=WORD2, i=st.integers(0, 1), j=st.integers(0, 1))
def test_derivations_commute(w, i, j):
    e = eng()
    assert e.derive(i, e.derive_word(j, w)) == e.derive(j, e.derive_word(i, w))


# --- agreement with the reference evaluator ------------------------------------

leaf_st = st.builds(Leaf, st.just(0), st.tuples(st.integers(0, 2), st.integers(0, 2)))
tree_st = st.recursive(
    leaf_st,
    lambda kids: st.builds(Node, kids, LABEL2, kids),
    max_leaves=4,
)


@settings(max_examples=200, deadline=None)
@given(tree=tree_st)
def test_engine_matches_naive_evaluator(tree):
    got = eng().normalize_tree(tree)
    want = naive_normalize(SIG2, [(Fraction(1), tree)])
    assert got.terms == want


@settings(max_examples=100, deadline=None)
@given(tree=tree_st)
def test_dfree_vanishing_threshold(tree):
    # D-free trees whose grade exceeds (leaves−1)(N_t−1) normalize to zero
    if not tree_is_dfree(tree):
        return
    e = eng()
    out = e.normalize_tree(tree)
    leaves = tree_leaves(tree)
    for t in range(2):
        if tree_grade(tree, t) > (leaves - 1) * 1 and not out.is_zero():
            pytest.fail(f"nonzero above the vanishing bound: {tree}")


def test_three_coordinate_signature():
    sig = AlgebraSignature(n=3, locality=(2, 3, 2), generators=("a", "b"))
    e = eng(sig)
    a, b = single_word(0, 3), single_word(1, 3)
    ab = e.mul_prefix(0, (1, 2, 1), b)
    assert ab == ConfPoly.from_word(NormalWord(((0, (1, 2, 1)),), 1, (0, 0, 0)))
    assert e.mul_prefix(0, (1, 3, 0), b).is_zero()
    out = e.mul_prefix_poly(0, (2, 0, 0), e.mul_prefix(1, (0, 0, 0), a))
    assert out == 2 * ConfPoly.from_word(
        NormalWord(((0, (1, 0, 0)), (1, (1, 0, 0))), 0, (0, 0, 0))
    )


# --- the integer core -----------------------------------------------------------


def _c05_draws(trials, seed):
    """Seeded (engine, u, v, v2, m, mp, t) draws in the style of the c05 suite."""
    rng = random.Random(seed)
    engines = {}
    for _ in range(trials):
        n = rng.choice((1, 2, 3))
        loc = tuple(rng.randint(1, 3) for _ in range(n))
        gens = ("a", "b")[: rng.randint(1, 2)]
        e = engines.setdefault((loc, gens), Engine(AlgebraSignature(n, loc, gens)))

        def rand_word():
            links = tuple((rng.randrange(len(gens)), tuple(rng.randrange(b) for b in loc))
                          for _ in range(rng.randint(0, 2)))
            return NormalWord(links, rng.randrange(len(gens)),
                              tuple(rng.randint(0, 1) for _ in range(n)))

        def rand_label():
            m = [rng.randrange(b) for b in loc]
            if rng.random() < 0.5:
                t = rng.randrange(n)
                m[t] = loc[t]
            return tuple(m)

        yield e, rand_word(), rand_word(), rand_word(), rand_label(), rand_label(), rng.randrange(n)


def _assert_int_coefficients(p, what):
    bad = {w: c for w, c in p.terms.items() if type(c) is not int}
    assert not bad, (what, bad)


def test_word_level_results_are_int():
    engines = set()
    for e, u, v, v2, m, mp, t in _c05_draws(60, 20261018):
        engines.add(e)
        _assert_int_coefficients(e.mul_words(u, m, v), "mul_words")
        _assert_int_coefficients(e.mul_prefix(v.tail, m, v2), "mul_prefix")
        _assert_int_coefficients(e.derive_word(t, u), "derive_word")
        _assert_int_coefficients(e.mul_poly(e.mul_words(u, m, v), mp, ConfPoly.from_word(v2)),
                                 "mul_poly")
    for e in engines:
        for memo in (e._prefix_memo, e._words_memo, e._derive_memo):
            for key, p in memo.items():
                _assert_int_coefficients(p, key)


def test_monic_brings_fraction_in():
    # monic() keeps whole coefficients int; only the others become Fraction
    one = ConfPoly.from_word(A, 2).monic()
    assert one.terms == {A: 1} and type(one.terms[A]) is int
    e = eng()
    u = e.mul_words(A, (0, 0), A)
    p = 2 * u - ConfPoly.from_word(A)
    _assert_int_coefficients(p, "2u - v")
    rule = RewriteSystem(e, [p]).rules[0].poly
    assert rule.terms == {word2((0, 0)): 1, A: Fraction(-1, 2)}
    assert type(rule.terms[word2((0, 0))]) is int and type(rule.terms[A]) is Fraction


def _whole_fractions(polys):
    return [c for p in polys for c in p.terms.values()
            if type(c) is not int and (type(c) is not Fraction or c.denominator == 1)]


def test_whole_coefficients_stay_int():
    e = eng(check=False)
    user = e.normalize([(Fraction(4, 2), Leaf(0, (0, 0))), (Fraction(1, 2), Leaf(0, (1, 0)))])
    assert user.terms == {A: 2, single_word(0, 2, (1, 0)): Fraction(1, 2)}
    assert not _whole_fractions([user])
    idem = Engine(AlgebraSignature(2, (3, 3), ("a",)))
    system, status = complete(idem, [ConfPoly.from_word(word2((0, 0))) - ConfPoly.from_word(A)])
    assert status == COMPLETE and len(system) == 17
    assert all(type(c) is int for p in system.elements for c in p.terms.values())
    sig = AlgebraSignature(2, (2, 2), ("x", "y", "z"))
    relations = enveloping_presentation(lie_conformal(sig, {})).elements
    system, status = complete(Engine(sig), relations, max_steps=800)
    assert status == LIMIT_REACHED and len(system) == 197
    assert any(type(c) is Fraction for p in system.elements for c in p.terms.values())
    assert not _whole_fractions(relations + system.elements)
    # the sl2 loop table of ``perfbench/data/sl2_loop.alg``: whole brackets
    sl2 = lie_algebra(("e", "h", "f"), {(1, 0): [(0, 2)], (1, 2): [(2, -2)], (0, 2): [(1, 1)]})
    relations = enveloping_presentation(loop_conformal(sl2, 1)).elements
    assert len(relations) == 3 and not _whole_fractions(relations)


def test_memo_values_survive_accumulation():
    e = eng()
    p = poly((1, word2((1, 1))), (-3, word2((0, 1), tail=0, taild=(1, 0))), (2, A))
    q = poly((1, single_word(0, 2, (1, 0))), (5, word2((1, 0))))

    def products():
        return e.mul_poly(p, (2, 1), q), e.mul_prefix_poly(0, (2, 2), q), e.derive(1, p)

    first = products()
    memos = copy.deepcopy((e._prefix_memo, e._words_memo, e._derive_memo))
    assert products() == first
    assert (e._prefix_memo, e._words_memo, e._derive_memo) == memos
    assert all(memos)


@pytest.mark.parametrize("cache", [False, True])
def test_engine_matches_naive_with_and_without_cache(cache):
    rng = random.Random(7)
    sig = AlgebraSignature(2, (2, 2), ("a", "b"))
    e = engine(sig, cache=cache)

    def rand_tree(leaves):
        if leaves == 1:
            return Leaf(rng.randrange(2), (rng.randint(0, 1), rng.randint(0, 1)))
        k = rng.randint(1, leaves - 1)
        return Node(rand_tree(k), (rng.randint(0, 3), rng.randint(0, 3)), rand_tree(leaves - k))

    for _ in range(40):
        comb = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rand_tree(rng.randint(1, 4)))
                for _ in range(2)]
        assert e.normalize(comb).terms == naive_normalize(sig, comb)


def test_memo_sizes():
    # a product under a valid label takes no memo entry, and a bare
    # generator's product no mul_words entry: the peel's four are mul_prefix's
    e = eng()
    assert set(e.memo_sizes().values()) == {0}
    e.mul_words(word2((1, 1)), (2, 1), word2((1, 0)))
    e.derive_word(0, word2((1, 1), (0, 1)))
    e.mul_prefix(0, (2, 0), single_word(0, 2, (1, 1)))
    # the dodge takes one level: its terms prepend onto mul_prefix results
    # and take no mul_prefix_poly entries or rows of their own; the
    # derivative interns its prepend and its lowered-label term
    assert e.memo_sizes() == {"prefix": 15, "words": 1, "derive": 3,
                              "weights": 5, "intern": 4, "facts": 12}
    # with cache=False no table grows, whatever path the products take
    plain = eng(cache=False)
    plain.mul_words(word2((1, 1)), (2, 1), word2((1, 0)))
    plain.derive_word(0, word2((1, 1), (0, 1)))
    plain.mul_prefix(0, (2, 0), single_word(0, 2, (1, 1)))
    plain.mul_prefix_poly(0, (1, 0), ConfPoly.from_word(word2((1, 0))))
    assert plain.invariant_checks > 0
    assert set(plain.memo_sizes().values()) == {0}


@pytest.mark.parametrize("check", [True, False])
def test_bare_generator_product_is_mul_prefix(check):
    # mul_words hands a bare generator's product to mul_prefix, under valid
    # and invalid labels: no mul_words entry and no second audit
    sig = AlgebraSignature(2, (2, 2), ("a", "b"))
    e, ref = eng(sig, check=check), eng(sig, check=check)
    rights = [single_word(1, 2), single_word(0, 2, (1, 0)),
              NormalWord(((1, (1, 0)),), 0, (0, 1)), NormalWord(((0, (0, 0)), (1, (1, 1))), 1, (0, 0))]
    for g in range(2):
        for m in [(0, 0), (1, 1), (2, 0), (2, 1), (3, 2)]:
            for v in rights:
                got = e.mul_words(single_word(g, 2), m, v)
                assert list(got.terms.items()) == list(ref.mul_prefix(g, m, v).terms.items())
    assert e.memo_sizes() == ref.memo_sizes() and e.memo_sizes()["words"] == 0
    assert e.invariant_checks == ref.invariant_checks and (e.invariant_checks > 0) == check


def test_prepended_words_are_interned():
    e = eng(check=False)
    ab = word2((1, 0), (0, 1))
    once = e.mul_prefix(0, (1, 0), word2((0, 1)))
    again = e.mul_prefix_poly(0, (1, 0), ConfPoly.from_word(word2((0, 1))))
    [x], [y] = once.terms, again.terms
    assert x == ab and x is y
    assert e.memo_sizes()["intern"] == 1
    # a derivative's term under the lowered label is interned too: D_0 of
    # a<1,0> a holds -a<0,0> a, the word that mul_prefix interns
    [low] = e.mul_prefix(0, (0, 0), word2()).terms
    derived = e.derive_word(0, word2((1, 0))).terms
    assert derived[low] == -1 and any(z is low for z in derived)
    assert e.memo_sizes()["intern"] == 3


# --- the product kernel against its per-s reference ---------------------------


class _ReferenceEngine(Engine):
    """The engine's products term by term, as a reference for its kernel:
    every term of the peel and of the dodge goes through ``mul_prefix``
    (memoized, valid labels included) and ``accumulate``, with the weights
    worked out per ``s``.  The dodge is the recursive one that the closed
    form replaced: it solves the vanishing gen⟨m⟩b for its s = 0 term, and a
    term whose label m − s is still invalid dodges again."""

    def mul_prefix(self, gen, m, w):
        key = (gen, m, w)
        hit = self._prefix_memo.get(key)
        if hit is not None:
            return hit
        sig = self.sig
        if sig.is_valid(m):
            out = ConfPoly.from_word(NormalWord(((gen, m),) + w.links, w.tail, w.taild))
        elif w.length == 1:
            if w.is_dfree():
                out = ConfPoly.zero()
            else:
                t = next(k for k, c in enumerate(w.taild) if c)
                e_t = unit_index(sig.n, t)
                y = NormalWord((), w.tail, index_sub(w.taild, e_t))
                out = self.derive(t, self.mul_prefix(gen, m, y))
                if m[t]:
                    accumulate(out.terms, self.mul_prefix(gen, index_sub(m, e_t), y).terms, m[t])
        else:
            (b, mp) = w.links[0]
            v = NormalWord(w.links[1:], w.tail, w.taild)
            terms = {}
            for s in iter_below(m):
                if not any(s):
                    continue
                inner = self.mul_prefix(b, index_add(mp, s), v)
                if inner:
                    accumulate(terms, self.mul_prefix_poly(gen, index_sub(m, s), inner).terms,
                               -sign_of(s) * binom_multi(m, s))
            out = ConfPoly._raw(terms)
        if self.check:
            grades = tuple(m[r] + w.grade(r) for r in range(self.sig.n))
            self._audit(out, 1 + w.length, grades, dfree=w.is_dfree())
        self._prefix_memo[key] = out
        return out

    def mul_prefix_poly(self, gen, m, p):
        out = {}
        for w, c in p.terms.items():
            accumulate(out, self.mul_prefix(gen, m, w).terms, c)
        return ConfPoly._raw(out)

    def mul_words(self, u, m, v):
        key = (u, m, v)
        hit = self._words_memo.get(key)
        if hit is not None:
            return hit
        if u.length == 1:
            coeff = sign_of(u.taild)
            for mt, it in zip(m, u.taild):
                coeff *= falling_factorial(mt, it)
            if coeff:
                out = self.mul_prefix(u.tail, index_sub(m, u.taild), v) * coeff
            else:
                out = ConfPoly.zero()
        else:
            (b, m1) = u.links[0]
            u1 = NormalWord(u.links[1:], u.tail, u.taild)
            terms = {}
            for s in iter_below(m1):
                inner = self.mul_words(u1, index_add(m, s), v)
                if inner:
                    accumulate(terms, self.mul_prefix_poly(b, index_sub(m1, s), inner).terms,
                               sign_of(s) * binom_multi(m1, s))
            out = ConfPoly._raw(terms)
        if self.check:
            grades = tuple(u.grade(r) + m[r] + v.grade(r) for r in range(self.sig.n))
            self._audit(out, u.length + v.length, grades, dfree=u.is_dfree() and v.is_dfree())
        self._words_memo[key] = out
        return out


def _same_terms(got, want, what):
    # values and types, not dict order: the closed-form dodge lists its
    # terms by first link, the recursive one by when they were met
    assert got.terms == want.terms, what
    assert all(type(c) is int for c in got.terms.values()), what


@pytest.mark.parametrize("cache, check", [(True, True), (False, True), (True, False)])
def test_product_kernel_matches_reference(cache, check):
    rng = random.Random(20261018)
    for loc, gens in (((3,), ("a", "b")), ((2, 2), ("a", "b")), ((2, 1, 1), ("a", "b"))):
        sig = AlgebraSignature(len(loc), loc, gens)
        e = engine(sig, check=check, cache=cache)
        ref = engine(sig, cls=_ReferenceEngine, check=check, cache=cache)

        def rand_word(most):
            links = tuple((rng.randrange(len(gens)), tuple(rng.randrange(b) for b in loc))
                          for _ in range(rng.randint(0, most)))
            return NormalWord(links, rng.randrange(len(gens)),
                              tuple(rng.randint(0, 1) for _ in loc))

        def rand_valid():
            return tuple(rng.randrange(b) for b in loc)

        def rand_label():
            # valid or up to three past the bound, so the dodge runs too,
            # and closed-form rows with a = m_t − N_t + 1 ≥ 2 are compared
            return tuple(rng.randint(0, b + 3) for b in loc)

        for _ in range(40):
            u, v, w = rand_word(2), rand_word(1), rand_word(1)
            m, mp, mv, g = rand_label(), rand_label(), rand_valid(), rng.randrange(len(gens))
            what = (loc, u, m, v, mp, w)
            uv = e.mul_words(u, m, v)
            _same_terms(uv, ref.mul_words(u, m, v), what)
            _same_terms(e.mul_prefix(g, m, w), ref.mul_prefix(g, m, w), what)
            vw = e.mul_words(v, mp, w)
            _same_terms(vw, ref.mul_words(v, mp, w), what)
            _same_terms(e.mul_prefix_poly(g, m, vw), ref.mul_prefix_poly(g, m, vw), what)
            p = e.mul_poly(uv, mp, ConfPoly.from_word(w))
            _same_terms(p, ref.mul_poly(uv, mp, ConfPoly.from_word(w)), what)
            _same_terms(e.mul_prefix_poly(g, mv, p), ref.mul_prefix_poly(g, mv, p), what)


@pytest.mark.parametrize("loc", [(2, 3), (2, 2, 2)], ids=["(2,3)", "(2,2,2)"])
def test_closed_form_dodge_matches_recursive_reference(loc):
    # the signatures that the normalize benchmark leaves out, where the
    # recursive dodge cost most; both engines audit every product
    rng = random.Random(20261020)
    gens = ("a", "b")
    sig = AlgebraSignature(len(loc), loc, gens)
    e, ref = eng(sig), eng(sig, cls=_ReferenceEngine)

    def rand_word(length):
        links = tuple((rng.randrange(len(gens)), tuple(rng.randrange(b) for b in loc))
                      for _ in range(length - 1))
        return NormalWord(links, rng.randrange(len(gens)), tuple(rng.randint(0, 1) for _ in loc))

    def rand_pushed():
        # one coordinate at the bound or up to two past it
        m = [rng.randrange(b) for b in loc]
        t = rng.randrange(len(loc))
        m[t] = loc[t] + rng.randint(0, 2)
        return tuple(m)

    for _ in range(300):
        u, v, w = rand_word(rng.randint(1, 3)), rand_word(rng.randint(1, 3)), rand_word(3)
        m, g = rand_pushed(), rng.randrange(len(gens))
        what = (loc, u, m, v, w)
        _same_terms(e.mul_words(u, m, v), ref.mul_words(u, m, v), what)
        _same_terms(e.mul_prefix(g, m, w), ref.mul_prefix(g, m, w), what)
    assert e.invariant_checks > 0 and ref.invariant_checks > 0
