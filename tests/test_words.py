"""Normal words, the weight well-order, and sparse polynomial arithmetic."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from confgsb.words import (
    AlgebraSignature,
    ConfPoly,
    Leaf,
    Node,
    NormalWord,
    check_word,
    compare_words,
    single_word,
)
from helpers import tree_grade, tree_is_dfree, tree_leaves, word_gens

SIG = AlgebraSignature(n=2, locality=(2, 2), generators=("a", "b"))


def w(*links, tail=0, taild=(0, 0)):
    """Shorthand: w((0,(1,0)), (1,(0,1)), tail=0) = a<1,0> b<0,1> a."""
    return NormalWord(tuple(links), tail, taild)


def test_signature_basics():
    assert SIG.is_valid((1, 1))
    assert not SIG.is_valid((2, 0))
    assert SIG.generators.index("b") == 1
    with pytest.raises(ValueError):
        AlgebraSignature(n=2, locality=(2, 2), generators=("a", "a"))
    with pytest.raises(ValueError):
        AlgebraSignature(n=1, locality=(2, 2), generators=("a",))


@pytest.mark.parametrize("n, locality, generators, message", [
    (0, (), ("a",), "n must be at least 1"),
    (1, (0,), ("a",), "locality entries must be at least 1"),
    (1, (2,), (), "at least one generator"),
], ids=["n-zero", "locality-zero", "no-generators"])
def test_signature_rejects_degenerate_input(n, locality, generators, message):
    with pytest.raises(ValueError, match=message):
        AlgebraSignature(n, locality, generators)


def test_word_accessors():
    u = w((0, (1, 0)), (1, (0, 1)), tail=0, taild=(2, 0))
    assert u.length == 3
    assert not u.is_dfree()
    assert word_gens(u) == (0, 1, 0)
    assert u.link_sum(0) == 1 and u.link_sum(1) == 1
    assert u.grade(0) == -1 and u.grade(1) == 1
    assert single_word(1, 2).is_dfree()
    assert check_word(SIG, u) is u
    with pytest.raises(RuntimeError, match="not a normal word"):
        check_word(SIG, w((0, (2, 0)), tail=0))


def test_validity_is_strict_in_every_coordinate():
    sig = AlgebraSignature(2, (2, 3), ("a",))
    assert sig.is_valid((1, 2)) and sig.is_valid([0, 0])
    assert sig.labels == {(a, b) for a in range(2) for b in range(3)}
    for m in ((2, 0), (0, 3), (2, 3), (-1, 0), (0,), (0, 0, 0)):
        assert not sig.is_valid(m), m  # m_1 == N_1 is already invalid


@pytest.mark.parametrize("label", [(0,), (0, 0, 0), (-1, 0)], ids=["short", "long", "negative"])
def test_check_word_rejects_a_malformed_label(label):
    # the documented RuntimeError: a label of the wrong arity once met
    # zip(strict=True) first and raised ValueError
    sig = AlgebraSignature(2, (2, 2), ("a",))
    with pytest.raises(RuntimeError, match="not a normal word"):
        check_word(sig, NormalWord(((0, label),), 0, (0, 0)))


def test_check_word_rejects_an_unhashable_label():
    # a list label cannot be in the label set: the documented RuntimeError,
    # not the TypeError of the set lookup
    sig = AlgebraSignature(2, (2, 2), ("a",))
    with pytest.raises(RuntimeError, match="not a normal word"):
        check_word(sig, NormalWord(((0, [0, 0]),), 0, (0, 0)))


def test_tree_records_keep_their_fields_repr_and_equality():
    leaf, other = Leaf(0, (1, 0)), Leaf(gen=1, dexp=(0, 0))
    node = Node(leaf, (0, 1), other)
    assert Leaf._fields == ("gen", "dexp") and Node._fields == ("left", "label", "right")
    assert (node.left, node.label, node.right, leaf.gen, leaf.dexp) == (leaf, (0, 1), other, 0, (1, 0))
    assert repr(leaf) == "Leaf(gen=0, dexp=(1, 0))"
    assert repr(node) == ("Node(left=Leaf(gen=0, dexp=(1, 0)), label=(0, 1), "
                          "right=Leaf(gen=1, dexp=(0, 0)))")
    assert node == Node(Leaf(0, (1, 0)), (0, 1), Leaf(1, (0, 0)))
    assert hash(node) == hash(Node(Leaf(0, (1, 0)), (0, 1), Leaf(1, (0, 0))))
    assert leaf != other and node != Node(other, (0, 1), leaf) and leaf != node
    assert len({leaf, Leaf(0, (1, 0)), other, node}) == 3


def test_order_length_dominates():
    assert compare_words(w((0, (0, 0)), tail=0), single_word(1, 2)) == 1
    assert compare_words(single_word(1, 2), w((0, (0, 0)), tail=0)) == -1


def test_order_generator_position():
    # later declaration = greater, and the first generator is compared first
    assert compare_words(single_word(1, 2), single_word(0, 2)) == 1
    assert compare_words(w((1, (0, 0)), tail=0), w((0, (1, 1)), tail=1)) == 1


def test_order_labels_lex_left_to_right():
    assert compare_words(w((0, (1, 0)), tail=0), w((0, (0, 1)), tail=0)) == 1
    assert compare_words(w((0, (0, 1)), tail=0), w((0, (0, 0)), tail=1)) == 1
    assert compare_words(w((0, (1, 1)), tail=0), w((0, (1, 1)), tail=0)) == 0


def test_order_tail_exponent_is_last():
    plain = w((0, (1, 1)), tail=1)
    derived = w((0, (1, 1)), tail=1, taild=(0, 1))
    assert compare_words(derived, plain) == 1
    assert compare_words(w((0, (1, 1)), tail=1, taild=(1, 0)), derived) == 1


def test_order_sorts_a_known_chain():
    chain = [
        single_word(0, 2),
        single_word(0, 2, (0, 1)),
        single_word(0, 2, (1, 0)),
        single_word(1, 2),
        w((0, (0, 0)), tail=0),
        w((0, (0, 1)), tail=0),
        w((0, (1, 0)), tail=0),
        w((0, (1, 0)), tail=1),
        w((1, (0, 0)), tail=0),
        w((0, (0, 0)), (0, (0, 0)), tail=0),
    ]
    assert sorted(chain, key=NormalWord.weight_key) == chain


def _flat_key(u):
    """Reference order: the length, then every generator and label entry
    left to right, then the tail generator and tail exponent, flattened."""
    key = [u.length]
    for g, m in u.links:
        key.append(g)
        key.extend(m)
    key.append(u.tail)
    key.extend(u.taild)
    return tuple(key)


def _seeded_words(rng, n, count):
    out = set()
    while len(out) < count:
        length = rng.randint(1, 5)
        links = tuple((rng.randrange(3), tuple(rng.randrange(3) for _ in range(n)))
                      for _ in range(length - 1))
        out.add(NormalWord(links, rng.randrange(3), tuple(rng.randrange(3) for _ in range(n))))
    return list(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weight_key_matches_flat_reference(n):
    words = _seeded_words(random.Random(n), n, 150)
    assert sorted(words, key=NormalWord.weight_key) == sorted(words, key=_flat_key)
    for u in words:
        for v in words:
            ku, kv = _flat_key(u), _flat_key(v)
            assert compare_words(u, v) == (ku > kv) - (ku < kv)


def test_poly_construction_drops_zeros():
    u, v = single_word(0, 2), single_word(1, 2)
    p = ConfPoly({u: Fraction(2), v: Fraction(0)})
    assert len(p) == 1
    assert p.terms.get(u, 0) == 2
    assert p.terms.get(v, 0) == 0
    assert ConfPoly.from_word(u, 0).is_zero()
    assert not ConfPoly.zero()


def test_poly_arithmetic_and_cancellation():
    u, v = single_word(0, 2), single_word(1, 2)
    p = ConfPoly.from_word(u, 2) + ConfPoly.from_word(v, Fraction(1, 3))
    q = p - ConfPoly.from_word(v, Fraction(1, 3))
    assert q == ConfPoly.from_word(u, 2)
    assert (p - p).is_zero()
    assert (-p) + p == ConfPoly.zero()
    assert (3 * p).terms.get(v, 0) == 1
    assert p.add_scaled(p, -1).is_zero()
    assert p * 0 == ConfPoly.zero()


def test_poly_leading_term_and_monic():
    u, v = w((0, (1, 0)), tail=0), w((0, (0, 1)), tail=0)
    p = ConfPoly.from_word(u, -4) + ConfPoly.from_word(v, 6)
    lw, lc = p.leading_term()
    assert lw == u and lc == -4
    assert p.degree() == 2
    m = p.monic()
    assert m.terms.get(u, 0) == 1 and m.terms.get(v, 0) == Fraction(-3, 2)
    with pytest.raises(ValueError):
        ConfPoly.zero().leading_term()
    assert ConfPoly.zero().degree() == 0


def test_poly_iteration_is_descending():
    words = [single_word(0, 2), single_word(1, 2), w((0, (0, 0)), tail=0)]
    p = ConfPoly({x: Fraction(1) for x in words})
    seen = [x for x, _ in p]
    assert seen == sorted(words, key=NormalWord.weight_key, reverse=True)


def test_poly_dfree():
    u = single_word(0, 2)
    d = single_word(0, 2, (1, 0))
    assert ConfPoly.from_word(u).is_dfree()
    assert not (ConfPoly.from_word(u) + ConfPoly.from_word(d)).is_dfree()


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
word_st = st.builds(
    NormalWord,
    st.lists(
        st.tuples(st.integers(0, 1), st.tuples(st.integers(0, 1), st.integers(0, 1))),
        max_size=3,
    ).map(tuple),
    st.integers(0, 1),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
poly_st = st.dictionaries(word_st, coeffs, max_size=5).map(ConfPoly)


@given(p=poly_st, q=poly_st)
def test_poly_addition_commutes_and_cancels(p, q):
    assert p + q == q + p
    assert (p + q) - q == p


@given(p=poly_st, q=poly_st, c=coeffs)
def test_poly_add_scaled_matches_definition(p, q, c):
    r = p.add_scaled(q, c)
    for x in set(p.terms) | set(q.terms):
        assert r.terms.get(x, 0) == p.terms.get(x, 0) + c * q.terms.get(x, 0)


def test_tree_helpers():
    t = Node(Leaf(0, (0, 0)), (2, 0), Node(Leaf(0, (1, 0)), (0, 0), Leaf(0, (0, 0))))
    assert tree_leaves(t) == 3
    assert tree_grade(t, 0) == 2 + 0 - 1
    assert tree_grade(t, 1) == 0
    assert not tree_is_dfree(t)
    assert tree_is_dfree(Node(Leaf(0, (0, 0)), (1, 1), Leaf(1, (0, 0))))


def test_reimport_frees_the_old_module():
    # a module-level type alias cached by ``typing`` would keep every
    # imported copy of confgsb.words, classes and functions, alive
    script = """
import gc, io, sys, weakref
from contextlib import redirect_stderr
import confgsb, confgsb.cli
with redirect_stderr(io.StringIO()):
    confgsb.cli.main([])  # builds and caches the parser
ref = weakref.ref(confgsb.words.NormalWord)
parser_ref = weakref.ref(confgsb.cli._ArgumentParser)
for name in [m for m in sys.modules if m == "confgsb" or m.startswith("confgsb.")]:
    del sys.modules[name]
del confgsb
import confgsb
gc.collect()
print("freed" if ref() is None and parser_ref() is None else "alive")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "freed"


PUBLIC_NAMES = [
    "AlgebraSignature", "BOUNDED_COMPLETE", "COMPLETE", "CompositionTask", "ConfPoly",
    "Engine", "ExprTree", "GSBReport", "HalfPBWReport", "LIMIT_REACHED", "Leaf",
    "LieAlgebraSpec", "LieConformalSpec", "LinComb", "MultiIndex", "Node", "NormalWord",
    "Occurrence", "ParseError", "Presentation", "ReductionTrace", "RewriteSystem",
    "brace", "bracket", "commutator", "compare_words", "complete", "engine", "envelope",
    "enveloping_presentation", "falling_factorial", "format_polynomial", "format_word",
    "half_pbw_check", "index_add", "index_sub", "indices", "iter_box",
    "lie_algebra", "lie_conformal", "lie_relation",
    "loop_conformal", "naive", "naive_normalize", "parse_expression", "parse_presentation",
    "parsing", "rewrite", "sign_of", "single_word", "table_entry", "unit_index",
    "validate_lie", "words", "zero_index",
]


def test_public_names_are_pinned():
    # the public API is what ``import confgsb`` binds: 48 names and the 7
    # submodules the package imports; ``from confgsb import *`` binds the same
    script = """
import confgsb
print(*sorted(name for name in vars(confgsb) if not name.startswith("_")))
star = {}
exec("from confgsb import *", star)
print(*sorted(name for name in star if name != "__builtins__"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [PUBLIC_NAMES] * 2
