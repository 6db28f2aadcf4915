"""Frozen values and invariants for the slow reference evaluator.

The evaluator in confgsb.naive is the ground truth the fast engine is checked
against, so its own tests lean on hand computations: every expected value in
this file was worked out by hand, applying the defining axioms step by step.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confgsb.engine import Engine
from confgsb.naive import naive_d_word, naive_mul_words, naive_normalize
from confgsb.words import (
    AlgebraSignature,
    Leaf,
    Node,
    NormalWord,
    check_word,
    single_word,
)
from helpers import tree_grade, tree_is_dfree, tree_leaves

SIG1 = AlgebraSignature(n=1, locality=(2,), generators=("a",))
SIG2 = AlgebraSignature(n=2, locality=(2, 2), generators=("a",))

A1 = single_word(0, 1)
A2 = single_word(0, 2)


def word1(*labels, taild=(0,)):
    return NormalWord(tuple((0, (m,)) for m in labels), 0, taild)


def word2(*labels, taild=(0, 0)):
    return NormalWord(tuple((0, m) for m in labels), 0, taild)


# --- one coordinate, N = (2): valid labels are 0 and 1 ----------------------


def test_valid_label_prepends():
    assert naive_mul_words(SIG1, A1, (1,), A1) == {word1(1): 1}
    da = single_word(0, 1, (1,))
    assert naive_mul_words(SIG1, A1, (1,), da) == {word1(1, taild=(1,)): 1}


def test_two_generators_under_invalid_label_vanish():
    assert naive_mul_words(SIG1, A1, (2,), A1) == {}
    assert naive_mul_words(SIG1, A1, (5,), A1) == {}


def test_invalid_label_against_derived_generator():
    # a<2>(Da) = D(a<2>a) + 2 a<1>a = 2 a<1>a
    da = single_word(0, 1, (1,))
    assert naive_mul_words(SIG1, A1, (2,), da) == {word1(1): 2}
    # a<3>(Da) = D(a<3>a) + 3 a<2>a = 0
    assert naive_mul_words(SIG1, A1, (3,), da) == {}


def test_derived_left_operand_trades_for_label():
    # (Da)<m>a = -m a<m-1>a
    da = single_word(0, 1, (1,))
    assert naive_mul_words(SIG1, da, (1,), A1) == {word1(0): -1}
    assert naive_mul_words(SIG1, da, (0,), A1) == {}
    # (D^2 a)<2>a = (-2)(-1) a<0>a = 2 a<0>a
    dda = single_word(0, 1, (2,))
    assert naive_mul_words(SIG1, dda, (2,), A1) == {word1(0): 2}


def test_invalid_label_in_front_of_longer_word():
    # a<2>(a<0>a) = 2 a<1>a<1>a: the head pair absorbs one unit of label
    v = word1(0)
    assert naive_mul_words(SIG1, A1, (2,), v) == {word1(1, 1): 2}
    # a<2>(a<1>a) = 0: nowhere for the excess to go
    assert naive_mul_words(SIG1, A1, (2,), word1(1)) == {}


def test_left_nested_product_expands():
    # (a<1>a)<1>a = a<1>(a<1>a) - a<0>(a<2>a) = a<1>a<1>a
    u = word1(1)
    assert naive_mul_words(SIG1, u, (1,), A1) == {word1(1, 1): 1}
    # (a<1>a)<0>a = a<1>(a<0>a) - a<0>(a<1>a)
    assert naive_mul_words(SIG1, u, (0,), A1) == {word1(1, 0): 1, word1(0, 1): -1}


def test_derivation_of_words():
    # D(a<1>a) = -a<0>a + a<1>(Da)
    assert naive_d_word(SIG1, 0, word1(1)) == {
        word1(0): -1,
        word1(1, taild=(1,)): 1,
    }
    assert naive_d_word(SIG1, 0, A1) == {single_word(0, 1, (1,)): 1}
    # D(a<0>a) = a<0>(Da): the label cannot drop below zero
    assert naive_d_word(SIG1, 0, word1(0)) == {word1(0, taild=(1,)): 1}


def test_tree_normalization_collects_terms():
    tree = Node(Leaf(0, (0,)), (2,), Node(Leaf(0, (0,)), (0,), Leaf(0, (0,))))
    assert naive_normalize(SIG1, [(Fraction(1), tree)]) == {word1(1, 1): 2}
    two = [(Fraction(1), tree), (Fraction(-2), Leaf(0, (0,)))]
    assert naive_normalize(SIG1, two) == {word1(1, 1): 2, A1: -2}


BAD_EXP = Leaf(0, (-1, 0))


@pytest.mark.parametrize("tree", [
    BAD_EXP,
    Node(BAD_EXP, (0, 0), Leaf(0, (0, 0))),
    Node(Leaf(0, (0, 0)), (0, 0), BAD_EXP),
    Leaf(3, (0, 0)),
    Leaf(0, (0, 0, 0)),
], ids=["negative-exponent", "on-the-left", "on-the-right", "generator-3", "three-entries"])
def test_malformed_leaves_rejected(tree):
    # as Engine.normalize does, and not as an invalid word or an AssertionError
    with pytest.raises(ValueError):
        naive_normalize(SIG2, [(Fraction(1), tree)])
    with pytest.raises(ValueError):
        Engine(SIG2).normalize([(Fraction(1), tree)])


@pytest.mark.parametrize("label", [(-1, 0), (0, -1), (1,), (0, 0, 0)],
                         ids=["negative", "negative-second", "short", "long"])
@pytest.mark.parametrize("left", [Leaf(0, (0, 0)), Node(Leaf(0, (0, 0)), (1, 0), Leaf(0, (0, 0)))],
                         ids=["generator", "product"])
def test_malformed_node_labels_rejected(left, label):
    # the oracle checks a node label itself, as the engine does, so that a
    # negative label does not vanish and a short one does not meet zip()
    tree = Node(left, label, Node(Leaf(0, (0, 0)), (1, 0), Leaf(0, (0, 0))))
    with pytest.raises(ValueError, match="node label"):
        naive_normalize(SIG2, [(Fraction(1), tree)])
    with pytest.raises(ValueError, match="node label"):
        Engine(SIG2).normalize([(Fraction(1), tree)])


# --- two coordinates, N = (2, 2): the golden identities ---------------------


def test_label_20_against_pairs():
    assert naive_mul_words(SIG2, A2, (2, 0), word2((0, 0))) == {
        word2((1, 0), (1, 0)): 2
    }
    assert naive_mul_words(SIG2, A2, (2, 0), word2((0, 1))) == {
        word2((1, 0), (1, 1)): 2
    }


def test_label_21_has_a_cancellation():
    # a<2,1>(a<0,0>a) = 2 a<1,1>a<1,0>a after an internal cancellation of
    # the a<1,0>a<1,1>a terms coming from two different expansion paths
    assert naive_mul_words(SIG2, A2, (2, 1), word2((0, 0))) == {
        word2((1, 1), (1, 0)): 2
    }


def test_label_22_doubles_twice():
    assert naive_mul_words(SIG2, A2, (2, 2), word2((0, 0))) == {
        word2((1, 1), (1, 1)): 4
    }


def test_iterated_derivation():
    # D_1 D_1 (a<1,1>a) = -2 a<0,1>(D_1 a) + a<1,1>(D_1^2 a)
    first = naive_d_word(SIG2, 0, word2((1, 1)))
    assert first == {
        word2((0, 1)): -1,
        word2((1, 1), taild=(1, 0)): 1,
    }
    second: dict = {}
    for w, c in first.items():
        for ww, cc in naive_d_word(SIG2, 0, w).items():
            second[ww] = second.get(ww, 0) + c * cc
    assert second == {
        word2((0, 1), taild=(1, 0)): -2,
        word2((1, 1), taild=(2, 0)): 1,
    }


def test_derivations_commute():
    w = word2((1, 1), (0, 1), taild=(1, 2))

    def d(t, terms):
        out: dict = {}
        for u, c in terms.items():
            for v, cc in naive_d_word(SIG2, t, u).items():
                acc = out.get(v, 0) + c * cc
                if acc:
                    out[v] = acc
                else:
                    out.pop(v, None)
        return out

    start = {w: Fraction(1)}
    assert d(0, d(1, start)) == d(1, d(0, start))


# --- structural invariants on random trees ----------------------------------

leaf_st = st.builds(
    Leaf,
    st.just(0),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
tree_st = st.recursive(
    leaf_st,
    lambda kids: st.builds(
        Node,
        kids,
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        kids,
    ),
    max_leaves=3,
)


@settings(max_examples=150, deadline=None)
@given(tree=tree_st)
def test_outputs_are_valid_normal_words_of_the_input_length(tree):
    out = naive_normalize(SIG2, [(Fraction(1), tree)])
    for w in out:
        check_word(SIG2, w)
        assert w.length == tree_leaves(tree)


@settings(max_examples=150, deadline=None)
@given(tree=tree_st)
def test_grade_is_conserved(tree):
    out = naive_normalize(SIG2, [(Fraction(1), tree)])
    for w in out:
        for t in range(2):
            assert w.grade(t) == tree_grade(tree, t), (tree, w)


@settings(max_examples=150, deadline=None)
@given(tree=tree_st)
def test_dfree_inputs_give_dfree_outputs(tree):
    if tree_is_dfree(tree):
        for w in naive_normalize(SIG2, [(Fraction(1), tree)]):
            assert w.is_dfree()
