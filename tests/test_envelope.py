"""Braces, enveloping presentations, loop algebras, and the half-PBW check."""

from fractions import Fraction

import pytest

from confgsb.engine import Engine
from confgsb.envelope import (
    HalfPBWReport,
    brace,
    commutator,
    enveloping_presentation,
    half_pbw_check,
    lie_algebra,
    lie_conformal,
    lie_relation,
    loop_conformal,
    validate_lie,
    bracket,
    bracket_conformal,
)
from confgsb.indices import index_add, index_sub, iter_box, sign_of, factorial_multi
from confgsb.parsing import parse_presentation
from confgsb.rewrite import INTERSECTION, RewriteSystem
from confgsb.words import (
    AlgebraSignature,
    ConfPoly,
    NormalWord,
    compare_words,
    single_word,
)

SIG22 = AlgebraSignature(2, (2, 2), ("a", "b"))
ENG22 = Engine(SIG22)

SIG22_1 = AlgebraSignature(2, (2, 2), ("a",))
ENG22_1 = Engine(SIG22_1)


def word(links, tail, taild=(0, 0)):
    return NormalWord(tuple(links), tail, tuple(taild))


def sl2():
    # basis ordered f < h < e; [h, f] = -2f, [e, f] = h, [e, h] = -2e
    return lie_algebra(("f", "h", "e"), {
        (1, 0): ((0, -2),),
        (2, 0): ((1, 1),),
        (2, 1): ((2, -2),),
    })


# -- Lie algebra validation -----------------------------------------------------


def test_validate_sl2():
    assert validate_lie(sl2())


def test_validate_heisenberg():
    g = lie_algebra(("x", "y", "z"), {(1, 0): ((2, 1),)})
    assert validate_lie(g)


def test_validate_solvable():
    g = lie_algebra(("x", "y"), {(1, 0): ((1, 1),)})
    assert validate_lie(g)


def test_validate_rejects_broken_antisymmetry():
    g = lie_algebra(("x", "y"), {(1, 0): ((0, 1),), (0, 1): ((0, 1),)})
    assert not validate_lie(g)


def test_validate_rejects_nonzero_self_bracket():
    g = lie_algebra(("x", "y"), {(0, 0): ((1, 1),)})
    assert not validate_lie(g)


def test_validate_rejects_broken_jacobi():
    g = lie_algebra(("f", "h", "e"), {
        (1, 0): ((0, -3),),   # perturbed structure constant
        (2, 0): ((1, 1),),
        (2, 1): ((2, -2),),
    })
    assert not validate_lie(g)


def test_bracket_mirror_lookup():
    g = sl2()
    assert bracket(g, 1, 0) == {0: Fraction(-2)}
    assert bracket(g, 0, 1) == {0: Fraction(2)}
    assert bracket(g, 0, 0) == {}


SL2_LOOP_TEXT = """
algebra
  n: 1
  locality: [1]
  generators: [e, h, f]

lie
  bracket(h, e): {he}
  bracket(h, f): -2*f
  bracket(e, f): h
"""


def test_bracket_value_sums_repeated_generators():
    def table(he):
        pres = parse_presentation(SL2_LOOP_TEXT.format(he=he))
        return lie_algebra(pres.signature.generators, dict(pres.brackets))

    doubled = table("e + e")
    assert doubled.brackets[(1, 0)] == ((0, Fraction(2)),)
    assert bracket(doubled, 1, 0) == {0: 2}
    assert doubled == table("2*e")
    assert validate_lie(doubled)
    cancelled = table("e - e")
    assert (1, 0) not in cancelled.brackets
    assert bracket(cancelled, 1, 0) == {}


# -- the brace transform ----------------------------------------------------------


def test_brace_at_minimal_locality_collapses():
    sig = AlgebraSignature(2, (1, 1), ("a", "b"))
    eng = Engine(sig)
    out = brace(eng, 1, (0, 0), ConfPoly.from_word(single_word(0, 2)))
    assert out == ConfPoly.from_word(word([(1, (0, 0))], 0))


def test_brace_value_with_derivation_tail():
    out = brace(ENG22, 1, (1, 0), ConfPoly.from_word(single_word(0, 2)))
    expected = (ConfPoly.from_word(word([(1, (1, 0))], 0), -2)
                + ConfPoly.from_word(word([(1, (1, 1))], 0, (0, 1))))
    assert out == expected


def test_brace_requires_valid_label():
    with pytest.raises(ValueError):
        brace(ENG22, 0, (2, 0), ConfPoly.from_word(single_word(0, 2)))


def test_commutator_anticommutativity():
    # com(a_i, m, a_j) = -(braced transform of the mirrored commutators)
    sig = SIG22
    for i in range(2):
        for j in range(2):
            for m in iter_box(sig.locality):
                lhs = commutator(ENG22, i, m, j)
                total = ConfPoly.zero()
                for s in iter_box(index_sub(sig.locality, m)):
                    c = commutator(ENG22, j, index_add(m, s), i)
                    if c.is_zero():
                        continue
                    coeff = Fraction(sign_of(index_add(m, s)), factorial_multi(s))
                    total = total.add_scaled(ENG22.derive_multi(s, c), coeff)
                assert lhs == -total, (i, j, m)


# -- enveloping presentations ------------------------------------------------------


def test_presentation_abelian_rank_one_is_empty():
    sig = AlgebraSignature(2, (1, 1), ("a",))
    L = lie_conformal(sig, {})
    system = enveloping_presentation(L)
    assert len(system) == 0


def test_presentation_single_generator_locality_two():
    L = lie_conformal(SIG22_1, {})
    system = enveloping_presentation(L, ENG22_1)
    r_mixed = (ConfPoly.from_word(word([(0, (1, 0))], 0, (1, 0)))
               - ConfPoly.from_word(word([(0, (0, 1))], 0, (0, 1))))
    r_01 = (ConfPoly.from_word(word([(0, (1, 1))], 0, (1, 0)))
            - ConfPoly.from_word(word([(0, (0, 1))], 0), 3))
    r_10 = (ConfPoly.from_word(word([(0, (1, 1))], 0, (0, 1)))
            - ConfPoly.from_word(word([(0, (1, 0))], 0), 3))
    assert system.elements == [r_mixed, r_01, r_10]
    assert system.interreduce().elements == system.elements


def test_presentation_two_generators_zero_bracket():
    L = lie_conformal(SIG22, {})
    system = enveloping_presentation(L, ENG22)
    assert len(system) == 10
    leads = {p.leading_word() for p in system.elements}
    expected = set()
    for c in range(2):
        expected.add(word([(c, (1, 0))], c, (1, 0)))
        expected.add(word([(c, (1, 1))], c, (1, 0)))
        expected.add(word([(c, (1, 1))], c, (0, 1)))
    for m in iter_box(SIG22.locality):
        expected.add(word([(1, m)], 0))
    assert leads == expected
    assert system.interreduce().elements == system.elements


def test_loop_sl2_presentation():
    L = loop_conformal(sl2(), 2)
    assert L.signature == AlgebraSignature(2, (1, 1), ("f", "h", "e"))
    eng = Engine(L.signature)
    system = enveloping_presentation(L, eng)

    def rel(i, j, combo):
        out = (ConfPoly.from_word(word([(i, (0, 0))], j))
               - ConfPoly.from_word(word([(j, (0, 0))], i)))
        for k, c in combo:
            out = out.add_scaled(ConfPoly.from_word(single_word(k, 2)), -c)
        return out

    assert system.elements == [
        rel(1, 0, [(0, -2)]),
        rel(2, 0, [(1, 1)]),
        rel(2, 1, [(2, -2)]),
    ]
    assert system.check_gsb().is_gsb


def test_loop_abelian_presentation():
    g = lie_algebra(("x", "y", "z"), {})
    L = loop_conformal(g, 2)
    system = enveloping_presentation(L)
    assert len(system) == 3
    for p in system.elements:
        lead = p.leading_word()
        assert len(p.terms) == 2 and lead.length == 2


def test_loop_solvable_presentation_is_gsb():
    g = lie_algebra(("x", "y"), {(1, 0): ((1, 1),)})
    system = enveloping_presentation(loop_conformal(g, 2))
    assert system.check_gsb().is_gsb


def test_loop_conformal_rejects_invalid_lie():
    g = lie_algebra(("x", "y"), {(1, 0): ((0, 1),), (0, 1): ((0, 1),)})
    with pytest.raises(ValueError):
        loop_conformal(g, 2)


def test_lie_conformal_rejects_long_table_values():
    bad = ConfPoly.from_word(word([(0, (0, 0))], 0))
    with pytest.raises(ValueError):
        lie_conformal(AlgebraSignature(2, (1, 1), ("x", "y")), {(1, 0, (0, 0)): bad})


def test_lie_conformal_rejects_invalid_key():
    val = ConfPoly.from_word(single_word(0, 2))
    with pytest.raises(ValueError):
        lie_conformal(AlgebraSignature(2, (1, 1), ("x", "y")), {(1, 0, (1, 0)): val})
    with pytest.raises(ValueError, match="table key needs 0 <= j < i < 2"):
        lie_conformal(AlgebraSignature(1, (1,), ("x", "y")),
                      {(0, 1, (0,)): ConfPoly.from_word(single_word(0, 1))})


@pytest.mark.parametrize("brackets, message", [
    ({(2, 0): ((0, 1),)}, "bracket key"),
    ({(1, 0): ((5, 1),)}, "bracket value index 5"),
], ids=["key", "value"])
def test_lie_algebra_rejects_an_index_outside_the_basis(brackets, message):
    with pytest.raises(ValueError, match=message):
        lie_algebra(("x", "y"), brackets)


# -- the half-PBW check --------------------------------------------------------------


def test_half_pbw_loop_sl2():
    report = half_pbw_check(loop_conformal(sl2(), 2))
    assert isinstance(report, HalfPBWReport)
    assert report.checked == 1
    assert report.ok


def test_half_pbw_abelian_locality_two():
    # At locality (2,2) the relation polynomials are not D-free, so interior
    # rewriting is unavailable and most of the mixed compositions stop at a
    # nonzero normal form even though each lies in the relation ideal (the
    # bounded completion of the same presentation reduces them all to zero).
    # The check must report those remainders rather than hide them.
    sig = AlgebraSignature(2, (2, 2), ("x", "y", "z"))
    L = lie_conformal(sig, {})
    report = half_pbw_check(L)
    assert report.checked == 16
    assert not report.ok
    assert len(report.failures) == 15
    keys = {key for key, _ in report.failures}
    assert (2, 1, 0, (1, 1), (1, 1)) not in keys, "the sparsest instance reduces to zero"
    for (i, j, k, m, mp), remainder in report.failures:
        assert (i, j, k) == (2, 1, 0)
        assert not remainder.is_zero()
        top = word(((i, m), (j, mp)), k)
        assert compare_words(remainder.leading_word(), top) < 0
    # deterministic: a second run reports identical remainders
    again = half_pbw_check(L)
    assert again == report


def _sl2_table(locality, h_f=-2):
    # sl2 at label zero; any h_f but -2 breaks Jacobi, bypassing validation
    sig = AlgebraSignature(2, locality, ("f", "h", "e"))
    z = (0, 0)
    return lie_conformal(sig, {
        (1, 0, z): ConfPoly.from_word(single_word(0, 2), h_f),
        (2, 0, z): ConfPoly.from_word(single_word(1, 2)),
        (2, 1, z): ConfPoly.from_word(single_word(2, 2), -2),
    })


def test_half_pbw_detects_broken_jacobi():
    # corrupted sl2 table bypassing the Lie validation of loop_conformal
    report = half_pbw_check(_sl2_table((1, 1), h_f=-3))
    assert report.checked == 1
    assert not report.ok
    (key, remainder), = report.failures
    assert key == (2, 1, 0, (0, 0), (0, 0))
    assert remainder == ConfPoly.from_word(single_word(1, 2), -1)


HALF_PBW_TABLES = {
    "sl2-loop-1": lambda: loop_conformal(sl2(), 1),
    "sl2-loop-2": lambda: loop_conformal(sl2(), 2),
    "abelian-22": lambda: lie_conformal(AlgebraSignature(2, (2, 2), ("x", "y", "z")), {}),
    "sl2-current-22": lambda: bracket_conformal(AlgebraSignature(2, (2, 2), ("f", "h", "e")),
                                                sl2()),
    "abelian-3": lambda: lie_conformal(AlgebraSignature(1, (3,), ("a", "b", "c", "d")), {}),
    "sl2-corrupted-11": lambda: _sl2_table((1, 1), h_f=-3),
    "sl2-corrupted-22": lambda: _sl2_table((2, 2), h_f=-3),
}


def _reference_compositions(L, engine):
    """The mixed compositions s_ij<m'> a_k - a_i<m> s_jk built by hand, as
    products of the defining relations, in the check's instance order."""
    sig = L.signature
    labels = list(iter_box(sig.locality))
    out = []
    for i in range(len(sig.generators)):
        for j in range(i):
            for k in range(j):
                unit_k = ConfPoly.from_word(single_word(k, sig.n))
                for m in labels:
                    s_ij = lie_relation(engine, L, i, j, m)
                    for mp in labels:
                        s_jk = lie_relation(engine, L, j, k, mp)
                        out.append(((i, j, k, m, mp), engine.mul_poly(s_ij, mp, unit_k)
                                    - engine.mul_prefix_poly(i, m, s_jk)))
    return out


@pytest.mark.parametrize("name", HALF_PBW_TABLES)
def test_half_pbw_compositions_match_the_hand_built_reference(name, monkeypatch):
    L = HALF_PBW_TABLES[name]()
    evaluated, reduced = [], []
    eval_composition, reduce = RewriteSystem.eval_composition, RewriteSystem.reduce

    def recording_eval(system, task):
        out = eval_composition(system, task)
        evaluated.append((task, out))
        return out

    def recording_reduce(system, p):
        out = reduce(system, p)
        if evaluated and p is evaluated[-1][1]:
            reduced.append(out)
        return out

    monkeypatch.setattr(RewriteSystem, "eval_composition", recording_eval)
    monkeypatch.setattr(RewriteSystem, "reduce", recording_reduce)
    report = half_pbw_check(L, Engine(L.signature))
    monkeypatch.undo()

    engine = Engine(L.signature)
    presentation = enveloping_presentation(L, engine)
    reference = _reference_compositions(L, engine)
    assert report.checked == len(reference) == len(evaluated) == len(reduced)
    failures = []
    for (key, want), (task, got), (remainder, trace) in zip(reference, evaluated, reduced):
        i, j, k, m, mp = key
        # the two leads share the letter a_j of the word
        assert (task.kind, task.pos) == (INTERSECTION, 1)
        assert task.w == word([(i, m), (j, mp)], k, (0,) * L.signature.n)
        assert list(got.terms.items()) == list(want.terms.items()), key
        want_remainder, want_trace = presentation.reduce(want)
        assert list(remainder.terms.items()) == list(want_remainder.terms.items()), key
        assert trace == want_trace, key
        if not want_remainder.is_zero():
            failures.append((key, want_remainder))
    assert [key for key, _ in report.failures] == [key for key, _ in failures]
    for (_, got), (_, want) in zip(report.failures, failures):
        assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("name", HALF_PBW_TABLES)
def test_presentation_keeps_each_commutation_relation_unchanged(name):
    # half_pbw_check takes s_ij from the interreduced presentation: for
    # i > j the rule with lead a_i<m> a_j is lie_relation's, dict order too
    L = HALF_PBW_TABLES[name]()
    sig, engine = L.signature, Engine(L.signature)
    rules = {rule.lead: rule.poly for rule in enveloping_presentation(L, engine).rules}
    for i in range(len(sig.generators)):
        for j in range(i):
            for m in iter_box(sig.locality):
                want = lie_relation(engine, L, i, j, m)
                got = rules[word([(i, m)], j, (0,) * sig.n)]
                assert list(got.terms.items()) == list(want.terms.items()), (i, j, m)


def test_relation_heads_are_leading():
    L = lie_conformal(SIG22, {})
    for m in iter_box(SIG22.locality):
        rel = lie_relation(ENG22, L, 1, 0, m)
        assert rel.leading_term() == (word([(1, m)], 0), 1)
