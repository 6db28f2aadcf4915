"""Occurrence matching, reduction traces, compositions, and completion."""

import heapq
import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from confgsb import cli
from confgsb.engine import Engine
from confgsb.envelope import enveloping_presentation, lie_conformal, lie_relation
from confgsb.indices import iter_box, zero_index
from confgsb.rewrite import (
    BOUNDED_COMPLETE,
    COMPLETE,
    INCLUSION,
    INTERSECTION,
    KIND_RANK,
    KINDS,
    LEFT_MUL,
    LIMIT_REACHED,
    RIGHT_INCLUSION,
    RIGHT_MUL,
    CompositionTask,
    Occurrence,
    ReductionTrace,
    RewriteSystem,
    TraceStep,
    _intersection,
    _LeadIndex,
    _right_inclusion,
    _rule,
    complete,
)
from confgsb.words import AlgebraSignature, ConfPoly, NormalWord, compare_words, single_word
from helpers import word_gens

SIG = AlgebraSignature(2, (2, 2), ("a",))
ENG = Engine(SIG)


def w(*labels, taild=(0, 0)):
    return NormalWord(tuple((0, m) for m in labels), 0, tuple(taild))


def mono(*labels, taild=(0, 0), c=1):
    return ConfPoly.from_word(w(*labels, taild=taild), c)


F = mono((0, 0)) - mono()
G = mono((1, 0), (1, 0))
H = mono((0, 1), (0, 1))
P = mono((1, 1), (1, 0))
Q = mono((1, 1), (0, 1))
S = mono((1, 1), (1, 1))
GOLDEN = [F, G, H, P, Q, S]


def golden_system():
    return RewriteSystem(ENG, GOLDEN)


# -- occurrences -------------------------------------------------------------


def test_interior_occurrence_only():
    sys_f = RewriteSystem(ENG, [F])
    occs = sys_f.find_occurrences(w((0, 0), (1, 0)))
    assert occs == [Occurrence(0, 0, False)]


def test_no_occurrence():
    sys_f = RewriteSystem(ENG, [F])
    assert sys_f.find_occurrences(w((1, 0))) == []


def test_suffix_occurrence_with_dshift():
    sys_g2 = RewriteSystem(ENG, [mono((1, 0))])
    occs = sys_g2.find_occurrences(w((1, 0), taild=(2, 1)))
    assert occs == [Occurrence(0, 0, True, (2, 1))]


def test_occurrences_sorted_by_position_then_kind():
    sys_f = RewriteSystem(ENG, [F])
    occs = sys_f.find_occurrences(w((0, 0), (0, 0)))
    assert occs == [Occurrence(0, 0, False), Occurrence(0, 1, True, (0, 0))]


def test_suffix_occurrence_needs_componentwise_dominance():
    elem = mono((1, 0), taild=(1, 1))
    sys_e = RewriteSystem(ENG, [elem])
    # word taild (2, 0) does not dominate the pattern taild (1, 1)
    assert sys_e.find_occurrences(w((1, 0), taild=(2, 0))) == []
    assert sys_e.find_occurrences(w((1, 0), taild=(2, 1))) == [
        Occurrence(0, 0, True, (1, 0))
    ]


# -- S-words ------------------------------------------------------------------


def test_build_sword_interior():
    sys_f = RewriteSystem(ENG, [F])
    target = w((0, 0), (1, 0))
    sword = sys_f.build_sword(target, Occurrence(0, 0, False))
    assert sword == ConfPoly.from_word(target) - mono((1, 0))


def test_build_sword_suffix():
    sys_f = RewriteSystem(ENG, [F])
    target = w((0, 0), taild=(1, 0))
    sword = sys_f.build_sword(target, Occurrence(0, 0, True, (1, 0)))
    assert sword == ConfPoly.from_word(target) - mono(taild=(1, 0))


def test_build_sword_builds_each_core_once():
    # F's lead a<0,0>a at position 1, under two prefixes: one core F<1,0>a
    eng = Engine(SIG)
    sys_f = RewriteSystem(eng, [F])
    target = w((1, 0), (0, 0), (1, 0))
    first = sys_f.build_sword(target, Occurrence(0, 1, False))
    assert first == ConfPoly.from_word(target) - mono((1, 0), (1, 0))
    assert list(sys_f.rules[0].cores) == [((1, 0), w())]
    eng.mul_poly = eng.derive_multi = None  # a cached core asks the engine for nothing
    assert sys_f.build_sword(target, Occurrence(0, 1, False)) == first
    other = w((0, 1), (0, 0), (1, 0))
    assert sys_f.build_sword(other, Occurrence(0, 1, False)) == \
        ConfPoly.from_word(other) - mono((0, 1), (1, 0))
    assert list(sys_f.rules[0].cores) == [((1, 0), w())]


def test_build_sword_checks_the_law_on_cached_cores():
    # a word that shares the core's key but not its lead raises, cached or not
    sys_f = RewriteSystem(ENG, [F])
    sys_f.build_sword(w((0, 0), (1, 0)), Occurrence(0, 0, False))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="leading-word law violated"):
            sys_f.build_sword(w((1, 1), (1, 0)), Occurrence(0, 0, False))
    with pytest.raises(RuntimeError, match="leading-word law violated"):
        sys_f.build_sword(w((1, 1), (1, 0), taild=(1, 0)), Occurrence(0, 0, True, (0, 0)))


def test_build_sword_rejects_an_invalid_prefix_label():
    # the prefix is copied from w, so the law alone would pass a label outside the box
    sys_f = RewriteSystem(ENG, [F])
    sys_f.build_sword(w((1, 0), (0, 0), (1, 0)), Occurrence(0, 1, False))
    for target, occ in ((w((2, 0), (0, 0), (1, 0)), Occurrence(0, 1, False)),
                        (w((1, 0), (0, 3), (0, 0)), Occurrence(0, 2, True, (0, 0)))):
        with pytest.raises(ValueError, match="is not a normal word"):
            sys_f.build_sword(target, occ)


@pytest.mark.parametrize("case, max_steps", [("idempotent33", 10_000), ("abelian", 800)])
def test_traces_replay_in_systems_with_empty_caches(case, max_steps, monkeypatch):
    # every reduction of a completion, interreduction included, replayed
    # over the same elements in a new system on a new engine
    eng, elements = _workload_inputs(case)
    calls, reduce = [], RewriteSystem.reduce

    def recorded_reduce(self, p):
        out = reduce(self, p)
        calls.append((self.elements, p, out))
        return out

    monkeypatch.setattr(RewriteSystem, "reduce", recorded_reduce)
    complete(eng, elements, max_steps=max_steps)
    monkeypatch.undo()
    fresh = Engine(eng.sig)
    assert sum(len(trace) for _, _, (_, trace) in calls) > 1000
    for polys, p, (remainder, trace) in calls:
        assert trace.replay(RewriteSystem(fresh, polys)) == p - remainder


def test_interreduce_leaves_no_stale_core():
    # interreduce rewrites G + a<0,0>a to G + a, with the same lead: the new
    # rule builds its own cores, and the untouched F keeps its own
    system = RewriteSystem(Engine(SIG), [F, G + mono((0, 0))])
    target, occ = w((1, 0), (1, 0), (0, 0)), Occurrence(1, 0, False)
    before = system.build_sword(target, occ)
    out = system.interreduce()
    assert out.rules[1].poly == G + mono() and out.rules[1].lead == system.rules[1].lead
    assert out.rules[0] is system.rules[0] and out.rules[0].cores
    after = out.build_sword(target, occ)
    assert after == RewriteSystem(Engine(SIG), out.elements).build_sword(target, occ)
    assert after != before


def test_checked_engine_gives_the_same_swords():
    # every S-word reducing the (3,3) compositions, built under check=True
    system = _completed_idempotent33()
    checked = RewriteSystem(Engine(system.sig, check=True), system.elements)
    steps = [step for task in system.all_tasks()
             for step in system.reduce(system.eval_composition(task))[1].steps]
    assert len(steps) > 100
    for step in steps + steps:  # the second pass reads the cores
        got = checked.build_sword(step.word, step.occ)
        assert list(got.terms.items()) == \
            list(system.build_sword(step.word, step.occ).terms.items())
    assert checked.engine.invariant_checks > 0


def test_complete_engine_work_is_pinned(monkeypatch):
    # each core is built once per rule: 702 mul_poly calls where building
    # every S-word from scratch made 2754
    calls, mul_poly = [], Engine.mul_poly
    monkeypatch.setattr(Engine, "mul_poly", lambda self, *a: calls.append(a) or mul_poly(self, *a))
    eng, elements = _workload_inputs("idempotent33")
    system, status = complete(eng, elements)
    assert (status, len(system), len(calls)) == (COMPLETE, 17, 702)


# -- reduction ----------------------------------------------------------------


def test_reduce_two_steps_to_generator():
    sys_f = RewriteSystem(ENG, [F])
    start = ConfPoly.from_word(w((0, 0), (0, 0)))
    remainder, trace = sys_f.reduce(start)
    assert remainder == mono()
    assert len(trace) == 2
    assert {s.occ.elem for s in trace.steps} == {0}
    assert start == remainder + trace.replay(sys_f)


def test_reduce_element_to_zero():
    sys_f = RewriteSystem(ENG, [F])
    remainder, trace = sys_f.reduce(F)
    assert remainder.is_zero()
    assert len(trace) == 1


def test_trace_words_strictly_descend():
    system = golden_system()
    start = ConfPoly.from_word(w((0, 0), (0, 0), (0, 0))) + mono((0, 0), c=3)
    remainder, trace = system.reduce(start)
    words = [step.word for step in trace.steps]
    assert all(compare_words(b, a) < 0 for a, b in zip(words, words[1:]))
    assert start == remainder + trace.replay(system)


def test_trace_records_keep_their_fields_repr_and_equality():
    sys_f = RewriteSystem(ENG, [F])
    _, trace = sys_f.reduce(ConfPoly.from_word(w((0, 0), (0, 0))))
    assert trace.steps == (
        TraceStep(w((0, 0), (0, 0)), Occurrence(0, 0, False), 1),
        TraceStep(word=w((0, 0)), occ=Occurrence(elem=0, pos=0, second=True, dshift=(0, 0)),
                  coeff=1),
    )
    assert Occurrence._fields == ("elem", "pos", "second", "dshift")
    assert TraceStep._fields == ("word", "occ", "coeff")
    assert Occurrence(2, 1, False).dshift is None
    assert repr(Occurrence(2, 1, True, (1, 0))) == \
        "Occurrence(elem=2, pos=1, second=True, dshift=(1, 0))"
    step = trace.steps[1]
    assert repr(step) == ("TraceStep(word=NormalWord(links=((0, (0, 0)),), tail=0, "
                          "taild=(0, 0)), occ=Occurrence(elem=0, pos=0, second=True, "
                          "dshift=(0, 0)), coeff=1)")
    assert (step.word, step.occ.elem, step.occ.pos, step.coeff) == (w((0, 0)), 0, 0, 1)
    assert Occurrence(0, 0, False) == Occurrence(0, 0, False, None) != Occurrence(0, 0, True)
    assert len({Occurrence(0, 1, False), Occurrence(0, 1, False), Occurrence(1, 0, False)}) == 2
    assert hash(step) == hash(TraceStep(w((0, 0)), Occurrence(0, 0, True, (0, 0)), 1))
    assert ReductionTrace(trace.steps).replay(sys_f) == ConfPoly.from_word(w((0, 0), (0, 0))) - mono()


def random_poly(rng):
    terms = ConfPoly.zero()
    for _ in range(rng.randrange(1, 5)):
        length = rng.randrange(1, 5)
        labels = [(rng.randrange(2), rng.randrange(2)) for _ in range(length - 1)]
        taild = (rng.randrange(3), rng.randrange(3))
        coeff = rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)])
        terms = terms.add_scaled(mono(*labels, taild=taild), coeff)
    return terms


def test_trace_replay_on_random_polynomials():
    system = golden_system()
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng)
        remainder, trace = system.reduce(p)
        assert p == remainder + trace.replay(system)
        # the remainder really is irreducible
        again, trace2 = system.reduce(remainder)
        assert again == remainder and len(trace2) == 0


def test_reduction_confluent_on_completed_system():
    system, status = complete(ENG, [F])
    assert status == COMPLETE
    rng = random.Random(13)
    for _ in range(30):
        p = random_poly(rng)
        base, _ = system.reduce(p)
        for seed in range(3):
            alt, _ = _reduce_by_resort(system, p, rng=random.Random(seed))
            assert alt == base


# -- overlap tasks and their evaluations --------------------------------------


def _labels_match(u, lead, p):
    """Do the internal link labels of ``lead`` match ``u`` at position p?"""
    return all(u.links[p + r][1] == lead.links[r][1] for r in range(lead.length - 1))


def overlap_tasks(system, i, j):
    """Reference: the inclusion, right-inclusion and intersection tasks of
    the ordered pair (i, j), each tried at every position.  The library
    draws them from its lead index, and ``test_entries_match_overlap_tasks``
    holds the two equal."""
    ri, rj = system.rules[i], system.rules[j]
    fi, gj = ri.lead, rj.lead
    fig, gjg = word_gens(fi), word_gens(gj)
    lf, lg = fi.length, gj.length
    tasks = []
    # the j-pattern strictly inside the i-leading word, a link following it
    if rj.dfree:
        for p in range(len(fi.links) - lg + 1):
            if fig[p:p + lg] == gjg and _labels_match(fi, gj, p):
                tasks.append(CompositionTask(len(fi.links), fi, KIND_RANK[INCLUSION], i, j, p))
    # the j-pattern aligned with the i-suffix, tail derivations split minimally
    p = lf - lg
    if (p >= 0 and fig[p:] == gjg and _labels_match(fi, gj, p)
            and not (i == j and p == 0)):
        tasks.append(CompositionTask._make(_right_inclusion(fi, gj, i, j, p)))
    # proper overlap of the i-suffix with the j-prefix
    if ri.dfree:
        for c in range(1, min(lf, lg)):
            p = lf - c
            if fig[p:] == gjg[:c] and all(
                    fi.links[p + r][1] == gj.links[r][1] for r in range(c - 1)):
                tasks.append(CompositionTask._make(_intersection(fi, gj, i, j, p)))
    return tasks


def _shared_letters(system, task):
    """The letters an intersection's two leads share in its word."""
    return system.rules[task.i].lead.length + system.rules[task.j].lead.length - task.w.length


def _tail_split(system, task):
    """The tail exponents a right inclusion's word adds to rule i's lead
    and to rule j's, read off the occurrences of the two leads in it."""
    return (system._occurrence(task.w, task.i, 0).dshift,
            system._occurrence(task.w, task.j, task.pos).dshift)


def multiplication_tasks(system, i):
    """Left products a<m>f for invalid m, and right products f<m>a for
    non-D-free f, over the finite label box of rule i."""
    return list(map(CompositionTask._make, system._multiplication_entries(i)))


def test_self_overlap_of_quadratic_relation():
    sys_f = RewriteSystem(ENG, [F])
    tasks = overlap_tasks(sys_f, 0, 0)
    assert [t.kind for t in tasks] == [INTERSECTION]
    task = tasks[0]
    assert task.w == w((0, 0), (0, 0)) and _shared_letters(sys_f, task) == 1
    assert sys_f.eval_composition(task).is_zero()


def test_intersection_f_with_g_evaluates_to_minus_g():
    system = RewriteSystem(ENG, [F, G])
    tasks = overlap_tasks(system, 0, 1)
    assert [t.kind for t in tasks] == [INTERSECTION]
    task = tasks[0]
    assert task.w == w((0, 0), (1, 0), (1, 0))
    assert system.eval_composition(task) == -G


def test_self_overlaps_of_cubic_relation_vanish():
    sys_g = RewriteSystem(ENG, [G])
    tasks = overlap_tasks(sys_g, 0, 0)
    assert [t.kind for t in tasks] == [INTERSECTION, INTERSECTION]
    by_c = {_shared_letters(sys_g, t): t for t in tasks}
    assert by_c[1].w == w((1, 0), (1, 0), (1, 0), (1, 0))
    assert by_c[2].w == w((1, 0), (1, 0), (1, 0))
    assert sys_g.eval_composition(by_c[1]).is_zero()
    assert sys_g.eval_composition(by_c[2]).is_zero()


def test_intersection_g_with_q_reduces_via_s():
    system = RewriteSystem(ENG, [G, Q, S])
    tasks = [t for t in overlap_tasks(system, 0, 1) if _shared_letters(system, t) == 1]
    assert len(tasks) == 1
    task = tasks[0]
    assert task.w == w((1, 0), (1, 0), (1, 1), (0, 1))
    comp = system.eval_composition(task)
    expected = (mono((1, 0), (0, 0), (1, 1), (1, 1), c=-2)
                + mono((0, 0), (1, 0), (1, 1), (1, 1), c=-2))
    assert comp == expected
    remainder, _ = RewriteSystem(ENG, [S]).reduce(comp)
    assert remainder.is_zero()


def test_intersection_g_with_h_needs_s_not_just_q():
    system = RewriteSystem(ENG, [G, H])
    tasks = [t for t in overlap_tasks(system, 0, 1) if _shared_letters(system, t) == 1]
    task = tasks[0]
    assert task.w == w((1, 0), (1, 0), (0, 1), (0, 1))
    comp = system.eval_composition(task)
    expected = (mono((1, 0), (0, 0), (1, 1), (0, 1), c=-1)
                + mono((0, 0), (1, 0), (1, 1), (0, 1), c=-1)
                + mono((0, 0), (0, 0), (1, 1), (1, 1), c=2))
    assert comp == expected
    # q alone eliminates the two q-suffixed words but leaves the s-suffixed one
    rem_q, _ = RewriteSystem(ENG, [Q]).reduce(comp)
    assert rem_q == mono((0, 0), (0, 0), (1, 1), (1, 1), c=2)
    rem_qs, _ = RewriteSystem(ENG, [Q, S]).reduce(comp)
    assert rem_qs.is_zero()


def test_right_inclusion_same_pattern_different_tails():
    e1 = mono((1, 0), taild=(1, 1))
    e2 = mono((1, 0), taild=(1, 0))
    system = RewriteSystem(ENG, [e1, e2])
    t01 = overlap_tasks(system, 0, 1)
    assert [t.kind for t in t01] == [RIGHT_INCLUSION]
    assert _tail_split(system, t01[0]) == ((0, 0), (0, 1))
    assert t01[0].w == w((1, 0), taild=(1, 1))
    assert system.eval_composition(t01[0]).is_zero()
    t10 = overlap_tasks(system, 1, 0)
    assert [t.kind for t in t10] == [RIGHT_INCLUSION]
    assert _tail_split(system, t10[0]) == ((0, 1), (0, 0))
    assert t10[0].w == w((1, 0), taild=(1, 1))
    assert system.eval_composition(t10[0]).is_zero()


def test_right_inclusion_mixed_tail_supports():
    e3 = mono((1, 0), taild=(2, 0))
    e4 = mono((1, 0), taild=(0, 1))
    system = RewriteSystem(ENG, [e3, e4])
    tasks = overlap_tasks(system, 0, 1)
    assert [t.kind for t in tasks] == [RIGHT_INCLUSION]
    task = tasks[0]
    assert _tail_split(system, task) == ((0, 1), (2, 0))
    assert task.w == w((1, 0), taild=(2, 1))
    assert system.eval_composition(task) == mono((0, 0), taild=(1, 1), c=2)


def test_right_inclusion_skips_identity_pair():
    sys_f = RewriteSystem(ENG, [F])
    assert all(t.kind != RIGHT_INCLUSION for t in overlap_tasks(sys_f, 0, 0))


def test_inclusion_of_short_pattern_with_junction():
    big = ConfPoly.from_word(w((1, 0), (1, 0))) + mono()
    small = mono((1, 0))
    system = RewriteSystem(ENG, [big, small])
    tasks = overlap_tasks(system, 0, 1)
    kinds = [t.kind for t in tasks]
    assert kinds == [INCLUSION, RIGHT_INCLUSION, INTERSECTION]
    inc = tasks[0]
    assert inc.pos == 0 and inc.w == w((1, 0), (1, 0))
    assert system.eval_composition(inc) == mono()


# -- multiplication tasks ------------------------------------------------------


def test_multiplication_bounds():
    system = golden_system()
    assert system.multiplication_bounds(F) == (3, 3)
    assert system.multiplication_bounds(mono()) == (2, 2)
    assert system.multiplication_bounds(G) == (2, 4)
    assert system.multiplication_bounds(Q) == (3, 2)
    assert system.multiplication_bounds(mono(taild=(1, 0))) == (3, 2)


def test_multiplication_tasks_for_dfree_quadratic():
    sys_f = RewriteSystem(ENG, [F])
    tasks = multiplication_tasks(sys_f, 0)
    assert all(t.kind == LEFT_MUL for t in tasks)
    assert sorted(t.m for t in tasks) == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]
    by_m = {t.m: t for t in tasks}
    assert sys_f.eval_composition(by_m[(2, 0)]) == 2 * G
    assert sys_f.eval_composition(by_m[(0, 2)]) == 2 * H
    assert sys_f.eval_composition(by_m[(2, 1)]) == 2 * P
    assert sys_f.eval_composition(by_m[(1, 2)]) == 2 * Q
    assert sys_f.eval_composition(by_m[(2, 2)]) == 4 * S


def test_multiplication_tasks_for_derived_generator():
    sys_d = RewriteSystem(ENG, [mono(taild=(1, 0))])
    tasks = multiplication_tasks(sys_d, 0)
    left = [t for t in tasks if t.kind == LEFT_MUL]
    right = [t for t in tasks if t.kind == RIGHT_MUL]
    assert sorted(t.m for t in left) == [(2, 0), (2, 1)]
    assert sorted(t.m for t in right) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    by_m = {t.m: t for t in right}
    assert sys_d.eval_composition(by_m[(2, 1)]) == mono((1, 1), c=-2)
    assert sys_d.eval_composition(by_m[(0, 1)]).is_zero()


def test_boundary_vanishing_is_checked_under_audit():
    checked = Engine(SIG, check=True)
    system = RewriteSystem(checked, [F - G])
    before = checked.invariant_checks
    assert any(t.kind == LEFT_MUL for t in system.all_tasks())
    assert checked.invariant_checks > before


# -- interreduction ------------------------------------------------------------


def test_interreduce_removes_redundant_combination():
    system = RewriteSystem(ENG, [F, F + G, G])
    reduced = system.interreduce()
    assert reduced.elements == [F, G]


def test_interreduce_rescales_to_monic():
    system = RewriteSystem(ENG, [2 * F])
    assert system.elements == [F]  # construction already normalizes
    assert system.interreduce().elements == [F]


def test_interreduce_fixes_golden_system():
    system = golden_system()
    assert system.interreduce().elements == GOLDEN


def _interreduce_by_rebuild(system):
    """Reference interreduction: each element is reduced against a system
    rebuilt from the others, and every change restarts the sweep."""
    elems = list(system.elements)
    changed = True
    while changed:
        changed = False
        for i in range(len(elems)):
            others = RewriteSystem(system.engine, elems[:i] + elems[i + 1:])
            r, _ = others.reduce(elems[i])
            if r.is_zero():
                del elems[i]
                changed = True
                break
            r = r.monic()
            if r != elems[i]:
                elems[i] = r
                changed = True
                break
    return elems


def _abelian_envelope_relations():
    sig = AlgebraSignature(2, (2, 2), ("x", "y", "z"))
    eng = Engine(sig)
    spec = lie_conformal(sig, {})
    rels = [lie_relation(eng, spec, i, j, m)
            for i in range(3) for j in range(i + 1) for m in iter_box(sig.locality)]
    return eng, [r for r in rels if not r.is_zero()]


def _record_interreduce(monkeypatch):
    """Record each interreduce's input elements and, for each reduce call
    it makes, the position of the rule it reduces and the number of
    elements then."""
    runs = []
    interreduce, reduce = RewriteSystem.interreduce, RewriteSystem.reduce

    def recorded_interreduce(self):
        runs.append((self.elements, []))
        return interreduce(self)

    def recorded_reduce(self, p):
        # interreduce reduces a rule's own polynomial: found by identity, as
        # a doubled copy is an equal polynomial
        i = next((e for e, rule in enumerate(self.rules) if rule.poly is p), None)
        if i is not None:
            runs[-1][1].append((i, len(self)))
        return reduce(self, p)

    monkeypatch.setattr(RewriteSystem, "interreduce", recorded_interreduce)
    monkeypatch.setattr(RewriteSystem, "reduce", recorded_reduce)
    return runs


def _sweep_moves(calls):
    """Whether the sweep goes on at the same position after a deletion, and
    whether it goes back to an earlier or the same one with none deleted."""
    moves = list(zip(calls, calls[1:]))
    return (any(b == (a[0], a[1] - 1) for a, b in moves),
            any(b[1] == a[1] and b[0] <= a[0] for a, b in moves))


# (goes on after a deletion, goes back to an earlier element) for each case
SWEEP_MOVES = {"abelian-envelope": (False, True), "golden-with-sums": (True, False),
               "restart-sensitive": (True, True), "replacements-in-place": (True, False),
               "made-d-free": (False, True)}


@pytest.mark.parametrize("case", list(SWEEP_MOVES))
def test_interreduce_matches_rebuild_reference(case, monkeypatch):
    eng = ENG
    if case == "abelian-envelope":
        eng, relations = _abelian_envelope_relations()
    elif case == "golden-with-sums":
        relations = [F, F + G, G] + GOLDEN + [G + H, 3 * P - Q, F + S, H - 2 * F]
    elif case == "restart-sensitive":
        # sweeping on after a new lead, instead of going back, ends elsewhere
        relations = [Q - mono((1, 1)) - mono(), -mono((0, 0), (0, 0)) - 2 * mono((0, 1)),
                     -2 * mono((1, 0)) - 2 * mono((0, 1)), P, -mono((1, 0)) - mono((0, 0))]
    elif case == "replacements-in-place":
        # F + G is deleted; two elements change, their leads kept
        relations = [F, F + G, G, H + mono((0, 0)), P - 2 * F, S]
    else:
        # the second keeps its lead but turns D-free, and then its lead
        # occurs inside the first one's
        relations = [mono((1, 1), (0, 0)), mono((1, 1)) + mono(taild=(1, 0)),
                     mono(taild=(1, 0)) - mono()]
    system = RewriteSystem(eng, relations)
    before = system.elements
    reference = _interreduce_by_rebuild(system)
    assert reference != before  # the input is not already interreduced
    runs = _record_interreduce(monkeypatch)
    assert system.interreduce().elements == reference
    assert system.elements == before  # interreduce leaves its input alone
    [(_, calls)] = runs
    assert _sweep_moves(calls) == SWEEP_MOVES[case]
    if case == "replacements-in-place":
        assert len(reference) == len(before) - 1 and len(calls) == len(before)


def test_final_interreduction_reduces_each_element_once(monkeypatch):
    # the abelian completion's last interreduce only deletes (9 of 206), so
    # it goes on in place after each deletion: one reduce call per element
    eng, elements = _workload_inputs("abelian")
    runs = _record_interreduce(monkeypatch)
    system, status = complete(eng, elements, max_steps=800)
    assert status == LIMIT_REACHED
    (before, calls) = runs[-1]
    assert (len(before), len(calls), len(system)) == (206, 206, 197)
    assert _sweep_moves(calls) == (True, False)
    assert system.elements == _interreduce_by_rebuild(RewriteSystem(eng, before))


# -- the leading-word index and the heap reduction against references ----------


def _find_occurrences_by_scan(system, word):
    """Reference matcher: every rule tried at every position."""
    out = []
    wg = word_gens(word)
    for e, rule in enumerate(system.rules):
        lead, lg, L = rule.lead, word_gens(rule.lead), rule.lead.length
        if rule.dfree:
            for p in range(len(word.links) - L + 1):
                if wg[p:p + L] == lg and all(
                        word.links[p + r][1] == lead.links[r][1] for r in range(L - 1)):
                    out.append(Occurrence(e, p, False))
        p = word.length - L
        if p >= 0 and wg[p:] == lg and all(
                word.links[p + r][1] == lead.links[r][1] for r in range(L - 1)):
            dshift = tuple(a - b for a, b in zip(word.taild, lead.taild))
            if all(c >= 0 for c in dshift):
                out.append(Occurrence(e, p, True, dshift))
    out.sort(key=lambda o: (o.pos, o.second, o.elem))
    return out


def _reduce_by_resort(system, p, rng=None):
    """Reference reduction: every round re-sorts all terms and targets the
    greatest word not yet found irreducible."""
    remainder = p
    steps = []
    irreducible = set()
    while True:
        picked = None
        for word in sorted(remainder.terms, key=NormalWord.weight_key, reverse=True):
            if word in irreducible:
                continue
            occs = system.find_occurrences(word)
            if occs:
                picked = (word, occs)
                break
            irreducible.add(word)
        if picked is None:
            return remainder, steps
        word, occs = picked
        occ = occs[0] if rng is None else occs[rng.randrange(len(occs))]
        coeff = remainder.terms[word]
        remainder = remainder.add_scaled(system.build_sword(word, occ), -coeff)
        steps.append(TraceStep(word, occ, coeff))


def _count_lookups(system):
    """Record the words ``system.reduce`` looks up, in order."""
    looked_up = []
    find = system.find_occurrences

    def counted(word):
        looked_up.append(word)
        return find(word)

    system.find_occurrences = counted
    return looked_up


class _RecordedTable(dict):
    """A step table that appends each word ``reduce`` finds in it to
    ``visited``, the list ``_count_lookups`` appends the looked-up words to,
    and counts them in ``hits``."""

    def __init__(self, table, visited):
        super().__init__(table)
        self.visited = visited
        self.hits = 0

    def get(self, word, default=None):
        if word in self:
            self.visited.append(word)
            self.hits += 1
        return super().get(word, default)


def _seeded_words(system, rng, count):
    """Random words of the system's signature, half of them built around a
    rule's leading word so that matches are frequent."""
    sig = system.sig
    ngens = len(sig.generators)
    labels = list(iter_box(sig.locality))

    def links(k):
        return tuple((rng.randrange(ngens), rng.choice(labels)) for _ in range(k))

    def taild():
        return tuple(rng.randrange(3) for _ in range(sig.n))

    out = []
    for _ in range(count):
        if not system.rules or rng.random() < 0.5:
            out.append(NormalWord(links(rng.randrange(5)), rng.randrange(ngens), taild()))
            continue
        lead = rng.choice(system.rules).lead
        before = links(rng.randrange(3))
        if rng.random() < 0.5:
            # an interior copy: a link follows the lead
            after = links(rng.randrange(2))
            joint = ((lead.tail, rng.choice(labels)),)
            out.append(NormalWord(before + lead.links + joint + after,
                                  rng.randrange(ngens), taild()))
        else:
            # a suffix copy, its tail derivation at or above the lead's
            out.append(NormalWord(before + lead.links, lead.tail,
                                  tuple(c + rng.randrange(2) for c in lead.taild)))
    return out


def _seeded_poly(words, rng):
    p = ConfPoly.zero()
    for word in rng.sample(words, rng.randrange(1, 5)):
        p = p.add_scaled(ConfPoly.from_word(word),
                         rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]))
    return p


def _assert_matches_references(system, seed, count=60):
    rng = random.Random(seed)
    words = _seeded_words(system, rng, count)
    hits = 0
    for word in words:
        got = system.find_occurrences(word)
        assert got == _find_occurrences_by_scan(system, word), word
        hits += bool(got)
    assert hits  # the seeded words do meet the leading words
    reused = 0
    for _ in range(count // 4):
        p = _seeded_poly(words, rng)
        # the second call finds every word in the step table
        for _ in range(2):
            visited = _count_lookups(system)
            system._steps = _RecordedTable(system._steps, visited)
            remainder, trace = system.reduce(p)
            reused += system._steps.hits
            del system.find_occurrences
            looked_up = _count_lookups(system)
            ref_remainder, ref_steps = _reduce_by_resort(system, p)
            del system.find_occurrences
            assert remainder == ref_remainder
            assert list(remainder.terms) == list(ref_remainder.terms)
            assert list(trace.steps) == ref_steps
            # the words visited, looked up or found in the table, in the reference's order
            assert visited == looked_up
    assert reused


def _completed_idempotent33():
    eng = Engine(AlgebraSignature(2, (3, 3), ("a",)))
    system, status = complete(eng, [ConfPoly.from_word(w((0, 0))) - mono()])
    assert status == COMPLETE and len(system) == 17
    return system


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope"])
def test_index_and_heap_match_references(case):
    if case == "golden":
        system = golden_system()
    elif case == "idempotent33":
        system = _completed_idempotent33()
    else:
        system = RewriteSystem(*_abelian_envelope_relations()).interreduce()
        assert not all(rule.dfree for rule in system.rules)
    _assert_matches_references(system, seed=len(system))
    # rules appended to a system whose index is already built
    if case == "abelian-envelope":
        more = _abelian_envelope_relations()[1][:6]
    else:
        more = [mono((1, 0), (0, 0)) - mono((0, 1)), mono((0, 1), (1, 1), (0, 0)), F + G]
    for p in more:
        system._append(p)
    _assert_matches_references(system, seed=3)


def test_index_follows_interreduce_deletions_and_replacements():
    system = RewriteSystem(ENG, [F, F + G, G, H + mono((0, 0)), P - 2 * F, S])
    _assert_matches_references(system, seed=5)  # builds the index before the changes
    reduced = system.interreduce()
    assert len(reduced) == 5  # F + G is deleted
    assert reduced.elements[2:4] == [H + mono(), P]  # two replacements
    _assert_matches_references(reduced, seed=6)
    _assert_matches_references(system, seed=7)  # the input keeps its own index
    eng, relations = _abelian_envelope_relations()
    system = RewriteSystem(eng, relations + [2 * r for r in relations[::4]])
    reduced = system.interreduce()
    assert len(reduced) == len(relations)  # the doubled copies are deleted
    assert reduced.elements != RewriteSystem(eng, relations).elements  # replacements
    _assert_matches_references(reduced, seed=8)


# -- the step table of reduce -------------------------------------------------


def _reduce_afresh(system, p):
    """``system.reduce(p)`` from an empty step table, which it leaves empty."""
    table, system._steps = system._steps, {}
    out = system.reduce(p)
    system._steps = table
    return out


def _assert_same_reduction(got, want):
    assert got == want  # the remainder and the trace
    assert list(got[0].terms) == list(want[0].terms)


def _assert_steps_match_a_new_system(system):
    """Each entry of the step table is the step that a new system over the
    same elements finds at its word: the first occurrence and its S-word,
    or None."""
    fresh = RewriteSystem(Engine(system.sig), system.elements)
    for word, step in system._steps.items():
        occs = fresh.find_occurrences(word)
        assert step == ((occs[0], fresh.build_sword(word, occs[0])) if occs else None), word


def test_step_table_repeats_every_reduction_of_the_completed_idempotent33_system():
    system = _completed_idempotent33()
    reference = RewriteSystem(system.engine, system.elements)
    for task in system.all_tasks():
        p = system.eval_composition(task)
        want = _reduce_afresh(reference, p)
        _assert_same_reduction(system.reduce(p), want)
        _assert_same_reduction(system.reduce(p), want)  # every word from the table
    assert system._steps and not reference._steps


def test_step_table_is_emptied_by_append():
    system = RewriteSystem(ENG, [F])
    word = mono((1, 0), (1, 0))  # irreducible by F
    assert system.reduce(word) == (word, ReductionTrace(()))
    step = TraceStep(w((0, 0)), Occurrence(0, 0, True, (0, 0)), 1)
    assert system.reduce(F) == (ConfPoly.zero(), ReductionTrace((step,)))
    system._append(mono((1, 0)) - mono())
    remainder, trace = system.reduce(word)
    assert remainder != word and trace.steps[0].word == word.leading_word()
    for p in (word, F, mono((1, 0), (0, 0))):
        _assert_same_reduction(system.reduce(p), _reduce_afresh(system, p))


def test_step_table_does_not_leak_through_interreduce():
    system = RewriteSystem(ENG, [F, F + G, G, H + mono((0, 0)), P - 2 * F, S])
    probes = system.elements + [mono((0, 1), (0, 1), (1, 0)), mono((1, 1), (1, 0), (0, 0)),
                                mono((0, 0), (1, 0), (1, 0), taild=(1, 0))]
    before = [system.reduce(p) for p in probes]
    reduced = system.interreduce()
    _assert_steps_match_a_new_system(reduced)
    after = [reduced.reduce(p) for p in probes]
    assert after != before  # the replacements change some traces
    for p, got in zip(probes, after):
        _assert_same_reduction(got, _reduce_afresh(reduced, p))
    # nor from the copy back into the input
    for p, got in zip(probes, before):
        _assert_same_reduction(system.reduce(p), got)
        _assert_same_reduction(got, _reduce_afresh(system, p))


def test_interreduce_leaves_only_steps_of_its_rules():
    # interreduce's reductions fill the copy's table; each entry is a step
    # of the rules the copy holds, none of the rules it deleted or replaced
    reduced = RewriteSystem(*_abelian_envelope_relations()).interreduce()
    assert len(reduced._steps) == 36
    _assert_steps_match_a_new_system(reduced)


def test_rules_are_written_only_by_the_system():
    # a rule replaced in place left the index and the step table describing
    # the old one, and reduce gave 0 where a new system over the rules gives a
    system = RewriteSystem(ENG, [F, G])
    word = mono((1, 0), (1, 0))
    assert system.reduce(word)[0].is_zero()
    with pytest.raises(TypeError):
        system.rules[1] = _rule(G - mono())
    assert system.elements == [F, G]
    _assert_same_reduction(system.reduce(word), _reduce_afresh(RewriteSystem(ENG, [F, G]), word))


def test_final_interreduction_lookups_are_pinned(monkeypatch):
    # the last interreduce of the abelian completion looks up each rule's
    # lead once and shares the step table across its reductions: 364 calls,
    # where a reduction that excluded the rule it reduced made 388
    eng, elements = _workload_inputs("abelian")
    counts, interreduce = [], RewriteSystem.interreduce
    find = RewriteSystem.find_occurrences

    def recorded_interreduce(self):
        counts.append(0)
        return interreduce(self)

    def counted(self, word):
        if counts:  # complete's last call is its interreduce
            counts[-1] += 1
        return find(self, word)

    monkeypatch.setattr(RewriteSystem, "interreduce", recorded_interreduce)
    monkeypatch.setattr(RewriteSystem, "find_occurrences", counted)
    complete(eng, elements, max_steps=800)
    assert counts[-1] == 364


def test_check_gsb_work_is_pinned(monkeypatch):
    # the step table: without it 3,643 find_occurrences and 4,269 build_sword calls
    system = _completed_idempotent33()
    counts = Counter()
    for name in ("find_occurrences", "build_sword"):
        def counted(self, *args, _name=name, _method=getattr(RewriteSystem, name)):
            counts[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(RewriteSystem, name, counted)
    assert system.check_gsb().is_gsb
    assert counts == {"find_occurrences": 1573, "build_sword": 2199}


# -- the index-driven task generator and queue against the per-pair loop --------


def _push_for_by_pairs(system, k):
    """Reference generator: rule k tried against itself and every earlier
    rule, both ways, by ``overlap_tasks``, then k's products."""
    for i in range(k):
        yield from overlap_tasks(system, i, k)
        yield from overlap_tasks(system, k, i)
    yield from overlap_tasks(system, k, k)
    yield from multiplication_tasks(system, k)


def _all_tasks_by_pairs(system):
    """Reference ``all_tasks``: every ordered pair in turn, then the products
    (``all_tasks`` lists the same tasks in queue order)."""
    size = range(len(system))
    return ([t for i in size for j in size for t in overlap_tasks(system, i, j)]
            + [t for i in size for t in multiplication_tasks(system, i)])


def _complete_by_pairs(engine, elements, max_steps=None, max_degree=None, max_elements=None):
    """Reference completion: the per-pair generator, every task of a rule
    pushed as the rule is added, and a queue of tasks ordered by (word, kind
    rank, i, j) and then push order.  Returns the completion's system and
    status, and the tasks pushed and popped."""
    system = RewriteSystem(engine, elements).interreduce()
    heap, pushed, popped = [], [], []
    seq = itertools.count()

    def push_for(k):
        for task in _push_for_by_pairs(system, k):
            pushed.append(task)
            key = (task.w.weight_key(), KIND_RANK[task.kind], task.i, task.j, next(seq))
            heapq.heappush(heap, (*key, task))

    for k in range(len(system)):
        push_for(k)
    status, discarded = COMPLETE, False
    while heap:
        if max_steps is not None and len(popped) >= max_steps:
            status = LIMIT_REACHED
            break
        task = heapq.heappop(heap)[-1]
        popped.append(task)
        remainder, _ = system.reduce(system.eval_composition(task))
        if remainder.is_zero():
            continue
        if max_degree is not None and remainder.degree() > max_degree:
            discarded = True
        elif max_elements is not None and len(system) >= max_elements:
            status = LIMIT_REACHED
            break
        else:
            push_for(system._append(remainder))
    if status == COMPLETE and discarded:
        status = BOUNDED_COMPLETE
    return system.interreduce(), status, pushed, popped


def _record_queue(monkeypatch):
    """Record the queue entries ``complete`` draws and the tasks it pops."""
    pushed, popped = [], []
    evaluate = RewriteSystem.eval_composition

    def recorded(entries_of):
        def entries(self, k):
            for entry in entries_of(self, k):
                pushed.append(entry)
                yield entry
        return entries

    def recorded_eval(self, task):
        popped.append(task)
        return evaluate(self, task)

    for name in ("_inclusion_entries", "_extension_entries"):
        monkeypatch.setattr(RewriteSystem, name, recorded(getattr(RewriteSystem, name)))
    monkeypatch.setattr(RewriteSystem, "eval_composition", recorded_eval)
    return pushed, popped


def _assert_unique_keys(entries):
    keys = [entry[:6] for entry in entries]
    assert len(set(keys)) == len(keys)
    return keys


def _assert_entries_match_pairs(system):
    """The generator gives the per-pair loop's tasks, each once, under
    unique heap keys; ``all_tasks`` lists them in queue order."""
    entries = [entry for k in range(len(system))
               for entry in itertools.chain(system._inclusion_entries(k),
                                            system._extension_entries(k))]
    reference = [t for k in range(len(system)) for t in _push_for_by_pairs(system, k)]
    assert Counter(map(CompositionTask._make, entries)) == Counter(reference)
    assert system.all_tasks() == sorted(_all_tasks_by_pairs(system))
    return _assert_unique_keys(entries), {t.kind for t in reference}


def _crafted_inclusions():
    """Leads that hold each other at several positions, both ways round,
    and with tail derivations: the interreduced cases have no inclusion."""
    return RewriteSystem(ENG, [mono((0, 0), (0, 0), (0, 0)), F,
                               mono((1, 0), (0, 0), (1, 0), (1, 0)), G,
                               mono((1, 0), taild=(1, 0)) - mono(), mono(taild=(0, 1))])


def _task_system(case):
    if case == "golden":
        return golden_system()
    if case == "idempotent33":
        return _completed_idempotent33()
    if case == "abelian-envelope":
        return RewriteSystem(*_abelian_envelope_relations()).interreduce()
    return _crafted_inclusions()


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope", "crafted"])
def test_entries_match_overlap_tasks(case):
    system = _task_system(case)
    keys, kinds = _assert_entries_match_pairs(system)
    if case == "crafted":
        assert kinds == set(KIND_RANK)
        # inclusions of one pair share their word: only ``pos`` parts them
        assert len({key[:5] for key in keys}) < len(keys)
    # rules appended once the index, with its segment maps, is built
    if case == "abelian-envelope":
        # y<1,1>x<0,0>z holds the D-free lead y<1,1>x; x lies inside most leads
        words = [NormalWord(((1, (1, 1)), (0, (0, 0))), 2, (0, 0)),
                 NormalWord(((0, (0, 0)),), 2, (0, 0)), NormalWord((), 0, (0, 0))]
        more = _abelian_envelope_relations()[1][:6] + [ConfPoly.from_word(u) for u in words]
    else:
        more = [mono((1, 0), (0, 0)) - mono((0, 1)), mono((0, 1), (1, 1), (0, 0)), F + G,
                mono((0, 0), (1, 0)), mono((0, 1), taild=(1, 1))]
    for p in more:
        system._append(p)
    _, kinds = _assert_entries_match_pairs(system)
    assert {INCLUSION, RIGHT_INCLUSION, INTERSECTION} <= kinds
    _assert_entries_match_pairs(system.interreduce())


def _index_maps(index):
    return index.leads, index.lengths, index.segments, index.suffixes


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope", "crafted"])
def test_index_grown_rule_by_rule_matches_one_build(case):
    # ``add`` and ``reverse()`` are the index's only builders: rules appended
    # one at a time, reversed now and then, give the maps of one build
    source = _task_system(case)
    system = RewriteSystem(source.engine)
    index = system._index
    for e, rule in enumerate(source.rules):
        system._append(rule.poly)
        if e % 3 == 1:
            index.reverse()
    assert system.rules == source.rules and system._index is index
    index.reverse()
    # dict equality compares each key's list, so list order counts
    assert _index_maps(index) == _index_maps(_LeadIndex(source.rules).reverse())
    assert index.segments and index.suffixes


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope", "crafted"])
def test_matching_leaves_the_reverse_maps_unbuilt(case):
    source = _task_system(case)
    system = RewriteSystem(source.engine, source.elements)
    rng = random.Random(len(system))
    words = _seeded_words(system, rng, 40)
    assert any([system.find_occurrences(u) for u in words])
    for _ in range(10):
        system.reduce(_seeded_poly(words, rng))
    index = system._index
    assert index.leads and (index.segments, index.suffixes) == ({}, {})
    list(system._inclusion_entries(0))  # completion reverses the index
    assert index.segments and index.suffixes


def _eval_composition_by_kind(system, task):
    """Reference evaluator: each composition kind built by hand, the left
    side of an inclusion as the bare rule, of a right inclusion as its
    derivative, the tail split worked out from the two leads."""
    eng = system.engine
    n = system.sig.n
    poly = system.rules[task.i].poly
    if task.kind == LEFT_MUL:
        return eng.mul_prefix_poly(task.j, task.m, poly)
    if task.kind == RIGHT_MUL:
        unit = ConfPoly.from_word(single_word(task.j, n))
        return eng.mul_poly(poly, task.m, unit)
    if task.kind == INCLUSION:
        out = poly - system.build_sword(task.w, Occurrence(task.j, task.pos, False))
    elif task.kind == RIGHT_INCLUSION:
        fd, gd = system.rules[task.i].lead.taild, system.rules[task.j].lead.taild
        alpha = tuple(max(b - a, 0) for a, b in zip(fd, gd))
        beta = tuple(max(a - b, 0) for a, b in zip(fd, gd))
        lhs = eng.derive_multi(alpha, poly)
        assert lhs.leading_term() == (task.w, 1)
        out = lhs - system.build_sword(task.w, Occurrence(task.j, task.pos, True, beta))
    else:
        assert task.kind == INTERSECTION
        lhs = system.build_sword(task.w, Occurrence(task.i, 0, False))
        out = lhs - system.build_sword(task.w, Occurrence(task.j, task.pos, True, (0,) * n))
    assert out.is_zero() or compare_words(out.leading_word(), task.w) < 0
    return out


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope", "crafted"])
def test_eval_composition_matches_by_kind_reference(case):
    system = _task_system(case)
    tasks = system.all_tasks()
    kinds = Counter(task.kind for task in tasks)
    assert kinds[INTERSECTION] and kinds[LEFT_MUL]
    if case in ("abelian-envelope", "crafted"):
        assert kinds[RIGHT_INCLUSION] and kinds[RIGHT_MUL]
    if case == "crafted":
        assert kinds[INCLUSION]
    for task in tasks:
        got = system.eval_composition(task)
        want = _eval_composition_by_kind(system, task)
        assert list(got.terms.items()) == list(want.terms.items()), task


def _workload_inputs(case):
    if case == "abelian":
        spec = lie_conformal(AlgebraSignature(2, (2, 2), ("x", "y", "z")), {})
        presentation = enveloping_presentation(spec)
        return presentation.engine, presentation.elements
    eng = Engine(AlgebraSignature(2, (2, 2) if case == "golden" else (3, 3), ("a",)))
    return eng, [ConfPoly.from_word(w((0, 0))) - mono()]


@pytest.mark.parametrize("case, bounds", [
    ("golden", {"max_steps": 10_000}), ("idempotent33", {"max_steps": 10_000}),
    # after six pops the queue is empty and only deferred bounds are left;
    # the sixtieth pop is golden's last, so its limit is never tripped
    ("golden", {"max_steps": 6}), ("golden", {"max_steps": 60}),
    ("abelian", {"max_steps": 800}), ("abelian", {"max_steps": 1600}),
    ("abelian", {"max_degree": 2}), ("abelian", {"max_elements": 30})],
    ids=["golden-10000", "idempotent33-10000", "golden-6", "golden-60", "abelian-800",
         "abelian-1600", "abelian-degree2", "abelian-elements30"])
def test_complete_queue_matches_pairwise_reference(case, bounds, monkeypatch):
    eng, elements = _workload_inputs(case)
    ref_system, ref_status, ref_pushed, ref_popped = _complete_by_pairs(eng, elements, **bounds)
    pushed, popped = _record_queue(monkeypatch)
    system, status = complete(eng, elements, **bounds)
    assert status == ref_status
    assert [list(p.terms.items()) for p in system.elements] == \
        [list(p.terms.items()) for p in ref_system.elements]
    # the reference pops every task; on homogeneous input a degree bound
    # stops the run before it, so the run pops a prefix of the reference's
    stopped = len(popped) < len(ref_popped)
    assert popped == ref_popped[:len(popped)] and (not stopped or "max_degree" in bounds)
    _assert_unique_keys(pushed)
    pushed, ref_pushed = Counter(map(CompositionTask._make, pushed)), Counter(ref_pushed)
    if status != LIMIT_REACHED and not stopped:
        assert pushed == ref_pushed
    else:
        # a stopped run builds a subset, leaving out only tasks longer than any it popped
        longest = max(t.size for t in popped)
        assert pushed <= ref_pushed
        assert all(t.size > longest for t in ref_pushed - pushed)


@pytest.mark.parametrize("case, max_steps, counts", [
    ("golden", 10_000, (60, 60)), ("idempotent33", 10_000, (486, 486)),
    ("abelian", 800, (1042, 800))])
def test_complete_work_is_pinned(case, max_steps, counts, monkeypatch):
    # tasks pushed and popped on the benchmark's three completions
    eng, elements = _workload_inputs(case)
    pushed, popped = _record_queue(monkeypatch)
    complete(eng, elements, max_steps=max_steps)
    assert (len(pushed), len(popped)) == counts


def test_homogeneous_completion_stops_at_the_degree_bound(monkeypatch):
    # the abelian envelope's relations are homogeneous, so no task longer
    # than max_degree is popped (popping them all took 20,879 tasks), and
    # the truncated basis is exact below the bound
    eng, elements = _workload_inputs("abelian")
    lower, lower_status = complete(eng, elements, max_degree=2)
    _, popped = _record_queue(monkeypatch)
    system, status = complete(eng, elements, max_degree=3)
    assert (status, lower_status) == (BOUNDED_COMPLETE, BOUNDED_COMPLETE)
    assert len(system) == 220 and len(popped) <= 1100
    assert max(task.size for task in popped) + 1 <= 3
    basis = system.irreducible_words(2)
    assert basis == lower.irreducible_words(2) and len(basis) == 27


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope", "crafted"])
def test_entries_are_composition_tasks(case):
    # one record type on the queue: every builder yields CompositionTasks
    system = _task_system(case)
    for k in range(len(system)):
        for entries in (system._inclusion_entries, system._extension_entries,
                        system._multiplication_entries):
            assert all(type(task) is CompositionTask for task in entries(k))
    tasks = system.all_tasks()
    assert tasks and all(type(task) is CompositionTask for task in tasks)
    # and one kind table, in rank order
    assert list(KIND_RANK) == list(KINDS) and list(KIND_RANK.values()) == list(range(len(KINDS)))


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope", "crafted"])
def test_marker_sorts_between_task_sizes(case):
    # complete's marker (s, (), k) pops after every task of size s - 1 and
    # before every task of size s, the least word of that size included
    system = _task_system(case)
    tasks = system.all_tasks()
    zero = (0,) * system.sig.n
    for s in range(1, max(t.size for t in tasks) + 2):
        least = NormalWord(((0, zero),) * s, 0, zero)
        assert all(least <= t.w for t in tasks if t.size == s)
        for k in range(len(system)):
            marker = (s, (), k)
            assert marker < CompositionTask(s, least, 0, 0, 0)
            assert all(t < marker for t in tasks if t.size == s - 1)
            assert all(marker < t for t in tasks if t.size == s)
            assert marker < (s, (), k + 1) < (s + 1, (), 0)
    heap = tasks + [(t.size, (), 0) for t in tasks]
    heapq.heapify(heap)
    popped = [heapq.heappop(heap) for _ in range(len(heap))]
    assert [t for t in popped if type(t) is CompositionTask] == sorted(tasks)
    sizes = [t[0] + (type(t) is CompositionTask) / 2 for t in popped]
    assert sizes == sorted(sizes)


# -- completion ----------------------------------------------------------------


def test_complete_golden_quadratic():
    system, status = complete(ENG, [F])
    assert status == COMPLETE
    assert len(system) == 6
    assert set(map(tuple, (p.items_desc() for p in system.elements))) == \
        set(map(tuple, (p.items_desc() for p in GOLDEN)))
    report = system.check_gsb()
    assert report.is_gsb and not report.has_non_dfree


def test_complete_empty_input():
    system, status = complete(ENG, [])
    assert status == COMPLETE and len(system) == 0


def test_complete_single_word_relation():
    r = mono((0, 0))
    system, status = complete(ENG, [r])
    assert status == COMPLETE
    leads = {p.leading_word() for p in system.elements}
    assert leads == {w((0, 0)), w((1, 0), (1, 0)), w((0, 1), (0, 1)),
                     w((1, 1), (1, 0)), w((1, 1), (0, 1)), w((1, 1), (1, 1))}
    assert system.check_gsb().is_gsb


def test_complete_idempotent_and_deterministic():
    first, status1 = complete(ENG, [F])
    second, status2 = complete(ENG, first.elements)
    third, status3 = complete(ENG, [F])
    assert status1 == status2 == status3 == COMPLETE
    assert second.elements == first.elements == third.elements


def test_complete_rule_without_tasks():
    # the relation a at n = 1, locality [1] has no composition task at all
    eng = Engine(AlgebraSignature(1, (1,), ("a",)))
    relation = ConfPoly.from_word(NormalWord((), 0, (0,)))
    system, status = complete(eng, [relation])
    assert status == COMPLETE and system.elements == [relation]
    assert system.all_tasks() == []


def test_complete_respects_step_limit():
    system, status = complete(ENG, [F], max_steps=1)
    assert status == LIMIT_REACHED
    assert len(system) == 1


def test_complete_respects_element_limit():
    system, status = complete(ENG, [F], max_elements=2)
    assert status == LIMIT_REACHED
    assert len(system) == 2


def test_complete_degree_bound_discards():
    system, status = complete(ENG, [F], max_degree=2)
    assert status == BOUNDED_COMPLETE
    assert system.elements == [F]


def test_complete_under_audit():
    checked = Engine(SIG, check=True)
    system, status = complete(checked, [F])
    assert status == COMPLETE and len(system) == 6
    assert checked.invariant_checks > 0


# -- basis of irreducibles and membership ---------------------------------------


def test_irreducible_words_of_golden_system():
    system, _ = complete(ENG, [F])
    words = system.irreducible_words(3)
    by_len = {}
    for u in words:
        by_len.setdefault(u.length, []).append(u)
    assert by_len[1] == [w()]
    assert set(by_len[2]) == {w((0, 1)), w((1, 0)), w((1, 1))}
    assert set(by_len[3]) == {w((0, 1), (1, 0)), w((0, 1), (1, 1)),
                              w((1, 0), (0, 1)), w((1, 0), (1, 1))}


def test_irreducible_words_with_tail_derivations():
    empty = RewriteSystem(ENG, [])
    words = empty.irreducible_words(1, max_taild=(1, 1))
    assert words == [w(), w(taild=(0, 1)), w(taild=(1, 0)), w(taild=(1, 1))]


def test_irreducible_words_ascending():
    system, _ = complete(ENG, [F])
    words = system.irreducible_words(3)
    keys = [u.weight_key() for u in words]
    assert keys == sorted(keys)


def _irreducible_words_by_scan(system, max_length, max_taild=None):
    """The candidate enumerator that ``irreducible_words`` replaced, kept as
    its reference: every normal word within the bounds, asked of
    ``find_occurrences`` one at a time."""
    sig = system.sig
    if max_taild is None:
        max_taild = zero_index(sig.n)
    ngens = len(sig.generators)
    tailds = list(iter_box(tuple(b + 1 for b in max_taild)))
    valid_labels = list(iter_box(sig.locality))
    out = []
    for length in range(1, max_length + 1):
        for gens in itertools.product(range(ngens), repeat=length):
            for labels in itertools.product(valid_labels, repeat=length - 1):
                links = tuple(zip(gens[:-1], labels))
                for taild in tailds:
                    u = NormalWord(links, gens[-1], taild)
                    if not system.find_occurrences(u):
                        out.append(u)
    out.sort(key=NormalWord.weight_key)
    return out


_DATA_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def _file_system(name):
    pres = cli._load(str(_DATA_DIR / name))
    return cli._system(pres, Engine(pres.signature))


def _basis_system(case):
    if case == "golden":
        return complete(ENG, [F])[0]
    if case == "abelian-envelope":
        eng, relations = _abelian_envelope_relations()
        return RewriteSystem(eng, relations)
    return _file_system(case)


@pytest.mark.parametrize("case, max_length, max_taild", [
    *(("golden", length, None) for length in range(1, 10)),
    ("golden_basis.alg", 4, (1, 1)),
    *(("idempotent33_basis.alg", length, None) for length in range(1, 6)),
    ("idempotent33_basis.alg", 4, (1, 2)),
    ("golden.alg", 5, None),
    ("abelian-envelope", 3, (1, 1)), ("abelian-envelope", 4, (1, 1))], ids=str)
def test_irreducible_words_match_scan_reference(case, max_length, max_taild):
    # the walk over link prefixes lists the scan's words in the scan's order
    system = _basis_system(case)
    got = system.irreducible_words(max_length, max_taild)
    assert got == _irreducible_words_by_scan(system, max_length, max_taild)
    assert got and max(u.length for u in got) == max_length


def test_irreducible_words_walk_reaches_long_words():
    # length 12 of the golden basis: 1 + 3 + 4 * 10 words, where the scan
    # would ask about 5.6 million candidates; the walk asks none
    system = complete(ENG, [F])[0]
    system.find_occurrences = None
    words = system.irreducible_words(12)
    assert len(words) == 44 and words[-1].length == 12


@pytest.mark.parametrize("max_length, max_taild", [
    (0, None), (-3, None), (1, (1,)), (2, (1, 0, 5)), (1, (-1, -1)), (2, (0, -1))])
def test_irreducible_words_rejects_bounds_it_cannot_handle(max_length, max_taild):
    with pytest.raises(ValueError, match="max_length|max_taild"):
        golden_system().irreducible_words(max_length, max_taild)


def test_ideal_membership():
    # after completion, a polynomial lies in the ideal iff it reduces to zero
    system, _ = complete(ENG, [F])

    def member(p):
        return system.reduce(p)[0].is_zero()

    assert member(F)
    assert member(ENG.derive(0, F))
    assert member(ENG.derive_multi((2, 1), G))
    assert not member(mono())
    assert not member(mono((1, 0)))
    assert not member(mono((0, 0)))


def test_check_gsb_flags_incomplete_system():
    sys_f = RewriteSystem(ENG, [F])
    report = sys_f.check_gsb()
    assert not report.is_gsb
    kinds = {task.kind for task, _ in report.failures}
    assert kinds == {LEFT_MUL}


def test_zero_element_rejected():
    with pytest.raises(ValueError):
        RewriteSystem(ENG, [ConfPoly.zero()])


@pytest.mark.parametrize("bad", [
    NormalWord(((0, (0, 0)),), 5, (0, 0)),
    NormalWord((), 0, (0,)),
    NormalWord((), 0, (0, -1)),
    NormalWord(((0, (2, 0)),), 0, (0, 0)),
    NormalWord(((3, (0, 0)),), 0, (0, 0)),
    NormalWord(((0, (0,)),), 0, (0, 0)),
    NormalWord(((0, (0, 0, 0)),), 0, (0, 0)),
], ids=["tail-generator", "tail-arity", "negative-tail", "label", "link-generator",
        "short-label", "long-label"])
def test_input_words_must_be_normal_words(bad):
    # without the check the first word is taken in (and completes to 6
    # elements), the second raises IndexError and the third a falling
    # factorial of negative order
    p = mono() + ConfPoly.from_word(bad, 2)
    message = re.escape(f"{bad} is not a normal word over {SIG}")
    with pytest.raises(ValueError, match=message):
        RewriteSystem(ENG, [F, p])
    with pytest.raises(ValueError, match=message):
        complete(ENG, [p])


def test_invalid_input_rejected_under_optimize():
    # the checks must hold when ``python -O`` strips assert statements
    script = """
from confgsb import (AlgebraSignature, ConfPoly, Engine, Leaf, RewriteSystem, brace, complete,
                     enveloping_presentation, falling_factorial, index_sub, lie_algebra,
                     lie_conformal, loop_conformal, single_word, table_entry)
from confgsb.naive import naive_normalize
from confgsb.rewrite import KIND_RANK, RIGHT_INCLUSION, CompositionTask, Occurrence, Rule
from confgsb.words import NormalWord
eng = Engine(AlgebraSignature(2, (2, 2), ("a",)))
xy = AlgebraSignature(2, (1, 1), ("x", "y"))
rejected = []
# a system whose rule claims a lead that is not its polynomial's leading word
a = single_word(0, 2)
f = ConfPoly.from_word(NormalWord(((0, (0, 0)),), 0, (0, 0))) - ConfPoly.from_word(a)
bad = RewriteSystem(eng, [f])
wrong = NormalWord(((0, (1, 0)),), 0, (0, 0))
bad.rules = (Rule(f, wrong, True),)
# an audited system whose label bounds are too small for its products to vanish
small = RewriteSystem(Engine(AlgebraSignature(2, (2, 2), ("a",)), check=True), [f])
small.multiplication_bounds = lambda p: (1, 1)
# audited engines whose bare-generator product is corrupted where mul_prefix
# writes its word: one drops the link (a word one letter short), one writes
# a label outside the locality box
short = Engine(AlgebraSignature(2, (2, 2), ("a",)), check=True)
short._intern = lambda x, _: NormalWord(x.links[1:], x.tail, x.taild)
outside = Engine(AlgebraSignature(2, (2, 2), ("a",)), check=True)
outside._intern = lambda x, _: NormalWord(((x.links[0][0], (2, 0)),) + x.links[1:],
                                          x.tail, x.taild)
for attempt in (lambda: short.mul_words(a, (0, 0), a),
                lambda: outside.mul_words(a, (0, 0), a),
                lambda: bad.build_sword(NormalWord(((0, (1, 0)), (0, (0, 1))), 0, (0, 0)),
                                        Occurrence(0, 0, False)),
                # again, now that the rule's core is cached
                lambda: bad.build_sword(NormalWord(((0, (1, 0)), (0, (0, 1))), 0, (0, 0)),
                                        Occurrence(0, 0, False)),
                lambda: bad.eval_composition(CompositionTask(
                    1, wrong, KIND_RANK[RIGHT_INCLUSION], 0, 0)),
                lambda: small.all_tasks()):
    try:
        attempt()
    except RuntimeError as exc:
        rejected.append(str(exc))
for attempt in (lambda: RewriteSystem(eng, [ConfPoly.zero()]),
                lambda: complete(eng, [], max_degree=0),
                lambda: complete(eng, [], max_elements=0),
                lambda: complete(eng, [], max_steps=-1),
                lambda: AlgebraSignature(2, (2,), ("a", "a")),
                lambda: eng.normalize_tree(Leaf(3, (0, 0))),
                lambda: lie_conformal(xy, {(1, 0, (1, 0)): ConfPoly.from_word(single_word(0, 2))}),
                lambda: lie_conformal(xy, {(1, 0, (0, 0)): ConfPoly.from_word(single_word(5, 2))}),
                lambda: table_entry(lie_conformal(xy, {}), 0, 1, (0, 0)),
                lambda: brace(eng, 0, (2, 0), ConfPoly.from_word(a)),
                lambda: enveloping_presentation(lie_conformal(xy, {}), eng),
                lambda: loop_conformal(lie_algebra(("x", "y"), {(1, 0): ((0, 1),),
                                                                (0, 1): ((0, 1),)}), 2),
                lambda: ConfPoly.zero().leading_term(),
                lambda: index_sub((1, 0), (0, 1)),
                lambda: falling_factorial(3, -1),
                lambda: naive_normalize(eng.sig, [(1, "a")]),
                lambda: bad.build_sword(NormalWord(((0, (2, 0)), (0, (1, 0)), (0, (0, 1))), 0,
                                                   (0, 0)), Occurrence(0, 1, False))):
    try:
        attempt()
    except ValueError as exc:
        rejected.append(str(exc))
print(len(rejected), *rejected, sep="\\n")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "23"
    assert lines[1].startswith("engine audit:") and "expected (2, (0, 0), True)" in lines[1]
    assert "is not a normal word" in lines[2]
    assert all(line.startswith("leading-word law violated") for line in lines[3:6])
    assert lines[6].startswith("bound boundary (left)")
    assert "nonzero" in lines[7]
    assert [line.split()[0] for line in lines[8:11]] == [
        "max_degree", "max_elements", "max_steps"]
    assert lines[11].startswith("locality")
    assert lines[12].startswith("leaf generator 3")
    assert "outside the validity box" in lines[13]
    assert "not a derived generator" in lines[14]
    assert "need i >= j" in lines[15]
    assert "brace label" in lines[16]
    assert "signature" in lines[17]
    assert "Jacobi" in lines[18]
    assert "zero polynomial" in lines[19]
    assert "negative index difference" in lines[20]
    assert "negative order" in lines[21]
    assert "expected a Leaf or a Node" in lines[22]
    assert "is not a normal word: a label before 1" in lines[23]
