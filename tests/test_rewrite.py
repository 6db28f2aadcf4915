"""Occurrence matching, reduction traces, compositions, and completion."""

import heapq
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from confgsb.engine import Engine
from confgsb.envelope import enveloping_presentation, lie_conformal, lie_relation
from confgsb.indices import iter_box
from confgsb.rewrite import (
    BOUNDED_COMPLETE,
    COMPLETE,
    INCLUSION,
    INTERSECTION,
    KIND_RANK,
    LEFT_MUL,
    LIMIT_REACHED,
    RIGHT_INCLUSION,
    RIGHT_MUL,
    Occurrence,
    RewriteSystem,
    TraceStep,
    _task,
    complete,
)
from confgsb.words import AlgebraSignature, ConfPoly, NormalWord, compare_words, single_word

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


# -- reduction ----------------------------------------------------------------


def test_reduce_two_steps_to_generator():
    sys_f = RewriteSystem(ENG, [F])
    start = ConfPoly.from_word(w((0, 0), (0, 0)))
    remainder, trace = sys_f.reduce(start)
    assert remainder == mono()
    assert len(trace) == 2
    assert trace.elements_used() == {0}
    assert start == remainder + trace.replay(sys_f)


def test_reduce_element_to_zero():
    sys_f = RewriteSystem(ENG, [F])
    remainder, trace = sys_f.reduce(F)
    assert remainder.is_zero()
    assert len(trace) == 1


def test_reduce_exclude_blocks_element():
    sys_f = RewriteSystem(ENG, [F])
    remainder, trace = sys_f.reduce(F, exclude=frozenset({0}))
    assert remainder == F
    assert len(trace) == 0


def test_trace_words_strictly_descend():
    system = golden_system()
    start = ConfPoly.from_word(w((0, 0), (0, 0), (0, 0))) + mono((0, 0), c=3)
    remainder, trace = system.reduce(start)
    words = [step.word for step in trace.steps]
    assert all(compare_words(b, a) < 0 for a, b in zip(words, words[1:]))
    assert start == remainder + trace.replay(system)


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
            alt, _ = system.reduce(p, rng=random.Random(seed))
            assert alt == base


# -- overlap tasks and their evaluations --------------------------------------


def test_self_overlap_of_quadratic_relation():
    sys_f = RewriteSystem(ENG, [F])
    tasks = sys_f.overlap_tasks(0, 0)
    assert [t.kind for t in tasks] == [INTERSECTION]
    task = tasks[0]
    assert task.w == w((0, 0), (0, 0)) and task.c == 1
    assert sys_f.eval_composition(task).is_zero()


def test_intersection_f_with_g_evaluates_to_minus_g():
    system = RewriteSystem(ENG, [F, G])
    tasks = system.overlap_tasks(0, 1)
    assert [t.kind for t in tasks] == [INTERSECTION]
    task = tasks[0]
    assert task.w == w((0, 0), (1, 0), (1, 0))
    assert system.eval_composition(task) == -G


def test_self_overlaps_of_cubic_relation_vanish():
    sys_g = RewriteSystem(ENG, [G])
    tasks = sys_g.overlap_tasks(0, 0)
    assert [t.kind for t in tasks] == [INTERSECTION, INTERSECTION]
    by_c = {t.c: t for t in tasks}
    assert by_c[1].w == w((1, 0), (1, 0), (1, 0), (1, 0))
    assert by_c[2].w == w((1, 0), (1, 0), (1, 0))
    assert sys_g.eval_composition(by_c[1]).is_zero()
    assert sys_g.eval_composition(by_c[2]).is_zero()


def test_intersection_g_with_q_reduces_via_s():
    system = RewriteSystem(ENG, [G, Q, S])
    tasks = [t for t in system.overlap_tasks(0, 1) if t.c == 1]
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
    tasks = [t for t in system.overlap_tasks(0, 1) if t.c == 1]
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
    t01 = system.overlap_tasks(0, 1)
    assert [t.kind for t in t01] == [RIGHT_INCLUSION]
    assert t01[0].alpha == (0, 0) and t01[0].beta == (0, 1)
    assert t01[0].w == w((1, 0), taild=(1, 1))
    assert system.eval_composition(t01[0]).is_zero()
    t10 = system.overlap_tasks(1, 0)
    assert [t.kind for t in t10] == [RIGHT_INCLUSION]
    assert t10[0].alpha == (0, 1) and t10[0].beta == (0, 0)
    assert t10[0].w == w((1, 0), taild=(1, 1))
    assert system.eval_composition(t10[0]).is_zero()


def test_right_inclusion_mixed_tail_supports():
    e3 = mono((1, 0), taild=(2, 0))
    e4 = mono((1, 0), taild=(0, 1))
    system = RewriteSystem(ENG, [e3, e4])
    tasks = system.overlap_tasks(0, 1)
    assert [t.kind for t in tasks] == [RIGHT_INCLUSION]
    task = tasks[0]
    assert task.alpha == (0, 1) and task.beta == (2, 0)
    assert task.w == w((1, 0), taild=(2, 1))
    assert system.eval_composition(task) == mono((0, 0), taild=(1, 1), c=2)


def test_right_inclusion_skips_identity_pair():
    sys_f = RewriteSystem(ENG, [F])
    assert all(t.kind != RIGHT_INCLUSION for t in sys_f.overlap_tasks(0, 0))


def test_inclusion_of_short_pattern_with_junction():
    big = ConfPoly.from_word(w((1, 0), (1, 0))) + mono()
    small = mono((1, 0))
    system = RewriteSystem(ENG, [big, small])
    tasks = system.overlap_tasks(0, 1)
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
    tasks = sys_f.multiplication_tasks(0)
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
    tasks = sys_d.multiplication_tasks(0)
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
    system.multiplication_tasks(0)
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


@pytest.mark.parametrize("case", ["abelian-envelope", "golden-with-sums", "restart-sensitive"])
def test_interreduce_matches_rebuild_reference(case):
    eng = ENG
    if case == "abelian-envelope":
        eng, relations = _abelian_envelope_relations()
    elif case == "golden-with-sums":
        relations = [F, F + G, G] + GOLDEN + [G + H, 3 * P - Q, F + S, H - 2 * F]
    else:
        # sweeping on after a replacement, instead of restarting, ends elsewhere
        relations = [Q - mono((1, 1)) - mono(), -mono((0, 0), (0, 0)) - 2 * mono((0, 1)),
                     -2 * mono((1, 0)) - 2 * mono((0, 1)), P, -mono((1, 0)) - mono((0, 0))]
    system = RewriteSystem(eng, relations)
    before = system.elements
    reference = _interreduce_by_rebuild(system)
    assert reference != before  # the input is not already interreduced
    assert system.interreduce().elements == reference
    assert system.elements == before  # interreduce leaves its input alone


# -- the leading-word index and the heap reduction against references ----------


def _find_occurrences_by_scan(system, word, exclude=frozenset()):
    """Reference matcher: every rule tried at every position."""
    out = []
    wg = word.gens()
    for e, rule in enumerate(system.rules):
        if e in exclude:
            continue
        lead, lg, L = rule.lead, rule.lead_gens, rule.lead.length
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


def _reduce_by_resort(system, p, exclude=frozenset(), rng=None):
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
            occs = system.find_occurrences(word, exclude)
            if occs:
                picked = (word, occs)
                break
            irreducible.add(word)
        if picked is None:
            return remainder, steps
        word, occs = picked
        occ = occs[0] if rng is None else occs[rng.randrange(len(occs))]
        coeff = remainder.coeff(word)
        remainder = remainder.add_scaled(system.build_sword(word, occ), -coeff)
        steps.append(TraceStep(word, occ, coeff))


def _count_lookups(system):
    """Record the words ``system.reduce`` looks up, in order."""
    looked_up = []
    find = system.find_occurrences

    def counted(word, exclude=frozenset()):
        looked_up.append(word)
        return find(word, exclude)

    system.find_occurrences = counted
    return looked_up


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
    size = len(system)
    excludes = [frozenset(), frozenset(rng.sample(range(size), min(size, 3))),
                frozenset(range(0, size, 2))]
    hits = 0
    for word in words:
        for exclude in excludes:
            got = system.find_occurrences(word, exclude)
            assert got == _find_occurrences_by_scan(system, word, exclude), (word, exclude)
            hits += bool(got)
    assert hits  # the seeded words do meet the leading words
    for k in range(count // 4):
        p = _seeded_poly(words, rng)
        exclude = excludes[k % len(excludes)]
        for choice in (None, k):
            looked_up = _count_lookups(system)
            remainder, trace = system.reduce(
                p, exclude, rng=None if choice is None else random.Random(choice))
            heap_lookups = list(looked_up)
            looked_up.clear()
            ref_remainder, ref_steps = _reduce_by_resort(
                system, p, exclude, rng=None if choice is None else random.Random(choice))
            del system.find_occurrences
            assert remainder == ref_remainder
            assert list(remainder.terms) == list(ref_remainder.terms)
            assert list(trace.steps) == ref_steps
            assert heap_lookups == looked_up


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


# -- the index-driven task generator and queue against the per-pair loop --------


def _push_for_by_pairs(system, k):
    """Reference generator: rule k tried against itself and every earlier
    rule, both ways, by ``overlap_tasks``, then k's products."""
    for i in range(k):
        yield from system.overlap_tasks(i, k)
        yield from system.overlap_tasks(k, i)
    yield from system.overlap_tasks(k, k)
    yield from system.multiplication_tasks(k)


def _all_tasks_by_pairs(system):
    """Reference ``all_tasks``: every ordered pair in turn, then the products."""
    size = range(len(system))
    return ([t for i in size for j in size for t in system.overlap_tasks(i, j)]
            + [t for i in size for t in system.multiplication_tasks(i)])


def _complete_by_pairs(engine, elements, max_steps):
    """Reference completion: the per-pair generator and a queue of tasks
    ordered by (word, kind rank, i, j) and then push order.  Returns the
    completion's system and status, and the tasks pushed and popped."""
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
    status = COMPLETE
    while heap:
        if len(popped) >= max_steps:
            status = LIMIT_REACHED
            break
        task = heapq.heappop(heap)[-1]
        popped.append(task)
        remainder, _ = system.reduce(system.eval_composition(task))
        if not remainder.is_zero():
            push_for(system._append(remainder))
    return system.interreduce(), status, pushed, popped


def _record_queue(monkeypatch):
    """Record the queue entries ``complete`` draws and the tasks it pops."""
    pushed, popped = [], []
    entries_for = RewriteSystem._entries_for
    evaluate = RewriteSystem.eval_composition

    def recorded_entries(self, k):
        for entry in entries_for(self, k):
            pushed.append(entry)
            yield entry

    def recorded_eval(self, task):
        popped.append(task)
        return evaluate(self, task)

    monkeypatch.setattr(RewriteSystem, "_entries_for", recorded_entries)
    monkeypatch.setattr(RewriteSystem, "eval_composition", recorded_eval)
    return pushed, popped


def _assert_unique_keys(entries):
    keys = [entry[:6] for entry in entries]
    assert len(set(keys)) == len(keys)
    assert all(_task(entry).sort_key() == key for entry, key in zip(entries, keys))
    return keys


def _assert_entries_match_pairs(system):
    """The generator gives the per-pair loop's tasks, each once, under
    unique heap keys; ``all_tasks`` keeps the per-pair order."""
    entries = [entry for k in range(len(system)) for entry in system._entries_for(k)]
    reference = [t for k in range(len(system)) for t in _push_for_by_pairs(system, k)]
    assert Counter(map(_task, entries)) == Counter(reference)
    assert system.all_tasks() == _all_tasks_by_pairs(system)
    return _assert_unique_keys(entries), {t.kind for t in reference}


def _crafted_inclusions():
    """Leads that hold each other at several positions, both ways round,
    and with tail derivations: the interreduced cases have no inclusion."""
    return RewriteSystem(ENG, [mono((0, 0), (0, 0), (0, 0)), F,
                               mono((1, 0), (0, 0), (1, 0), (1, 0)), G,
                               mono((1, 0), taild=(1, 0)) - mono(), mono(taild=(0, 1))])


@pytest.mark.parametrize("case", ["golden", "idempotent33", "abelian-envelope", "crafted"])
def test_entries_match_overlap_tasks(case):
    if case == "golden":
        system = golden_system()
    elif case == "idempotent33":
        system = _completed_idempotent33()
    elif case == "abelian-envelope":
        system = RewriteSystem(*_abelian_envelope_relations()).interreduce()
    else:
        system = _crafted_inclusions()
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


def _workload_inputs(case):
    if case == "abelian":
        spec = lie_conformal(AlgebraSignature(2, (2, 2), ("x", "y", "z")), {})
        presentation = enveloping_presentation(spec)
        return presentation.engine, presentation.elements
    eng = Engine(AlgebraSignature(2, (2, 2) if case == "golden" else (3, 3), ("a",)))
    return eng, [ConfPoly.from_word(w((0, 0))) - mono()]


@pytest.mark.parametrize("case, max_steps", [
    ("golden", 10_000), ("idempotent33", 10_000), ("abelian", 800), ("abelian", 1600)])
def test_complete_queue_matches_pairwise_reference(case, max_steps, monkeypatch):
    eng, elements = _workload_inputs(case)
    ref_system, ref_status, ref_pushed, ref_popped = _complete_by_pairs(
        eng, elements, max_steps)
    pushed, popped = _record_queue(monkeypatch)
    system, status = complete(eng, elements, max_steps=max_steps)
    assert status == ref_status
    assert [list(p.terms.items()) for p in system.elements] == \
        [list(p.terms.items()) for p in ref_system.elements]
    assert popped == ref_popped
    assert Counter(map(_task, pushed)) == Counter(ref_pushed)
    _assert_unique_keys(pushed)


@pytest.mark.parametrize("case, max_steps, counts", [
    ("golden", 10_000, (60, 60)), ("idempotent33", 10_000, (486, 486)),
    ("abelian", 800, (16763, 800))])
def test_complete_work_is_pinned(case, max_steps, counts, monkeypatch):
    # tasks pushed and popped on the benchmark's three completions
    eng, elements = _workload_inputs(case)
    pushed, popped = _record_queue(monkeypatch)
    complete(eng, elements, max_steps=max_steps)
    assert (len(pushed), len(popped)) == counts


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


def test_ideal_membership():
    system, _ = complete(ENG, [F])
    assert system.ideal_membership(F)
    assert system.ideal_membership(ENG.derive(0, F))
    assert system.ideal_membership(ENG.derive_multi((2, 1), G))
    assert not system.ideal_membership(mono())
    assert not system.ideal_membership(mono((1, 0)))
    assert not system.ideal_membership(mono((0, 0)))


def test_check_gsb_flags_incomplete_system():
    sys_f = RewriteSystem(ENG, [F])
    report = sys_f.check_gsb()
    assert not report.is_gsb
    kinds = {task.kind for task, _ in report.failures}
    assert kinds == {LEFT_MUL}


def test_zero_element_rejected():
    with pytest.raises(ValueError):
        RewriteSystem(ENG, [ConfPoly.zero()])


def test_invalid_input_rejected_under_optimize():
    # the checks must hold when ``python -O`` strips assert statements
    script = """
from confgsb import (AlgebraSignature, ConfPoly, Engine, Leaf, RewriteSystem, brace, complete,
                     enveloping_presentation, lie_algebra, lie_conformal, loop_conformal,
                     single_word, table_entry)
from confgsb.rewrite import RIGHT_INCLUSION, CompositionTask, Occurrence, Rule
from confgsb.words import NormalWord
eng = Engine(AlgebraSignature(2, (2, 2), ("a",)))
xy = AlgebraSignature(2, (1, 1), ("x", "y"))
rejected = []
# a system whose rule claims a lead that is not its polynomial's leading word
a = single_word(0, 2)
f = ConfPoly.from_word(NormalWord(((0, (0, 0)),), 0, (0, 0))) - ConfPoly.from_word(a)
bad = RewriteSystem(eng, [f])
wrong = NormalWord(((0, (1, 0)),), 0, (0, 0))
bad.rules[0] = Rule(f, wrong, wrong.gens(), True)
# an audited system whose label bounds are too small for its products to vanish
small = RewriteSystem(Engine(AlgebraSignature(2, (2, 2), ("a",)), check=True), [f])
small.multiplication_bounds = lambda p: (1, 1)
for attempt in (lambda: bad.build_sword(NormalWord(((0, (1, 0)), (0, (0, 1))), 0, (0, 0)),
                                        Occurrence(0, 0, False)),
                lambda: bad.eval_composition(CompositionTask(
                    RIGHT_INCLUSION, 0, 0, w=wrong, alpha=(0, 0), beta=(0, 0))),
                lambda: small.multiplication_tasks(0)):
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
                                                                (0, 1): ((0, 1),)}), 2)):
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
    assert lines[0] == "15"
    assert all(line.startswith("leading-word law violated") for line in lines[1:3])
    assert lines[3].startswith("bound boundary (left)")
    assert "nonzero" in lines[4]
    assert [line.split()[0] for line in lines[5:8]] == [
        "max_degree", "max_elements", "max_steps"]
    assert lines[8].startswith("locality")
    assert lines[9].startswith("leaf generator 3")
    assert "outside the validity box" in lines[10]
    assert "not a derived generator" in lines[11]
    assert "need i >= j" in lines[12]
    assert "brace label" in lines[13]
    assert "signature" in lines[14]
    assert "Jacobi" in lines[15]
