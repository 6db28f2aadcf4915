"""End-to-end acceptance suite: one test (one PASS/FAIL line under -v) per
shipped guarantee, numbered c01-c11.

Every engine constructed here runs with check=True, so the structural
invariants (index-sum conservation, D-free closure, word validity) are
asserted inside every normalization the suite performs; c11 verifies that
this auditing actually fired.

Two clauses assert what the Composition-Diamond lemma asks for rather than
the success of one particular eliminator:
  - test_c04, fifth clause: the intersection composition of the two
    quadratic-label cubics equals the value of the independent oracle
    (naive_normalize) and is trivial through the mixed-label and the
    top-label cubic together: it reduces to zero using both, and the trace
    replays it. The companion diagnostic pins that the mixed-label cubic
    alone stalls.
  - test_c10, second clause: every remainder the half-PBW check reports
    for the three-generator commutative structure and for the sl2 current
    table, both at locality (2,2), reduces to zero against the presentation
    closed under the right products of its relations, with a trace that
    replays it, and neither closure holds a linear element. A corrupted
    sl2 table at the same locality is rejected: its closure collapses to
    linear elements. The companion diagnostic pins the 15-of-16 stall of
    the bare check.
All tests must pass.
"""

import itertools
import random
import time
from fractions import Fraction

from confgsb.engine import Engine
from confgsb.envelope import (
    enveloping_presentation,
    half_pbw_check,
    lie_algebra,
    lie_conformal,
    loop_conformal,
    validate_lie,
)
from confgsb.indices import (
    index_add,
    index_sub,
    iter_box,
    sign_of,
    unit_index,
)
from confgsb.naive import naive_normalize
from confgsb.parsing import format_polynomial, format_word
from confgsb.rewrite import COMPLETE, INTERSECTION, LEFT_MUL, RIGHT_MUL, RewriteSystem, complete
from confgsb.words import (
    AlgebraSignature,
    ConfPoly,
    Leaf,
    Node,
    NormalWord,
    compare_words,
    single_word,
)
from helpers import binom_multi, iter_below

# -- shared audited machinery ----------------------------------------------------

AUDITED: list[Engine] = []


def audited_engine(sig: AlgebraSignature) -> Engine:
    eng = Engine(sig, check=True)
    AUDITED.append(eng)
    return eng


SIG = AlgebraSignature(2, (2, 2), ("a",))
ENG = audited_engine(SIG)
A_LEAF = Leaf(0, (0, 0))
A_WORD = single_word(0, 2)


def w(*labels, taild=(0, 0)):
    return NormalWord(tuple((0, m) for m in labels), 0, tuple(taild))


def mono(*labels, taild=(0, 0), c=1):
    return ConfPoly.from_word(w(*labels, taild=taild), c)


def _chain(*labels):
    """The expression tree a<m1>(a<m2>(... a)), built without the engine."""
    tree = A_LEAF
    for m in reversed(labels):
        tree = Node(A_LEAF, m, tree)
    return tree


F = mono((0, 0)) - mono()
G = mono((1, 0), (1, 0))
H = mono((0, 1), (0, 1))
P = mono((1, 1), (1, 0))
Q = mono((1, 1), (0, 1))
S = mono((1, 1), (1, 1))
GOLDEN = [F, G, H, P, Q, S]


def completed_golden():
    system, status = complete(ENG, [F])
    assert status == COMPLETE
    return system


def sl2():
    return lie_algebra(("f", "h", "e"), {
        (1, 0): ((0, -2),),
        (2, 0): ((1, 1),),
        (2, 1): ((2, -2),),
    })


# -- c1: completion reaches the six-element basis ---------------------------------


def test_c01_completion_finds_exactly_six_monic_elements():
    start = time.perf_counter()
    system, status = complete(ENG, [F])
    elapsed = time.perf_counter() - start
    assert status == COMPLETE
    assert len(system.elements) == 6
    for p in system.elements:
        _, lead_coeff = p.leading_term()
        assert lead_coeff == 1, f"non-monic element {format_polynomial(SIG, p)}"
    assert set(system.elements) == set(GOLDEN)
    assert {format_polynomial(SIG, p) for p in system.elements} == {
        "a<0,0> a - a",
        "a<1,0> a<1,0> a",
        "a<0,1> a<0,1> a",
        "a<1,1> a<1,0> a",
        "a<1,1> a<0,1> a",
        "a<1,1> a<1,1> a",
    }
    assert elapsed < 5.0, f"completion took {elapsed:.2f}s"


# -- c2: the eight product identities ---------------------------------------------


def test_c02_identity_suite():
    def prefix(m, p):
        return ENG.mul_prefix_poly(0, m, p)

    assert prefix((2, 0), F) == 2 * G
    assert prefix((0, 2), F) == 2 * H
    assert prefix((2, 1), F) == 2 * P
    assert prefix((1, 2), F) == 2 * Q
    assert prefix((2, 2), F) == 4 * S
    assert ENG.mul_words(A_WORD, (2, 0), w((0, 1))) == 2 * mono((1, 0), (1, 1))
    assert ENG.mul_words(A_WORD, (1, 2), w((1, 0))) == 2 * S
    assert ENG.mul_words(A_WORD, (2, 1), w((0, 1))) == 2 * S

    # the two identities carried over by analogy are cross-checked on the
    # independent reference evaluator
    def f_comb(m):
        return [
            (Fraction(1), Node(A_LEAF, m, Node(A_LEAF, (0, 0), A_LEAF))),
            (Fraction(-1), Node(A_LEAF, m, A_LEAF)),
        ]

    assert naive_normalize(SIG, f_comb((0, 2))) == {w((0, 1), (0, 1)): Fraction(2)}
    assert naive_normalize(SIG, f_comb((1, 2))) == {w((1, 1), (0, 1)): Fraction(2)}


# -- c3: exhaustive vanishing above the coordinate-sum thresholds ------------------


def test_c03_vanishing_thresholds_exhaustive():
    start = time.perf_counter()
    box = list(itertools.product(range(5), repeat=2))
    checked3 = 0
    for m in box:
        for n in box:
            if m[0] + n[0] >= 3 or m[1] + n[1] >= 3:
                checked3 += 1
                tree = Node(A_LEAF, m, Node(A_LEAF, n, A_LEAF))
                out = ENG.normalize_tree(tree)
                assert out.is_zero(), (m, n, format_polynomial(SIG, out))
    checked4 = 0
    for m in box:
        for n in box:
            for t in box:
                if m[0] + n[0] + t[0] >= 4 or m[1] + n[1] + t[1] >= 4:
                    checked4 += 1
                    tree = Node(A_LEAF, m, Node(A_LEAF, n, Node(A_LEAF, t, A_LEAF)))
                    out = ENG.normalize_tree(tree)
                    assert out.is_zero(), (m, n, t, format_polynomial(SIG, out))
    elapsed = time.perf_counter() - start
    assert checked3 == 589 and checked4 == 15225
    assert elapsed < 10.0, f"vanishing sweep took {elapsed:.2f}s"


# -- c4: the five recorded compositions --------------------------------------------


def _single_overlap(system, i, j, expected_w, c=None):
    # the overlap tasks of the pair (i, j); a product task's j is a generator.
    # An intersection's leads share c letters of its word.
    c_of = system.rules[i].lead.length + system.rules[j].lead.length
    tasks = [t for t in system.all_tasks() if (t.i, t.j) == (i, j)
             and t.kind not in (LEFT_MUL, RIGHT_MUL)
             and (c is None or t.kind == INTERSECTION and c_of - t.w.length == c)]
    assert len(tasks) == 1, tasks
    task = tasks[0]
    assert task.w == expected_w, format_word(system.sig, task.w)
    return system.eval_composition(task)


def test_c04_composition_ledger():
    failures = []

    comp = _single_overlap(RewriteSystem(ENG, [F]), 0, 0, w((0, 0), (0, 0)))
    if not comp.is_zero():
        failures.append(("clause 1", format_polynomial(SIG, comp)))

    comp = _single_overlap(RewriteSystem(ENG, [F, G]), 0, 1,
                           w((0, 0), (1, 0), (1, 0)))
    if comp != -G:
        failures.append(("clause 2", format_polynomial(SIG, comp)))

    comp = _single_overlap(RewriteSystem(ENG, [G]), 0, 0,
                           w((1, 0), (1, 0), (1, 0), (1, 0)), c=1)
    if not comp.is_zero():
        failures.append(("clause 3", format_polynomial(SIG, comp)))

    comp = _single_overlap(RewriteSystem(ENG, [G, Q]), 0, 1,
                           w((1, 0), (1, 0), (1, 1), (0, 1)), c=1)
    remainder, _ = RewriteSystem(ENG, [S]).reduce(comp)
    if not remainder.is_zero():
        failures.append(("clause 4", format_polynomial(SIG, remainder)))

    # The composition G<0,1>(a<0,1>a) - a<1,0>(a<1,0>H) carries the term
    # 2 a<0,0>a<0,0>a<1,1>a<1,1>a, which holds the top-label cubic S but no
    # pattern of Q, so it is trivial through Q and S together.
    ambient = w((1, 0), (1, 0), (0, 1), (0, 1))
    comp = _single_overlap(RewriteSystem(ENG, [G, H]), 0, 1, ambient, c=1)
    oracle = ConfPoly(naive_normalize(SIG, [
        (Fraction(1), Node(_chain((1, 0), (1, 0)), (0, 1), _chain((0, 1)))),
        (Fraction(-1), _chain((1, 0), (1, 0), (0, 1), (0, 1))),
    ]))
    assert oracle == (mono((1, 0), (0, 0), (1, 1), (0, 1), c=-1)
                      - mono((0, 0), (1, 0), (1, 1), (0, 1))
                      + mono((0, 0), (0, 0), (1, 1), (1, 1), c=2)), \
        format_polynomial(SIG, oracle)
    eliminators = RewriteSystem(ENG, [Q, S])
    remainder, trace = eliminators.reduce(comp)
    if comp != oracle:
        failures.append(("clause 5", "composition differs from the oracle",
                         format_polynomial(SIG, comp)))
    elif not remainder.is_zero():
        failures.append(("clause 5", format_polynomial(SIG, remainder)))
    elif trace.replay(eliminators) != comp:
        failures.append(("clause 5", "trace does not replay the composition"))
    elif {s.occ.elem for s in trace.steps} != {0, 1}:
        failures.append(("clause 5", "Q and S are not both used",
                         sorted({s.occ.elem for s in trace.steps})))
    # The lemma's bound on the S-words; eval_composition already places the
    # composition below the ambient word, so this restates it.
    elif any(compare_words(step.word, ambient) >= 0 for step in trace.steps):
        failures.append(("clause 5", "an S-word is not below the ambient word"))

    assert not failures, f"composition clauses failed: {failures}"


def test_c04_diagnostic_fifth_clause_needs_both_top_cubics():
    # The fifth clause's composition carries a top-label cubic term that the
    # single mixed-label cubic cannot eliminate: reduction by Q alone stalls
    # at exactly that term, and adding the top-label cubic S completes it.
    # The ledger's fifth clause asserts the Q-and-S form.
    comp = _single_overlap(RewriteSystem(ENG, [G, H]), 0, 1,
                           w((1, 0), (1, 0), (0, 1), (0, 1)), c=1)
    rem_q, _ = RewriteSystem(ENG, [Q]).reduce(comp)
    assert rem_q == mono((0, 0), (0, 0), (1, 1), (1, 1), c=2)
    rem_qs, _ = RewriteSystem(ENG, [Q, S]).reduce(comp)
    assert rem_qs.is_zero()


# -- c5: randomized axiom identities across signatures ------------------------------


def test_c05_axiom_property_suite():
    rng = random.Random(20260819)
    engines: dict = {}

    def get_engine(loc, gens):
        key = (loc, gens)
        if key not in engines:
            engines[key] = audited_engine(
                AlgebraSignature(len(loc), loc, gens))
        return engines[key]

    def rand_word(sig):
        length = rng.randint(1, 3)
        links = tuple((rng.randrange(len(sig.generators)),
                       tuple(rng.randrange(b) for b in sig.locality))
                      for _ in range(length - 1))
        tail = rng.randrange(len(sig.generators))
        taild = tuple(rng.randint(0, 1) for _ in range(sig.n))
        return NormalWord(links, tail, taild)

    def rand_label(sig):
        # valid labels, with one coordinate pushed to the bound half the time
        m = [rng.randrange(b) for b in sig.locality]
        if rng.random() < 0.5:
            t = rng.randrange(sig.n)
            m[t] = sig.locality[t]
        return tuple(m)

    trials = 1000
    for trial in range(trials):
        n = rng.choice((1, 2, 3))
        loc = tuple(rng.randint(1, 3) for _ in range(n))
        gens = ("a", "b")[: rng.randint(1, 2)]
        e = get_engine(loc, gens)
        sig = e.sig
        u, v, v2 = rand_word(sig), rand_word(sig), rand_word(sig)
        m, mp = rand_label(sig), rand_label(sig)

        # left-nested expansion (alternating sign)
        lhs = e.mul_poly(e.mul_words(u, m, v), mp, ConfPoly.from_word(v2))
        rhs = ConfPoly.zero()
        for s in iter_below(m):
            inner = e.mul_words(v, index_add(mp, s), v2)
            rhs = rhs.add_scaled(
                e.mul_poly(ConfPoly.from_word(u), index_sub(m, s), inner),
                sign_of(s) * binom_multi(m, s))
        assert lhs == rhs, (trial, "left expansion", sig, u, v, v2, m, mp)

        # right-nested expansion (sign-free inverse)
        lhs = e.mul_poly(ConfPoly.from_word(u), m, e.mul_words(v, mp, v2))
        rhs = ConfPoly.zero()
        for s in iter_below(m):
            outer = e.mul_words(u, index_sub(m, s), v)
            rhs = rhs.add_scaled(
                e.mul_poly(outer, index_add(mp, s), ConfPoly.from_word(v2)),
                binom_multi(m, s))
        assert lhs == rhs, (trial, "right expansion", sig, u, v, v2, m, mp)

        # Leibniz rule
        t = rng.randrange(n)
        lhs = e.derive(t, e.mul_words(u, m, v))
        rhs = (e.mul_poly(e.derive_word(t, u), m, ConfPoly.from_word(v))
               + e.mul_poly(ConfPoly.from_word(u), m, e.derive_word(t, v)))
        assert lhs == rhs, (trial, "Leibniz", sig, u, v, m, t)

        # derived left operand lowers the label
        lhs = e.mul_poly(e.derive_word(t, u), m, ConfPoly.from_word(v))
        if m[t] == 0:
            assert lhs.is_zero(), (trial, "derived operand", sig, u, v, m, t)
        else:
            rhs = e.mul_words(u, index_sub(m, unit_index(n, t)), v) * (-m[t])
            assert lhs == rhs, (trial, "derived operand", sig, u, v, m, t)

        # derivations commute
        i, j = rng.randrange(n), rng.randrange(n)
        assert e.derive(i, e.derive_word(j, u)) == e.derive(j, e.derive_word(i, u)), (
            trial, "commuting derivations", sig, u, i, j)


# -- c6: exhaustive agreement with the reference evaluator --------------------------


def test_c06_oracle_equivalence_exhaustive():
    labels = list(itertools.product(range(4), repeat=2))

    def shapes(k):
        if k == 1:
            yield A_LEAF
            return
        for left in range(1, k):
            for ls in shapes(left):
                for rs in shapes(k - left):
                    yield (ls, rs)

    def labeled(shape):
        if shape is A_LEAF:
            yield A_LEAF
            return
        ls, rs = shape
        for lt in labeled(ls):
            for rt in labeled(rs):
                for m in labels:
                    yield Node(lt, m, rt)

    total = 0
    for k in range(1, 5):
        for shape in shapes(k):
            for tree in labeled(shape):
                total += 1
                got = ENG.normalize_tree(tree)
                want = naive_normalize(SIG, [(Fraction(1), tree)])
                assert got.terms == want, tree
    assert total == 21009


# -- c7: reduction decides ideal membership -----------------------------------------


def test_c07_ideal_membership_at_scale():
    system = completed_golden()
    rng = random.Random(404)
    valid_labels = list(iter_box(SIG.locality))

    def rand_valid_word(max_length, max_taild=0):
        length = rng.randint(1, max_length)
        links = tuple((0, rng.choice(valid_labels)) for _ in range(length - 1))
        taild = tuple(rng.randint(0, max_taild) for _ in range(2))
        return NormalWord(links, 0, taild)

    # members: random two-sided embeddings of basis elements, with random
    # derivations applied, summed in small batches
    for trial in range(200):
        p = ConfPoly.zero()
        for _ in range(rng.randint(1, 2)):
            s = rng.choice(GOLDEN)
            piece = ENG.mul_poly(s, rng.choice(valid_labels),
                                 ConfPoly.from_word(rand_valid_word(1)))
            if rng.random() < 0.7:
                piece = ENG.mul_poly(
                    ConfPoly.from_word(rand_valid_word(1)),
                    rng.choice(valid_labels), piece)
            k = tuple(rng.randint(0, 1) for _ in range(2))
            piece = ENG.derive_multi(k, piece)
            p = p.add_scaled(piece, Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
        remainder, _ = system.reduce(p)
        assert remainder.is_zero(), (
            trial, format_polynomial(SIG, p), format_polynomial(SIG, remainder))

    # non-members: random normal words outside the ideal must end at a
    # nonzero combination of irreducible words consistent with the input
    found = 0
    attempts = 0
    while found < 200:
        attempts += 1
        assert attempts <= 4000, "sampling non-members stalled"
        word = rand_valid_word(5, max_taild=2)
        p = ConfPoly.from_word(word)
        remainder, _ = system.reduce(p)
        if remainder.is_zero():
            continue  # the word itself lies in the ideal (e.g. monomial patterns)
        found += 1
        for term_word in remainder.terms:
            assert system.find_occurrences(term_word) == [], (
                format_word(SIG, word), format_word(SIG, term_word))
        back, _ = system.reduce(p - remainder)
        assert back.is_zero(), format_word(SIG, word)
    assert found == 200


# -- c8: irreducible-word families and counts ---------------------------------------


def test_c08_irreducible_word_families():
    system = completed_golden()
    words = system.irreducible_words(5)
    by_len: dict[int, set] = {}
    for u in words:
        by_len.setdefault(u.length, set()).add(u)
    assert len(by_len[2]) == 3
    assert len(by_len[3]) == 4
    families = [
        w((1, 0)),
        w((0, 1)),
        w((1, 1)),
        w((1, 0), (1, 1)),
        w((0, 1), (1, 1)),
        w((1, 0), (0, 1)),                  # alternating, one period
        w((0, 1), (1, 0)),
        w((1, 0), (0, 1), (1, 0), (0, 1)),  # alternating, two periods
        w((0, 1), (1, 0), (0, 1), (1, 0)),
    ]
    for u in families:
        assert u in by_len[u.length], format_word(SIG, u)
    # the enumeration may legitimately contain more words than the recorded
    # families at lengths above 3; completeness there is deliberately not
    # asserted


# -- c9: loop-algebra envelopes are bases --------------------------------------------


def test_c09_loop_algebra_envelopes():
    heisenberg = lie_algebra(("x", "y", "z"), {(1, 0): ((2, 1),)})
    solvable = lie_algebra(("x", "y"), {(1, 0): ((1, 1),)})
    for g in (sl2(), heisenberg, solvable):
        assert validate_lie(g)
        loop = loop_conformal(g, 2)
        eng = audited_engine(loop.signature)
        system = enveloping_presentation(loop, eng)
        report = system.check_gsb()
        assert report.failures == (), [
            (task.kind, format_polynomial(loop.signature, rem))
            for task, rem in report.failures]
    broken = lie_algebra(("x", "y"), {(1, 0): ((0, 1),), (0, 1): ((0, 1),)})
    assert not validate_lie(broken)


# -- c10: mixed-composition checks on three structures --------------------------------


def _sl2_spec(locality, h_f=-2):
    # sl2 at label zero: the loop table, a current algebra at any locality;
    # any other h_f bypasses Lie validation on purpose and breaks Jacobi
    sig = AlgebraSignature(2, locality, ("f", "h", "e"))
    z = (0, 0)
    table = {
        (1, 0, z): ConfPoly.from_word(single_word(0, 2), h_f),
        (2, 0, z): ConfPoly.from_word(single_word(1, 2)),
        (2, 1, z): ConfPoly.from_word(single_word(2, 2), -2),
    }
    return lie_conformal(sig, table)


def _corrupted_sl2_spec():
    # one structure constant is perturbed
    return _sl2_spec((1, 1), h_f=-3)


def _right_product_closure(L, engine) -> RewriteSystem:
    """The interreduced presentation closed under its right products.

    Each right product s<m'>a of a presentation relation is reduced against
    the system built so far and appended if a remainder is left. Occurrence
    matching never uses these products for non-D-free relations, so they
    have to be present as elements. The running reduction matters:
    reducing every product against the bare presentation and appending
    them all at once leaves 4 of the 15 abelian (2,2) remainders nonzero.
    """
    system = enveloping_presentation(L, engine)
    tasks = [task for task in system.all_tasks() if task.kind == RIGHT_MUL]
    for task in tasks:
        remainder, _ = system.reduce(system.eval_composition(task))
        if not remainder.is_zero():
            system = RewriteSystem(engine, system.elements + [remainder])
    return system


def _closure_objections(L) -> list:
    """What stops the right-product closure from accounting for the
    remainders half_pbw_check reports for L.

    Each reported remainder must reduce to zero against the closure, with a
    trace that replays it, and no closure element may have degree 1: a
    linear element means the generators collapse, which is how an invalid
    table with derivation tails shows (its remainders then reduce to zero
    through the collapse). This is evidence, not a proof, that the table
    is valid: the closure is not shown to be a Groebner-Shirshov basis.
    """
    engine = audited_engine(L.signature)
    closure = _right_product_closure(L, engine)
    objections = [("linear closure element", format_polynomial(L.signature, p))
                  for p in closure.elements if p.degree() < 2]
    for key, reported in half_pbw_check(L, engine).failures:
        remainder, trace = closure.reduce(reported)
        if not remainder.is_zero():
            objections.append((key, format_polynomial(L.signature, remainder)))
        elif trace.replay(closure) != reported:
            objections.append((key, "trace does not replay"))
    return objections


def test_c10_half_pbw_instances():
    failures = []

    loop = loop_conformal(sl2(), 2)
    report = half_pbw_check(loop, audited_engine(loop.signature))
    if not report.ok:
        failures.append(("loop sl2", report.failures))

    # The bare check stalls on relations with derivation tails (see the
    # diagnostic below); account for its remainders against the presentation
    # closed under right products instead. The commutative structure is
    # homogeneous, so its closure cannot hold a linear element; the sl2
    # current table at the same locality is not, and its corrupted twin
    # (whose closure does run) must be rejected through that collapse.
    abelian = lie_conformal(AlgebraSignature(2, (2, 2), ("x", "y", "z")), {})
    for name, spec in (("abelian (2,2)", abelian), ("sl2 (2,2)", _sl2_spec((2, 2)))):
        objections = _closure_objections(spec)
        if objections:
            failures.append((name, objections))
    control = _sl2_spec((2, 2), h_f=-3)
    if not any(key == "linear closure element" for key, _ in _closure_objections(control)):
        failures.append(("corrupted sl2 (2,2)", "the closure does not collapse"))

    corrupted = _corrupted_sl2_spec()
    report = half_pbw_check(corrupted, audited_engine(corrupted.signature))
    if report.ok or all(rem.is_zero() for _, rem in report.failures):
        failures.append(("corrupted control", "no nonzero remainder detected"))

    assert not failures, f"half-PBW clauses failed: {failures}"


def test_c10_diagnostic_abelian_stalls_on_tailed_relations():
    # With derivation-tailed relations the bare reduction has no interior
    # rewriting available, and all mixed compositions except the
    # fully-saturated one stop early. The second clause of c10 reduces
    # these 15 remainders to zero against the right-product closure.
    sig = AlgebraSignature(2, (2, 2), ("x", "y", "z"))
    report = half_pbw_check(lie_conformal(sig, {}), audited_engine(sig))
    assert report.checked == 16
    assert len(report.failures) == 15
    keys = {key for key, _ in report.failures}
    assert (2, 1, 0, (1, 1), (1, 1)) not in keys


# -- c11: the invariant auditing actually ran everywhere -------------------------------


def test_c11_invariants_audited_continuously():
    assert AUDITED, "no engines were built"
    assert all(eng.check for eng in AUDITED)
    probe = audited_engine(SIG)  # fresh: nothing memoized, every step audited
    probe.normalize_tree(Node(A_LEAF, (1, 1), Node(A_LEAF, (0, 1), A_LEAF)))
    assert probe.invariant_checks > 0, "auditing is not firing"
    assert sum(eng.invariant_checks for eng in AUDITED) > 0
