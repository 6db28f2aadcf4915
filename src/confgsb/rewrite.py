"""Critical pairs, reduction, and completion for conformal rewriting systems.

A rewriting system is a sequence of monic relation polynomials.  Reduction
eliminates occurrences of leading words by subtracting engine-normalized
S-words, and records a trace that replays the elimination exactly.
Completion saturates a system with the five critical-pair composition
kinds until every composition reduces to zero, yielding a
Groebner-Shirshov basis whose irreducible normal words form a linear
basis of the quotient algebra.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from itertools import product

from .engine import Engine
from .indices import (
    MultiIndex,
    index_add,
    index_pos_part,
    iter_box,
    zero_index,
)
from .words import Coeff, ConfPoly, NormalWord, accumulate, compare_words, single_word

INCLUSION = "inclusion"
RIGHT_INCLUSION = "right-inclusion"
INTERSECTION = "intersection"
LEFT_MUL = "left-mul"
RIGHT_MUL = "right-mul"

KIND_RANK = {
    INCLUSION: 0,
    RIGHT_INCLUSION: 1,
    INTERSECTION: 2,
    LEFT_MUL: 3,
    RIGHT_MUL: 4,
}
KINDS = tuple(KIND_RANK)

COMPLETE = "complete"
BOUNDED_COMPLETE = "bounded-complete"
LIMIT_REACHED = "limit-reached"


@dataclass(frozen=True)
class Occurrence:
    """One match of a system element's leading word inside a normal word.

    With ``second`` False the pattern sits at generator position ``pos``
    with a link following it (shape u<m>s<m'>v, element D-free); with
    ``second`` True the pattern is a suffix of the word and the word's
    tail derivation exceeds the pattern's by ``dshift`` (shape
    u<m>D^dshift s).
    """

    elem: int
    pos: int
    second: bool
    dshift: MultiIndex | None = None


@dataclass(frozen=True)
class TraceStep:
    """One elimination: ``coeff`` times the S-word for ``occ`` at ``word``."""

    word: NormalWord
    occ: Occurrence
    coeff: Coeff


@dataclass(frozen=True)
class ReductionTrace:
    """Replayable record of the S-words subtracted during a reduction."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def elements_used(self) -> set[int]:
        return {step.occ.elem for step in self.steps}

    def replay(self, system: "RewriteSystem") -> ConfPoly:
        """Rebuild the subtracted combination; input = remainder + replay."""
        total: dict = {}
        for step in self.steps:
            accumulate(total, system.build_sword(step.word, step.occ).terms, step.coeff)
        return ConfPoly._raw(total)


@dataclass(frozen=True)
class CompositionTask:
    """One critical-pair obligation between elements ``i`` and ``j``.

    Overlap kinds (inclusion, right-inclusion, intersection) carry the
    ambient word ``w`` whose two eliminations get subtracted.  The
    multiplication kinds carry the generator index in ``j`` and the
    product label ``m``; their ``w`` is a formal word used only to order
    the completion queue.
    """

    kind: str
    i: int
    j: int
    w: NormalWord
    pos: int = 0
    c: int = 0
    m: MultiIndex | None = None
    alpha: MultiIndex | None = None
    beta: MultiIndex | None = None

    def sort_key(self):
        """``(len(w.links), w, kind rank, i, j, pos)``: the completion queue's key.

        The word comes first, in the word order.  ``pos`` parts the
        inclusion tasks of one pair, which share their word, so no two
        tasks of one system share a key.  A queue entry is this key
        followed by ``c, m, alpha, beta``; ``_task`` builds the task back.
        """
        return (len(self.w.links), self.w, KIND_RANK[self.kind], self.i, self.j, self.pos)


def _task(entry: tuple) -> CompositionTask:
    _, w, rank, i, j, pos, c, m, alpha, beta = entry
    return CompositionTask(KINDS[rank], i, j, w, pos, c, m, alpha, beta)


def _right_inclusion(fi: NormalWord, gj: NormalWord, i: int, j: int, p: int) -> tuple:
    """The queue entry of the right inclusion of lead ``gj`` at suffix p of ``fi``,
    tail derivations split minimally."""
    alpha = index_pos_part(gj.taild, fi.taild)
    beta = index_pos_part(fi.taild, gj.taild)
    w = NormalWord(fi.links, fi.tail, index_add(fi.taild, alpha))
    return (len(w.links), w, KIND_RANK[RIGHT_INCLUSION], i, j, p, 0, None, alpha, beta)


def _intersection(fi: NormalWord, gj: NormalWord, i: int, j: int, p: int, c: int) -> tuple:
    """The queue entry of the suffix at p of ``fi`` overlapping the first c letters of ``gj``."""
    w = NormalWord(fi.links + gj.links[c - 1:], gj.tail, gj.taild)
    return (len(w.links), w, KIND_RANK[INTERSECTION], i, j, p, c, None, None, None)


@dataclass(frozen=True)
class GSBReport:
    """Outcome of check_gsb: the composition tasks with nonzero remainders.

    ``has_non_dfree`` warns that reduction-based triviality checking can
    over-reject when the system contains non-D-free elements, so for such
    systems a nonempty failure list is not a proof of incompleteness.
    """

    failures: tuple[tuple[CompositionTask, ConfPoly], ...]
    has_non_dfree: bool

    @property
    def is_gsb(self) -> bool:
        return not self.failures


def _labels_match(w: NormalWord, lead: NormalWord, p: int) -> bool:
    """Do the internal link labels of ``lead`` match ``w`` at position p?"""
    return all(w.links[p + r][1] == lead.links[r][1] for r in range(lead.length - 1))


@dataclass(frozen=True)
class Rule:
    """One monic relation of a rewriting system with its leading data."""

    poly: ConfPoly
    lead: NormalWord
    lead_gens: tuple[int, ...]
    dfree: bool


def _rule(p: ConfPoly) -> Rule:
    if p.is_zero():
        raise ValueError("rewriting systems hold nonzero polynomials only")
    p = p.monic()
    lead = p.leading_word()
    return Rule(p, lead, lead.gens(), p.is_dfree())


class _LeadIndex:
    """The rules of a system keyed on segments of their leading words.

    A segment is keyed like a whole lead, on its links and the generator
    after them: ``(links[p:p+L-1], links[p+L-1][0])`` for the L letters at
    p when a link follows them, ``(links[p:], tail)`` for the suffix at p.

    Matching looks a word's segments up among whole leads: ``interior``
    lists the D-free rules, which alone match inside a word; ``suffix``
    lists every rule with its lead's tail derivation, for the dshift check
    of a suffix match; ``lengths`` holds the distinct lead lengths in
    ascending order.  Completion asks the reverse, which leads hold a
    given segment: ``segments`` lists (rule, p) for every interior segment
    of every lead, ``suffixes`` (rule, p) for every suffix, the whole lead
    (p = 0) included, and ``prefixes`` the rules for every proper prefix.
    These three are built on first use (``_with_segments``), since
    ``interreduce`` rebuilds the index after every change and only matches.
    """

    def __init__(self, rules: list[Rule]):
        self.interior: dict[tuple, list[int]] = {}
        self.suffix: dict[tuple, list[tuple[int, MultiIndex]]] = {}
        self.lengths: list[int] = []
        self.segments: dict[tuple, list[tuple[int, int]]] | None = None
        self.suffixes: dict[tuple, list[tuple[int, int]]] = {}
        self.prefixes: dict[tuple, list[int]] = {}
        for e, rule in enumerate(rules):
            self._add(e, rule)

    def _add(self, e: int, rule: Rule) -> None:
        lead = rule.lead
        key = (lead.links, lead.tail)
        if rule.dfree:
            self.interior.setdefault(key, []).append(e)
        self.suffix.setdefault(key, []).append((e, lead.taild))
        if lead.length not in self.lengths:
            insort(self.lengths, lead.length)
        if self.segments is not None:
            self._add_segments(e, lead)

    def _add_segments(self, e: int, lead: NormalWord) -> None:
        links, tail = lead.links, lead.tail
        for p in range(len(links) + 1):
            self.suffixes.setdefault((links[p:], tail), []).append((e, p))
            for q in range(p, len(links)):
                segment = (links[p:q], links[q][0])
                self.segments.setdefault(segment, []).append((e, p))
                if p == 0:
                    self.prefixes.setdefault(segment, []).append(e)

    def _with_segments(self, rules: list[Rule]) -> "_LeadIndex":
        if self.segments is None:
            self.segments = {}
            for e, rule in enumerate(rules):
                self._add_segments(e, rule.lead)
        return self


class RewriteSystem:
    """A sequence of monic nonzero relation polynomials, one Rule each."""

    def __init__(self, engine: Engine, elements=()):
        self.engine = engine
        self.sig = engine.sig
        self.rules: list[Rule] = []
        self._index: _LeadIndex | None = None
        for p in elements:
            self._append(p)

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def elements(self) -> list[ConfPoly]:
        return [r.poly for r in self.rules]

    def _append(self, p: ConfPoly) -> int:
        rule = _rule(p)
        self.rules.append(rule)
        e = len(self.rules) - 1
        if self._index is not None:
            self._index._add(e, rule)
        return e

    def _lead_index(self) -> _LeadIndex:
        if self._index is None:
            self._index = _LeadIndex(self.rules)
        return self._index

    # -- occurrence matching ------------------------------------------------

    def find_occurrences(self, w: NormalWord, exclude: frozenset[int] = frozenset()) -> list[Occurrence]:
        """All pattern matches in ``w``, ordered by (position, kind, element).

        Each candidate segment of ``w`` is looked up in the leading-word
        index, so the cost grows with the word and the number of distinct
        lead lengths, not with the number of rules.
        """
        index = self._lead_index()
        out = []
        links = w.links
        nlinks = len(links)
        for L in index.lengths:
            # interior matches: a link must follow the matched segment
            for p in range(nlinks - L + 1):
                for e in index.interior.get((links[p:p + L - 1], links[p + L - 1][0]), ()):
                    if e not in exclude:
                        out.append(Occurrence(e, p, False))
            p = nlinks + 1 - L
            if p < 0:
                break
            for e, taild in index.suffix.get((links[p:], w.tail), ()):
                if e in exclude:
                    continue
                dshift = tuple(a - b for a, b in zip(w.taild, taild))
                if all(c >= 0 for c in dshift):
                    out.append(Occurrence(e, p, True, dshift))
        out.sort(key=lambda o: (o.pos, o.second, o.elem))
        return out

    def build_sword(self, w: NormalWord, occ: Occurrence) -> ConfPoly:
        """Engine-normalize the S-word that eliminates ``w`` via ``occ``.

        The result's leading term is exactly (w, 1); anything else would
        break the well-order descent of reduction, so it raises.
        """
        eng = self.engine
        rule = self.rules[occ.elem]
        if occ.second:
            core = eng.derive_multi(occ.dshift, rule.poly)
        else:
            j = occ.pos + rule.lead.length - 1
            mprime = w.links[j][1]
            v = NormalWord(w.links[j + 1:], w.tail, w.taild)
            core = eng.mul_poly(rule.poly, mprime, ConfPoly.from_word(v))
        for gen, m in reversed(w.links[:occ.pos]):
            core = eng.mul_prefix_poly(gen, m, core)
        if core.is_zero() or core.leading_term() != (w, 1):
            raise RuntimeError(f"leading-word law violated: the S-word of {occ} does not "
                               f"lead with {w}")
        return core

    # -- reduction ----------------------------------------------------------

    def reduce(self, p: ConfPoly, exclude: frozenset[int] = frozenset(), rng=None):
        """Eliminate occurrences until none remain; return (remainder, trace).

        Targets the greatest reducible word each round and its first
        occurrence (leftmost position); pass ``rng`` to randomize the
        choice among a word's occurrences instead.  Pending words sit in
        one list of ``weight_key()`` pairs, ascending, and are popped from
        its end, each once: an S-word adds only words below the one it
        eliminates, so a popped word that is irreducible stays so.
        """
        terms = dict(p.terms)
        pending = sorted(map(NormalWord.weight_key, terms))
        queued = set(terms)
        steps = []
        while pending:
            w = pending.pop()[1]
            coeff = terms.get(w)
            if coeff is None:
                continue
            occs = self.find_occurrences(w, exclude)
            if not occs:
                continue
            occ = occs[0] if rng is None else occs[rng.randrange(len(occs))]
            sword = self.build_sword(w, occ)
            accumulate(terms, sword.terms, -coeff)
            for u in sword.terms:
                if u not in queued:
                    queued.add(u)
                    insort(pending, u.weight_key())
            steps.append(TraceStep(w, occ, coeff))
        return ConfPoly._raw(terms), ReductionTrace(tuple(steps))

    # -- composition generation ----------------------------------------------

    def _entries_for(self, k: int):
        """Queue entries (see ``CompositionTask.sort_key``) for rule k: the
        overlap tasks of the pairs (i, k) and (k, i) for every i < k and of
        (k, k), then k's multiplication tasks.

        The leading-word index names the overlapping leads, so only they are
        visited; per pair the tasks are those of ``overlap_tasks``.
        """
        rules = self.rules
        index = self._lead_index()._with_segments(rules)
        rk = rules[k]
        g = rk.lead
        links, tail = g.links, g.tail
        nl = len(links)
        # k's lead inside an earlier lead: inclusion, right inclusion of k in i
        if rk.dfree:
            for i, p in index.segments.get((links, tail), ()):
                if i < k:
                    f = rules[i].lead
                    yield (len(f.links), f, KIND_RANK[INCLUSION], i, k, p, 0, None, None, None)
        for i, p in index.suffixes.get((links, tail), ()):
            if i < k:
                yield _right_inclusion(rules[i].lead, g, i, k, p)
        # an earlier lead inside k's: inclusion, right inclusion of i in k
        for L in index.lengths:
            p = nl + 1 - L
            if p < 0:
                break
            for q in range(p):
                for i in index.interior.get((links[q:q + L - 1], links[q + L - 1][0]), ()):
                    if i < k:
                        yield (nl, g, KIND_RANK[INCLUSION], k, i, q, 0, None, None, None)
            for i, _ in index.suffix.get((links[p:], tail), ()):
                if i < k:
                    yield _right_inclusion(g, rules[i].lead, k, i, p)
        # a proper suffix of lead i (k itself included) is a prefix of k's
        for c in range(1, nl + 1):
            for i, p in index.suffixes.get((links[:c - 1], links[c - 1][0]), ()):
                if p and i <= k and rules[i].dfree:
                    yield _intersection(rules[i].lead, g, i, k, p, c)
        # a proper suffix of k's lead is a prefix of an earlier lead
        if rk.dfree:
            for p in range(1, nl + 1):
                c = nl + 1 - p
                for i in index.prefixes.get((links[p:], tail), ()):
                    if i < k:
                        yield _intersection(g, rules[i].lead, k, i, p, c)
        yield from self._multiplication_entries(k)

    def overlap_tasks(self, i: int, j: int) -> list[CompositionTask]:
        """Inclusion, right-inclusion, and intersection tasks for the ordered
        pair, each pair tried at every position: the definition that the
        index-driven ``_entries_for`` must agree with."""
        ri, rj = self.rules[i], self.rules[j]
        fi, gj = ri.lead, rj.lead
        fig, gjg = ri.lead_gens, rj.lead_gens
        lf, lg = fi.length, gj.length
        tasks = []
        # the j-pattern strictly inside the i-leading word, a link following it
        if rj.dfree:
            for p in range(len(fi.links) - lg + 1):
                if fig[p:p + lg] == gjg and _labels_match(fi, gj, p):
                    tasks.append(CompositionTask(INCLUSION, i, j, w=fi, pos=p))
        # the j-pattern aligned with the i-suffix, tail derivations split minimally
        p = lf - lg
        if (p >= 0 and fig[p:] == gjg and _labels_match(fi, gj, p)
                and not (i == j and p == 0)):
            tasks.append(_task(_right_inclusion(fi, gj, i, j, p)))
        # proper overlap of the i-suffix with the j-prefix
        if ri.dfree:
            for c in range(1, min(lf, lg)):
                p = lf - c
                if fig[p:] == gjg[:c] and all(
                        fi.links[p + r][1] == gj.links[r][1] for r in range(c - 1)):
                    tasks.append(_task(_intersection(fi, gj, i, j, p, c)))
        return tasks

    def multiplication_bounds(self, p: ConfPoly) -> MultiIndex:
        """Per-coordinate label bound M: products with any m_t >= M_t vanish.

        Conservation of the per-coordinate grading forces any product
        a<m>p or p<m>a to zero once m_t exceeds what the output length can
        carry, so only labels inside the box [0, M) need checking.
        """
        sig = self.sig
        deg = p.degree()
        words = list(p.terms)
        out = []
        for t in range(sig.n):
            max_taild = max(w.taild[t] for w in words)
            min_link = min(w.link_sum(t) for w in words)
            bound = deg * (sig.locality[t] - 1) + max_taild + 1 - min_link
            out.append(max(sig.locality[t], bound))
        return tuple(out)

    def _check_bound_boundary(self, p: ConfPoly, bounds: MultiIndex) -> None:
        for t in range(self.sig.n):
            corner = tuple(bounds[r] if r == t else max(bounds[r] - 1, 0)
                           for r in range(self.sig.n))
            for g in range(len(self.sig.generators)):
                if not self.engine.mul_prefix_poly(g, corner, p).is_zero():
                    raise RuntimeError(f"bound boundary (left) does not vanish at {corner}")
                unit = ConfPoly.from_word(single_word(g, self.sig.n))
                if not self.engine.mul_poly(p, corner, unit).is_zero():
                    raise RuntimeError(f"bound boundary (right) does not vanish at {corner}")

    def _multiplication_entries(self, i: int):
        sig = self.sig
        rule = self.rules[i]
        bounds = self.multiplication_bounds(rule.poly)
        if self.engine.check:
            self._check_bound_boundary(rule.poly, bounds)
        links, tail, taild = rule.lead
        size = len(links) + 1  # the links of every product word
        gens = range(len(sig.generators))
        for m in iter_box(bounds):
            valid = sig.is_valid(m)
            for g in gens:
                if not valid:
                    w = NormalWord(((g, m),) + links, tail, taild)
                    yield (size, w, KIND_RANK[LEFT_MUL], i, g, 0, 0, m, None, None)
                if not rule.dfree:
                    w = NormalWord(links + ((tail, m),), g, taild)
                    yield (size, w, KIND_RANK[RIGHT_MUL], i, g, 0, 0, m, None, None)

    def multiplication_tasks(self, i: int) -> list[CompositionTask]:
        """Left products a<m>f for invalid m, and right products f<m>a for
        non-D-free f, over the finite label box of the element."""
        return [_task(e) for e in self._multiplication_entries(i)]

    def all_tasks(self) -> list[CompositionTask]:
        """Every composition task: the overlap tasks by (i, j, kind, c, pos),
        then the multiplication tasks of each element in turn."""
        overlaps, products = [], []
        for k in range(len(self)):
            for e in self._entries_for(k):
                (overlaps if e[2] < KIND_RANK[LEFT_MUL] else products).append(e)
        overlaps.sort(key=lambda e: (e[3], e[4], e[2], e[6], e[5]))
        return [_task(e) for e in overlaps + products]

    # -- composition evaluation ----------------------------------------------

    def eval_composition(self, task: CompositionTask) -> ConfPoly:
        """The composition polynomial of a task, engine-normalized.

        For overlap kinds the two eliminations of the ambient word cancel
        its leading term, so the result sits strictly below task.w.
        """
        eng = self.engine
        n = self.sig.n
        poly = self.rules[task.i].poly
        if task.kind == LEFT_MUL:
            return eng.mul_prefix_poly(task.j, task.m, poly)
        if task.kind == RIGHT_MUL:
            unit = ConfPoly.from_word(single_word(task.j, n))
            return eng.mul_poly(poly, task.m, unit)
        if task.kind == INCLUSION:
            out = poly - self.build_sword(
                task.w, Occurrence(task.j, task.pos, False))
        elif task.kind == RIGHT_INCLUSION:
            lhs = eng.derive_multi(task.alpha, poly)
            if lhs.is_zero() or lhs.leading_term() != (task.w, 1):
                raise RuntimeError(f"leading-word law violated: {task}")
            rhs = self.build_sword(task.w, Occurrence(task.j, task.pos, True, task.beta))
            out = lhs - rhs
        elif task.kind == INTERSECTION:
            lhs = self.build_sword(task.w, Occurrence(task.i, 0, False))
            rhs = self.build_sword(task.w, Occurrence(task.j, task.pos, True, zero_index(n)))
            out = lhs - rhs
        else:
            raise RuntimeError(f"unknown composition kind {task.kind!r}")
        if not out.is_zero() and compare_words(out.leading_word(), task.w) >= 0:
            raise RuntimeError(f"composition does not descend below its word: {task}")
        return out

    def check_gsb(self) -> GSBReport:
        """Reduce every composition; empty failures mean the system is a basis."""
        failures = []
        for task in self.all_tasks():
            remainder, _ = self.reduce(self.eval_composition(task))
            if not remainder.is_zero():
                failures.append((task, remainder))
        return GSBReport(tuple(failures), has_non_dfree=not all(r.dfree for r in self.rules))

    # -- derived operations ----------------------------------------------------

    def interreduce(self) -> "RewriteSystem":
        """A copy with each element reduced against the others until nothing
        changes; every change restarts the sweep from the first element."""
        out = RewriteSystem(self.engine)
        rules = out.rules = list(self.rules)
        changed = True
        while changed:
            changed = False
            for i, rule in enumerate(rules):
                r, _ = out.reduce(rule.poly, exclude=frozenset((i,)))
                if r.is_zero():
                    del rules[i]
                else:
                    r = r.monic()
                    if r == rule.poly:
                        continue
                    rules[i] = _rule(r)
                # the index holds rule positions and leading words: rebuild it
                out._index = None
                changed = True
                break
        return out

    def irreducible_words(self, max_length: int, max_taild: MultiIndex | None = None) -> list[NormalWord]:
        """All normal words within the bounds with no occurrence, ascending."""
        sig = self.sig
        if max_taild is None:
            max_taild = zero_index(sig.n)
        tailds = list(iter_box(tuple(b + 1 for b in max_taild)))
        valid_labels = list(iter_box(sig.locality))
        ngens = len(sig.generators)
        out = []
        for length in range(1, max_length + 1):
            for gens in product(range(ngens), repeat=length):
                for labels in product(valid_labels, repeat=length - 1):
                    links = tuple(zip(gens[:-1], labels))
                    for taild in tailds:
                        w = NormalWord(links, gens[-1], taild)
                        if not self.find_occurrences(w):
                            out.append(w)
        out.sort(key=NormalWord.weight_key)
        return out

    def ideal_membership(self, p: ConfPoly) -> bool:
        """Decide membership in the ideal; exact only after completion."""
        remainder, _ = self.reduce(p)
        return remainder.is_zero()


def complete(engine: Engine, elements, *, max_degree: int | None = None,
             max_elements: int | None = None, max_steps: int | None = None):
    """Saturate the system until every composition reduces to zero.

    Returns (system, status) with status one of COMPLETE (queue exhausted),
    BOUNDED_COMPLETE (queue exhausted, but remainders above max_degree were
    discarded), or LIMIT_REACHED (max_elements or max_steps tripped).
    The output is interreduced; the run is deterministic.

    The queue holds plain tuples: a task's ``sort_key()`` (word, kind rank,
    i, j, pos, unique within a system) and then its other fields, so tasks
    pop in word order and a ``CompositionTask`` is built only when popped.
    Each new element's tasks come from ``_entries_for``, which asks the
    leading-word index for the leads that overlap it.
    """
    for name, bound in (("max_degree", max_degree),
                        ("max_elements", max_elements),
                        ("max_steps", max_steps)):
        if bound is not None and bound < 1:
            raise ValueError(f"{name} must be a positive integer")

    system = RewriteSystem(engine, elements).interreduce()
    heap = [e for k in range(len(system)) for e in system._entries_for(k)]
    heapq.heapify(heap)

    steps = 0
    discarded = False
    status = COMPLETE
    while heap:
        if max_steps is not None and steps >= max_steps:
            status = LIMIT_REACHED
            break
        task = _task(heapq.heappop(heap))
        steps += 1
        remainder, _ = system.reduce(system.eval_composition(task))
        if remainder.is_zero():
            continue
        if max_degree is not None and remainder.degree() > max_degree:
            discarded = True
            continue
        if max_elements is not None and len(system) >= max_elements:
            status = LIMIT_REACHED
            break
        for entry in system._entries_for(system._append(remainder)):
            heapq.heappush(heap, entry)
    if status == COMPLETE and discarded:
        status = BOUNDED_COMPLETE
    return system.interreduce(), status
