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
from dataclasses import dataclass, field
from itertools import chain
from math import prod
from operator import le
from typing import NamedTuple

from .engine import Engine
from .indices import MultiIndex, index_sub, iter_box, zero_index
from .words import Coeff, ConfPoly, NormalWord, _is_normal, accumulate, compare_words, single_word

INCLUSION = "inclusion"
RIGHT_INCLUSION = "right-inclusion"
INTERSECTION = "intersection"
LEFT_MUL = "left-mul"
RIGHT_MUL = "right-mul"

KINDS = (INCLUSION, RIGHT_INCLUSION, INTERSECTION, LEFT_MUL, RIGHT_MUL)
KIND_RANK = {kind: rank for rank, kind in enumerate(KINDS)}

# irreducible_words refuses once its tail exponents, visited prefixes and
# listed words number more than this
MAX_BASIS_CANDIDATES = 10 ** 6

COMPLETE = "complete"
BOUNDED_COMPLETE = "bounded-complete"
LIMIT_REACHED = "limit-reached"

_UNSEEN = object()  # a word reduce has no step for yet


class Occurrence(NamedTuple):
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


class TraceStep(NamedTuple):
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

    def replay(self, system: "RewriteSystem") -> ConfPoly:
        """Rebuild the subtracted combination; input = remainder + replay."""
        total: dict = {}
        for step in self.steps:
            accumulate(total, system.build_sword(step.word, step.occ).terms, step.coeff)
        return ConfPoly._raw(total)


class CompositionTask(NamedTuple):
    """One critical-pair obligation between elements ``i`` and ``j``.

    Overlap kinds (inclusion, right-inclusion, intersection) carry the
    ambient word ``w`` whose two eliminations get subtracted: rule i's lead
    at 0, rule j's at ``pos``; w says how each sits (``_occurrence``).  The
    multiplication kinds carry the generator index in ``j`` and the
    product label ``m``; their ``w`` is a formal word used only to order
    the completion queue.

    The fields come in the queue's order.  The key ``(size, w, rank, i, j,
    pos)``, where ``size = len(w.links)`` and ``rank`` is the kind's rank,
    puts the word first, in the word order.  ``pos`` parts the inclusion
    tasks of one pair, which share their word, so no two tasks of one
    system share those six fields.  ``complete``'s marker ``(size, (), k)``
    sorts before every task of its size, since ``()`` precedes every word.
    """

    size: int
    w: NormalWord
    rank: int
    i: int
    j: int
    pos: int = 0
    m: MultiIndex | None = None

    @property
    def kind(self) -> str:
        return KINDS[self.rank]


def _right_inclusion(fi: NormalWord, gj: NormalWord, i: int, j: int, p: int) -> CompositionTask:
    """The right inclusion of lead ``gj`` at suffix p of ``fi``,
    tail derivations split minimally."""
    w = NormalWord(fi.links, fi.tail, tuple(map(max, fi.taild, gj.taild)))
    return CompositionTask(len(w.links), w, KIND_RANK[RIGHT_INCLUSION], i, j, p)


def _intersection(fi: NormalWord, gj: NormalWord, i: int, j: int, p: int) -> CompositionTask:
    """The intersection of the suffix at p of ``fi`` with a prefix of ``gj``."""
    w = NormalWord(fi.links + gj.links[fi.length - p - 1:], gj.tail, gj.taild)
    return CompositionTask(len(w.links), w, KIND_RANK[INTERSECTION], i, j, p)


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


@dataclass(frozen=True)
class Rule:
    """One monic relation of a rewriting system with its leading data.

    ``cores`` holds the S-word cores ``build_sword`` has built with their
    leads, f<m'>v under ``(m', v)`` and D^dshift f under ``dshift``.  They
    depend on ``poly`` and the signature alone; they are shared: do not mutate.
    """

    poly: ConfPoly
    lead: NormalWord
    dfree: bool
    cores: dict = field(default_factory=dict, compare=False, repr=False)


def _rule(p: ConfPoly) -> Rule:
    if p.is_zero():
        raise ValueError("rewriting systems hold nonzero polynomials only")
    p = p.monic()
    return Rule(p, p.leading_word(), p.is_dfree())


class _LeadIndex:
    """The rules of a system keyed on segments of their leading words.

    A segment is keyed like a whole lead, on its links and the generator
    after them: ``(links[p:q], links[q][0])`` for letters p to q when a
    link follows them, ``(links[p:], tail)`` for the suffix at p.

    Three maps, each with one builder.  ``leads`` maps a whole lead's key
    to its rules, for matching; ``add`` writes it and ``lengths``, the
    distinct lead lengths in ascending order.  Completion asks the reverse,
    which leads hold a segment: ``segments`` lists (rule, p) for every
    interior segment of every lead (p = 0 for its proper prefixes),
    ``suffixes`` for every suffix, the whole lead (p = 0) included.
    ``add`` queues each lead and ``reverse()`` adds the queued leads to
    these two, since ``interreduce`` rebuilds the index after a deletion or
    a new lead and only matches.
    """

    def __init__(self, rules: tuple[Rule, ...]):
        self.leads: dict[tuple, list[int]] = {}
        self.lengths: list[int] = []
        self.segments: dict[tuple, list[tuple[int, int]]] = {}
        self.suffixes: dict[tuple, list[tuple[int, int]]] = {}
        self._queue: list[tuple[int, NormalWord]] = []
        for e, rule in enumerate(rules):
            self.add(e, rule.lead)

    def add(self, e: int, lead: NormalWord) -> None:
        self.leads.setdefault((lead.links, lead.tail), []).append(e)
        if lead.length not in self.lengths:
            insort(self.lengths, lead.length)
        self._queue.append((e, lead))

    def reverse(self) -> "_LeadIndex":
        for e, (links, tail, _) in self._queue:
            for p in range(len(links) + 1):
                self.suffixes.setdefault((links[p:], tail), []).append((e, p))
                for q in range(p, len(links)):
                    self.segments.setdefault((links[p:q], links[q][0]), []).append((e, p))
        self._queue.clear()
        return self


class RewriteSystem:
    """Monic nonzero relations over normal words (else ValueError), one Rule
    each, in the tuple ``rules``: only ``_append`` and ``interreduce`` write it."""

    def __init__(self, engine: Engine, elements=()):
        self.engine = engine
        self.sig = engine.sig
        self.rules: tuple[Rule, ...] = ()
        self._index = _LeadIndex(())
        self._steps: dict = {}  # reduce's step at each word; emptied when rules change
        for p in elements:
            for w in p.terms:
                if not _is_normal(self.sig, w):
                    raise ValueError(f"{w} is not a normal word over {self.sig}")
            self._append(p)

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def elements(self) -> list[ConfPoly]:
        return [r.poly for r in self.rules]

    def _append(self, p: ConfPoly) -> int:
        rule = _rule(p)
        self.rules += (rule,)
        e = len(self.rules) - 1
        self._index.add(e, rule.lead)
        self._steps.clear()
        return e

    # -- occurrence matching ------------------------------------------------

    def find_occurrences(self, w: NormalWord) -> list[Occurrence]:
        """All pattern matches in ``w``, ordered by (position, kind, element).

        Each candidate segment of ``w`` is looked up in the leading-word
        index, so the cost grows with the word and the number of distinct
        lead lengths, not with the number of rules.
        """
        index = self._index
        rules = self.rules
        out = []
        links = w.links
        nlinks = len(links)
        for L in index.lengths:
            # interior matches of D-free leads: a link must follow the segment
            for p in range(nlinks - L + 1):
                for e in index.leads.get((links[p:p + L - 1], links[p + L - 1][0]), ()):
                    if rules[e].dfree:
                        out.append(Occurrence(e, p, False))
            p = nlinks + 1 - L
            if p < 0:
                break
            for e in index.leads.get((links[p:], w.tail), ()):
                dshift = tuple(a - b for a, b in zip(w.taild, rules[e].lead.taild))
                if all(c >= 0 for c in dshift):
                    out.append(Occurrence(e, p, True, dshift))
        out.sort(key=lambda o: (o.pos, o.second, o.elem))
        return out

    def build_sword(self, w: NormalWord, occ: Occurrence) -> ConfPoly:
        """Engine-normalize the S-word that eliminates ``w`` via ``occ``: w's
        first occ.pos links prepended to the rule's core f<m'>v or D^dshift f,
        built once per rule.  The result may be that core: it is shared and
        must not be mutated.

        Its leading term is exactly (w, 1); anything else would break the
        well-order descent of reduction, so it raises RuntimeError.  A label
        outside the locality box in w's prefix raises ValueError.
        """
        eng, rule, prefix = self.engine, self.rules[occ.elem], w.links[:occ.pos]
        for _, m in prefix:
            if m not in self.sig.labels:
                raise ValueError(f"{w} is not a normal word: a label before {occ.pos} is not valid")
        if occ.second:
            key = occ.dshift
        else:
            j = occ.pos + rule.lead.length - 1
            key = (w.links[j][1], NormalWord(w.links[j + 1:], w.tail, w.taild))
        hit = rule.cores.get(key)
        if hit is None:
            core = (eng.derive_multi(key, rule.poly) if occ.second
                    else eng.mul_poly(rule.poly, key[0], ConfPoly.from_word(key[1])))
            hit = rule.cores[key] = (core, core.leading_term() if core.terms else None)
        core, lead = hit
        # prepending keeps the word order: the S-word leads with prefix + the core's lead
        if lead != ((w.links[occ.pos:], w.tail, w.taild), 1):
            raise RuntimeError(f"leading-word law violated: the S-word of {occ} does not "
                               f"lead with {w}")
        return eng._prepend(prefix, core) if prefix else core

    # -- reduction ----------------------------------------------------------

    def reduce(self, p: ConfPoly):
        """Eliminate occurrences until none remain; return (remainder, trace).

        Targets the greatest reducible word each round and its first
        occurrence (leftmost position).  Pending words sit in one list of
        ``weight_key()`` pairs, ascending, and are popped from its end, each
        once: an S-word adds only words below the one it eliminates, so a
        popped word that is irreducible stays so.

        The system's step table maps each word met to the step taken there,
        its first occurrence and S-word, or None if it is irreducible, so a
        word met again skips ``find_occurrences`` and ``build_sword``.  The
        table lasts until the rules change.
        """
        table = self._steps
        terms = dict(p.terms)
        pending = sorted(map(NormalWord.weight_key, terms))
        queued = set(terms)
        steps = []
        while pending:
            w = pending.pop()[1]
            coeff = terms.get(w)
            if coeff is None:
                continue
            step = table.get(w, _UNSEEN)
            if step is _UNSEEN:
                occs = self.find_occurrences(w)
                step = table[w] = (occs[0], self.build_sword(w, occs[0])) if occs else None
            if step is None:
                continue
            occ, sword = step
            accumulate(terms, sword.terms, -coeff)
            for u in sword.terms:
                if u not in queued:
                    queued.add(u)
                    insort(pending, u.weight_key())
            steps.append(TraceStep(w, occ, coeff))
        return ConfPoly._raw(terms), ReductionTrace(tuple(steps))

    # -- composition generation ----------------------------------------------

    def _inclusion_entries(self, k: int):
        """Rule k's inclusion and right-inclusion tasks, against itself
        and each earlier rule both ways; ``_extension_entries(k)`` gives the rest.
        The lead index names the overlapping leads, so only they are visited."""
        rules, index = self.rules, self._index.reverse()
        g = rules[k].lead
        links, tail, nl = g.links, g.tail, len(g.links)
        # k's lead inside an earlier lead: inclusion, right inclusion of k in i
        if rules[k].dfree:
            for i, p in index.segments.get((links, tail), ()):
                if i < k:
                    f = rules[i].lead
                    yield CompositionTask(len(f.links), f, KIND_RANK[INCLUSION], i, k, p)
        for i, p in index.suffixes.get((links, tail), ()):
            if i < k:
                yield _right_inclusion(rules[i].lead, g, i, k, p)
        # an earlier lead inside k's: right inclusion, inclusion of i in k
        for p in range(nl + 1):
            for i in index.leads.get((links[p:], tail), ()):
                if i < k:
                    yield _right_inclusion(g, rules[i].lead, k, i, p)
            for q in range(p, nl):
                for i in index.leads.get((links[p:q], links[q][0]), ()):
                    if i < k and rules[i].dfree:
                        yield CompositionTask(nl, g, KIND_RANK[INCLUSION], k, i, p)

    def _extension_entries(self, k: int):
        """The intersection and product tasks of rule k, each of size
        nl + 1 or more, nl = len(links) of k's lead:
        - lead i's suffix at p >= 1 meets k's first c letters: size p + nl;
        - k's suffix at p meets a proper prefix of lead i, of nl + 1 - p <=
          len(f_i.links) letters: size len(f_i.links) + p;
        - a product adds one link to k's lead: size nl + 1.
        Only rules i <= k take part, so later rules do not change the entries.
        """
        rules, index = self.rules, self._index.reverse()
        g = rules[k].lead
        links, tail, nl = g.links, g.tail, len(g.links)
        # a proper suffix of lead i (k itself included) is a prefix of k's
        for c in range(1, nl + 1):
            for i, p in index.suffixes.get((links[:c - 1], links[c - 1][0]), ()):
                if p and i <= k and rules[i].dfree:
                    yield _intersection(rules[i].lead, g, i, k, p)
        # a proper suffix of k's lead is a prefix of an earlier lead
        if rules[k].dfree:
            for p in range(1, nl + 1):
                for i, q in index.segments.get((links[p:], tail), ()):
                    if not q and i < k:
                        yield _intersection(g, rules[i].lead, k, i, p)
        yield from self._multiplication_entries(k)

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
                    yield CompositionTask(size, w, KIND_RANK[LEFT_MUL], i, g, m=m)
                if not rule.dfree:
                    w = NormalWord(links + ((tail, m),), g, taild)
                    yield CompositionTask(size, w, KIND_RANK[RIGHT_MUL], i, g, m=m)

    def all_tasks(self) -> list[CompositionTask]:
        """Every composition task: the overlap tasks by (i, j, kind, -size, pos),
        then the multiplication tasks of each element in turn."""
        overlaps, products = [], []
        for k in range(len(self)):
            for task in chain(self._inclusion_entries(k), self._extension_entries(k)):
                (overlaps if task.rank < KIND_RANK[LEFT_MUL] else products).append(task)
        overlaps.sort(key=lambda t: (t.i, t.j, t.rank, -t.size, t.pos))
        return overlaps + products

    # -- composition evaluation ----------------------------------------------

    def _occurrence(self, w: NormalWord, e: int, pos: int) -> Occurrence:
        """Rule e's lead at generator pos of w: inside w if a link follows
        it, else w's suffix with w's tail exponent at or above its own."""
        lead = self.rules[e].lead
        if pos + len(lead.links) < len(w.links):
            return Occurrence(e, pos, False)
        return Occurrence(e, pos, True, index_sub(w.taild, lead.taild))

    def eval_composition(self, task: CompositionTask) -> ConfPoly:
        """The composition polynomial of a task, engine-normalized.

        An overlap composition is the difference of two S-words of task.w,
        rule i at 0 less rule j at task.pos, so it sits strictly below task.w.
        """
        eng, w = self.engine, task.w
        poly = self.rules[task.i].poly
        if task.kind == LEFT_MUL:
            return eng.mul_prefix_poly(task.j, task.m, poly)
        if task.kind == RIGHT_MUL:
            unit = ConfPoly.from_word(single_word(task.j, self.sig.n))
            return eng.mul_poly(poly, task.m, unit)
        out = (self.build_sword(w, self._occurrence(w, task.i, 0))
               - self.build_sword(w, self._occurrence(w, task.j, task.pos)))
        if not out.is_zero() and compare_words(out.leading_word(), w) >= 0:
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
        changes.  Matching reads only leads and D-freeness, so the sweep goes
        back to the first element only when a change gives an element a new
        lead or makes it D-free; other changes leave earlier ones irreducible.
        Rule i matches no word below its lead: a longer word is greater, and
        one of its length that holds the lead is the lead with a tail
        exponent at or above its own.  So with the step at the lead set to
        another rule's first occurrence there, ``reduce`` reduces rule i."""
        out = RewriteSystem(self.engine)
        out.rules, out._index = self.rules, _LeadIndex(self.rules)
        i = 0
        while i < len(out.rules):
            rule = out.rules[i]
            occ = next((o for o in out.find_occurrences(rule.lead) if o.elem != i), None)
            out._steps[rule.lead] = None if occ is None else (occ, out.build_sword(rule.lead, occ))
            r, _ = out.reduce(rule.poly)
            del out._steps[rule.lead]
            if r.is_zero():
                out.rules = out.rules[:i] + out.rules[i + 1:]
                out._index = _LeadIndex(out.rules)  # the index holds rule positions
                out._steps.clear()
                continue
            r = r.monic()
            if r != rule.poly:
                new = _rule(r)
                out.rules = out.rules[:i] + (new,) + out.rules[i + 1:]
                out._steps.clear()
                if new.lead != rule.lead or new.dfree and not rule.dfree:
                    out._index = _LeadIndex(out.rules)
                    i = 0
                    continue
            i += 1
        return out

    def irreducible_words(self, max_length: int, max_taild: MultiIndex | None = None) -> list[NormalWord]:
        """All normal words within the bounds with no occurrence, ascending.

        By the Composition-Diamond lemma they are a linear basis of the
        quotient, within the bounds, once the system is complete.  A walk
        over link prefixes finds them (the graph of normal words).  At each
        prefix, the rules whose lead ends at a next generator g decide: a
        D-free one cuts every link with g, as each extension keeps its
        match, and a tail g with exponent d is kept unless one has a lead
        tail exponent at most d.  Raises ValueError once the tail exponents,
        the prefixes visited and the words listed number more than
        ``MAX_BASIS_CANDIDATES``; the tail exponents are counted before the
        walk builds them.  A ``max_length`` below 1, or a ``max_taild`` that
        is not n nonnegative integers, raises ValueError.
        """
        sig = self.sig
        if max_taild is None:
            max_taild = zero_index(sig.n)
        if max_length < 1:
            raise ValueError(f"max_length must be at least 1, got {max_length}")
        if len(max_taild) != sig.n or any(b < 0 for b in max_taild):
            raise ValueError(f"max_taild must be {sig.n} nonnegative integers, got {max_taild}")
        count = prod(b + 1 for b in max_taild)
        if count > MAX_BASIS_CANDIDATES:
            raise ValueError(f"{count} tail exponents exceed the budget of {MAX_BASIS_CANDIDATES}")
        ngens = len(sig.generators)
        tailds = list(iter_box(tuple(b + 1 for b in max_taild)))
        labels = list(iter_box(sig.locality))
        leads, lengths, rules = self._index.leads, self._index.lengths, self.rules
        out = []
        prefixes = [()]
        while prefixes:
            links = prefixes.pop()
            n = len(links)
            for g in range(ngens):
                # the rules whose lead is a suffix of links followed by g
                found = [rules[e] for L in lengths if L <= n + 1
                         for e in leads.get((links[n + 1 - L:], g), ())]
                out.extend(NormalWord(links, g, d) for d in tailds
                           if not any(all(map(le, r.lead.taild, d)) for r in found))
                if n + 1 < max_length and not any(r.dfree for r in found):
                    prefixes.extend(links + ((g, m),) for m in labels)
            count += 1
            if count + len(out) > MAX_BASIS_CANDIDATES:
                raise ValueError(f"{count + len(out)} tail exponents, prefixes and words up to "
                                 f"length {n + 1} exceed the budget of {MAX_BASIS_CANDIDATES}")
        out.sort(key=NormalWord.weight_key)
        return out


def complete(engine: Engine, elements, *, max_degree: int | None = None,
             max_elements: int | None = None, max_steps: int | None = None):
    """Saturate the system until every composition reduces to zero.

    Returns (system, status) with status one of COMPLETE (queue exhausted),
    BOUNDED_COMPLETE (remainders above max_degree were discarded, or the
    input is homogeneous, each element's terms of one length, and the run
    stopped with tasks left, all longer than max_degree), or LIMIT_REACHED
    (max_elements or max_steps tripped).
    The output is interreduced; the run is deterministic.

    One heap holds the tasks, in word order.  Each rule k, initial or
    appended, pushes its inclusion tasks and a marker (s, (), k), where s is
    len(links) + 1 of its lead.  Popped before every task of size s, the
    marker pushes k's other tasks, all of size s or more
    (``_extension_entries``), so tasks pop as if all were built at once.
    """
    for name, bound in (("max_degree", max_degree),
                        ("max_elements", max_elements),
                        ("max_steps", max_steps)):
        if bound is not None and bound < 1:
            raise ValueError(f"{name} must be a positive integer")

    system = RewriteSystem(engine, elements).interreduce()
    # on homogeneous input a remainder has its task word's length
    homogeneous = max_degree is not None and all(
        len({w.length for w in r.poly.terms}) == 1 for r in system.rules)
    heap: list = []

    def admit(k: int) -> None:
        for task in system._inclusion_entries(k):
            heapq.heappush(heap, task)
        heapq.heappush(heap, (len(system.rules[k].lead.links) + 1, (), k))
    for k in range(len(system)):
        admit(k)
    steps = 0
    discarded = False
    status = COMPLETE
    while heap and not (homogeneous and heap[0][0] + 1 > max_degree):
        task = heapq.heappop(heap)
        if not isinstance(task, CompositionTask):  # a marker (s, (), k)
            for rest in system._extension_entries(task[2]):
                heapq.heappush(heap, rest)
            continue
        if max_steps is not None and steps >= max_steps:
            status = LIMIT_REACHED
            break
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
        admit(system._append(remainder))
    if status == COMPLETE and (discarded or heap):
        status = BOUNDED_COMPLETE
    return system.interreduce(), status
