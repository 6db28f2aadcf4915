"""Lie-side applications: braces, enveloping presentations, half-PBW checks.

A Lie conformal structure is given by a multiplication table over the
generators; its universal enveloping associative algebra is presented by
relations a_i<m> a_j - {a_j<m> a_i} - table(i, j, m), where {.} is the
brace (skew) transform.  Loop algebras embed an ordinary Lie algebra at
locality (1, ..., 1).  The half-PBW check reduces the presentation's
intersection compositions s_ij<m'> a_k - a_i<m> s_jk against it and
reports nonzero remainders, which prove an invalid table only when the
presentation is D-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .engine import Engine
from .indices import (
    MultiIndex,
    factorial_multi,
    index_add,
    index_sub,
    iter_box,
    sign_of,
    zero_index,
)
from .rewrite import RewriteSystem, _intersection
from .words import AlgebraSignature, ConfPoly, NormalWord, _is_normal, accumulate, exact, single_word


# -- ordinary Lie algebras -----------------------------------------------------


@dataclass(frozen=True)
class LieAlgebraSpec:
    """A finite-dimensional Lie algebra by basis and structure constants.

    ``brackets`` maps an ordered pair (i, j) of basis indices to the
    expansion of [a_i, a_j]; a missing mirror pair is taken to be the
    negation of the stored one.
    """

    basis: tuple[str, ...]
    brackets: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]


def lie_algebra(basis, brackets) -> LieAlgebraSpec:
    """Normalize raw bracket data into a LieAlgebraSpec."""
    basis = tuple(basis)
    dim = len(basis)
    norm = {}
    for (i, j), combo in brackets.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket key {(i, j)} is outside the basis of {dim} elements")
        summed: dict[int, Fraction] = {}
        for k, c in combo:
            if not 0 <= k < dim:
                raise ValueError(f"bracket value index {k} is outside the basis of {dim} elements")
            summed[k] = summed.get(k, 0) + Fraction(c)
        entries = tuple(sorted((k, c) for k, c in summed.items() if c))
        if entries:
            norm[(i, j)] = entries
    return LieAlgebraSpec(basis, norm)


def bracket(g: LieAlgebraSpec, i: int, j: int) -> dict[int, Fraction]:
    """[a_i, a_j] as a basis combination, using antisymmetry for mirrors."""
    if (i, j) in g.brackets:
        return dict(g.brackets[(i, j)])
    if (j, i) in g.brackets:
        return {k: -c for k, c in g.brackets[(j, i)]}
    return {}


def validate_lie(g: LieAlgebraSpec) -> bool:
    """Antisymmetry (stored mirrors and diagonal) plus Jacobi on all triples."""
    for (i, j), combo in g.brackets.items():
        if i == j and combo:
            return False
        if (j, i) in g.brackets and i != j:
            mirror = {k: -c for k, c in g.brackets[(j, i)]}
            if dict(combo) != mirror:
                return False
    dim = len(g.basis)
    for i in range(dim):
        for j in range(i):
            for k in range(j):
                total: dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, v in bracket(g, a, b).items():
                        accumulate(total, bracket(g, l, c), v)
                if total:
                    return False
    return True


# -- Lie conformal structures ---------------------------------------------------


@dataclass(frozen=True)
class LieConformalSpec:
    """A Lie conformal multiplication table over a signature.

    ``table`` maps (i, j, m) with i > j and valid m to the value of the
    Lie product a_i|m| a_j, a combination of length-1 normal words (the
    derivation-polynomial span of the generators).
    """

    signature: AlgebraSignature
    table: dict[tuple[int, int, MultiIndex], ConfPoly]


def lie_conformal(signature: AlgebraSignature, table) -> LieConformalSpec:
    """Validate and normalize a raw table into a LieConformalSpec."""
    norm = {}
    for (i, j, m), value in table.items():
        if not 0 <= j < i < len(signature.generators):
            raise ValueError(f"table key needs 0 <= j < i < {len(signature.generators)}, "
                             f"got i = {i}, j = {j}")
        m = tuple(m)
        if not signature.is_valid(m):
            raise ValueError(f"table key label {m} is outside the validity box")
        if value.is_zero():
            continue
        for w in value.terms:
            if w.length != 1:
                raise ValueError(f"table values must be length-1 combinations, got {w}")
            if not _is_normal(signature, w):
                raise ValueError(f"table value word {w} is not a derived generator of the signature")
        norm[(i, j, m)] = value
    return LieConformalSpec(signature, norm)


def table_entry(L: LieConformalSpec, i: int, j: int, m: MultiIndex) -> ConfPoly:
    """Lie product a_i|m| a_j for i >= j; the diagonal is zero (the unique
    antisymmetry-consistent completion of an off-diagonal table)."""
    if i < j:
        raise ValueError(f"table entries need i >= j, got i = {i}, j = {j}")
    if i == j:
        return ConfPoly.zero()
    return L.table.get((i, j, m), ConfPoly.zero())


# -- the brace transform ---------------------------------------------------------


def brace(engine: Engine, gen: int, m: MultiIndex, p: ConfPoly) -> ConfPoly:
    """Skew transform sum_s (-1)^{|m+s|} (1/s!) D^s (gen<m+s> p), s over the
    box where m+s stays valid."""
    sig = engine.sig
    if not sig.is_valid(m):
        raise ValueError(f"brace label {m} is outside the validity box")
    out: dict = {}
    for s in iter_box(index_sub(sig.locality, m)):
        term = engine.derive_multi(s, engine.mul_prefix_poly(gen, index_add(m, s), p))
        accumulate(out, term.terms, exact(Fraction(sign_of(index_add(m, s)), factorial_multi(s))))
    return ConfPoly._raw(out)


def commutator(engine: Engine, i: int, m: MultiIndex, j: int) -> ConfPoly:
    """a_i<m> a_j - {a_j<m> a_i}: the conformal commutator of two generators."""
    n = engine.sig.n
    head = engine.mul_prefix(i, m, single_word(j, n))
    return head - brace(engine, j, m, ConfPoly.from_word(single_word(i, n)))


# -- enveloping presentations -----------------------------------------------------


def lie_relation(engine: Engine, L: LieConformalSpec, i: int, j: int,
                 m: MultiIndex) -> ConfPoly:
    """The defining relation a_i<m> a_j - {a_j<m> a_i} - table(i, j, m)."""
    return commutator(engine, i, m, j) - table_entry(L, i, j, m)


def enveloping_presentation(L: LieConformalSpec, engine: Engine | None = None) -> RewriteSystem:
    """Rewriting system of the universal enveloping associative algebra.

    One relation per pair i >= j and valid m; relations that normalize to
    zero are dropped, and the result is interreduced (hence stable under
    further interreduction).
    """
    if engine is None:
        engine = Engine(L.signature)
    if engine.sig != L.signature:
        raise ValueError("the engine's signature is not the Lie structure's")
    relations = []
    for i in range(len(L.signature.generators)):
        for j in range(i + 1):
            for m in iter_box(L.signature.locality):
                rel = lie_relation(engine, L, i, j, m)
                if not rel.is_zero():
                    relations.append(rel)
    return RewriteSystem(engine, relations).interreduce()


# -- the half-PBW check ------------------------------------------------------------


@dataclass(frozen=True)
class HalfPBWReport:
    """Outcome of the mixed-composition check over all i > j > k and valid
    labels, each the presentation's intersection composition on a_i<m> a_j<m'> a_k.

    Nonzero remainders indicate an invalid table (or an engine bug) only
    when the presentation is D-free.  Otherwise they may be artefacts of
    the reduction, as for ``GSBReport.has_non_dfree``: occurrence matching
    never uses the right products s<m'>a of a relation with derivation
    terms, so a remainder can lie in the ideal and still be reported.
    """

    checked: int
    failures: tuple[tuple[tuple[int, int, int, MultiIndex, MultiIndex], ConfPoly], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def half_pbw_check(L: LieConformalSpec, engine: Engine | None = None) -> HalfPBWReport:
    """Reduce s_ij<m'> a_k - a_i<m> s_jk against the presentation for all
    i > j > k and valid m, m'; collect nonzero remainders.

    Each is the intersection composition of the rules with leads a_i<m> a_j
    (s_ij itself) and a_j<m'> a_k, evaluated by ``eval_composition``.  The
    reduction runs against the presentation alone, so for one that is not
    D-free a remainder is not proof of an invalid table (see HalfPBWReport).
    """
    system = enveloping_presentation(L, engine)
    sig, z = L.signature, L.signature.zero_exp()
    rule = {r.lead: e for e, r in enumerate(system.rules)}
    labels = list(product(iter_box(sig.locality), repeat=2))
    checked, failures = 0, []
    for i in range(len(sig.generators)):
        for j in range(i):
            for k in range(j):
                for m, mp in labels:
                    f, g = NormalWord(((i, m),), j, z), NormalWord(((j, mp),), k, z)
                    task = _intersection(f, g, rule[f], rule[g], 1)
                    remainder, _ = system.reduce(system.eval_composition(task))
                    checked += 1
                    if not remainder.is_zero():
                        failures.append(((i, j, k, m, mp), remainder))
    return HalfPBWReport(checked, tuple(failures))


# -- loop algebras -------------------------------------------------------------------


def bracket_conformal(sig: AlgebraSignature, g: LieAlgebraSpec) -> LieConformalSpec:
    """Lie conformal structure over ``sig`` with a_i|0| a_j = [a_i, a_j] its
    only nonzero products; ValueError unless ``g`` passes ``validate_lie``."""
    if not validate_lie(g):
        raise ValueError("bracket table fails antisymmetry or the Jacobi identity")
    z = zero_index(sig.n)
    table = {}
    for i in range(len(g.basis)):
        for j in range(i):
            combo = sorted(bracket(g, i, j).items())
            table[(i, j, z)] = ConfPoly({single_word(k, sig.n): c for k, c in combo})
    return lie_conformal(sig, table)


def loop_conformal(g: LieAlgebraSpec, n: int) -> LieConformalSpec:
    """Loop Lie conformal structure of an ordinary Lie algebra: locality
    (1, ..., 1) and table entry (i, j, 0) = the bracket [a_i, a_j]."""
    return bracket_conformal(AlgebraSignature(n, (1,) * n, g.basis), g)
