"""Core data types: signatures, normal words, polynomials, expression trees.

A *normal word* is the canonical basis element of the free algebra: a
right-normed product

    a1<m1> ( a2<m2> ( ... ak<mk> ( D^i a[k+1] ) ... ) )

stored flat as a chain of (generator, label) links, a tail generator and a
tail derivation exponent.  Every label must be valid for the signature's
locality bound.  Polynomials are sparse maps from normal words to nonzero
exact coefficients, ``int`` or ``Fraction``: the engine's closed forms
(signs, binomials, falling factorials) keep word-level results integral,
and ``Fraction`` enters only where a user coefficient or a ``monic()``
scaling is not a whole number: whole coefficients are kept as ``int``.

Words are well-ordered by length first, then by generator and label left
to right, then by the tail generator, then by the tail exponent: for words
of one length that is the order of the ``(links, tail, taild)`` tuples, so
``weight_key`` is just ``(len(links), word)``.  Generators compare by
declaration position (later = greater).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .indices import MultiIndex, iter_box, zero_index


@dataclass(frozen=True)
class AlgebraSignature:
    """Number of derivations, locality bound N, and the ordered generators."""

    n: int
    locality: MultiIndex
    generators: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if len(self.locality) != self.n:
            raise ValueError(f"locality {self.locality} does not have n = {self.n} entries")
        if not all(nt >= 1 for nt in self.locality):
            raise ValueError(f"locality entries must be at least 1, got {self.locality}")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError(f"generator names repeat: {self.generators}")
        if not self.generators:
            raise ValueError("at least one generator required")

    @cached_property
    def labels(self) -> frozenset[MultiIndex]:
        """The valid labels: every m with 0 <= m_t < locality_t."""
        return frozenset(iter_box(self.locality))

    def is_valid(self, m: MultiIndex) -> bool:
        return tuple(m) in self.labels


class NormalWord(NamedTuple):
    """Immutable normal word; generators are stored as signature indices."""

    links: tuple[tuple[int, MultiIndex], ...]
    tail: int
    taild: MultiIndex

    @property
    def length(self) -> int:
        return len(self.links) + 1

    def is_dfree(self) -> bool:
        return not any(self.taild)

    def link_sum(self, t: int) -> int:
        """Total t-component carried by the word's labels (tail exponent excluded)."""
        return sum(m[t] for _, m in self.links)

    def grade(self, t: int) -> int:
        """Conserved t-grading: label sum minus tail exponent.

        Every normalization rule preserves this quantity (each product adds
        its own label, each derivation lowers it by one), so it grades the
        whole algebra.  The tail exponent counts *negatively*: axiom (iii)
        trades one derivation for one unit of label.
        """
        return self.link_sum(t) - self.taild[t]

    def weight_key(self) -> tuple[int, "NormalWord"]:
        """``(len(links), word)``: its tuple comparison is the word order."""
        return (len(self.links), self)


def single_word(gen: int, n: int, taild: MultiIndex | None = None) -> NormalWord:
    return NormalWord((), gen, taild if taild is not None else zero_index(n))


def _is_normal(sig: AlgebraSignature, w: NormalWord) -> bool:
    ngens = len(sig.generators)
    try:  # a label that cannot be hashed is not in the label set
        links = all(0 <= g < ngens and m in sig.labels for g, m in w.links)
    except TypeError:
        return False
    return links and 0 <= w.tail < ngens and len(w.taild) == sig.n and min(w.taild) >= 0


def check_word(sig: AlgebraSignature, w: NormalWord) -> NormalWord:
    """Validate a word against the signature (labels valid, gens in range).

    Raises RuntimeError: the engine's audit (check=True) calls this on the
    words it reads and produces, where a bad word is a broken invariant.
    """
    if not _is_normal(sig, w):
        raise RuntimeError(f"{w} is not a normal word over {sig}")
    return w


Coeff = Union[int, Fraction]


def exact(c) -> Coeff:
    """``c`` as an exact coefficient: an ``int`` when whole, else a ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def accumulate(out: dict, terms: dict, c: Coeff) -> None:
    """out += c * terms, in place, dropping cancellations."""
    get = out.get
    for w, v in terms.items():
        acc = get(w, 0) + c * v
        if acc:
            out[w] = acc
        else:
            out.pop(w, None)


class ConfPoly:
    """Sparse polynomial: map from normal words to nonzero exact coefficients.

    Coefficients are ``int`` or ``Fraction``; both compare and hash alike, so
    equality does not depend on which one a term holds.  Instances behave
    like values (frozen after construction); arithmetic is by dict merging.
    Iteration orders terms by descending weight so the leading term is
    always first.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[NormalWord, Coeff] | None = None):
        self.terms: dict[NormalWord, Coeff] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = exact(c)

    @classmethod
    def _raw(cls, terms: dict[NormalWord, Coeff]) -> "ConfPoly":
        # internal: caller guarantees no zero coefficients
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "ConfPoly":
        return cls._raw({})

    @classmethod
    def from_word(cls, w: NormalWord, coeff: Coeff = 1) -> "ConfPoly":
        return cls._raw({w: coeff}) if coeff else cls._raw({})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def items_desc(self) -> list[tuple[NormalWord, Coeff]]:
        return sorted(self.terms.items(), key=lambda wc: wc[0].weight_key(), reverse=True)

    def __iter__(self) -> Iterator[tuple[NormalWord, Coeff]]:
        return iter(self.items_desc())

    def leading_term(self) -> tuple[NormalWord, Coeff]:
        if not self.terms:
            raise ValueError("leading term of the zero polynomial")
        w = max(self.terms, key=NormalWord.weight_key)
        return w, self.terms[w]

    def leading_word(self) -> NormalWord:
        return self.leading_term()[0]

    def degree(self) -> int:
        """Length of the leading word (0 for the zero polynomial)."""
        return self.leading_word().length if self.terms else 0

    def __add__(self, other: "ConfPoly") -> "ConfPoly":
        return self.add_scaled(other, 1)

    def __sub__(self, other: "ConfPoly") -> "ConfPoly":
        return self.add_scaled(other, -1)

    def __neg__(self) -> "ConfPoly":
        return self._raw({w: -c for w, c in self.terms.items()})

    def __mul__(self, scalar: Coeff) -> "ConfPoly":
        if not scalar:
            return ConfPoly.zero()
        return self._raw({w: scalar * v for w, v in self.terms.items()})

    __rmul__ = __mul__

    def add_scaled(self, other: "ConfPoly", coeff: Coeff) -> "ConfPoly":
        """self + coeff * other, dropping cancellations."""
        if not coeff:
            return self
        out = dict(self.terms)
        accumulate(out, other.terms, coeff)
        return self._raw(out)

    def monic(self) -> "ConfPoly":
        """Scaled to leading coefficient 1; whole coefficients come out ``int``."""
        _, lc = self.leading_term()
        if lc == 1:
            return self
        inv = Fraction(1) / lc
        return self._raw({w: exact(inv * c) for w, c in self.terms.items()})

    def is_dfree(self) -> bool:
        return all(w.is_dfree() for w in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "ConfPoly(0)"
        parts = [f"{c}*{w.links}|{w.tail}|{w.taild}" for w, c in self.items_desc()]
        return "ConfPoly(" + " + ".join(parts) + ")"


def compare_words(u: NormalWord, v: NormalWord) -> int:
    """Three-way comparison in the word well-order."""
    ku, kv = u.weight_key(), v.weight_key()
    return (ku > kv) - (ku < kv)


# --- expression trees -------------------------------------------------------
#
# Input syntax for the engine: leaves are (possibly derived) generators and
# nodes are labelled binary products.  A parsed expression is a linear
# combination of trees (list of (coefficient, tree) pairs).


class Leaf(NamedTuple):
    gen: int
    dexp: MultiIndex


class Node(NamedTuple):
    left: "ExprTree"
    label: MultiIndex
    right: "ExprTree"


# not ``Union[Leaf, Node]``: typing caches that, and the cache would keep every
# imported copy of this module alive
ExprTree = Leaf | Node
LinComb = list[tuple[Coeff, ExprTree]]
