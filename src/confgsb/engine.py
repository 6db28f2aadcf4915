"""Fast normalizer for free n-conformal algebra expressions.

Everything here reduces bracketed products of (possibly derived) generators
to the canonical right-normed basis: words with valid labels and a trailing
derivation exponent.  Unlike the reference evaluator in naive.py, the engine
uses closed forms — falling-factorial products for derived left operands,
the binomial sum gen⟨m⟩(D^i b) = Σ_s C(i,s) (m)_s D^(i−s)(gen⟨m−s⟩b) over
the s with m − s valid for a derived generator under an invalid label, and a
"dodge" that trades an invalid label against the head pair of the right
operand in one level:

    gen⟨m⟩(b⟨m′⟩v) = Σ_u W(m,u) · gen⟨m−u⟩(b⟨m′+u⟩v),  W(m,u) = Π_t w_t(m_t,u_t)

with w_t = [u_t = 0] where m_t < N_t, and otherwise, with a = m_t − N_t + 1,
w_t = (−1)^(u_t+a) C(m_t,u_t) C(u_t−1,a−1) for a ≤ u_t ≤ m_t and 0 below a.
Locality makes gen⟨k⟩b vanish for every k with some k_t ≥ N_t; solving the
left-nested expansions of those zero products coordinate by coordinate gives
w_t, and every outer label m − u with a nonzero weight is valid.

A product under a valid label only prepends a link, so it is written
directly: it takes no memo entry.  The left-nested peel of mul_words and
the dodge therefore both build their terms without accumulating: each term
prepends the link (gen, m − u) onto a memoized product, and distinct u give
distinct links.  A bare generator's product is mul_prefix's, with no
mul_words entry; the other word-level results (the dodge, mul_words,
derive_word) are memoized on immutable keys.  The peel's (−1)^|s| C(m, s)
rows and the dodge's W rows share one per-label table, built one coordinate
at a time, and prepended words are interned so that memo results share
word objects.  In an expression tree, a right-normed run
g1⟨m1⟩(g2⟨m2⟩(… rest)) of bare generators under valid labels is a chain of
such prepends, so normalize_tree prepends the run's links to each word of
rest in one pass.

The three structural invariants (length preservation, grade conservation,
D-free closure) can be checked on every single operation by constructing
the engine with check=True; invariant_checks counts how many audits ran,
and each distinct word's length, grades and D-freeness are worked out once.
An audit that fails raises RuntimeError.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod
from operator import add, sub

from .indices import (
    MultiIndex,
    falling_factorial,
    index_add,
    index_sub,
    sign_of,
    unit_index,
    zero_index,
)
from .words import (
    AlgebraSignature,
    ConfPoly,
    ExprTree,
    Leaf,
    LinComb,
    Node,
    NormalWord,
    accumulate,
    check_word,
    exact,
)


class Engine:
    """Normalization engine bound to one algebra signature.

    Word operands must be normal words over the signature: generators in
    range and every label inside the locality box.  They are trusted unless
    check=True, which raises RuntimeError on one that is not and on a bare
    generator out of range.  Labels, derivation indices and exponents, and
    ``mul_words``' left labels, are always checked (ValueError).
    check=True audits every produced polynomial against the structural
    invariants (cheap, but hot-loop callers may want it off).
    """

    def __init__(self, sig: AlgebraSignature, *, check: bool = False):
        self.sig = sig
        self.check = check
        self.invariant_checks = 0
        self._valid = sig.labels
        self._prefix_memo: dict = {}
        self._words_memo: dict = {}
        self._derive_memo: dict = {}
        self._weights_memo: dict = {}
        self._interned: dict = {}
        self._facts: dict = {}
        self._intern = self._interned.setdefault

    def memo_sizes(self) -> dict[str, int]:
        """Entry counts of every per-engine table that grows with the input.

        ``prefix``, ``words`` and ``derive`` are the result memos (a product
        under a valid label takes no entry), ``weights`` the per-label
        weight rows, ``intern`` the interned prepended words and ``facts``
        the audited words (filled only with check=True).
        """
        return {"prefix": len(self._prefix_memo), "words": len(self._words_memo),
                "derive": len(self._derive_memo), "weights": len(self._weights_memo),
                "intern": len(self._interned), "facts": len(self._facts)}

    def _weights(self, m: MultiIndex) -> tuple:
        """``(u, m − u, c)`` for every nonzero weight c, u ascending: the
        product of the coordinates' rows ``(k, m_t − k, c_t)``.  A valid m
        gets the peel's row, c = (−1)^|u| C(m, u); an invalid m the dodge's,
        c = W(m, u), whose labels m − u are all valid."""
        row = self._weights_memo.get(m)
        if row is None:
            valid, cols = m in self._valid, []
            for mt, bound in zip(m, self.sig.locality):
                a = mt - bound + 1
                if valid:
                    cols.append([(k, mt - k, (-1) ** k * comb(mt, k)) for k in range(mt + 1)])
                elif a <= 0:
                    cols.append([(0, mt, 1)])
                else:
                    cols.append([(k, mt - k, (-1) ** (k + a) * comb(mt, k) * comb(k - 1, a - 1))
                                 for k in range(a, mt + 1)])
            row = tuple((s, ms, prod(c)) for s, ms, c in
                        (zip(*entries) for entries in product(*cols)))
            self._weights_memo[m] = row
        return row

    def _link_sum(self, gen: int, row: tuple, inner, left, label: MultiIndex,
                  v: NormalWord) -> ConfPoly:
        """Σ c · gen⟨ms⟩ inner(left, label + s, v) over the ``(s, ms, c)`` of
        a row of valid labels ms: each term only prepends the link (gen, ms),
        interned, and distinct s give distinct links, so nothing meets."""
        intern = self._intern
        terms: dict = {}
        for s, ms, c in row:
            link = ((gen, ms),)
            for x, cx in inner(left, tuple(map(add, label, s)), v).terms.items():
                x = NormalWord(link + x.links, x.tail, x.taild)
                terms[intern(x, x)] = c * cx
        return ConfPoly._raw(terms)

    def _check_index(self, what: str, i: MultiIndex) -> None:
        if len(i) != self.sig.n or min(i) < 0:
            raise ValueError(f"{what} {i} is not a multi-index of length {self.sig.n}")

    # -- derivations ----------------------------------------------------

    def derive_word(self, t: int, w: NormalWord) -> ConfPoly:
        """D_t applied to one normal word, as a normal-form polynomial."""
        key = (t, w)
        hit = self._derive_memo.get(key)
        if hit is not None:
            return hit
        if w.length == 1:
            bumped = index_add(w.taild, unit_index(self.sig.n, t))
            out = ConfPoly.from_word(NormalWord((), w.tail, bumped))
        else:
            # Leibniz across the first link; the label absorbs one D.  Under
            # the valid m the first part is a prepend in a fresh dict; the two
            # parts start with different first links, so nothing cancels.
            (g, m), rest_links = w.links[0], w.links[1:]
            rest = NormalWord(rest_links, w.tail, w.taild)
            out = self.mul_prefix_poly(g, m, self.derive_word(t, rest))
            if m[t]:
                dropped = index_sub(m, unit_index(self.sig.n, t))
                x = NormalWord(((g, dropped),) + rest_links, w.tail, w.taild)
                out.terms[self._intern(x, x)] = -m[t]
        if self.check:
            length, grades, _ = self._word_facts(w)
            self._audit(out, length, tuple(g - (r == t) for r, g in enumerate(grades)),
                        dfree=False)
        self._derive_memo[key] = out
        return out

    def derive(self, t: int, p: ConfPoly) -> ConfPoly:
        out: dict = {}
        for w, c in p.terms.items():
            accumulate(out, self.derive_word(t, w).terms, c)
        return ConfPoly._raw(out)

    def derive_multi(self, i: MultiIndex, p: ConfPoly) -> ConfPoly:
        self._check_index("derivation exponent", i)
        for t, count in enumerate(i):
            for _ in range(count):
                p = self.derive(t, p)
        return p

    # -- products ---------------------------------------------------------

    def mul_prefix(self, gen: int, m: MultiIndex, w: NormalWord) -> ConfPoly:
        """Normal form of gen⟨m⟩[w] for a bare generator on the left."""
        if m in self._valid:
            x = NormalWord(((gen, m),) + w.links, w.tail, w.taild)
            out = ConfPoly.from_word(self._intern(x, x))
            if self.check:
                self._audit_prefix(out, ((gen, m),), w)
            return out
        key = (gen, m, w)
        hit = self._prefix_memo.get(key)
        if hit is not None:
            return hit
        self._check_index("label", m)
        if w.length == 1:
            # the binomial sum, empty for a D-free b: gen⟨k⟩b vanishes for invalid k
            i, terms = w.taild, {}
            b = NormalWord((), w.tail, zero_index(self.sig.n))
            for s in product(*(range(max(0, mt - bound + 1), min(it, mt) + 1)
                               for mt, bound, it in zip(m, self.sig.locality, i))):
                head = self.mul_prefix(gen, tuple(map(sub, m, s)), b)
                c = prod(comb(it, st) * falling_factorial(mt, st) for it, st, mt in zip(i, s, m))
                accumulate(terms, self.derive_multi(tuple(map(sub, i, s)), head).terms, c)
            out = ConfPoly._raw(terms)
        else:
            # invalid label against a longer word: gen⟨m⟩(head generator)
            # vanishes, and solving the expansions of such zero products
            # gives a closed form onto valid labels only:
            # gen⟨m⟩(b⟨m′⟩v) = Σ_u W(m,u) gen⟨m−u⟩(b⟨m′+u⟩v)
            (b, mp) = w.links[0]
            v = NormalWord(w.links[1:], w.tail, w.taild)
            out = self._link_sum(gen, self._weights(m), self.mul_prefix, b, mp, v)
        if self.check:
            self._audit_prefix(out, ((gen, m),), w)
        self._prefix_memo[key] = out
        return out

    def _prepend(self, links: tuple, p: ConfPoly) -> ConfPoly:
        """``links`` (valid labels) prepended to each word of p, interned;
        distinct words stay distinct, so p's order and coefficients hold."""
        intern = self._intern
        terms = {}
        for w, c in p.terms.items():
            x = NormalWord(links + w.links, w.tail, w.taild)
            terms[intern(x, x)] = c
            if self.check:
                self._audit_prefix(ConfPoly.from_word(x), links, w)
        return ConfPoly._raw(terms)

    def mul_prefix_poly(self, gen: int, m: MultiIndex, p: ConfPoly) -> ConfPoly:
        if m in self._valid:
            return self._prepend(((gen, m),), p)
        out: dict = {}
        for w, c in p.terms.items():
            accumulate(out, self.mul_prefix(gen, m, w).terms, c)
        return ConfPoly._raw(out)

    def mul_words(self, u: NormalWord, m: MultiIndex, v: NormalWord) -> ConfPoly:
        """Normal form of [u]⟨m⟩[v]; mul_prefix's for a bare generator u."""
        if not u.links and not any(u.taild):
            return self.mul_prefix(u.tail, m, v)
        key = (u, m, v)
        hit = self._words_memo.get(key)
        if hit is not None:
            return hit
        self._check_index("label", m)
        if u.length == 1:
            # (D^i b)⟨m⟩v = (−1)^|i| · ∏_t m_t(m_t−1)…(m_t−i_t+1) · b⟨m−i⟩v
            coeff = sign_of(u.taild)
            for mt, it in zip(m, u.taild):
                coeff *= falling_factorial(mt, it)
            if coeff:
                out = self.mul_prefix(u.tail, index_sub(m, u.taild), v) * coeff
            else:
                out = ConfPoly.zero()
        else:
            # peel the first link through the left-nested expansion:
            # (b⟨m1⟩u1)⟨m⟩v = Σ_s (−1)^|s| C(m1,s) b⟨m1−s⟩(u1⟨m+s⟩v)
            (b, m1) = u.links[0]
            if m1 not in self._valid:
                raise ValueError(f"{u} is not a normal word: label {m1} is not valid")
            u1 = NormalWord(u.links[1:], u.tail, u.taild)
            out = self._link_sum(b, self._weights(m1), self.mul_words, u1, m, v)
        if self.check:
            ul, ug, ud = self._word_facts(u)
            vl, vg, vd = self._word_facts(v)
            self._audit(out, ul + vl, tuple(map(sum, zip(ug, m, vg))), ud and vd)
        self._words_memo[key] = out
        return out

    def mul_poly(self, p: ConfPoly, m: MultiIndex, q: ConfPoly) -> ConfPoly:
        out: dict = {}
        for u, cu in p.terms.items():
            for v, cv in q.terms.items():
                accumulate(out, self.mul_words(u, m, v).terms, cu * cv)
        return ConfPoly._raw(out)

    # -- expression trees -------------------------------------------------

    def normalize_tree(self, tree: ExprTree) -> ConfPoly:
        # a right-normed run g1<m1>(g2<m2>(... rest)) of bare generators in
        # range under valid labels prepends its links to rest's words at once
        run, zero, ngens = [], zero_index(self.sig.n), len(self.sig.generators)
        while (isinstance(tree, Node) and isinstance(tree.left, Leaf)
               and tree.left.dexp == zero and 0 <= tree.left.gen < ngens
               and tree.label in self._valid):
            run.append((tree.left.gen, tree.label))
            tree = tree.right
        if run:
            return self._prepend(tuple(run), self.normalize_tree(tree))
        if isinstance(tree, Leaf):
            if not 0 <= tree.gen < len(self.sig.generators):
                raise ValueError(f"leaf generator {tree.gen} is not in the signature")
            self._check_index("leaf derivation exponent", tree.dexp)
            return ConfPoly.from_word(NormalWord((), tree.gen, tree.dexp))
        if not isinstance(tree, Node):
            raise ValueError(f"expected a Leaf or a Node, got {tree!r}")
        left = self.normalize_tree(tree.left)
        right = self.normalize_tree(tree.right)
        self._check_index("node label", tree.label)
        return self.mul_poly(left, tree.label, right)

    def normalize(self, comb: LinComb) -> ConfPoly:
        out: dict = {}
        for coeff, tree in comb:
            accumulate(out, self.normalize_tree(tree).terms, exact(coeff))
        return ConfPoly._raw(out)

    # -- invariant auditing ------------------------------------------------

    def _word_facts(self, x: NormalWord) -> tuple[int, tuple[int, ...], bool]:
        """``(length, grades, D-free)`` of a word, validated once per word."""
        facts = self._facts.get(x)
        if facts is None:
            check_word(self.sig, x)
            facts = (x.length, tuple(x.grade(t) for t in range(self.sig.n)), x.is_dfree())
            self._facts[x] = facts
        return facts

    def _audit_prefix(self, out: ConfPoly, links: tuple, w: NormalWord) -> None:
        """Audit ``out`` as the product of the chain ``links`` with w."""
        for gen, _ in links:
            if not 0 <= gen < len(self.sig.generators):
                raise RuntimeError(f"engine audit: generator {gen} is not in the signature")
        length, grades, dfree = self._word_facts(w)
        for _, m in links:
            grades = tuple(map(add, m, grades))
        self._audit(out, len(links) + length, grades, dfree)

    def _audit(self, out: ConfPoly, length: int, grades: tuple[int, ...],
               dfree: bool) -> None:
        self.invariant_checks += 1
        for x in out.terms:
            facts = self._word_facts(x)
            if facts[0] != length or facts[1] != grades or (dfree and not facts[2]):
                raise RuntimeError(f"engine audit: {x} has (length, grades, D-free) "
                                   f"{facts}, expected {(length, grades, dfree)}")
