"""Checkers that work apart from the code they check.

Words are plain tuples ``(links, tail, taild)`` with ``links`` a tuple of
``(generator, label)`` pairs; a ``confgsb`` ``NormalWord`` is a named tuple
of the same shape, so the two compare equal.  Polynomials are dicts from
words to ``Fraction``.  Nothing here calls into ``confgsb`` except to build
``Leaf``/``Node`` trees for the reference oracle ``naive_normalize``.
"""

from __future__ import annotations

import re
from fractions import Fraction

# -- the golden presentation a<0,0> a - a at locality (2,2), written by hand --

_Z = (0, 0)


def _w(*labels):
    """The D-free word a<l1> a<l2> ... a over the single generator a = 0."""
    return (tuple((0, m) for m in labels), 0, _Z)


A = _w()
GOLDEN_LEADS = (
    _w((0, 0)),
    _w((0, 1), (0, 1)),
    _w((1, 1), (0, 1)),
    _w((1, 0), (1, 0)),
    _w((1, 1), (1, 0)),
    _w((1, 1), (1, 1)),
)
GOLDEN_RELATIONS = (
    {_w((0, 0)): Fraction(1), A: Fraction(-1)},
    {_w((0, 1), (0, 1)): Fraction(1)},
    {_w((1, 1), (0, 1)): Fraction(1)},
    {_w((1, 0), (1, 0)): Fraction(1)},
    {_w((1, 1), (1, 0)): Fraction(1)},
    {_w((1, 1), (1, 1)): Fraction(1)},
)


def golden_basis_words(max_length: int) -> set:
    """Closed form of the irreducible D-free words of the golden basis.

    One word of length 1, three of length 2 and four of every length >= 3:
    the label sequences alternate <1,0>/<0,1>, may end in <1,1>, and never
    use <0,0>.
    """
    out = {A} if max_length >= 1 else set()
    for length in range(2, max_length + 1):
        k = length - 1
        for first in ((1, 0), (0, 1)):
            alt = [first if i % 2 == 0 else first[::-1] for i in range(k)]
            out.add(_w(*alt))
            out.add(_w(*(alt[:k - 1] + [(1, 1)])))
    return out


# -- the word order, leading words and homogeneity ------------------------------


def weight_key(w) -> tuple:
    """Length, then generators and labels left to right, then the tail."""
    links, tail, taild = w
    key = [len(links) + 1]
    for g, m in links:
        key.append(g)
        key.extend(m)
    key.append(tail)
    key.extend(taild)
    return tuple(key)


def leading_word(poly: dict):
    return max(poly, key=weight_key)


def grade(w, t: int) -> int:
    """Label sum minus tail exponent in coordinate t."""
    links, _, taild = w
    return sum(m[t] for _, m in links) - taild[t]


def is_homogeneous(poly: dict, n: int) -> bool:
    """All words share one length and one grade in every coordinate."""
    shapes = {(len(w[0]),) + tuple(grade(w, t) for t in range(n)) for w in poly}
    return len(shapes) == 1


# -- occurrence scan ----------------------------------------------------------------


def contains_pattern(w, lead) -> bool:
    """Does the leading word ``lead`` occur in ``w``?

    A D-free pattern may sit anywhere: its generators and inner labels
    match a segment of ``w``, followed by a link or ending the word (then
    ``w``'s tail exponent is at least the pattern's, which is zero).  A
    pattern with a tail exponent may only end the word, below ``w``'s tail.
    """
    wl, wt, wd = w
    pl, pt, pd = lead
    wg = [g for g, _ in wl] + [wt]
    pg = [g for g, _ in pl] + [pt]
    L = len(pg)
    last = len(wg) - L
    dfree = not any(pd)
    for p in range(0, last + 1):
        if p < last and not dfree:
            continue
        if wg[p:p + L] != pg:
            continue
        if any(wl[p + r][1] != pl[r][1] for r in range(L - 1)):
            continue
        if p == last and any(a < b for a, b in zip(wd, pd)):
            continue
        return True
    return False


# -- trees for the oracle ---------------------------------------------------------


def word_tree(w, Leaf, Node, n: int):
    """The right-normed product tree g1<m1>(g2<m2>(... D^i g_k))."""
    links, tail, taild = w
    tree = Leaf(tail, tuple(taild))
    for g, m in reversed(links):
        tree = Node(Leaf(g, (0,) * n), tuple(m), tree)
    return tree


# -- text: expressions in, normal-form polynomials out -----------------------------


def word_text(w, gens) -> str:
    links, tail, taild = w
    parts = [f"{gens[g]}<{','.join(map(str, m))}>" for g, m in links]
    head = f"D{{{','.join(map(str, taild))}}} " if any(taild) else ""
    return " ".join(parts + [head + gens[tail]])


def coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(poly: dict, gens) -> str:
    """An expression for ``poly``; any term order parses to the same value."""
    if not poly:
        return "0"
    out = []
    for w, c in sorted(poly.items(), key=lambda wc: weight_key(wc[0])):
        out.append("-" if c < 0 else "+")
        out.append(f"{coeff_text(abs(c))} {word_text(w, gens)}")
    return " ".join(out).lstrip("+ ")


_LINK = re.compile(r"([A-Za-z_]\w*)<(\d+(?:,\d+)*)>\Z")
_DEXP = re.compile(r"D\{(\d+(?:,\d+)*)\}\Z")
_COEFF = re.compile(r"(\d+)(?:/(\d+))?\Z")


def parse_normal_form(text: str, gens, n: int) -> dict:
    """Read the CLI's printed normal form: ``c w + c w - ...`` or ``0``."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split()
    out: dict = {}
    sign, i = 1, 0
    if tokens[0] == "-":
        sign, i = -1, 1
    elif tokens[0].startswith("-"):
        tokens[0] = tokens[0][1:]
        sign = -1
    while i < len(tokens):
        coeff = Fraction(1)
        m = _COEFF.match(tokens[i])
        if m:
            coeff = Fraction(int(m.group(1)), int(m.group(2) or 1))
            i += 1
        links = []
        while (m := _LINK.match(tokens[i])):
            links.append((gens.index(m.group(1)), tuple(map(int, m.group(2).split(",")))))
            i += 1
        taild = (0,) * n
        if (m := _DEXP.match(tokens[i])):
            taild = tuple(map(int, m.group(1).split(",")))
            i += 1
        w = (tuple(links), gens.index(tokens[i]), taild)
        i += 1
        if w in out or len(taild) != n:
            raise ValueError(f"malformed normal form {text!r}")
        out[w] = sign * coeff
        if i < len(tokens):
            if tokens[i] not in "+-":
                raise ValueError(f"malformed normal form {text!r}")
            sign = 1 if tokens[i] == "+" else -1
            i += 1
    return out
