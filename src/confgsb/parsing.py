"""Concrete syntax: expression parsing, canonical printing, presentation files.

Expressions use angle-bracket products and brace derivation prefixes::

    a<0,0> a - a
    3/2 (a<1,0> a)<1,1> a + D{0,1} a

Unparenthesized product chains associate to the right; parentheses force any
other bracketing and may enclose whole linear combinations (products
distribute over them).  A ``D{...}`` prefix applies to the generator that
immediately follows it.

A presentation file holds one entry per line, in blocks in any order::

    algebra
      n: 2
      locality: [2, 2]
      generators: [a]

    relations
      f: a<0,0> a - a

    lie
      bracket(h, f): -2*f

A ``bracket(i, j)`` key names each generator or gives its index in the
``generators`` list.  The whole file, product labels such as ``1,0`` and
tail bounds are read with one token grammar: whitespace may sit between
any two tokens, a ``#`` comment may follow any token and runs to the end of
its line, and in a file a line break ends an entry.  A well-formed label
``<1, 0>`` or derivation exponent ``{0,1}`` is one token, whitespace but no
line break inside it allowed; any other is read as its pieces.  A file is
tokenized once, as a whole.  Parsing is strict:
unknown generators, index-arity mismatches, and stray tokens raise
:class:`ParseError` carrying the line and column.  A parsed coefficient is
an ``int`` when it is whole (``4/2`` reads as ``2``) and a ``Fraction``
otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .indices import MultiIndex
from .words import (
    AlgebraSignature,
    Coeff,
    ConfPoly,
    ExprTree,
    Leaf,
    LinComb,
    Node,
    NormalWord,
    exact,
)


class ParseError(ValueError):
    """Syntax or validation error with a source position."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            where += ": "
        super().__init__(where + message)


# --------------------------------------------------------------------------
# parser


# a token is an ASCII ``name``, a well-formed label ``<d, ..., d>`` or
# exponent ``{d, ..., d}`` (whitespace but no line break inside), an ``int``
# (``\d``, so any decimal digit), a line break or one punctuation character;
# any other label is read as its pieces
_LABEL = r"{o}[^\S\n]*\d+(?:[^\S\n]*,[^\S\n]*\d+)*[^\S\n]*{c}"
_TOKEN_RE = re.compile("|".join([r"[A-Za-z_][A-Za-z0-9_]*", _LABEL.format(o="<", c=">"),
                                 _LABEL.format(o="{", c="}"), r"\d+|[<>{}()\[\]:,+\-*/\n]"]))
_BAD_RE = re.compile(r"[^\s\dA-Za-z_<>{}()\[\]:,+\-*/]")
_COMMENT_RE = re.compile(r"#[^\n]*")
_KINDS = {"int": str.isdecimal, "name": str.isidentifier}


def _shown(tok: str) -> str:
    """A token as an error names it: a label by its opener."""
    return "end of input" if tok == "\n" else repr(tok[0] if tok[0] in "<{" else tok)


class _Parser:
    def __init__(self, text: str, line: int = 1, col: int = 1,
                 sig: Optional[AlgebraSignature] = None, lines: bool = False):
        """A parser of ``text``, which starts at ``line`` and ``col``.  With
        ``lines`` (a file) a line break is a token that ends an entry, else
        whitespace; one closes the tokens either way."""
        # a comment runs to the end of its line, so dropping it moves no
        # token's line or column
        self.text = text = _COMMENT_RE.sub("", text)
        self.origin = (line, col)
        bad = _BAD_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", *self._at(bad.start()))
        self.tokens = [tok for tok in _TOKEN_RE.findall(text) if lines or tok != "\n"] + ["\n"]
        self.sig = sig  # None until a presentation's header has been read
        self.pos = 0

    # -- token plumbing --

    def _at(self, offset: int) -> tuple[int, int]:
        """The line and column of ``self.text[offset]``."""
        newline = self.text.rfind("\n", 0, offset)
        if newline < 0:
            return self.origin[0], self.origin[1] + offset
        return self.origin[0] + self.text.count("\n", 0, offset), offset - newline

    def _where(self, k: int) -> tuple[int, int]:
        """The line and column of token ``k``; a line break, which ends the
        input or an entry, sits just after the token before it."""
        end = 0
        for tok in self.tokens[:k]:  # between tokens lies only whitespace
            if tok != "\n":
                end = self.text.index(tok, end) + len(tok)
        tok = self.tokens[k]
        return self._at(end if tok == "\n" else self.text.index(tok, end))

    def _accept(self, *texts: str) -> Optional[str]:
        """Consume and return the next token if it is one of ``texts``."""
        tok = self.tokens[self.pos]
        if tok not in texts:
            return None
        self.pos += 1
        return tok

    def _expect(self, *kinds: str) -> str:
        """Consume and return the next token, which must be of one of
        ``kinds``: ``"int"``, ``"name"`` or a punctuation text."""
        tok = self.tokens[self.pos]
        for kind in kinds:
            if _KINDS.get(kind, kind.__eq__)(tok):
                self.pos += 1
                return tok
        self._fail(f"expected {' or '.join(map(repr, kinds))}, got {_shown(tok)}")

    def _fail(self, message: str, k: Optional[int] = None):
        """Raise ``message`` at token ``k``, the next token by default."""
        raise ParseError(message, *self._where(self.pos if k is None else k))

    def expect_end(self) -> None:
        if self.tokens[self.pos] != "\n":
            self._fail(f"unexpected trailing {_shown(self.tokens[self.pos])}")

    # -- expressions --

    def parse_sum(self, body=None) -> LinComb:
        """A signed sum up to the end token; a lone ``0`` is the empty sum."""
        if self.tokens[self.pos] == "0" and self.tokens[self.pos + 1] == "\n":
            return []
        comb = self.parse_comb(body)
        self.expect_end()
        return comb

    def parse_comb(self, body=None) -> LinComb:
        """A signed sum of terms ``[coefficient] body``, where ``body`` is a
        grammar rule, a product by default."""
        body = body or _Parser.parse_product
        out: LinComb = []
        sign = self._accept("+", "-")
        while True:
            coeff = self.parse_coeff()
            if sign == "-":
                coeff = -coeff
            for c, tree in body(self):
                out.append((exact(coeff * c), tree))
            sign = self._accept("+", "-")
            if sign is None:
                return out

    def parse_coeff(self) -> Coeff:
        """An optional ``int``, ``int/int`` or either followed by ``*``;
        whole values are ``int``."""
        tok = self.tokens[self.pos]
        if not tok.isdecimal():
            return 1
        self.pos += 1
        coeff = int(tok)
        if self._accept("/"):
            den = int(self._expect("int"))
            if den == 0:
                self._fail("zero denominator", self.pos - 1)
            coeff = exact(Fraction(coeff, den))
        self._accept("*")
        return coeff

    def parse_generator(self) -> LinComb:
        """A bare generator, without a derivation prefix or a product."""
        if not self.tokens[self.pos].isidentifier():
            self._fail("expected a generator")
        self.pos += 1
        return [(1, Leaf(self._gen(self.pos - 1), (0,) * self.sig.n))]

    def parse_product(self) -> LinComb:
        """A chain ``a<m1> b<m2> c``, read in one loop and associated to the right."""
        chain = [self.parse_atom()]
        while self.tokens[self.pos][:1] == "<":
            chain += self.parse_label(self.sig.n), self.parse_atom()
        right = chain.pop()
        while chain:
            m, left = chain.pop(), chain.pop()
            right = [(exact(cl * cr), Node(tl, m, tr)) for cl, tl in left for cr, tr in right]
        return right

    def parse_atom(self) -> LinComb:
        tok = self.tokens[self.pos]
        if tok == "(":
            self.pos += 1
            comb = self.parse_comb()
            self._expect(")")
            return comb
        if not tok.isidentifier():
            self._fail("expected a generator or '('")
        self.pos += 1
        dexp = (0,) * self.sig.n
        if tok == "D" and self.tokens[self.pos][:1] == "{":
            dexp = self.parse_label(self.sig.n)
            if not self.tokens[self.pos].isidentifier():
                self._fail("derivation prefix requires a generator")
            self.pos += 1
        return [(1, Leaf(self._gen(self.pos - 1), dexp))]

    def parse_label(self, n: int) -> MultiIndex:
        """A label ``<m>`` or exponent ``{m}`` of ``n`` entries: one token when
        well formed, else an opener followed by the label's pieces."""
        tok = self.tokens[self.pos]
        self.pos += 1
        if len(tok) == 1:
            m = self.parse_index_list(n)
            self._expect(">" if tok == "<" else "}")
            return m
        m = tuple(map(int, tok[1:-1].split(",")))
        if len(m) != n:  # the error the pieces would give, at the first entry
            line, col = self._where(self.pos - 1)
            col += len(tok) - len(tok[1:].lstrip())
            raise ParseError(f"index arity {len(m)} does not match n = {n}", line, col)
        return m

    def parse_index_list(self, n: int) -> MultiIndex:
        start = self.pos
        entries = [int(self._expect("int"))]
        while self._accept(","):
            entries.append(int(self._expect("int")))
        if len(entries) != n:
            self._fail(f"index arity {len(entries)} does not match n = {n}", start)
        return tuple(entries)

    def _gen(self, k: int) -> int:
        """The generator that token ``k``, a ``name`` or an ``int``, names or
        indexes."""
        tok, gens = self.tokens[k], self.sig.generators
        if tok in gens:  # a name, as no name is decimal
            return gens.index(tok)
        if not tok.isdecimal() or int(tok) >= len(gens):
            self._fail(f"unknown generator {tok!r}", k)
        return int(tok)

    # -- presentation entries --

    def parse_list(self, kind: str) -> list[int]:
        """The positions of a whole ``[item, ...]`` header value's items,
        tokens of ``kind``."""
        self._expect("[")
        items: list[int] = []
        while not items or self._accept(","):
            items.append(self.pos)
            self._expect(kind)
        self._expect("]")
        self.expect_end()
        return items

    def parse_key(self, block: str) -> str:
        """An entry's key and colon: ``name:``, or in a ``lie`` block
        ``bracket(i, j):`` with ``i``, ``j`` generator names or indices,
        the entry's tokens 2 and 4."""
        key = self._expect("name")
        if block == "lie":
            if key != "bracket":
                self._fail("lie entries must look like 'bracket(i, j): value'", self.pos - 1)
            self._expect("(")
            self._expect("name", "int")
            self._expect(",")
            self._expect("name", "int")
            self._expect(")")
        if not self._accept(":"):
            self._fail("expected 'key: value'")
        return key


def parse_expression(sig: AlgebraSignature, text: str,
                     line: int = 1, col: int = 1) -> LinComb:
    """Parse a linear combination of labelled products over ``sig``."""
    return _Parser(text, line, col, sig).parse_sum()


def parse_index(text: str, n: int) -> MultiIndex:
    """Parse a bare product label: ``1,0`` (also ``<1,0>`` or ``[1, 0]``)."""
    parser = _Parser(text)
    bracket = parser._accept("[")
    m = parser.parse_label(n) if parser.tokens[0][:1] == "<" else parser.parse_index_list(n)
    if bracket:
        parser._expect("]")
    parser.expect_end()
    return m


# --------------------------------------------------------------------------
# canonical printing


def format_index(m: Sequence[int]) -> str:
    return ",".join(str(c) for c in m)


def format_word(sig: AlgebraSignature, w: NormalWord) -> str:
    parts = [f"{sig.generators[g]}<{format_index(m)}>" for g, m in w.links]
    tail = sig.generators[w.tail]
    if any(w.taild):
        tail = f"D{{{format_index(w.taild)}}} {tail}"
    parts.append(tail)
    return " ".join(parts)


def _signed_sum(terms: Iterable[tuple[Coeff, str]], sep: str = " ") -> str:
    """``c1 t1 - c2 t2 + ...`` over ``(coefficient, text)`` pairs, zero
    terms dropped and unit magnitudes left out; ``sep`` joins a magnitude to
    its text, and an empty sum prints ``0``."""
    out = []
    for coeff, body in terms:
        if coeff:
            mag = abs(coeff)
            out += (" - " if coeff < 0 else " + ", body if mag == 1 else f"{mag}{sep}{body}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def format_polynomial(sig: AlgebraSignature, p: ConfPoly) -> str:
    """Canonical text: terms strictly descending, reduced rational coefficients."""
    return _signed_sum((c, format_word(sig, w)) for w, c in p.items_desc())


def _format_tree(sig: AlgebraSignature, tree: ExprTree) -> str:
    if isinstance(tree, Leaf):
        return format_word(sig, NormalWord((), tree.gen, tree.dexp))
    left = _format_tree(sig, tree.left)
    if isinstance(tree.left, Node):
        left = f"({left})"
    right = _format_tree(sig, tree.right)
    return f"{left}<{format_index(tree.label)}> {right}"


def format_lincomb(sig: AlgebraSignature, comb) -> str:
    """Canonical text for a parsed (unnormalized) linear combination."""
    return _signed_sum((c, _format_tree(sig, tree)) for c, tree in comb)


def format_gen_combo(sig: AlgebraSignature, entries) -> str:
    """Canonical text for a bracket value: ``2*e - h`` over generators."""
    return _signed_sum(((c, sig.generators[k]) for k, c in entries), "*")


# --------------------------------------------------------------------------
# presentation files


@dataclass(frozen=True)
class Presentation:
    """A parsed presentation file: signature, named relations, bracket table."""

    signature: AlgebraSignature
    relations: tuple[tuple[str, tuple[tuple[Coeff, ExprTree], ...]], ...]
    brackets: Optional[tuple[tuple[tuple[int, int], tuple[tuple[int, Coeff], ...]], ...]]

    def canonical(self) -> str:
        sig = self.signature
        lines = [
            "algebra",
            f"  n: {sig.n}",
            f"  locality: [{', '.join(str(b) for b in sig.locality)}]",
            f"  generators: [{', '.join(sig.generators)}]",
        ]
        if self.relations:
            lines += ["", "relations"]
            for name, comb in self.relations:
                lines.append(f"  {name}: {format_lincomb(sig, comb)}")
        if self.brackets is not None:
            lines += ["", "lie"]
            for (i, j), entries in self.brackets:
                key = f"bracket({sig.generators[i]}, {sig.generators[j]})"
                lines.append(f"  {key}: {format_gen_combo(sig, entries)}")
        return "\n".join(lines) + "\n"


_BLOCKS = ("algebra", "relations", "lie")
_HEADER_KEYS = ("n", "locality", "generators")


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file (see the module docstring for the grammar)."""
    text = _COMMENT_RE.sub("", text.replace("\r\n", "\n").replace("\r", "\n"))
    # the entries before the line of the first bad character are read first
    bad = _BAD_RE.search(text)
    cut = text.rfind("\n", 0, bad.start()) + 1 if bad else len(text)
    parser = _Parser(text[:cut], lines=True)
    tokens = parser.tokens
    # block -> {entry name, or a lie entry's first token: its value's first token}
    entries: dict[str, dict] = {}
    block, end = None, -1
    while end + 1 < len(tokens):
        start, end = end + 1, tokens.index("\n", end + 1)  # a line's tokens
        if end == start + 1 and tokens[start] in _BLOCKS:
            block = tokens[start]
            if block in entries:
                parser._fail(f"duplicate {block!r} block", start)
            entries[block] = {}
            continue
        if start == end:
            continue
        if block is None:
            parser._fail("expected a block header ('algebra', 'relations', or 'lie')", start)
        parser.pos = start
        name = parser.parse_key(block)
        if block == "lie":
            entries[block][start] = parser.pos
        elif block == "algebra" and name not in _HEADER_KEYS:
            parser._fail(f"unknown algebra key {name!r}", start)
        elif name in entries[block]:
            what = "algebra key" if block == "algebra" else "relation name"
            parser._fail(f"duplicate {what} {name!r}", start)
        else:
            entries[block][name] = parser.pos
    if bad:
        _Parser(text[cut:], text.count("\n", 0, cut) + 1)  # raises at that character

    header = entries.get("algebra", {})
    for required in _HEADER_KEYS:
        if required not in header:
            raise ParseError(f"algebra block must define {required!r}")
    parser.pos = header["n"]
    n = int(parser._expect("int"))
    parser.expect_end()
    if n < 1:
        parser._fail("n must be at least 1", header["n"])
    parser.pos = header["locality"]
    items = parser.parse_list("int")
    if len(items) != n:
        parser._fail(f"locality has {len(items)} entries for n = {n}", items[0])
    bounds = tuple(int(tokens[k]) for k in items)
    if 0 in bounds:  # the items are decimal, so 0 is the one bound below 1
        parser._fail("locality bounds must be positive", items[bounds.index(0)])
    names: list[str] = []
    parser.pos = header["generators"]
    for k in parser.parse_list("name"):
        if tokens[k] in names:
            parser._fail(f"duplicate generator name {tokens[k]!r}", k)
        names.append(tokens[k])
    parser.sig = sig = AlgebraSignature(n, bounds, tuple(names))

    relations = tuple((name, tuple(parser.parse_sum()))  # each read from its entry's value
                      for name, parser.pos in entries.get("relations", {}).items())
    brackets = None
    if "lie" in entries:
        table = {}
        for start, parser.pos in entries["lie"].items():
            key = parser._gen(start + 2), parser._gen(start + 4)
            if key in table:
                i, j = tokens[start + 2], tokens[start + 4]
                parser._fail(f"duplicate bracket({i}, {j})", start + 2)
            comb = parser.parse_sum(_Parser.parse_generator)
            table[key] = tuple((leaf.gen, c) for c, leaf in comb)
        brackets = tuple(sorted(table.items()))
    return Presentation(sig, relations, brackets)
