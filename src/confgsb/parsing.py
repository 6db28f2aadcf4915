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
its line, and in a file a line break ends an entry.  Parsing is strict:
unknown generators, index-arity mismatches, and stray tokens raise
:class:`ParseError` carrying the line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .indices import MultiIndex
from .words import (
    AlgebraSignature,
    ConfPoly,
    ExprTree,
    Leaf,
    LinComb,
    Node,
    NormalWord,
)

__all__ = [
    "ParseError",
    "Presentation",
    "parse_expression",
    "parse_index",
    "parse_presentation",
    "format_index",
    "format_word",
    "format_polynomial",
    "format_lincomb",
    "format_gen_combo",
]


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
# tokenizer


class _Token(NamedTuple):
    kind: str  # "int", "name", "end", or the punctuation text itself
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct><|>|\{|\}|\(|\)|\[|\]|:|,|\+|-|\*|/)"
    r"|(?P<bad>.)"
)


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[_Token]:
    """The tokens of ``text``, closed by an ``end`` token that sits just
    after the last real token, or at ``(line, col)`` when there is none."""
    out = []
    end = (line, col)
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        piece = m.group()
        if kind == "ws":
            newlines = piece.count("\n")
            if newlines:
                line += newlines
                col = len(piece) - piece.rfind("\n")
            else:
                col += len(piece)
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {piece!r}", line, col)
        if kind != "comment":
            # tuple.__new__ skips NamedTuple's Python-level __new__: 15% of this loop
            out.append(tuple.__new__(_Token, (piece if kind == "punct" else kind,
                                              piece, line, col)))
            end = (line, col + len(piece))
        col += len(piece)
    out.append(_Token("end", "", *end))
    return out


# --------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token],
                 sig: Optional[AlgebraSignature] = None):
        self.tokens = tokens  # closed by an "end" token, which is never consumed
        self.sig = sig  # None until a presentation's header has been read
        self.pos = 0

    # -- token plumbing --

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _accept(self, *kinds: str) -> Optional[_Token]:
        """Consume and return the next token if its kind is in ``kinds``."""
        tok = self.tokens[self.pos]
        if tok.kind not in kinds:
            return None
        self.pos += 1
        return tok

    def _expect(self, *kinds: str) -> _Token:
        tok = self._accept(*kinds)
        if tok is None:
            tok = self._peek()
            got = "end of input" if tok.kind == "end" else repr(tok.text)
            self._fail(f"expected {' or '.join(map(repr, kinds))}, got {got}")
        return tok

    def _fail(self, message: str):
        tok = self._peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_end(self) -> None:
        tok = self._peek()
        if tok.kind != "end":
            self._fail(f"unexpected trailing {tok.text!r}")

    # -- expressions --

    def parse_sum(self, body=None) -> LinComb:
        """A signed sum up to the end token; a lone ``0`` is the empty sum."""
        if self._peek().text == "0" and self.tokens[self.pos + 1].kind == "end":
            return []
        comb = self.parse_comb(body)
        self.expect_end()
        return comb

    def parse_comb(self, body=None) -> LinComb:
        """A signed sum of terms ``[coefficient] body``, where ``body`` is a
        grammar rule, a product by default."""
        body = body or _Parser.parse_product
        out: LinComb = []
        tok = self._accept("+", "-")
        while True:
            coeff = self.parse_coeff()
            if tok is not None and tok.kind == "-":
                coeff = -coeff
            for c, tree in body(self):
                out.append((coeff * c, tree))
            tok = self._accept("+", "-")
            if tok is None:
                return out

    def parse_coeff(self) -> Fraction:
        """An optional ``int``, ``int/int`` or either followed by ``*``."""
        tok = self._accept("int")
        if tok is None:
            return Fraction(1)
        coeff = Fraction(int(tok.text))
        if self._accept("/"):
            den_tok = self._expect("int")
            if int(den_tok.text) == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            coeff /= int(den_tok.text)
        self._accept("*")
        return coeff

    def parse_generator(self) -> LinComb:
        """A bare generator, without a derivation prefix or a product."""
        tok = self._accept("name")
        if tok is None:
            self._fail("expected a generator")
        return [(Fraction(1), Leaf(self._gen(tok), self.sig.zero_exp()))]

    def parse_product(self) -> LinComb:
        left = self.parse_atom()
        if self._accept("<"):
            m = self.parse_index_list(self.sig.n)
            self._expect(">")
            right = self.parse_product()  # chains associate to the right
            return [
                (cl * cr, Node(tl, m, tr))
                for cl, tl in left
                for cr, tr in right
            ]
        return left

    def parse_atom(self) -> LinComb:
        if self._accept("("):
            comb = self.parse_comb()
            self._expect(")")
            return comb
        tok = self._accept("name")
        if tok is None:
            self._fail("expected a generator or '('")
        if tok.text == "D" and self._accept("{"):
            dexp = self.parse_index_list(self.sig.n)
            self._expect("}")
            gen_tok = self._accept("name")
            if gen_tok is None:
                self._fail("derivation prefix requires a generator")
            return [(Fraction(1), Leaf(self._gen(gen_tok), dexp))]
        return [(Fraction(1), Leaf(self._gen(tok), self.sig.zero_exp()))]

    def parse_index_list(self, n: int) -> MultiIndex:
        open_tok = self._peek()
        entries = [int(self._expect("int").text)]
        while self._accept(","):
            entries.append(int(self._expect("int").text))
        if len(entries) != n:
            raise ParseError(f"index arity {len(entries)} does not match n = {n}",
                             open_tok.line, open_tok.col)
        return tuple(entries)

    def _gen(self, tok: _Token) -> int:
        """The generator a ``name`` token names or an ``int`` token indexes."""
        gens = self.sig.generators
        if tok.kind == "int" and int(tok.text) < len(gens):
            return int(tok.text)
        if tok.text not in gens:
            raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.col)
        return gens.index(tok.text)

    # -- presentation entries --

    def parse_list(self, kind: str) -> list[_Token]:
        """A whole ``[item, ...]`` header value over tokens of ``kind``."""
        self._expect("[")
        items = [self._expect(kind)]
        while self._accept(","):
            items.append(self._expect(kind))
        self._expect("]")
        self.expect_end()
        return items

    def parse_key(self, block: str) -> tuple[_Token, ...]:
        """An entry's key and colon: ``name:``, or in a ``lie`` block
        ``bracket(i, j):`` with ``i``, ``j`` generator names or indices."""
        key = (self._expect("name"),)
        if block == "lie":
            if key[0].text != "bracket":
                raise ParseError("lie entries must look like 'bracket(i, j): value'",
                                 key[0].line, key[0].col)
            self._expect("(")
            i = self._expect("name", "int")
            self._expect(",")
            key = (i, self._expect("name", "int"))
            self._expect(")")
        if not self._accept(":"):
            self._fail("expected 'key: value'")
        return key


def parse_expression(sig: AlgebraSignature, text: str,
                     line: int = 1, col: int = 1) -> LinComb:
    """Parse a linear combination of labelled products over ``sig``."""
    return _Parser(_tokenize(text, line, col), sig).parse_sum()


def parse_index(text: str, n: int) -> MultiIndex:
    """Parse a bare product label: ``1,0`` (also ``<1,0>`` or ``[1, 0]``)."""
    parser = _Parser(_tokenize(text))
    opener = parser._accept("<", "[")
    m = parser.parse_index_list(n)
    if opener is not None:
        parser._expect(">" if opener.kind == "<" else "]")
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


def _signed_sum(terms: Iterable[tuple[Fraction, str]], sep: str = " ") -> str:
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
        name = sig.generators[tree.gen]
        if any(tree.dexp):
            return f"D{{{format_index(tree.dexp)}}} {name}"
        return name
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
    relations: tuple[tuple[str, tuple[tuple[Fraction, ExprTree], ...]], ...]
    brackets: Optional[tuple[tuple[tuple[int, int], tuple[tuple[int, Fraction], ...]], ...]]

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
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    # block -> {entry key: its parser, left after the colon until the header is read}
    entries: dict[str, dict] = {}
    block: Optional[str] = None
    for lineno, line in enumerate(text.split("\n"), 1):
        tokens = _tokenize(line, lineno)
        first = tokens[0]
        if first.kind == "end":
            continue
        if len(tokens) == 2 and first.text in _BLOCKS:
            if first.text in entries:
                raise ParseError(f"duplicate {first.text!r} block", lineno, first.col)
            block = first.text
            entries[block] = {}
            continue
        if block is None:
            raise ParseError("expected a block header "
                             "('algebra', 'relations', or 'lie')", lineno, first.col)
        parser = _Parser(tokens)
        key = parser.parse_key(block)
        name = key[0].text
        if block == "lie":
            entries[block][key] = parser
        elif block == "algebra" and name not in _HEADER_KEYS:
            raise ParseError(f"unknown algebra key {name!r}", lineno, first.col)
        elif name in entries[block]:
            what = "algebra key" if block == "algebra" else "relation name"
            raise ParseError(f"duplicate {what} {name!r}", lineno, first.col)
        else:
            entries[block][name] = parser

    header = entries.get("algebra", {})
    for required in _HEADER_KEYS:
        if required not in header:
            raise ParseError(f"algebra block must define {required!r}")
    n_tok = header["n"]._expect("int")
    header["n"].expect_end()
    n = int(n_tok.text)
    if n < 1:
        raise ParseError("n must be at least 1", n_tok.line, n_tok.col)
    bounds = header["locality"].parse_list("int")
    if len(bounds) != n:
        raise ParseError(f"locality has {len(bounds)} entries for n = {n}",
                         bounds[0].line, bounds[0].col)
    if any(int(tok.text) < 1 for tok in bounds):
        raise ParseError("locality bounds must be positive", bounds[0].line)
    gens = header["generators"].parse_list("name")
    names = tuple(tok.text for tok in gens)
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator names", gens[0].line)
    sig = AlgebraSignature(n, tuple(int(tok.text) for tok in bounds), names)
    for parser in (p for parsers in entries.values() for p in parsers.values()):
        parser.sig = sig

    relations = tuple((name, tuple(parser.parse_sum()))
                      for name, parser in entries.get("relations", {}).items())
    brackets = None
    if "lie" in entries:
        table = {}
        for (ti, tj), parser in entries["lie"].items():
            key = parser._gen(ti), parser._gen(tj)
            if key in table:
                raise ParseError(f"duplicate bracket({ti.text}, {tj.text})",
                                 ti.line, ti.col)
            comb = parser.parse_sum(_Parser.parse_generator)
            table[key] = tuple((leaf.gen, c) for c, leaf in comb)
        brackets = tuple(sorted(table.items()))
    return Presentation(sig, relations, brackets)
