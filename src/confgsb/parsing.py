"""Concrete syntax: expression parsing, canonical printing, presentation files.

Expressions use angle-bracket products and brace derivation prefixes::

    a<0,0> a - a
    3/2 (a<1,0> a)<1,1> a + D{0,1} a

Unparenthesized product chains associate to the right; parentheses force any
other bracketing and may enclose whole linear combinations (products
distribute over them).  A ``D{...}`` prefix applies to the generator that
immediately follows it.

A presentation file is line oriented, with ``#`` comments::

    algebra
      n: 2
      locality: [2, 2]
      generators: [a]

    relations
      f: a<0,0> a - a

    lie
      bracket(h, f): -2*f

Parsing is strict: unknown generators, index-arity mismatches, and stray
tokens raise :class:`ParseError` carrying the line and column.
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

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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
            out.append(_Token(piece if kind == "punct" else kind, piece, line, col))
            end = (line, col + len(piece))
        col += len(piece)
    out.append(_Token("end", "", *end))
    return out


# --------------------------------------------------------------------------
# expression parser


class _Parser:
    def __init__(self, tokens: list[_Token], sig: AlgebraSignature):
        self.tokens = tokens  # closed by an "end" token, which is never consumed
        self.sig = sig
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

    def _expect(self, kind: str) -> _Token:
        tok = self._accept(kind)
        if tok is None:
            tok = self._peek()
            got = "end of input" if tok.kind == "end" else repr(tok.text)
            self._fail(f"expected {kind!r}, got {got}")
        return tok

    def _fail(self, message: str):
        tok = self._peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_end(self) -> None:
        tok = self._peek()
        if tok.kind != "end":
            self._fail(f"unexpected trailing {tok.text!r}")

    # -- grammar --

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
        if self._peek().kind == "<":
            m = self.parse_angle_index()
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
            dexp = self.parse_index_list()
            self._expect("}")
            gen_tok = self._accept("name")
            if gen_tok is None:
                self._fail("derivation prefix requires a generator")
            return [(Fraction(1), Leaf(self._gen(gen_tok), dexp))]
        return [(Fraction(1), Leaf(self._gen(tok), self.sig.zero_exp()))]

    def parse_angle_index(self) -> MultiIndex:
        self._expect("<")
        m = self.parse_index_list()
        self._expect(">")
        return m

    def parse_index_list(self) -> MultiIndex:
        open_tok = self._peek()
        entries = [int(self._expect("int").text)]
        while self._accept(","):
            entries.append(int(self._expect("int").text))
        if len(entries) != self.sig.n:
            raise ParseError(
                f"index arity {len(entries)} does not match n = {self.sig.n}",
                open_tok.line, open_tok.col)
        return tuple(entries)

    def _gen(self, tok: _Token) -> int:
        if tok.text not in self.sig.generators:
            raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.col)
        return self.sig.gen_index(tok.text)


def _parse_comb(sig: AlgebraSignature, text: str, line: int, col: int,
                body=None) -> LinComb:
    tokens = _tokenize(text, line, col)
    if len(tokens) == 2 and tokens[0].text == "0":
        return []  # the zero polynomial prints as "0"
    parser = _Parser(tokens, sig)
    comb = parser.parse_comb(body)
    parser.expect_end()
    return comb


def parse_expression(sig: AlgebraSignature, text: str,
                     line: int = 1, col: int = 1) -> LinComb:
    """Parse a linear combination of labelled products over ``sig``."""
    return _parse_comb(sig, text, line, col)


def parse_index(text: str, n: int) -> MultiIndex:
    """Parse a bare product label: ``1,0`` (also ``<1,0>`` or ``[1, 0]``)."""
    body = text.strip()
    for opener, closer in (("<", ">"), ("[", "]")):
        if body.startswith(opener) and body.endswith(closer):
            body = body[1:-1]
            break
    parts = [p.strip() for p in body.split(",")]
    if not all(re.fullmatch(r"\d+", p) for p in parts):
        raise ParseError(f"malformed index {text!r}")
    entries = tuple(int(p) for p in parts)
    if len(entries) != n:
        raise ParseError(f"index arity {len(entries)} does not match n = {n}")
    return entries


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
            lines.append("")
            lines.append("relations")
            for name, comb in self.relations:
                lines.append(f"  {name}: {format_lincomb(sig, comb)}")
        if self.brackets is not None:
            lines.append("")
            lines.append("lie")
            for (i, j), entries in self.brackets:
                key = f"bracket({sig.generators[i]}, {sig.generators[j]})"
                lines.append(f"  {key}: {format_gen_combo(sig, entries)}")
        return "\n".join(lines) + "\n"


_BRACKET_KEY_RE = re.compile(
    r"bracket\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)\Z")


def _parse_int(value: str, line: int, what: str) -> int:
    if not re.fullmatch(r"\d+", value.strip()):
        raise ParseError(f"{what} must be a nonnegative integer", line)
    return int(value)


def _parse_name_list(value: str, line: int, what: str) -> list[str]:
    body = value.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError(f"{what} must be a [ ... ] list", line)
    inner = body[1:-1].strip()
    if not inner:
        raise ParseError(f"{what} must not be empty", line)
    return [p.strip() for p in inner.split(",")]


def _resolve_gen(sig: AlgebraSignature, text: str, line: int) -> int:
    if re.fullmatch(r"\d+", text):
        idx = int(text)
        if idx >= len(sig.generators):
            raise ParseError(f"generator index {idx} out of range", line)
        return idx
    if text not in sig.generators:
        raise ParseError(f"unknown generator {text!r}", line)
    return sig.gen_index(text)


def _parse_gen_combo(sig: AlgebraSignature, text: str, line: int,
                     col: int) -> tuple[tuple[int, Fraction], ...]:
    """A bracket value: the expression grammar with bare generators as terms."""
    comb = _parse_comb(sig, text, line, col, _Parser.parse_generator)
    return tuple((leaf.gen, c) for c, leaf in comb)


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file (see the module docstring for the grammar)."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    header: dict[str, tuple[str, int]] = {}
    raw_relations: list[tuple[str, str, int, int]] = []
    raw_brackets: list[tuple[str, str, str, int, int]] = []
    seen_blocks: set[str] = set()
    current: Optional[str] = None

    for lineno, raw in enumerate(text.split("\n"), 1):
        body = raw.split("#", 1)[0]
        stripped = body.strip()
        if not stripped:
            continue
        if stripped in ("algebra", "relations", "lie"):
            if stripped in seen_blocks:
                raise ParseError(f"duplicate {stripped!r} block", lineno)
            seen_blocks.add(stripped)
            current = stripped
            continue
        if current is None:
            raise ParseError("expected a block header "
                             "('algebra', 'relations', or 'lie')", lineno)
        if ":" not in body:
            raise ParseError("expected 'key: value'", lineno)
        key, value = body.split(":", 1)
        value_col = len(key) + 2
        key = key.strip()
        if current == "algebra":
            if key not in ("n", "locality", "generators"):
                raise ParseError(f"unknown algebra key {key!r}", lineno)
            if key in header:
                raise ParseError(f"duplicate algebra key {key!r}", lineno)
            header[key] = (value, lineno)
        elif current == "relations":
            if not _NAME_RE.fullmatch(key):
                raise ParseError(f"invalid relation name {key!r}", lineno)
            if any(key == name for name, *_ in raw_relations):
                raise ParseError(f"duplicate relation name {key!r}", lineno)
            raw_relations.append((key, value, lineno, value_col))
        else:
            m = _BRACKET_KEY_RE.fullmatch(key)
            if m is None:
                raise ParseError("lie entries must look like "
                                 "'bracket(i, j): value'", lineno)
            raw_brackets.append((m.group(1), m.group(2), value, lineno, value_col))

    for required in ("n", "locality", "generators"):
        if required not in header:
            raise ParseError(f"algebra block must define {required!r}")

    n = _parse_int(header["n"][0], header["n"][1], "n")
    if n < 1:
        raise ParseError("n must be at least 1", header["n"][1])
    loc_items = _parse_name_list(header["locality"][0], header["locality"][1],
                                 "locality")
    locality = tuple(_parse_int(item, header["locality"][1], "locality entry")
                     for item in loc_items)
    if len(locality) != n:
        raise ParseError(f"locality has {len(locality)} entries for n = {n}",
                         header["locality"][1])
    if any(b < 1 for b in locality):
        raise ParseError("locality bounds must be positive",
                         header["locality"][1])
    gen_items = _parse_name_list(header["generators"][0],
                                 header["generators"][1], "generators")
    for name in gen_items:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"invalid generator name {name!r}",
                             header["generators"][1])
    if len(set(gen_items)) != len(gen_items):
        raise ParseError("duplicate generator names",
                         header["generators"][1])
    sig = AlgebraSignature(n, locality, tuple(gen_items))

    relations = tuple(
        (name, tuple(parse_expression(sig, value, lineno, value_col)))
        for name, value, lineno, value_col in raw_relations
    )

    brackets = None
    if "lie" in seen_blocks:
        table = {}
        for gi, gj, value, lineno, value_col in raw_brackets:
            i = _resolve_gen(sig, gi, lineno)
            j = _resolve_gen(sig, gj, lineno)
            if (i, j) in table:
                raise ParseError(f"duplicate bracket({gi}, {gj})", lineno)
            table[i, j] = _parse_gen_combo(sig, value, lineno, value_col)
        brackets = tuple(sorted(table.items()))

    return Presentation(sig, relations, brackets)
