"""Grammar round trips: expressions, normal-form printing, presentation files."""

import random
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from confgsb import parsing
from confgsb.engine import Engine
from confgsb.parsing import (
    ParseError,
    Presentation,
    format_index,
    format_polynomial,
    format_word,
    parse_expression,
    parse_index,
    parse_presentation,
)
from confgsb.indices import MultiIndex, zero_index
from confgsb.words import AlgebraSignature, ConfPoly, Leaf, LinComb, Node, NormalWord

SIG = AlgebraSignature(2, (2, 2), ("a",))
SIG2 = AlgebraSignature(2, (2, 2), ("a", "b"))
ENG = Engine(SIG)
ENG2 = Engine(SIG2)

A = Leaf(0, (0, 0))


def one(tree):
    return [(Fraction(1), tree)]


# --- expressions --------------------------------------------------------------


def test_parse_difference():
    assert parse_expression(SIG, "a<0,0> a - a") == [
        (Fraction(1), Node(A, (0, 0), A)),
        (Fraction(-1), A),
    ]


def test_parse_parenthesized_left_nesting():
    assert parse_expression(SIG, "(a<1,0> a)<1,0> a") == one(
        Node(Node(A, (1, 0), A), (1, 0), A))


def test_parse_derivation_prefix():
    assert parse_expression(SIG, "D{1,0} a <1,0> a") == one(
        Node(Leaf(0, (1, 0)), (1, 0), A))


def test_parse_chain_is_right_normed():
    assert parse_expression(SIG, "a<0,0> a<1,0> a") == one(
        Node(A, (0, 0), Node(A, (1, 0), A)))


def test_parse_coefficients():
    assert parse_expression(SIG, "4 a<1,1> a") == [
        (Fraction(4), Node(A, (1, 1), A))]
    assert parse_expression(SIG, "3/2 a + 2*a") == [
        (Fraction(3, 2), A), (Fraction(2), A)]
    assert parse_expression(SIG, "-a - 1/3 a") == [
        (Fraction(-1), A), (Fraction(-1, 3), A)]


def test_parse_distributes_parenthesized_combinations():
    got = parse_expression(SIG, "(a - a<0,0> a)<1,1> a")
    assert got == [
        (Fraction(1), Node(A, (1, 1), A)),
        (Fraction(-1), Node(Node(A, (0, 0), A), (1, 1), A)),
    ]


def test_parse_two_generator_names():
    got = parse_expression(SIG2, "b<0,1> D{1,0} a")
    assert got == one(Node(Leaf(1, (0, 0)), (0, 1), Leaf(0, (1, 0))))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("c", "unknown generator"),
        ("a<0> a", "index arity"),
        ("a<0,0,0> a", "index arity"),
        ("D{1} a", "index arity"),
        ("a +", "expected a generator"),
        ("a a", "unexpected trailing"),
        ("3/0 a", "zero denominator"),
        ("D{0,1} (a<0,0> a)", "derivation prefix requires a generator"),
        ("(a<0,0> a", "expected ')'"),
        ("a<0,0>", "expected a generator"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_expression(SIG, text)
    assert fragment in str(info.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_expression(SIG, "a<0,0> c")
    assert info.value.line == 1
    assert info.value.col == 8


@pytest.mark.parametrize(
    "text, start, where, message",
    [
        ("", (3, 5), (3, 5), "expected a generator or '('"),
        ("   # only a comment", (1, 1), (1, 1), "expected a generator or '('"),
        ("a<0,0>", (1, 1), (1, 7), "expected a generator or '('"),
        ("a +   # note", (1, 1), (1, 4), "expected a generator or '('"),
        ("a<0,\n  ", (1, 1), (1, 5), "expected 'int', got end of input"),
        ("(a\n + a", (2, 4), (3, 5), "expected ')', got end of input"),
        ("D{0,1}", (1, 1), (1, 7), "derivation prefix requires a generator"),
        ("3/", (1, 1), (1, 3), "expected 'int', got end of input"),
    ],
)
def test_end_of_input_error_position(text, start, where, message):
    # reported just after the last token, or at the start when there is none
    with pytest.raises(ParseError) as info:
        parse_expression(SIG, text, *start)
    assert (info.value.line, info.value.col, info.value.message) == (*where, message)


def test_parse_index_forms():
    assert parse_index("1,0", 2) == (1, 0)
    assert parse_index("<1,0>", 2) == (1, 0)
    assert parse_index("[1, 0]", 2) == (1, 0)
    assert parse_index(" < 1 , 0 > ", 2) == (1, 0)
    with pytest.raises(ParseError):
        parse_index("1,0,0", 2)
    with pytest.raises(ParseError):
        parse_index("x,0", 2)
    for text, where, fragment in [
        ("<1,0]", (1, 5), "expected '>', got ']'"),
        ("", (1, 1), "expected 'int', got end of input"),
        ("1, x", (1, 4), "expected 'int', got 'x'"),
        ("1", (1, 1), "index arity 1 does not match n = 2"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_index(text, 2)
        assert (info.value.line, info.value.col) == where
        assert fragment in str(info.value)


# --- normal-form printing -----------------------------------------------------


def test_format_polynomial_frozen():
    f = ENG.normalize(parse_expression(SIG, "a<0,0> a - a"))
    assert format_polynomial(SIG, f) == "a<0,0> a - a"
    assert format_polynomial(SIG, ConfPoly.zero()) == "0"
    s4 = ConfPoly.from_word(NormalWord(((0, (1, 1)), (0, (1, 1))), 0, (0, 0)), 4)
    assert format_polynomial(SIG, s4) == "4 a<1,1> a<1,1> a"


def test_format_polynomial_signs_and_fractions():
    p = (ConfPoly.from_word(NormalWord(((0, (1, 0)),), 0, (0, 0)), Fraction(-3, 2))
         + ConfPoly.from_word(NormalWord((), 0, (1, 0)), Fraction(1, 3)))
    assert format_polynomial(SIG, p) == "-3/2 a<1,0> a + 1/3 D{1,0} a"
    aa, a = NormalWord(((0, (1, 0)),), 0, (0, 0)), NormalWord((), 0, (0, 0))
    assert format_polynomial(SIG, ConfPoly({aa: 1, a: Fraction(-2)})) == "a<1,0> a - 2 a"
    assert format_polynomial(SIG, ConfPoly({aa: 0, a: Fraction(-1, 2)})) == "-1/2 a"
    assert format_polynomial(SIG, ConfPoly({aa: 0, a: Fraction(0)})) == "0"


def test_format_word_tail_derivation():
    w = NormalWord(((0, (1, 1)),), 1, (0, 1))
    assert format_word(SIG2, w) == "a<1,1> D{0,1} b"
    assert format_index((2, 0)) == "2,0"


# --- property: print-then-parse returns the polynomial -------------------------

_coeffs = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)


@st.composite
def _valid_words(draw):
    length = draw(st.integers(min_value=1, max_value=3))
    gens = [draw(st.integers(min_value=0, max_value=1)) for _ in range(length)]
    labels = [
        (draw(st.integers(min_value=0, max_value=1)),
         draw(st.integers(min_value=0, max_value=1)))
        for _ in range(length - 1)
    ]
    taild = (draw(st.integers(min_value=0, max_value=2)),
             draw(st.integers(min_value=0, max_value=2)))
    return NormalWord(tuple(zip(gens[:-1], labels)), gens[-1], taild)


@given(st.lists(st.tuples(_valid_words(), _coeffs), min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip(pairs):
    p = ConfPoly.zero()
    for w, c in pairs:
        p = p.add_scaled(ConfPoly.from_word(w), c)
    text = format_polynomial(SIG2, p)
    assert ENG2.normalize(parse_expression(SIG2, text)) == p
    # canonical text is itself a fixed point of format∘normalize∘parse
    assert format_polynomial(
        SIG2, ENG2.normalize(parse_expression(SIG2, text))) == text


# --- presentation files ---------------------------------------------------------

GOLDEN_FILE = """\
# one generator, completion seed
algebra
  n: 2
  locality: [2, 2]
  generators: [a]

relations
  f: a<0,0> a - a
"""

SL2_FILE = """\
algebra
  n: 2
  locality: [1, 1]
  generators: [f, h, e]

lie
  bracket(h, f): -2*f
  bracket(e, f): h
  bracket(e, h): -2*e
"""


def test_parse_presentation_golden():
    pres = parse_presentation(GOLDEN_FILE)
    assert pres.signature == SIG
    assert pres.brackets is None
    assert len(pres.relations) == 1
    name, comb = pres.relations[0]
    assert name == "f"
    assert ENG.normalize(list(comb)) == ENG.normalize(
        parse_expression(SIG, "a<0,0> a - a"))


def test_parse_presentation_lie_block():
    pres = parse_presentation(SL2_FILE)
    assert pres.signature.generators == ("f", "h", "e")
    assert pres.brackets == (
        ((1, 0), ((0, Fraction(-2)),)),
        ((2, 0), ((1, Fraction(1)),)),
        ((2, 1), ((2, Fraction(-2)),)),
    )


def test_a_parenthesized_derived_leaf_reads_as_the_bare_one():
    # a derivation prefix binds to the generator after it, so parentheses
    # around a derived leaf on the left of a product change nothing
    src = ("algebra\n  n: 2\n  locality: [2, 2]\n  generators: [a]\n\nrelations\n"
           "  r: a<0,0> D{1,0} a - 2 D{1,0} a + LEFT<1,0> a\n")
    assert (parse_presentation(src.replace("LEFT", "(D{0,1} a)"))
            == parse_presentation(src.replace("LEFT", "D{0,1} a")))


def test_presentation_bracket_value_zero_and_indices():
    src = SL2_FILE.replace("bracket(h, f): -2*f", "bracket(1, 0): 0")
    pres = parse_presentation(src)
    assert pres.brackets[0] == ((1, 0), ())


@pytest.mark.parametrize(
    "value, fragment",
    [
        ("3/0 e", "zero denominator"),
        ("e<0,0> f", "unexpected trailing '<'"),
        ("D{1,0} e", "unknown generator 'D'"),
        ("e +", "expected a generator"),
        ("(e + f)", "expected a generator"),
        ("2 * * e", "expected a generator"),
        ("", "expected a generator"),
        ("x", "unknown generator 'x'"),
    ],
)
def test_presentation_rejects_bad_bracket_values(value, fragment):
    # a bracket value is a signed sum of bare, underived generators
    src = SL2_FILE.replace("bracket(e, f): h", f"bracket(e, f): {value}")
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert info.value.line == 8  # the bracket(e, f) line in SL2_FILE
    assert fragment in str(info.value)


def test_presentation_bracket_value_coefficients():
    src = SL2_FILE.replace("bracket(e, f): h", "bracket(e, f): -3/6 h + 2 * f - e")
    pres = parse_presentation(src)
    assert pres.brackets[1] == (
        (2, 0), ((1, Fraction(-1, 2)), (0, Fraction(2)), (2, Fraction(-1))))


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda s: s.replace("n: 2", "n: 0"), "at least 1"),
        (lambda s: s.replace("locality: [2, 2]", "locality: [2]"), "locality has 1"),
        (lambda s: s.replace("generators: [a]", "generators: [a, a]"), "duplicate generator"),
        (lambda s: s.replace("  f: a<0,0> a - a", "  f a<0,0> a - a"), "key: value"),
        (lambda s: s + "relations\n  g: a\n", "duplicate 'relations'"),
        (lambda s: s.replace("algebra\n", ""), "block header"),
        (lambda s: s.replace("relations", "stuff"), "key: value"),
        (lambda s: s.replace("  f:", "  f:").replace("a<0,0> a - a", "q"), "unknown generator"),
    ],
)
def test_presentation_errors(mangle, fragment):
    with pytest.raises(ParseError) as info:
        parse_presentation(mangle(GOLDEN_FILE))
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "src, old, new, where, fragment",
    [
        (GOLDEN_FILE, "n: 2", "n: x", (3, 6), "expected 'int', got 'x'"),
        (GOLDEN_FILE, "[2, 2]", "[2 2]", (4, 16), "expected ']', got '2'"),
        (GOLDEN_FILE, "[a]", "[a, 1b]", (5, 19), "expected 'name', got '1'"),
        (GOLDEN_FILE, "f: a", "f a", (8, 5), "expected 'key: value'"),
        (SL2_FILE, "bracket(e, f)", "bracket(h f)", (8, 13), "expected ',', got 'f'"),
        (SL2_FILE, "bracket(e, f)", "bracket(7, 0)", (8, 11), "unknown generator '7'"),
        (SL2_FILE, "bracket(e, f)", "bracket(3, 0)", (8, 11), "unknown generator '3'"),
        (SL2_FILE, "bracket(e, f)", "bracket(1, 0)", (8, 11), "duplicate bracket(1, 0)"),
        (GOLDEN_FILE, "a - a\n", "a - a\n  f: a\n", (9, 3), "duplicate relation name 'f'"),
        (GOLDEN_FILE, "[a]\n", "[a]\n  n: 2\n", (6, 3), "duplicate algebra key 'n'"),
        (SL2_FILE, "bracket(e, f)", "brackets(e, f)", (8, 3), "bracket(i, j): value"),
        (GOLDEN_FILE, "2]\n", "2]²", (4, 19), "unexpected character '²'"),
    ],
)
def test_presentation_error_positions(src, old, new, where, fragment):
    with pytest.raises(ParseError) as info:
        parse_presentation(src.replace(old, new))
    assert (info.value.line, info.value.col) == where
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "old, new, where, message",
    [
        ("[2, 2]", "[2, 0]", (4, 17), "locality bounds must be positive"),
        ("[2, 2]", "[0, 0]", (4, 14), "locality bounds must be positive"),
        ("[a]", "[a, b, a]", (5, 22), "duplicate generator name 'a'"),
        ("[a]", "[b, a, a, b]", (5, 22), "duplicate generator name 'a'"),
    ],
)
def test_header_value_errors_name_their_column(old, new, where, message):
    # the first bound below 1 and the first repeated name, not the line alone
    with pytest.raises(ParseError) as info:
        parse_presentation(GOLDEN_FILE.replace(old, new))
    assert str(info.value) == f"line {where[0]}, col {where[1]}: {message}"


def test_whole_coefficients_parse_as_int():
    comb = parse_expression(SIG, "4 a<1,1> a - a + 4/2 a - 1/2 a + 1/2 (2 a) + 2/3 (3/4 a)")
    assert [c for c, _ in comb] == [4, -1, 2, Fraction(-1, 2), 1, Fraction(1, 2)]
    assert [type(c) for c, _ in comb] == [int, int, int, Fraction, int, Fraction]
    both = parse_presentation(BOTH_FILE)
    coeffs = [c for _, comb in both.relations for c, _ in comb]
    coeffs += [c for _, entries in both.brackets for _, c in entries]
    assert coeffs == [1, -1, -1, 2, -2] and {type(c) for c in coeffs} == {int}
    assert parse_presentation(SL2_FILE.replace("-2*f", "-3/6 f")).brackets[0][1] == (
        (0, Fraction(-1, 2)),)


def test_presentation_whitespace_between_any_tokens():
    spaced = (SL2_FILE.replace("bracket(h, f)", "bracket ( h ,f )")
              .replace("[f, h, e]", "[ f ,h,e ]  # three"))
    assert parse_presentation(spaced) == parse_presentation(SL2_FILE)


def test_presentation_error_reports_file_line():
    bad = GOLDEN_FILE.replace("a<0,0> a - a", "a<0,0> a - c")
    with pytest.raises(ParseError) as info:
        parse_presentation(bad)
    assert info.value.line == 8  # the relation line in GOLDEN_FILE
    assert "unknown generator" in str(info.value)


# --- the token-tuple parser that string tokens replaced -------------------------
#
# The library's tokenizer returns token texts and works out a token's line and
# column only for an error.  This one builds a (kind, text, line, col) tuple
# per token in a Python loop; every result and every error text is compared
# against it.


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


class _Parser:
    def __init__(self, tokens: list[_Token],
                 sig: Optional[AlgebraSignature] = None):
        self.tokens = tokens  # closed by an "end" token, which is never consumed
        self.sig = sig  # None until a presentation's header has been read
        self.pos = 0

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
        return [(Fraction(1), Leaf(self._gen(tok), zero_index(self.sig.n)))]

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
        return [(Fraction(1), Leaf(self._gen(tok), zero_index(self.sig.n)))]

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


def _token_parse_expression(sig: AlgebraSignature, text: str,
                     line: int = 1, col: int = 1) -> LinComb:
    return _Parser(_tokenize(text, line, col), sig).parse_sum()


def _token_parse_index(text: str, n: int) -> MultiIndex:
    parser = _Parser(_tokenize(text))
    opener = parser._accept("<", "[")
    m = parser.parse_index_list(n)
    if opener is not None:
        parser._expect(">" if opener.kind == "<" else "]")
    parser.expect_end()
    return m


_BLOCKS = ("algebra", "relations", "lie")
_HEADER_KEYS = ("n", "locality", "generators")


def _token_parse_presentation(text: str) -> Presentation:
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


# --- the split-and-regex parser that the one token grammar replaced ------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
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
    return sig.generators.index(text)


def _reference_parse_presentation(text: str) -> Presentation:
    """``parse_presentation`` as it was before the one token grammar: lines
    split on ``#`` and ``:``, header values and keys read by regexes, and
    only relation and bracket values tokenized."""
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
            parser = _Parser(_tokenize(value, lineno, value_col), sig)
            comb = parser.parse_sum(_Parser.parse_generator)
            table[i, j] = tuple((leaf.gen, c) for c, leaf in comb)
        brackets = tuple(sorted(table.items()))

    return Presentation(sig, relations, brackets)


BOTH_FILE = """\
algebra   # both blocks, a bracket key by index
  n: 1
  locality: [1]
  generators: [e, h, f]
relations
  r: e<0> f - f<0> e - h
lie
  bracket(h, e): 2*e
  bracket(1, 2): -2*f   # h, f
"""

_MUTATION_CHARS = "aefhnxD019 \n\t#:,[]()<>{}+-*/_²"


def _mutate(rng: random.Random, text: str, chars: str = _MUTATION_CHARS) -> str:
    """``text`` with one character replaced, deleted or inserted."""
    k = rng.randrange(len(text))
    c = rng.choice(chars if rng.random() < 0.6 else text)
    return rng.choice([text[:k] + c + text[k + 1:], text[:k] + text[k + 1:],
                       text[:k] + c + text[k:]])


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc


@pytest.mark.parametrize("src", [GOLDEN_FILE, SL2_FILE, BOTH_FILE],
                         ids=["golden", "sl2", "both"])
def test_presentation_matches_reference_on_mutations(src):
    """One-character mutations parse to the same presentation as the replaced
    parser, or raise on the same line.  Two differences are expected:
    (a) a lexical fault that joins two header lines is reported at its line,
    where the replaced parser found a key missing and gave no line, and
    (b) ``bracket (i, j)`` is accepted, as whitespace between tokens is
    everywhere else."""
    rng = random.Random(src)
    parsed = failed = 0
    for _ in range(1500):
        text = _mutate(rng, src)
        got = _outcome(parse_presentation, text)
        want = _outcome(_reference_parse_presentation, text)
        if (isinstance(want, ParseError) and isinstance(got, ParseError)
                and want.line is None and got.line is not None):  # (a)
            assert "must define" in want.message
            assert got.message.startswith("unexpected character")
            continue
        if isinstance(want, ParseError) and isinstance(got, Presentation):  # (b)
            assert "lie entries" in want.message
            want = _reference_parse_presentation(re.sub(r"bracket\s+\(", "bracket(", text))
        if isinstance(want, Presentation):
            assert isinstance(got, Presentation), (text, got)
            assert got == want, text
            parsed += 1
        else:
            assert isinstance(got, ParseError), (text, want)
            assert got.line == want.line, (text, got, want)
            failed += 1
    assert parsed > 100 and failed > 100


# --- string tokens against the token-tuple parser --------------------------------

_DATA_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "data"
# an Arabic-Indic digit (a ``\d`` that is not ASCII) and a letter that is not ASCII
_WIDE_CHARS = _MUTATION_CHARS + "٣é"
# the two header errors that now name the column (and the repeated generator)
_MOVED_HEADER_ERRORS = ("locality bounds must be positive", "duplicate generator names")


def _same_outcome(got, want, what):
    """Equal results, or errors whose whole text (message, line, column) is equal."""
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), (what, got, want)
        assert (str(got), got.line, got.col) == (str(want), want.line, want.col), what
    else:
        assert got == want, what
        assert [type(c) for c, _ in got] == [int if c.denominator == 1 else Fraction
                                              for c, _ in want], what


@pytest.mark.parametrize("name", sorted(p.name for p in _DATA_DIR.glob("*.alg")) + ["both"])
def test_presentation_matches_token_parser_on_mutations(name):
    """One- and two-character mutations of every benchmark file parse to the
    token-tuple parser's presentation, or raise its error text, line and
    column, save the two header errors that now name a column."""
    src = BOTH_FILE if name == "both" else (_DATA_DIR / name).read_text(encoding="utf-8")
    rng = random.Random(name)
    parsed = failed = 0
    for _ in range(400):
        text = _mutate(rng, src, _WIDE_CHARS)
        if rng.random() < 0.5:
            text = _mutate(rng, text, _WIDE_CHARS)
        got = _outcome(parse_presentation, text)
        want = _outcome(_token_parse_presentation, text)
        if isinstance(want, Presentation):
            assert isinstance(got, Presentation), (text, got)
            assert got == want, text
            for (_, comb), (_, ref) in zip(got.relations, want.relations):
                _same_outcome(list(comb), list(ref), text)
            parsed += 1
        elif want.message in _MOVED_HEADER_ERRORS:
            assert isinstance(got, ParseError), (text, want)
            assert got.line == want.line and got.col is not None, (text, got)
        else:
            _same_outcome(got, want, text)
            failed += 1
    assert parsed > 20 and failed > 100


_EXPRESSIONS = [
    "a<0,0> a - a",
    "3/2 (a<1,0> b)<1,1> a + D{0,1} a",
    "-4/2 a<1,1> (a - 2*b)<0,1> D{1,1} b  # a comment\n + 1/3 a",
    "a<0,0>\n  a   # ends here\n\n - b<1,٣> a",
    "(a<0,1> b # (\n)<1,0> a - 0 b",
    "2 * (a - b)<1,1> (a<0,0> b + 3/6 D{2,0} b)",
    "0",
    "a # é²\n",
]


def test_expressions_match_token_parser():
    """Expressions at an offset, over several lines and with comments, and
    product labels: the same results and the same error text, line and column."""
    rng = random.Random(15)
    failed = 0
    for _ in range(1500):
        text = rng.choice(_EXPRESSIONS)
        for _ in range(rng.randrange(3) if len(text) > 1 else 0):
            text = _mutate(rng, text, _WIDE_CHARS)
        start = (rng.randrange(1, 9), rng.randrange(1, 30))
        got = _outcome(lambda t: parse_expression(SIG2, t, *start), text)
        _same_outcome(got, _outcome(lambda t: _token_parse_expression(SIG2, t, *start), text),
                      (text, start))
        failed += isinstance(got, ParseError)
        label = _mutate(rng, rng.choice(["1,0", "<1,0>", " [ 2 , ٣ ] ", "0,0,1"]), _WIDE_CHARS)
        n = rng.randrange(1, 4)
        got = _outcome(lambda t: parse_index(t, n), label)
        want = _outcome(lambda t: _token_parse_index(t, n), label)
        if isinstance(want, ParseError):
            assert (str(got), got.col) == (str(want), want.col), label
        else:
            assert got == want, label
    assert failed > 300


@pytest.mark.parametrize(
    "text, start, where",
    [
        ("a<0,0> a²", (1, 1), (1, 9)),
        ("a<0,0>\n  é", (4, 7), (5, 3)),
        ("a # é is a comment\n - a<0,0> a ²", (2, 5), (3, 13)),
        ("\n\n   ²", (1, 9), (3, 4)),
    ],
)
def test_unexpected_character_position(text, start, where):
    with pytest.raises(ParseError) as info:
        parse_expression(SIG, text, *start)
    assert (info.value.line, info.value.col) == where
    assert info.value.message.startswith("unexpected character")
    with pytest.raises(ParseError) as ref:
        _token_parse_expression(SIG, text, *start)
    assert str(info.value) == str(ref.value)


@pytest.mark.parametrize("spaced", [
    "a< 1 , 0 > b - D{ 0,1 } a<0,1> b",
    "a<1,0>   # a comment after a label\n b - D{0,1} a<0,1>  # and another\n b",
    "a<\t1,0 >b - D {0, 1}a< 0,1>b",
    "a<1,\n 0> b - D{0,\n1} a<0,1> b",  # broken by a line break: read piece by piece
])
def test_labels_with_whitespace_or_comments_read_as_the_compact_forms(spaced):
    compact = parse_expression(SIG2, "a<1,0> b - D{0,1} a<0,1> b")
    assert compact == [(1, Node(Leaf(0, (0, 0)), (1, 0), Leaf(1, (0, 0)))),
                       (-1, Node(Leaf(0, (0, 1)), (0, 1), Leaf(1, (0, 0))))]
    assert parse_expression(SIG2, spaced) == compact
    spaced_file = GOLDEN_FILE.replace("a<0,0> a - a", "a< 0 , 0 > a - a  # f")
    assert parse_presentation(spaced_file) == parse_presentation(GOLDEN_FILE)


@pytest.mark.parametrize("name, count", [("golden_basis.alg", 59), ("idempotent33_basis.alg", 202)])
def test_a_label_is_one_token(name, count):
    """The tokenizer's work counter: each of the 11 labels of
    golden_basis.alg (55 of idempotent33_basis.alg) is one token, not one
    per character."""
    text = (_DATA_DIR / name).read_text(encoding="utf-8")
    tokens = parsing._Parser(text, lines=True).tokens
    assert len(tokens) - tokens.count("\n") == count


def test_unicode_digits_are_int_tokens():
    # ``\d`` and str.isdecimal() accept the same digits
    assert parse_expression(SIG, "a<١,0> a") == parse_expression(SIG, "a<1,0> a")
    assert parse_index("٣,0", 2) == (3, 0)
    with pytest.raises(ParseError, match=r"line 1, col 2: unexpected trailing '٣'"):
        parse_expression(SIG, "a٣ a")  # a name, then an int
