"""Grammar round trips: expressions, canonical printing, presentation files."""

import random
import re
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from confgsb.engine import Engine
from confgsb.parsing import (
    ParseError,
    Presentation,
    _Parser,
    _tokenize,
    format_gen_combo,
    format_index,
    format_lincomb,
    format_polynomial,
    format_word,
    parse_expression,
    parse_index,
    parse_presentation,
)
from confgsb.words import AlgebraSignature, ConfPoly, Leaf, Node, NormalWord

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


# --- canonical printing -------------------------------------------------------


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


def test_format_lincomb_parenthesizes_left_nesting():
    comb = parse_expression(SIG, "(a<1,0> a)<1,0> a - 2 a<0,0> a<1,0> a")
    text = format_lincomb(SIG, comb)
    assert text == "(a<1,0> a)<1,0> a - 2 a<0,0> a<1,0> a"
    assert parse_expression(SIG, text) == comb
    aa = Node(A, (0, 0), A)
    mixed = [(Fraction(0), A), (Fraction(-1, 2), aa), (Fraction(0), aa), (Fraction(-2), A)]
    assert format_lincomb(SIG, mixed) == "-1/2 a<0,0> a - 2 a"
    assert format_lincomb(SIG, [(Fraction(0), A), (Fraction(0), aa)]) == "0"
    assert format_lincomb(SIG, []) == "0"


def test_format_gen_combo():
    sig = AlgebraSignature(2, (1, 1), ("f", "h", "e"))
    assert format_gen_combo(sig, ((0, Fraction(-2)),)) == "-2*f"
    assert format_gen_combo(sig, ((1, Fraction(1)), (2, Fraction(1, 2)))) == "h + 1/2*e"
    assert format_gen_combo(sig, ()) == "0"
    assert format_gen_combo(sig, ((1, Fraction(1)), (2, Fraction(-2)))) == "h - 2*e"
    assert format_gen_combo(sig, ((0, Fraction(0)), (1, Fraction(-1, 3)),
                                  (2, Fraction(-1)))) == "-1/3*h - e"
    assert format_gen_combo(sig, ((0, Fraction(0)), (2, Fraction(0)))) == "0"


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


def test_presentation_canonical_round_trip():
    for src in (GOLDEN_FILE, SL2_FILE):
        canon = parse_presentation(src).canonical()
        assert parse_presentation(canon).canonical() == canon


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
    return sig.gen_index(text)


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


def _mutate(rng: random.Random, text: str) -> str:
    """``text`` with one character replaced, deleted or inserted."""
    k = rng.randrange(len(text))
    c = rng.choice(_MUTATION_CHARS if rng.random() < 0.6 else text)
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
            assert got.canonical() == want.canonical()
            assert (got.relations, got.brackets) == (want.relations, want.brackets)
            parsed += 1
        else:
            assert isinstance(got, ParseError), (text, want)
            assert got.line == want.line, (text, got, want)
            failed += 1
    assert parsed > 100 and failed > 100
