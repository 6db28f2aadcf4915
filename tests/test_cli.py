"""Command line front end: frozen outputs, exit codes, JSON schema."""

import json
import os
import resource
import subprocess
import sys

import pytest

from confgsb import cli, rewrite
from confgsb.envelope import HalfPBWReport
from confgsb.words import ConfPoly, NormalWord

GOLDEN = """\
# one generator, locality (2,2)
algebra
  n: 2
  locality: [2, 2]
  generators: [a]
relations
  f: a<0,0> a - a
"""

COMPLETED = """\
algebra
  n: 2
  locality: [2, 2]
  generators: [a]
relations
  f: a<0,0> a - a
  g: a<1,0> a<1,0> a
  h: a<0,1> a<0,1> a
  p: a<1,1> a<1,0> a
  q: a<1,1> a<0,1> a
  s: a<1,1> a<1,1> a
"""

SL2 = """\
algebra
  n: 1
  locality: [1]
  generators: [e, h, f]
lie
  bracket(h, e): 2*e
  bracket(h, f): -2*f
  bracket(e, f): h
"""

BROKEN = """\
algebra
  n: 1
  locality: [1]
  generators: [e, h, f]
lie
  bracket(h, e): 2*e
  bracket(e, h): 2*e
  bracket(h, f): -2*f
  bracket(e, f): h
"""

TAILED = """\
algebra
  n: 2
  locality: [2, 2]
  generators: [a]
relations
  f: D{1,0} a
"""

SIX_RELATIONS = [
    "a<0,0> a - a",
    "a<0,1> a<0,1> a",
    "a<1,1> a<0,1> a",
    "a<1,0> a<1,0> a",
    "a<1,1> a<1,0> a",
    "a<1,1> a<1,1> a",
]


@pytest.fixture
def golden(tmp_path):
    path = tmp_path / "golden.alg"
    path.write_text(GOLDEN)
    return str(path)


@pytest.fixture
def completed(tmp_path):
    path = tmp_path / "completed.alg"
    path.write_text(COMPLETED)
    return str(path)


@pytest.fixture
def sl2(tmp_path):
    path = tmp_path / "sl2.alg"
    path.write_text(SL2)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- frozen command outputs ------------------------------------------------------


def test_complete_golden_prints_six_monic_relations(golden, capsys):
    code, out, err = run(capsys, "complete", golden)
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert lines[0] == "status: complete"
    assert lines[1:] == SIX_RELATIONS


def test_printed_remainder_is_accepted_as_operand(completed, capsys):
    # a remainder such as "-a" starts with '-' and has no space; it is an
    # operand, not an unknown option, without a "--" before it
    code, out, _ = run(capsys, "reduce", completed, "-a<0,0> a<0,0> a")
    remainder = out.strip()
    assert (code, remainder) == (0, "-a")
    code, out, _ = run(capsys, "eq", completed, "a<0,0> a", remainder)
    assert (code, out) == (0, "not equal\n")
    code, out, _ = run(capsys, "eq", completed, remainder, "-a<0,0> a")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "eq", completed, "--json", remainder, "-a")
    assert code == 0 and json.loads(out)["result"]["equal"] is True


def test_undefined_single_dash_operand_is_not_an_option(completed, capsys):
    code, _, err = run(capsys, "reduce", completed, "a", "-q")
    assert code == 64 and "unrecognized arguments: -q" in err
    code, out, _ = run(capsys, "eq", "-h")
    assert code == 0 and "is read as an operand" in " ".join(out.split())


def test_eq_after_completion(completed, capsys):
    code, out, _ = run(capsys, "eq", completed, "a<0,0> a<0,0> a", "a")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "eq", completed, "a<1,0> a", "a")
    assert (code, out) == (0, "not equal\n")


def test_basis_length_two(completed, capsys):
    code, out, _ = run(capsys, "basis", completed, "--max-length", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines == ["a", "a<0,1> a", "a<1,0> a", "a<1,1> a"]
    # the three words of length two, in ascending order
    assert [w for w in lines if w.count("<") == 1] == [
        "a<0,1> a", "a<1,0> a", "a<1,1> a"]


def test_normalize_left_nested(golden, capsys):
    code, out, _ = run(capsys, "normalize", golden, "(a<1,0> a)<1,0> a")
    assert (code, out) == (0, "a<1,0> a<1,0> a\n")


def test_mul_top_label(golden, capsys):
    code, out, _ = run(capsys, "mul", golden, "a", "2,2", "a<0,0> a - a")
    assert (code, out) == (0, "4 a<1,1> a<1,1> a\n")


def test_reduce_with_trace(completed, capsys):
    code, out, _ = run(capsys, "reduce", completed, "a<0,0> a<0,0> a", "--trace")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "a"
    assert lines[1] == "trace (2 steps):"
    assert lines[2] == "  - 1 x a<0,0> a<0,0> a  [relation 0, interior at 0]"
    assert lines[3] == "  - 1 x a<0,0> a  [relation 0, suffix at 0]"


def test_reduce_trace_prints_suffix_shift(completed, capsys):
    code, out, _ = run(capsys, "reduce", completed, "a<0,0> D{1,0} a", "--trace")
    assert (code, out.splitlines()) == (0, [
        "D{1,0} a",
        "trace (1 steps):",
        "  - 1 x a<0,0> D{1,0} a  [relation 0, suffix at 0 shift 1,0]",
    ])


def test_eq_with_trace(completed, capsys):
    code, out, _ = run(capsys, "eq", completed, "a<0,0> a<0,0> a", "a", "--trace")
    assert (code, out.splitlines()) == (0, [
        "equal",
        "left trace (2 steps):",
        "left   - 1 x a<0,0> a<0,0> a  [relation 0, interior at 0]",
        "left   - 1 x a<0,0> a  [relation 0, suffix at 0]",
        "right trace (0 steps):",
    ])
    code, out, _ = run(capsys, "eq", completed, "a<0,0> a<0,0> a", "a", "--trace", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"] == {"equal": True, "left_remainder": "a", "right_remainder": "a"}
    assert doc["trace"] == {"left": [
        {"word": "a<0,0> a<0,0> a", "coeff": "1", "element": 0,
         "pos": 0, "second": False, "dshift": None},
        {"word": "a<0,0> a", "coeff": "1", "element": 0,
         "pos": 0, "second": True, "dshift": [0, 0]},
    ], "right": []}


def test_check_exit_codes(golden, completed, capsys):
    code, out, _ = run(capsys, "check", golden)
    assert code == 2
    assert out.splitlines()[0] == "basis: no"
    # the five failing compositions seed exactly the other five basis elements
    assert len(out.splitlines()) == 6
    code, out, _ = run(capsys, "check", completed)
    assert (code, out) == (0, "basis: yes\n")


def test_check_notes_tail_derivations(tmp_path, capsys):
    path = tmp_path / "tailed.alg"
    path.write_text(TAILED)
    code, out, _ = run(capsys, "check", str(path))
    assert (code, out.splitlines()) == (2, [
        "basis: no",
        "note: some relations carry tail derivations; "
        "a clean bill below is certified only for the reductions run",
        "  - right-mul (0, 0) label 1,0 at a<1,0> D{1,0} a -> -a<0,0> a",
        "  - right-mul (0, 0) label 1,1 at a<1,1> D{1,0} a -> -a<0,1> a",
        "  - left-mul (0, 0) label 2,0 at a<2,0> D{1,0} a -> 2 a<1,0> a",
        "  - right-mul (0, 0) label 2,0 at a<2,0> D{1,0} a -> -2 a<1,0> a",
        "  - left-mul (0, 0) label 2,1 at a<2,1> D{1,0} a -> 2 a<1,1> a",
        "  - right-mul (0, 0) label 2,1 at a<2,1> D{1,0} a -> -2 a<1,1> a",
    ])


def test_complete_respects_bounds(golden, capsys):
    code, out, _ = run(capsys, "complete", golden, "--max-elements", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "status: limit-reached"
    assert len(lines) == 4


def test_basis_tail_bounds(completed, capsys):
    code, out, _ = run(capsys, "basis", completed, "--max-length", "1",
                       "--max-taild", "1")
    assert out.splitlines() == ["a", "D{0,1} a", "D{1,0} a", "D{1,1} a"]
    code, out, _ = run(capsys, "basis", completed, "--max-length", "1",
                       "--max-taild", "0,1")
    assert out.splitlines() == ["a", "D{0,1} a"]


def test_envelope_sl2(sl2, capsys):
    code, out, _ = run(capsys, "envelope", sl2)
    assert code == 0
    assert out.splitlines() == [
        "h<0> e - e<0> h - 2 e",
        "f<0> e - e<0> f + h",
        "f<0> h - h<0> f - 2 f",
    ]


def test_halfpbw_sl2(sl2, capsys):
    code, out, _ = run(capsys, "halfpbw", sl2)
    assert code == 0
    assert out.splitlines() == ["checked: 1", "ok: yes"]


# -- JSON output -----------------------------------------------------------------


def test_json_schema_keys(golden, capsys):
    code, out, _ = run(capsys, "normalize", golden, "a<0,0> a", "--json")
    doc = json.loads(out)
    assert code == 0
    assert list(doc) == ["command", "signature", "result"]
    assert doc["command"] == "normalize"
    assert doc["signature"] == {"n": 2, "locality": [2, 2], "generators": ["a"]}
    assert doc["result"] == "a<0,0> a"


def test_json_trace_key_present_only_with_flag(completed, capsys):
    _, out, _ = run(capsys, "reduce", completed, "a<0,0> a", "--json")
    assert "trace" not in json.loads(out)
    _, out, _ = run(capsys, "reduce", completed, "a<0,0> a", "--json", "--trace")
    doc = json.loads(out)
    assert list(doc) == ["command", "signature", "result", "trace"]
    assert doc["result"] == {"remainder": "a"}
    assert doc["trace"] == [{
        "word": "a<0,0> a", "coeff": "1", "element": 0,
        "pos": 0, "second": True, "dshift": [0, 0],
    }]


def test_json_check_failures(golden, capsys):
    code, out, _ = run(capsys, "check", golden, "--json")
    doc = json.loads(out)
    assert code == 2
    result = doc["result"]
    assert result["is_gsb"] is False
    assert result["has_non_dfree"] is False
    assert len(result["failures"]) == 5
    first = result["failures"][0]
    assert first["task"] == {"kind": "left-mul", "i": 0, "j": 0,
                             "word": "a<0,2> a<0,0> a", "label": "0,2"}
    assert first["remainder"] == "2 a<0,1> a<0,1> a"


def test_json_complete(golden, capsys):
    _, out, _ = run(capsys, "complete", golden, "--json")
    doc = json.loads(out)
    assert doc["result"] == {"status": "complete", "elements": SIX_RELATIONS}


def test_json_halfpbw(sl2, capsys):
    _, out, _ = run(capsys, "halfpbw", sl2, "--json")
    doc = json.loads(out)
    assert doc["result"] == {"checked": 1, "ok": True, "failures": []}


def test_halfpbw_reports_each_failure(sl2, capsys, monkeypatch):
    # a stubbed report with one failure: h<0> e left for (i, j, k) = (2, 1, 0)
    remainder = ConfPoly.from_word(NormalWord(((1, (0,)),), 0, (0,)))
    report = HalfPBWReport(1, (((2, 1, 0, (0,), (0,)), remainder),))
    monkeypatch.setattr(cli, "half_pbw_check", lambda spec, engine: report)
    code, out, _ = run(capsys, "halfpbw", sl2)
    assert code == 0
    assert out.splitlines() == ["checked: 1", "ok: no", "  - (2, 1, 0) labels <0> <0> -> h<0> e"]
    _, out, _ = run(capsys, "halfpbw", sl2, "--json")
    assert json.loads(out)["result"] == {"checked": 1, "ok": False, "failures": [
        {"i": 2, "j": 1, "k": 0, "m": "0", "mp": "0", "remainder": "h<0> e"}]}


# -- quiet mode ------------------------------------------------------------------


def test_quiet_suppresses_stdout_keeps_code(golden, capsys):
    code, out, _ = run(capsys, "check", golden, "--quiet")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "complete", golden, "--quiet")
    assert (code, out) == (0, "")


# -- exit codes for bad input ----------------------------------------------------


def test_usage_errors_exit_64(capsys):
    assert cli.main([]) == 64
    assert cli.main(["frobnicate"]) == 64
    assert cli.main(["basis", "whatever.alg"]) == 64  # missing --max-length
    assert cli.main(["complete", "x.alg", "--max-degree", "zero"]) == 64
    capsys.readouterr()
    code, out, err = run(capsys, "complete", "x.alg", "--max-steps", "0")
    assert (code, out) == (64, "") and "must be at least 1" in err
    code, out, err = run(capsys, "basis", "x.alg", "--max-length", "two")
    assert (code, out) == (64, "") and "not an integer: 'two'" in err


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_reused_parser_keeps_no_state_between_calls(completed, capsys):
    code, out, _ = run(capsys, "reduce", completed, "a<0,0> a<0,0> a", "--trace")
    assert code == 0 and "trace (2 steps):" in out
    code, out, _ = run(capsys, "reduce", completed, "a<0,0> a<0,0> a")
    assert (code, out) == (0, "a\n")
    code, out, _ = run(capsys, "complete", completed, "--max-degree", "zero")
    assert (code, out) == (64, "")
    code, out, _ = run(capsys, "check", completed)
    assert (code, out) == (0, "basis: yes\n")


def test_missing_file_exits_65(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/file.alg")
    assert (code, out) == (65, "")
    assert "cannot read" in err


@pytest.mark.parametrize("expr", ["a<0,0> b", "a<0> a", "a +", "a<0,0>"])
def test_expression_errors_exit_65(golden, capsys, expr):
    code, out, err = run(capsys, "normalize", golden, expr)
    assert (code, out) == (65, "")
    assert err.startswith("confgsb: error: line 1, col ")


@pytest.mark.parametrize("expr", [
    "(" * 400 + "a" + ")" * 400,  # the parser recurses per parenthesis
    "a<2,0> (" + "a<1,1> " * 1500 + "a)",  # the dodge recurses per link
], ids=["400-parentheses", "1500-links"])
def test_input_beyond_the_recursion_limit_exits_65(golden, capsys, expr):
    code, out, err = run(capsys, "normalize", golden, expr)
    assert (code, out) == (65, "")
    assert err == (f"confgsb: error: input beyond the recursion limit of "
                   f"{sys.getrecursionlimit()} frames\n")


@pytest.mark.parametrize("d", [1000, 5000])
def test_long_derivation_under_an_invalid_label_exits_0(golden, capsys, d):
    code, out, err = run(capsys, "normalize", golden, f"a<2,0> D{{{d},0}} a")
    assert (code, err) == (0, "")
    assert out == f"{2 * d} a<1,0> D{{{d - 1},0}} a - {d * (d - 1)} a<0,0> D{{{d - 2},0}} a\n"


@pytest.mark.parametrize("text, message", [
    ("algebra\n  n: 2\n", "algebra block must define 'locality'"),
    ("algebra\n  n: 2\n  locality: [2, 0]\n  generators: [a]\n",
     "line 3, col 17: locality bounds must be positive"),
    ("algebra\n  n: 1\n  locality: [2]\n  generators: [a, b, a]\n",
     "line 4, col 22: duplicate generator name 'a'"),
])
def test_presentation_errors_exit_65(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out, err) == (65, "", f"confgsb: error: {message}\n")


def test_invalid_lie_table_exits_65(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text(BROKEN)
    code, _, err = run(capsys, "envelope", str(path))
    assert code == 65
    assert "antisymmetry or the Jacobi identity" in err


@pytest.mark.parametrize("command", ["envelope", "halfpbw"])
def test_lie_commands_without_lie_block_exit_65(golden, capsys, command):
    # a file of relations is no bracket table, in particular not the abelian one
    code, out, err = run(capsys, command, golden)
    assert (code, out) == (65, "")
    assert err == "confgsb: error: the file has no lie block\n"


@pytest.mark.parametrize("command", ["envelope", "halfpbw"])
def test_lie_commands_with_relations_exit_65(tmp_path, capsys, command):
    # the bracket table alone would drop the relation without a word
    path = tmp_path / "both.alg"
    path.write_text("algebra\n  n: 1\n  locality: [1]\n  generators: [x, y]\n"
                    "relations\n  f: x<0> x - y\nlie\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (65, "")
    assert err == ("confgsb: error: the file has relations, but this command reads "
                   "the lie block only\n")


def test_empty_lie_block_is_the_abelian_table(tmp_path, capsys):
    path = tmp_path / "abelian.alg"
    path.write_text("algebra\n  n: 1\n  locality: [1]\n  generators: [x, y]\nlie\n")
    assert run(capsys, "envelope", str(path)) == (0, "y<0> x - x<0> y\n", "")
    assert run(capsys, "halfpbw", str(path)) == (0, "checked: 0\nok: yes\n", "")


def test_bad_label_arity_exits_65(golden, capsys):
    code, _, err = run(capsys, "mul", golden, "a", "1", "a")
    assert code == 65
    assert "arity" in err


def test_bad_taild_exits_65(completed, capsys):
    code, _, err = run(capsys, "basis", completed, "--max-length", "1",
                       "--max-taild", "xx")
    assert code == 65
    assert "malformed tail bound" in err


def test_non_ascii_digit_taild_exits_65(completed, capsys):
    # "²".isdigit() holds, but it is no digit of the token grammar
    code, out, err = run(capsys, "basis", completed, "--max-length", "2",
                         "--max-taild", "²")
    assert (code, out) == (65, "")
    assert err == "confgsb: error: malformed tail bound '²'\n"


def test_basis_refuses_a_huge_tail_box_before_building_it(completed):
    # 1000001^2 tail exponents pass the budget before the walk starts; the
    # cap on the address space makes a run that builds them fail instead of
    # filling memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "confgsb.cli", "basis", completed,
         "--max-length", "2", "--max-taild", "1000000"],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert (proc.returncode, proc.stdout) == (65, "")
    assert proc.stderr == ("confgsb: error: 1000002000001 tail exponents exceed the budget "
                           "of 1000000\n")


def test_basis_budget_counts_the_walk_not_all_normal_words(completed, capsys):
    # the 22369621 normal words up to length 13 are never built: the walk
    # lists the 1 + 3 + 4 * 11 irreducible ones
    code, out, _ = run(capsys, "basis", completed, "--max-length", "13")
    assert code == 0 and len(out.splitlines()) == 1 + 3 + 4 * 11


def test_basis_refuses_a_walk_over_the_budget(tmp_path, capsys, monkeypatch):
    # with no relation to cut it, the walk visits every prefix; the budget is
    # lowered so that the refusal comes in milliseconds
    path = tmp_path / "free.alg"
    path.write_text("algebra\n  n: 2\n  locality: [2, 2]\n  generators: [a]\n")
    monkeypatch.setattr(rewrite, "MAX_BASIS_CANDIDATES", 1000)
    code, out, err = run(capsys, "basis", str(path), "--max-length", "8")
    assert (code, out) == (65, "")
    assert err == ("confgsb: error: 1001 tail exponents, prefixes and words up to length 8 "
                   "exceed the budget of 1000\n")
    code, out, _ = run(capsys, "basis", str(path), "--max-length", "4")
    assert code == 0 and len(out.splitlines()) == 1 + 4 + 16 + 64


# -- determinism and the installed entry point ------------------------------------


def test_repeat_runs_byte_identical(golden, capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "check", golden, "--json")
        outputs.add(out)
    assert len(outputs) == 1


def test_module_invocation(golden):
    proc = subprocess.run(
        [sys.executable, "-m", "confgsb.cli", "eq", golden,
         "a<0,0> a<0,0> a", "a"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0
    assert proc.stdout == "equal\n"
