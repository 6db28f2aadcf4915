"""Batch command line front end.

Every command takes a presentation file (see :mod:`confgsb.parsing` for the
grammar) plus arguments, and writes deterministic text — or JSON with
``--json`` — to stdout.  ``--quiet`` suppresses stdout entirely (exit codes
still carry the verdicts).  Exit codes: 0 success, 2 "not a basis" from
``check``, 64 usage error, 65 unreadable or invalid input, or input beyond
the recursion limit.

One presentation load and one :class:`Engine` serve each invocation: ``main``
reads the file and builds the engine, then calls the subcommand's handler
(named by ``set_defaults(run=...)``) as ``run(args, pres, sig, engine)``.  A
handler returns ``(code, result, lines, trace)``: the exit code, the JSON
``result``, the text lines, and the JSON ``trace`` or None.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .engine import Engine
from .envelope import (
    LieConformalSpec,
    bracket_conformal,
    enveloping_presentation,
    half_pbw_check,
    lie_algebra,
)
from .parsing import (
    ParseError,
    Presentation,
    format_index,
    format_polynomial,
    format_word,
    parse_expression,
    parse_index,
    parse_presentation,
)
from .rewrite import RewriteSystem, complete
from .words import ConfPoly

EX_OK = 0
EX_NOT_BASIS = 2
EX_USAGE = 64
EX_DATA = 65


class _DataError(Exception):
    """Invalid input content (maps to exit code 65)."""


_OPERAND_NOTE = (
    "An argument that starts with a single '-' and is not one of the options "
    "above, such as the remainder -a that reduce prints, is read as an "
    "operand; '--' also ends the options.")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        if (arg_string[:1] == "-" and arg_string[1:2] != "-"
                and arg_string.split("=", 1)[0] not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="confgsb",
        description="Rewriting calculator for multi-parameter conformal algebras.",
        epilog=_OPERAND_NOTE,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trace", action="store_true",
                        help="include the reduction trace (reduce, eq)")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout; exit codes carry the verdicts")

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    def command(name, summary, run):
        p = sub.add_parser(name, parents=[common], help=summary, epilog=_OPERAND_NOTE)
        p.add_argument("file")
        p.set_defaults(run=run)
        return p

    p = command("normalize", "normal form of an expression", _cmd_normalize)
    p.add_argument("expr")

    p = command("mul", "labelled product of two expressions", _cmd_mul)
    p.add_argument("left")
    p.add_argument("label", help="product label, e.g. 1,0")
    p.add_argument("right")

    p = command("reduce", "remainder modulo the file's relations", _cmd_reduce)
    p.add_argument("expr")

    p = command("complete", "saturate the relations into a rewriting basis",
                _cmd_complete)
    p.add_argument("--max-degree", type=_positive_int, default=None)
    p.add_argument("--max-elements", type=_positive_int, default=None)
    p.add_argument("--max-steps", type=_positive_int, default=None)

    command("check", "test whether the relations form a rewriting basis", _cmd_check)

    p = command("basis", "irreducible words within bounds", _cmd_basis)
    p.add_argument("--max-length", type=_positive_int, required=True)
    p.add_argument("--max-taild", default=None,
                   help="tail derivation bound: one integer or i1,...,in")

    p = command("eq", "equality of two expressions modulo the relations", _cmd_eq)
    p.add_argument("left")
    p.add_argument("right")

    command("envelope", "enveloping presentation of a Lie structure", _cmd_envelope)
    command("halfpbw", "reduce the mixed compositions of a Lie envelope", _cmd_halfpbw)
    return parser


# -- shared plumbing -----------------------------------------------------------


def _load(path: str) -> Presentation:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc.strerror or exc}")
    return parse_presentation(text)


def _relations(pres: Presentation, engine: Engine) -> list[ConfPoly]:
    """The file's relations, normalized, with those that vanish dropped."""
    polys = (engine.normalize(comb) for _, comb in pres.relations)
    return [p for p in polys if not p.is_zero()]


def _system(pres: Presentation, engine: Engine) -> RewriteSystem:
    return RewriteSystem(engine, _relations(pres, engine))


def _lie_spec(pres: Presentation) -> LieConformalSpec:
    if pres.brackets is None:
        raise _DataError("the file has no lie block")
    if pres.relations:
        raise _DataError("the file has relations, but this command reads the lie block only")
    sig = pres.signature
    g = lie_algebra(sig.generators, dict(pres.brackets))
    try:
        return bracket_conformal(sig, g)
    except ValueError as exc:
        raise _DataError(str(exc)) from None


def _parse_taild(text: Optional[str], n: int):
    if text is None:
        return None
    if "," in text:
        return parse_index(text, n)
    try:
        return parse_index(text, 1) * n
    except ParseError:
        raise ParseError(f"malformed tail bound {text!r}") from None


def _trace_payload(sig, trace):
    steps = []
    for step in trace.steps:
        occ = step.occ
        steps.append({
            "word": format_word(sig, step.word),
            "coeff": str(step.coeff),
            "element": occ.elem,
            "pos": occ.pos,
            "second": occ.second,
            "dshift": list(occ.dshift) if occ.dshift is not None else None,
        })
    return steps


def _trace_lines(steps):
    """The text form of ``_trace_payload``'s steps."""
    lines = [f"trace ({len(steps)} steps):"]
    for step in steps:
        kind = "suffix" if step["second"] else "interior"
        shift = f" shift {format_index(step['dshift'])}" if any(step["dshift"] or ()) else ""
        lines.append(f"  - {step['coeff']} x {step['word']}"
                     f"  [relation {step['element']}, {kind} at {step['pos']}{shift}]")
    return lines


def _task_payload(sig, task):
    return {
        "kind": task.kind,
        "i": task.i,
        "j": task.j,
        "word": format_word(sig, task.w),
        "label": format_index(task.m) if task.m is not None else None,
    }


# -- command handlers -----------------------------------------------------------


def _cmd_normalize(args, pres, sig, engine):
    text = format_polynomial(sig, engine.normalize(parse_expression(sig, args.expr)))
    return EX_OK, text, [text], None


def _cmd_mul(args, pres, sig, engine):
    left = engine.normalize(parse_expression(sig, args.left))
    right = engine.normalize(parse_expression(sig, args.right))
    m = parse_index(args.label, sig.n)
    p = engine.mul_poly(left, m, right)
    text = format_polynomial(sig, p)
    return EX_OK, text, [text], None


def _cmd_reduce(args, pres, sig, engine):
    system = _system(pres, engine)
    p = engine.normalize(parse_expression(sig, args.expr))
    remainder, trace = system.reduce(p)
    text = format_polynomial(sig, remainder)
    lines = [text]
    payload = {"remainder": text}
    trace_out = None
    if args.trace:
        trace_out = _trace_payload(sig, trace)
        lines.extend(_trace_lines(trace_out))
    return EX_OK, payload, lines, trace_out


def _cmd_complete(args, pres, sig, engine):
    system, status = complete(engine, _relations(pres, engine),
                              max_degree=args.max_degree,
                              max_elements=args.max_elements,
                              max_steps=args.max_steps)
    elements = [format_polynomial(sig, p) for p in system.elements]
    lines = [f"status: {status}"] + elements
    return EX_OK, {"status": status, "elements": elements}, lines, None


def _cmd_check(args, pres, sig, engine):
    system = _system(pres, engine)
    report = system.check_gsb()
    failures = []
    lines = [f"basis: {'yes' if report.is_gsb else 'no'}"]
    if report.has_non_dfree:
        lines.append("note: some relations carry tail derivations; "
                     "a clean bill below is certified only for the reductions run")
    for task, remainder in report.failures:
        failures.append({
            "task": _task_payload(sig, task),
            "remainder": format_polynomial(sig, remainder),
        })
        label = f" label {format_index(task.m)}" if task.m is not None else ""
        lines.append(
            f"  - {task.kind} ({task.i}, {task.j}){label} at "
            f"{format_word(sig, task.w)} -> {format_polynomial(sig, remainder)}")
    payload = {
        "is_gsb": report.is_gsb,
        "has_non_dfree": report.has_non_dfree,
        "failures": failures,
    }
    code = EX_OK if report.is_gsb else EX_NOT_BASIS
    return code, payload, lines, None


def _cmd_basis(args, pres, sig, engine):
    system = _system(pres, engine)
    taild = _parse_taild(args.max_taild, sig.n)
    try:
        words = system.irreducible_words(args.max_length, taild)
    except ValueError as exc:
        raise _DataError(str(exc)) from None
    texts = [format_word(sig, w) for w in words]
    return EX_OK, texts, texts, None


def _cmd_eq(args, pres, sig, engine):
    system = _system(pres, engine)
    left, ltrace = system.reduce(engine.normalize(parse_expression(sig, args.left)))
    right, rtrace = system.reduce(engine.normalize(parse_expression(sig, args.right)))
    equal = left == right
    lines = ["equal" if equal else "not equal"]
    payload = {
        "equal": equal,
        "left_remainder": format_polynomial(sig, left),
        "right_remainder": format_polynomial(sig, right),
    }
    trace_out = None
    if args.trace:
        trace_out = {"left": _trace_payload(sig, ltrace),
                     "right": _trace_payload(sig, rtrace)}
        for side, steps in trace_out.items():
            lines.extend(f"{side} {line}" for line in _trace_lines(steps))
    return EX_OK, payload, lines, trace_out


def _cmd_envelope(args, pres, sig, engine):
    system = enveloping_presentation(_lie_spec(pres), engine)
    elements = [format_polynomial(sig, p) for p in system.elements]
    return EX_OK, {"elements": elements}, elements, None


def _cmd_halfpbw(args, pres, sig, engine):
    report = half_pbw_check(_lie_spec(pres), engine)
    failures = []
    lines = [f"checked: {report.checked}",
             f"ok: {'yes' if report.ok else 'no'}"]
    for (i, j, k, m, mp), remainder in report.failures:
        failures.append({
            "i": i, "j": j, "k": k,
            "m": format_index(m), "mp": format_index(mp),
            "remainder": format_polynomial(sig, remainder),
        })
        lines.append(
            f"  - ({i}, {j}, {k}) labels <{format_index(m)}> <{format_index(mp)}>"
            f" -> {format_polynomial(sig, remainder)}")
    payload = {"checked": report.checked, "ok": report.ok, "failures": failures}
    return EX_OK, payload, lines, None


def _signature_payload(sig):
    return {"n": sig.n, "locality": list(sig.locality),
            "generators": list(sig.generators)}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        pres = _load(args.file)
        sig = pres.signature
        code, result, lines, trace = args.run(args, pres, sig, Engine(sig))
    except (ParseError, _DataError) as exc:
        print(f"confgsb: error: {exc}", file=sys.stderr)
        return EX_DATA
    except RecursionError:
        print(f"confgsb: error: input beyond the recursion limit of "
              f"{sys.getrecursionlimit()} frames", file=sys.stderr)
        return EX_DATA
    if args.quiet:
        return code
    if args.json:
        doc = {"command": args.command, "signature": _signature_payload(sig),
               "result": result}
        if trace is not None:
            doc["trace"] = trace
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
