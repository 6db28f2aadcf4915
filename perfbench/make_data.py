"""Regenerate data/idempotent33_basis.alg: the completion of a<0,0> a - a
at locality (3,3).

    python3 perfbench/make_data.py

The cli-queries workload runs `confgsb check` on the file in every round,
so a stale or corrupted copy is caught there.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from confgsb import COMPLETE, AlgebraSignature, Engine, complete, parse_expression  # noqa: E402
from confgsb.parsing import format_polynomial  # noqa: E402


def main() -> None:
    sig = AlgebraSignature(2, (3, 3), ("a",))
    engine = Engine(sig)
    system, status = complete(engine, [engine.normalize(parse_expression(sig, "a<0,0> a - a"))])
    if status != COMPLETE:
        sys.exit(f"completion ended {status}")
    lines = [
        "# The completion of a<0,0> a - a at locality (3,3); regenerate with",
        "#     python3 perfbench/make_data.py",
        "algebra",
        "  n: 2",
        "  locality: [3, 3]",
        "  generators: [a]",
        "",
        "relations",
    ]
    lines += [f"  r{k}: {format_polynomial(sig, p)}" for k, p in enumerate(system.elements, 1)]
    with open(os.path.join(HERE, "data", "idempotent33_basis.alg"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
