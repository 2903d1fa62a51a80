"""A frozen corpus of exact LP instances and its replay check.

The corpus holds distinct `lp.simplex_maximize` calls captured from the
lp-verify workload, each with the optimal value the solver returned when it
was captured.  Replaying it gives the LP kernel a number that does not move
when pre-checks in the layers above change which LPs get solved.  A replay
mismatches when the value differs, when the solver raises where it did not
(or the other way round), or when the returned x is infeasible or does not
attain the value.
"""

from __future__ import annotations

import gzip
import json
import time
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "lp_corpus.json.gz"


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def load(path: Path = CORPUS) -> list[tuple]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    return [
        (
            [Fraction(v) for v in obj],
            _frac_rows(lhs_le),
            [Fraction(v) for v in rhs_le],
            _frac_rows(lhs_eq),
            [Fraction(v) for v in rhs_eq],
            expected,
        )
        for obj, lhs_le, rhs_le, lhs_eq, rhs_eq, expected in data["instances"]
    ]


def save(instances, source: str, path: Path = CORPUS):
    """instances: (objective, lhs_le, rhs_le, lhs_eq, rhs_eq, expected) with
    expected the optimal value as a string or '!<ExceptionName>'."""

    def s(row):
        return [str(v) for v in row]

    data = {
        "source": source,
        "instances": [
            [s(obj), [s(r) for r in lhs_le], s(rhs_le), [s(r) for r in lhs_eq], s(rhs_eq), exp]
            for obj, lhs_le, rhs_le, lhs_eq, rhs_eq, exp in instances
        ],
    }
    # mtime=0 keeps the file byte-identical across captures of the same data
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(data, separators=(",", ":")).encode("utf-8"))


def outcome_of(solve, instance) -> tuple[str, list | None]:
    obj, lhs_le, rhs_le, lhs_eq, rhs_eq = instance[:5]
    try:
        value, x = solve(obj, lhs_le, rhs_le, lhs_eq, rhs_eq)
    except Exception as exc:  # the solver signals infeasible/unbounded by type
        return f"!{type(exc).__name__}", None
    return str(value), x


def _dot(row, x):
    return sum((a * b for a, b in zip(row, x)), Fraction(0))


def attains(instance, value: Fraction, x) -> bool:
    """x >= 0 satisfies every constraint and reaches `value`."""
    obj, lhs_le, rhs_le, lhs_eq, rhs_eq = instance[:5]
    return (
        len(x) == len(obj)
        and all(v >= 0 for v in x)
        and all(_dot(row, x) <= b for row, b in zip(lhs_le, rhs_le))
        and all(_dot(row, x) == b for row, b in zip(lhs_eq, rhs_eq))
        and _dot(obj, x) == value
    )


def replay(solve, instances) -> dict[str, float]:
    """Solve every instance, timing only the solver calls."""
    busy = 0.0
    mismatches = 0
    for inst in instances:
        t0 = time.perf_counter()
        got, x = outcome_of(solve, inst)
        busy += time.perf_counter() - t0
        expected = inst[5]
        if got != expected or (x is not None and not attains(inst, Fraction(got), x)):
            mismatches += 1
    return {
        "lp.corpus.instances": len(instances),
        "lp.corpus.busy_s": busy,
        "lp.corpus.mismatches": mismatches,
    }
