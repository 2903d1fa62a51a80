"""Uniform check reports with a canonical JSON rendering.

Every verifier returns a CheckReport: a name, an overall verdict, a details
mapping, and a list of entry dicts (counterexamples or certificates).  The
JSON form is canonical (sorted keys, no float anywhere) so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


def json_ready(value):
    """Recursively convert package values to JSON-encodable ones.

    Fractions become 'p/q' strings, sets become sorted lists, tuples become
    lists; any other type is a TypeError.  The JSON-native classes are
    tested first, as none of them is a Fraction, so those values never
    reach the Fraction test's abstract-class check.
    """
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (set, frozenset)):
        return [json_ready(v) for v in sorted(value)]
    raise TypeError(f"{type(value).__name__} values are not allowed in reports")


def _dumps(ready) -> str:
    """The canonical rendering of an already JSON-ready value."""
    return json.dumps(ready, sort_keys=True, separators=(",", ": "))


def canonical_json(value) -> str:
    return _dumps(json_ready(value))


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "details": json_ready(self.details),
            "entries": json_ready(self.entries),
        }

    def to_json(self) -> str:
        return _dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "CheckReport":
        return cls(
            name=d["name"],
            passed=d["passed"],
            details=d.get("details", {}),
            entries=d.get("entries", []),
        )

    def summary_lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"[{verdict}] {self.name}"]
        for key in sorted(self.details):
            lines.append(f"  {key}: {json.dumps(json_ready(self.details[key]), sort_keys=True)}")
        for entry in self.entries:
            lines.append(f"  - {json.dumps(json_ready(entry), sort_keys=True)}")
        return lines
