"""Ordinals in the normal form w*a + b, which is as far as any bundled
iteration ever needs to count."""

from __future__ import annotations

import re
from dataclasses import dataclass

_ORDINAL_RE = re.compile(r"^(?:([0-9]+)w\+)?([0-9]+)$")


@dataclass(frozen=True, order=True)
class Ordinal:
    """w*omega_coeff + finite; comparison is lexicographic."""

    omega_coeff: int
    finite: int

    def __post_init__(self):
        if self.omega_coeff < 0 or self.finite < 0:
            raise ValueError("ordinal parts must be non-negative")

    @property
    def is_limit(self) -> bool:
        return self.finite == 0 and self.omega_coeff > 0

    def successor(self) -> "Ordinal":
        return Ordinal(self.omega_coeff, self.finite + 1)

    def next_limit(self) -> "Ordinal":
        """The least limit ordinal strictly above this one."""
        return Ordinal(self.omega_coeff + 1, 0)

    def __str__(self) -> str:
        if self.omega_coeff == 0:
            return str(self.finite)
        return f"{self.omega_coeff}w+{self.finite}"


OMEGA = Ordinal(1, 0)


def parse_ordinal(text: str) -> Ordinal:
    """Parse '<b>' or '<a>w+<b>' (e.g. '3', '2w+5')."""
    m = _ORDINAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed ordinal {text!r}; expected '<b>' or '<a>w+<b>'")
    a = int(m.group(1)) if m.group(1) is not None else 0
    return Ordinal(a, int(m.group(2)))
