"""Exact symbolic subsets of the rational line, and ordinal-labelled
iteration of supplied set-valued eliminators for infinite-strategy games.

A SymbolicSet is a finite union of rational intervals (open or closed ends,
optionally unbounded) and isolated rational points, kept in a canonical form:
pieces pairwise disjoint, sorted, with touching pieces merged.  Equality of
canonical forms is decidable set equality.  Union, intersection, difference
and complement are one merge walk (`_walk`) over two canonical operands'
boundary cuts, exact and canonical by construction; the canonical form of
any pieces is their union, one piece at a time.  Endpoints are Fractions;
the only floats anywhere are the +/-inf sentinels of unbounded pieces.
Every comparison of endpoints is `_cmp`, which tells a sentinel by its
class, so no Fraction is ever compared with a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isinf
from typing import Callable

from .errors import ValidationError
from .ordinals import OMEGA, Ordinal
from .reports import CheckReport

INF = float("inf")
NEG_INF = float("-inf")

# successor steps iterate_symbolic takes in each omega-block before its limit
PROBE_DEPTH = 32
# the most iterates a `transfinite run --bound` may allow
DEFAULT_ITERATE_BUDGET = 1000


def _cmp(a, b) -> int:
    """-1, 0 or 1 as endpoint a lies below, at or above endpoint b, exactly.

    Rationals (Fractions or ints) compare by their cross-multiplied
    numerators and denominators, read from two Fractions' own fields rather
    than through their properties, which cost a call each.  An infinite
    sentinel is told by its class and, against a rational, settled by its
    sign; two floats, or a rational and a finite float endpoint, keep
    Python's own order."""
    if a is b:
        return 0
    if a.__class__ is float or b.__class__ is float:
        if a.__class__ is not float and isinf(b):
            return -1 if b > 0 else 1
        if b.__class__ is not float and isinf(a):
            return 1 if a > 0 else -1
        return (a > b) - (a < b)
    if a.__class__ is Fraction is b.__class__:
        x = a._numerator * b._denominator
        y = b._numerator * a._denominator
    else:
        x = a.numerator * b.denominator
        y = b.numerator * a.denominator
    return (x > y) - (x < y)


def _fmt_endpoint(v) -> str:
    if v.__class__ is float and isinf(v):
        return "inf" if v > 0 else "-inf"
    return str(v)


def _parse_endpoint(text: str):
    if text == "inf":
        return INF
    if text == "-inf":
        return NEG_INF
    return Fraction(text)


@dataclass(frozen=True)
class Piece:
    """One interval [lo,hi] with independently open or closed ends; a point
    is the degenerate both-closed case lo == hi."""

    lo: object
    hi: object
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if self.lo_closed and _cmp(self.lo, NEG_INF) == 0:
            raise ValueError("-inf cannot be a closed end")
        if self.hi_closed and _cmp(self.hi, INF) == 0:
            raise ValueError("inf cannot be a closed end")
        order = _cmp(self.lo, self.hi)
        if order > 0:
            raise ValueError("empty piece")
        if order == 0 and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate piece must be a closed point")

    @property
    def is_point(self) -> bool:
        return _cmp(self.lo, self.hi) == 0

    def contains(self, q: Fraction) -> bool:
        low = _cmp(q, self.lo)
        if low < 0 or (low == 0 and not self.lo_closed):
            return False
        high = _cmp(q, self.hi)
        return high < 0 or (high == 0 and self.hi_closed)

    def to_json_dict(self) -> dict:
        return {
            "lo": _fmt_endpoint(self.lo),
            "hi": _fmt_endpoint(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    def __str__(self) -> str:
        if self.is_point:
            return "{%s}" % self.lo
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{_fmt_endpoint(self.lo)},{_fmt_endpoint(self.hi)}{right}"


# the truth tables `_walk` keeps by: bit s is set when a point lying in the
# first operand iff s & 1, and in the second iff s & 2, is kept
_UNION, _INTERSECTION, _DIFFERENCE, _COMPLEMENT = 0b1110, 0b1000, 0b0010, 0b0101

# a cut above every cut of a piece, ending each operand's cut list
_END = (INF, True)


def _cuts(pieces) -> list:
    """Each piece's start and end cut as (q, side) pairs, in order, then
    `_END`."""
    cuts = []
    for p in pieces:
        cuts += (p.lo, not p.lo_closed), (p.hi, p.hi_closed)
    cuts.append(_END)
    return cuts


def _walk(a, b, keep: int) -> tuple[Piece, ...]:
    """The canonical pieces of the points kept by the truth table keep, from
    the canonical pieces a and b.

    Each piece spans two cuts, (q, False) just below q and (q, True) just
    above it: its start cut (lo, not lo_closed) and its end cut (hi,
    hi_closed).  Membership in a and in b is constant between consecutive
    distinct cuts, so the answer can change only at a cut: a piece starts
    where keep turns true and ends where it turns false.  A canonical set's
    cuts are strictly increasing: a piece's start cut comes before its end
    cut (lo < hi, or lo == hi with both ends closed), and the next piece
    starts above it (a gap between them: hi < lo', or hi == lo' with both
    ends open).  So two pointers merge a's and b's cuts in order, taking a
    cut of both at once when they coincide, and no cut list is sorted.  The
    pieces come out sorted, disjoint and with a gap between any two, the
    canonical form.  When keep holds outside both sets, as for a complement,
    the first piece starts at -inf; a piece that would end there, or start
    at +inf, holds no rational and is left out."""
    ca, cb = _cuts(a), _cuts(b)
    i = j = state = 0
    inside = keep & 1
    lo, lo_above = NEG_INF, True
    out = []
    while True:
        x, y = ca[i], cb[j]
        if x is y:
            break
        order = _cmp(x[0], y[0]) or x[1] - y[1]
        if order <= 0:
            q, side = x
            i += 1
            state ^= 1
        if order >= 0:
            q, side = y
            j += 1
            state ^= 2
        if keep >> state & 1 != inside:
            inside ^= 1
            if inside:
                lo, lo_above = q, side
            elif _cmp(q, NEG_INF):
                out.append(Piece(lo, q, not lo_above, side))
    if inside and _cmp(lo, INF):
        out.append(Piece(lo, INF, not lo_above, False))
    return tuple(out)


def _endpoint(v):
    """A bound of `SymbolicSet.interval` as an endpoint: an infinite float
    as it is, anything else as a Fraction."""
    if v.__class__ is Fraction or v.__class__ is float and isinf(v):
        return v
    return Fraction(v)


@dataclass(frozen=True)
class SymbolicSet:
    pieces: tuple[Piece, ...]

    @classmethod
    def from_pieces(cls, pieces) -> "SymbolicSet":
        # a lone valid piece holds a rational and is canonical already
        out = cls.empty()
        for p in pieces:
            out = out.union(cls((p,)))
        return out

    @classmethod
    def empty(cls) -> "SymbolicSet":
        return cls(())

    @classmethod
    def interval(cls, lo, hi, lo_closed=True, hi_closed=True) -> "SymbolicSet":
        """The rationals between lo and hi; empty when the bounds cross or
        meet without both ends closed.  Infinite ends are always open."""
        lo, hi = _endpoint(lo), _endpoint(hi)
        if _cmp(lo, NEG_INF) == 0:
            lo_closed = False
        if _cmp(hi, INF) == 0:
            hi_closed = False
        order = _cmp(lo, hi)
        if order > 0 or (order == 0 and not (lo_closed and hi_closed)):
            return cls.empty()
        return cls((Piece(lo, hi, lo_closed, hi_closed),))

    @classmethod
    def point(cls, q) -> "SymbolicSet":
        q = Fraction(q)
        return cls((Piece(q, q, True, True),))

    @classmethod
    def points(cls, qs) -> "SymbolicSet":
        return cls.from_pieces([Piece(Fraction(q), Fraction(q), True, True) for q in qs])

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, q) -> bool:
        q = Fraction(q)
        return any(p.contains(q) for p in self.pieces)

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        if not self.pieces:
            return other
        if not other.pieces:
            return self
        return SymbolicSet(_walk(self.pieces, other.pieces, _UNION))

    def intersection(self, other: "SymbolicSet") -> "SymbolicSet":
        if not self.pieces or not other.pieces:
            return SymbolicSet.empty()
        return SymbolicSet(_walk(self.pieces, other.pieces, _INTERSECTION))

    def complement(self) -> "SymbolicSet":
        return SymbolicSet(_walk(self.pieces, (), _COMPLEMENT))

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        if not self.pieces or not other.pieces:
            return self
        return SymbolicSet(_walk(self.pieces, other.pieces, _DIFFERENCE))

    def issubset(self, other: "SymbolicSet") -> bool:
        return self.difference(other).is_empty

    def infimum(self) -> tuple[object, bool]:
        """(value, attained); raises on the empty set."""
        if self.is_empty:
            raise ValueError("the empty set has no infimum here")
        p = self.pieces[0]
        return p.lo, p.lo_closed

    def probe(self) -> Fraction:
        """A rational member of the first piece: the point itself, the
        midpoint of a bounded interval, or one away from a ray's finite end
        (-1 on the whole line).  Raises on the empty set."""
        if self.is_empty:
            raise ValueError("the empty set has no probe point")
        p = self.pieces[0]
        if _cmp(p.lo, NEG_INF) == 0:
            return Fraction(-1) if _cmp(p.hi, INF) == 0 else p.hi - 1
        if _cmp(p.hi, INF) == 0:
            return p.lo + 1
        return (p.lo + p.hi) / 2

    def to_json_dict(self) -> dict:
        return {"pieces": [p.to_json_dict() for p in self.pieces]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SymbolicSet":
        return cls.from_pieces(
            [
                Piece(
                    _parse_endpoint(item["lo"]),
                    _parse_endpoint(item["hi"]),
                    item["lo_closed"],
                    item["hi_closed"],
                )
                for item in d["pieces"]
            ]
        )

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " u ".join(str(p) for p in self.pieces)


@dataclass(frozen=True)
class SymbolicGame:
    """Infinite-strategy elimination given by code: per-player initial sets,
    a one-round eliminator, and a rule producing the intersection of the
    current infinite chain of iterates at a limit ordinal.  The limit rule
    gets the iterates since the last limit, the last of them not a fixpoint,
    and raises a ValidationError with stage "limit" when it cannot decide
    that intersection from them."""

    name: str
    initial: tuple[SymbolicSet, ...]
    step: Callable[[tuple[SymbolicSet, ...]], tuple[SymbolicSet, ...]]
    limit: Callable[[list[tuple[SymbolicSet, ...]]], tuple[SymbolicSet, ...]]
    encodes: str | None = None


@dataclass(frozen=True)
class SymbolicTrace:
    steps: tuple[tuple[Ordinal, tuple[SymbolicSet, ...]], ...]
    status: str  # "fixpoint" | "unresolved"
    closure_ordinal: Ordinal | None
    outcome: tuple[SymbolicSet, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {"ordinal": str(o), "sets": [s.to_json_dict() for s in sets]}
                for o, sets in self.steps
            ],
            "status": self.status,
            "closure_ordinal": None
            if self.closure_ordinal is None
            else str(self.closure_ordinal),
            "outcome": None
            if self.outcome is None
            else [s.to_json_dict() for s in self.outcome],
        }


def _check_descent(prev, nxt, stage: str, where: str):
    for i, (a, b) in enumerate(zip(prev, nxt)):
        diff = b.difference(a)
        if not diff.is_empty:
            probe = diff.probe()
            raise ValidationError(
                f"{where}: player {i + 1}'s set grew (probe point {probe})",
                stage,
                witness=probe,
            )


def iterate_symbolic(
    game: SymbolicGame, bound: Ordinal, probe_depth: int = PROBE_DEPTH
) -> SymbolicTrace:
    """Apply the eliminator at successor ordinals and the limit rule at
    omega-multiples, stopping at the first fixpoint or at the bound.

    Every iterate is tested for a fixpoint first.  Within each omega-block at
    most probe_depth successor steps are taken before the limit rule is
    consulted; the final block is capped by the bound's finite part.
    Reaching the bound without a fixpoint is an explicit 'unresolved'
    status, never silent truncation.
    """
    current = game.initial
    label = Ordinal(0, 0)
    steps = [(label, current)]
    block = [current]
    while True:
        nxt = game.step(current)
        _check_descent(current, nxt, "step", f"step at {label.successor()}")
        if nxt == current:
            return SymbolicTrace(tuple(steps), "fixpoint", label, current)
        in_final_block = label.omega_coeff == bound.omega_coeff
        if label.finite < (bound.finite if in_final_block else probe_depth):
            label = label.successor()
            block.append(nxt)
            current = nxt
        elif in_final_block:
            return SymbolicTrace(tuple(steps), "unresolved", None, None)
        else:
            lim = game.limit(block)
            _check_descent(current, lim, "limit", f"limit at {label.next_limit()}")
            label = label.next_limit()
            block = [lim]
            current = lim
        steps.append((label, current))


def validate_witness(game: SymbolicGame, probe_depth: int = 16) -> CheckReport:
    """Iterate a symbolic game up to 2w+probe_depth and report whether the
    first limit was a fixpoint already.

    iterate_symbolic checks every successor and every limit for exact
    descent, so a trace that returns descends throughout and every limit lies
    inside every iterate of its block; a failed check is reported with its
    probe point."""
    details: dict = {"witness": game.name, "encodes": game.encodes}
    try:
        trace = iterate_symbolic(game, Ordinal(2, probe_depth), probe_depth=probe_depth)
    except ValidationError as exc:
        kind = (
            "limit-containment-failure"
            if exc.stage == "limit"
            else "step-contraction-failure"
        )
        return CheckReport(
            name="witness-validation",
            passed=False,
            details=details,
            entries=[{"kind": kind, "message": str(exc), "probe": str(exc.witness)}],
        )
    details["status"] = trace.status
    details["closure_ordinal"] = (
        None if trace.closure_ordinal is None else str(trace.closure_ordinal)
    )
    details["steps_recorded"] = len(trace.steps)

    by_label = dict(trace.steps)
    omega_value = by_label.get(OMEGA)
    omega_next = by_label.get(OMEGA.successor())
    transfinite_required = None
    if omega_value is not None:
        if omega_next is not None:
            transfinite_required = omega_next != omega_value
        elif trace.status == "fixpoint" and trace.closure_ordinal == OMEGA:
            transfinite_required = False
    details["transfinite_required"] = transfinite_required
    return CheckReport(name="witness-validation", passed=True, details=details)
