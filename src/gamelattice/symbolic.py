"""Exact symbolic subsets of the rational line, and ordinal-labelled
iteration of supplied set-valued eliminators for infinite-strategy games.

A SymbolicSet is a finite union of rational intervals (open or closed ends,
optionally unbounded) and isolated rational points, kept in a canonical form:
pieces pairwise disjoint, sorted, with touching pieces merged.  Equality of
canonical forms is decidable set equality.  The canonical form, union,
intersection, difference and complement are all one boundary sweep
(`_sweep`), exact and canonical by construction.  Endpoints are Fractions;
the only floats anywhere are the +/-inf sentinels of unbounded pieces, which
compare exactly against any Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _fmt_endpoint(v) -> str:
    if v == INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
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
        # each flag is tested before the comparison it guards, so a Fraction
        # is compared only where the flag leaves the verdict open
        if self.lo_closed and self.lo == NEG_INF:
            raise ValueError("-inf cannot be a closed end")
        if self.hi_closed and self.hi == INF:
            raise ValueError("inf cannot be a closed end")
        if self.lo > self.hi:
            raise ValueError("empty piece")
        if not (self.lo_closed and self.hi_closed) and self.lo == self.hi:
            raise ValueError("degenerate piece must be a closed point")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, q: Fraction) -> bool:
        if q < self.lo or (q == self.lo and not self.lo_closed):
            return False
        if q > self.hi or (q == self.hi and not self.hi_closed):
            return False
        return True

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


def _sweep(sets, keep) -> tuple[Piece, ...]:
    """The canonical pieces of the points q where keep(depths) holds, with
    depths[k] the number of pieces of sets[k] that contain q.

    Each piece spans two cuts, (q, False) just below q and (q, True) just
    above it.  Every depth is constant between consecutive distinct cuts, so
    the answer can change only at a cut: a piece starts where keep turns
    true and ends where it turns false.  Cuts that coincide count as one.
    The pieces come out sorted and disjoint with a gap between any two, the
    canonical form.  When keep holds with every depth 0, as for a
    complement, the first piece starts at -inf; a piece that would end
    there, or start at +inf, holds no rational and is left out."""
    cuts = []
    for k, pieces in enumerate(sets):
        for p in pieces:
            cuts += (p.lo, not p.lo_closed, k, 1), (p.hi, p.hi_closed, k, -1)
    cuts.sort()
    depths = [0] * len(sets)
    inside = keep(depths)
    lo, lo_above = NEG_INF, True
    out = []
    for i, (q, side, k, step) in enumerate(cuts, 1):
        depths[k] += step
        if i < len(cuts) and cuts[i][1] == side and cuts[i][0] == q:
            continue
        if keep(depths) != inside:
            inside = not inside
            if inside:
                lo, lo_above = q, side
            elif lo_above != side or lo != q:
                out.append(Piece(lo, q, not lo_above, side))
    if inside and lo != INF:
        out.append(Piece(lo, INF, not lo_above, False))
    return tuple(out)


@dataclass(frozen=True)
class SymbolicSet:
    pieces: tuple[Piece, ...]

    @classmethod
    def from_pieces(cls, pieces) -> "SymbolicSet":
        return cls(_sweep((pieces,), any))

    @classmethod
    def empty(cls) -> "SymbolicSet":
        return cls(())

    @classmethod
    def interval(cls, lo, hi, lo_closed=True, hi_closed=True) -> "SymbolicSet":
        """The rationals between lo and hi; empty when the bounds cross or
        meet without both ends closed.  Infinite ends are always open."""
        lo = lo if lo in (INF, NEG_INF) else Fraction(lo)
        hi = hi if hi in (INF, NEG_INF) else Fraction(hi)
        if lo == NEG_INF:
            lo_closed = False
        if hi == INF:
            hi_closed = False
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return cls.empty()
        return cls.from_pieces([Piece(lo, hi, lo_closed, hi_closed)])

    @classmethod
    def point(cls, q) -> "SymbolicSet":
        q = Fraction(q)
        return cls.from_pieces([Piece(q, q, True, True)])

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
        return SymbolicSet(_sweep((self.pieces, other.pieces), any))

    def intersection(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(_sweep((self.pieces, other.pieces), all))

    def complement(self) -> "SymbolicSet":
        return SymbolicSet(_sweep((self.pieces,), lambda d: not d[0]))

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(
            _sweep((self.pieces, other.pieces), lambda d: d[0] and not d[1])
        )

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
        if p.lo == NEG_INF:
            return Fraction(-1) if p.hi == INF else p.hi - 1
        if p.hi == INF:
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
