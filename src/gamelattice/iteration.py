"""Generic operator iteration on the restriction lattice, with exhaustive
desk-scale verifiers for the classic fixpoint facts.

Operators are callables Restriction -> Restriction over one game; one may
also build its whole image table itself (`image_table`), held as its
bit-slices, on which every verifier asks its question bitwise.
Iteration starts at the top element and stops at the first fixpoint; finite
games never need a limit step, so the trace ordinals are all finite here.
"""

from __future__ import annotations

import itertools
import struct
import sys
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterator

from .games import (
    Game,
    Restriction,
    all_restrictions,
    check_budget,
    check_same_game,
    lattice_leq,
    mask_members,
    restriction_at,
    restriction_from_names,
    restriction_top,
)
from .ordinals import Ordinal, parse_ordinal
from .reports import CheckReport

Operator = Callable[[Restriction], Restriction]

DEFAULT_LATTICE_BUDGET = 1 << 16


@dataclass(frozen=True)
class IterationTrace:
    """Ordinal-labelled iterates from the top element down to the outcome."""

    steps: tuple[tuple[Ordinal, Restriction], ...]
    closure_ordinal: Ordinal
    outcome: Restriction

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {"ordinal": str(o), "restriction": r.names()}
                for o, r in self.steps
            ],
            "closure_ordinal": str(self.closure_ordinal),
            "outcome": self.outcome.names(),
        }


def trace_from_json_dict(game: Game, d: dict) -> IterationTrace:
    steps = tuple(
        (parse_ordinal(item["ordinal"]), restriction_from_names(game, item["restriction"]))
        for item in d["steps"]
    )
    return IterationTrace(
        steps=steps,
        closure_ordinal=parse_ordinal(d["closure_ordinal"]),
        outcome=restriction_from_names(game, d["outcome"]),
    )


def default_iteration_budget(game: Game) -> int:
    return 10 * sum(game.sizes)


def _apply(op: Operator, game: Game, g: Restriction) -> Restriction:
    """op(g); a ShapeError unless the image is a restriction of `game`."""
    image = op(g)
    check_same_game(game, image.game, "operator image")
    return image


def _iterates(
    op: Operator, game: Game, budget: int | None
) -> Iterator[tuple[Restriction, Restriction]]:
    """(G, op(G)) for G = top, op(top), ... up to and including the first
    fixpoint; a BudgetError after `budget` strict steps without one."""
    if budget is None:
        budget = default_iteration_budget(game)
    current = restriction_top(game)
    k = 0
    while True:
        nxt = _apply(op, game, current)
        yield current, nxt
        if nxt == current:
            return
        k += 1
        check_budget(k, budget, f"iteration of {k} strict steps without a fixpoint")
        current = nxt


def iterate_operator(
    op: Operator, game: Game, budget: int | None = None
) -> IterationTrace:
    """Iterate op from the top element until the first fixpoint."""
    steps = tuple(
        (Ordinal(0, k), g) for k, (g, _) in enumerate(_iterates(op, game, budget))
    )
    return IterationTrace(steps, steps[-1][0], steps[-1][1])


def is_fixpoint(op: Operator, g: Restriction) -> bool:
    return _apply(op, g.game, g) == g


def is_post_fixpoint(op: Operator, g: Restriction) -> bool:
    return lattice_leq(g, op(g))


# -- index-level verifiers ----------------------------------------------------


def _submasks(m: int) -> list[int]:
    """The submasks of m, from m itself down to 0."""
    subs = [m]
    while subs[-1]:
        subs.append((subs[-1] - 1) & m)
    return subs


def image_table(op: Operator, game: Game, max_restrictions: int) -> list[int]:
    """op's image table as its K bit-slices, K the game's lattice bits: bit X
    of slice b is bit b of op(G).index for the restriction G at index X,
    within the lattice budget `max_restrictions`.  The operator's own
    `table(game, max_restrictions)` builds it when it has one, else one walk
    of the lattice in the order of `all_restrictions`, converted once by
    `table_slices`."""
    table = getattr(op, "table", None)
    if table is not None:
        return table(game, max_restrictions)
    images = [
        _apply(op, game, g).index for g in all_restrictions(game, max_count=max_restrictions)
    ]
    return table_slices(images, sum(game.sizes))


def image_at(slices: list[int], x: int) -> int:
    """Entry X of the table with bit-slices `slices`, by one bit test each."""
    return sum((bits >> x & 1) << b for b, bits in enumerate(slices))


def outside(a: list[int], b: list[int]) -> int:
    """The indices where the entry of the table with slices `a` holds a bit
    the one with slices `b` lacks, as one int: the OR over bits of a_b & ~b_b."""
    return reduce(or_, (x & ~y for x, y in zip(a, b)), 0)


def lattice_patterns(k: int) -> list[int]:
    """Per lattice bit b < k, its bit-slice over a lattice of k bits: the
    2^k-bit int whose bit X is bit b of X, 2^b zeros then 2^b ones,
    repeated by doubling."""
    patterns = []
    for b in range(k):
        run = 1 << b
        pattern, width = ((1 << run) - 1) << run, run << 1
        while width < 1 << k:
            pattern |= pattern << width
            width <<= 1
        patterns.append(pattern)
    return patterns


# per bit position in a byte: every byte value to the ASCII digit of that bit
_DIGITS = [bytes(b"01"[v >> bit & 1] for v in range(256)) for bit in range(8)]
_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # lane width in bytes: its struct format


def table_slices(images: list[int], k: int) -> list[int]:
    """The k bit-slices of `images`, whose entries lie below 2^k: bit X of
    slice b is bit b of images[X].  The entries are packed into lanes wide
    enough for k bits, and each bit's byte column, taken with a stride, is
    translated to its slice's binary digits, lowest index first, and read
    as one int.  Every step runs over whole strings and ints, none per
    index."""
    width = min(w for w in _LANES if 8 * w >= k)
    lanes = struct.pack(f"{len(images)}{_LANES[width]}", *images)
    slices = []
    for b in range(k):
        byte = b // 8 if sys.byteorder == "little" else width - 1 - b // 8
        column = lanes[byte::width].translate(_DIGITS[b % 8])
        slices.append(int(column[::-1], 2))
    return slices


def violating_indices(slices: list[int]) -> int:
    """The lattice indices with a violation below them, as one int: bit X is
    set where some smaller index's entry of the table with bit-slices
    `slices` holds a bit that X's own entry lacks.

    Each slice S_c is closed upward along each lattice bit b by one shift-OR
    of the indices with b clear onto those with b set; X has a violation in
    bit c exactly where the up-closure of S_c holds X and S_c does not."""
    full = (1 << (1 << len(slices))) - 1
    lows = [full ^ pattern for pattern in lattice_patterns(len(slices))]
    violating = 0
    for bits in slices:
        up = bits
        for b, low in enumerate(lows):
            up |= (up & low) << (1 << b)
        violating |= up & ~bits
    return violating


def violation_count(slices: list[int]) -> int:
    """The number of (X, smaller index, entry bit) triples whose bit the
    smaller index's entry of the table with bit-slices `slices` holds and
    X's own entry lacks, the violations `violating_indices` marks.

    Per slice S, z(X) = |{Y subset of X : Y in S}| is held as bit planes,
    plane j holding bit j of every z.  Along each lattice bit b the planes,
    taken at the indices with b clear and shifted onto those with b set,
    are added with a ripple carry; the slice's count is the sum over j of
    2^j * popcount(plane_j & ~S)."""
    full = (1 << (1 << len(slices))) - 1
    lows = [full ^ pattern for pattern in lattice_patterns(len(slices))]
    count = 0
    for bits in slices:
        planes = [bits]
        for b, low in enumerate(lows):
            carry = 0
            for j, plane in enumerate(planes):
                addend = (plane & low) << (1 << b)
                planes[j] = plane ^ addend ^ carry
                carry = plane & addend | carry & (plane ^ addend)
            if carry:
                planes.append(carry)
        count += sum((plane & ~bits).bit_count() << j for j, plane in enumerate(planes))
    return count


def non_monotone_pairs(
    sizes: tuple[int, ...], slices: list[int], violating: int
) -> Iterator[tuple[int, int, int]]:
    """(small, big, lost) for every comparable pair of lattice indices whose
    entries in the table with bit-slices `slices` are not included, with
    lost = entry(small) & ~entry(big), in a fixed order, given `violating`,
    the table's `violating_indices`.

    The table holds one lattice index per restriction over strategy sets of
    the given sizes, so its entries are ordered as the lattice is.  The
    larger indices are the set bits of `violating`, ascending, and the
    smaller ones below each are listed with every player's field descending
    through its submasks, the first player's field varying fastest.  Each
    smaller index is tested against the OR of the slices of the bits the
    larger one's entry lacks, and only a yielded pair's entries are read
    (`image_at`), so a monotone table, whose mask is 0, lists nothing and
    reads no entry."""
    # (shift, size) per player's field, the last (lowest) player's first, so
    # that the first player's field, the product's last factor, varies fastest
    fields = list(zip(itertools.accumulate(sizes[::-1], initial=0), sizes[::-1]))
    for big in mask_members(violating):
        img_big = image_at(slices, big)
        lacking = reduce(or_, (bits for b, bits in enumerate(slices) if not img_big >> b & 1), 0)
        parts = [[m << shift for m in _submasks(big >> shift & (1 << k) - 1)] for shift, k in fields]
        for part in itertools.product(*parts):
            small = sum(part)
            if lacking >> small & 1:
                yield small, big, image_at(slices, small) & ~img_big


def verify_tarski(
    op: Operator,
    game: Game,
    op_name: str = "operator",
    max_restrictions: int = DEFAULT_LATTICE_BUDGET,
) -> CheckReport:
    """Exhaustively confirm outcome = largest fixpoint = join of post-fixpoints.

    The operator must pass an exhaustive monotonicity check first, decided
    by the up-closure of its image table's slices (`violating_indices`) with
    no violation counted; a failure there is reported as a precondition
    violation, with the first non-monotone pair, not raised.  A join of
    fixpoints or post-fixpoints has lattice bit b where they meet its pattern.
    """
    slices = image_table(op, game, max_restrictions)
    details = {
        "game": game.name,
        "operator": op_name,
        "restrictions": 1 << len(slices),
    }

    violation = next(non_monotone_pairs(game.sizes, slices, violating_indices(slices)), None)
    if violation is not None:
        small, big, _ = violation
        return CheckReport(
            name="tarski",
            passed=False,
            details={**details, "precondition_violation": "operator is not monotonic"},
            entries=[
                {
                    "kind": "monotonicity-violation",
                    "smaller": restriction_at(game, small).names(),
                    "larger": restriction_at(game, big).names(),
                    "image_smaller": restriction_at(game, image_at(slices, small)).names(),
                    "image_larger": restriction_at(game, image_at(slices, big)).names(),
                }
            ],
        )

    outcome = iterate_operator(op, game).outcome
    patterns = lattice_patterns(len(slices))
    full = (1 << (1 << len(slices))) - 1
    post_fixpoints = full & ~outside(patterns, slices)
    fixpoints = post_fixpoints & ~outside(slices, patterns)
    # both joins start from the bottom, index 0
    largest_fixpoint, post_join = (
        restriction_at(game, sum(1 << b for b, p in enumerate(patterns) if joined & p))
        for joined in (fixpoints, post_fixpoints)
    )
    entries = []
    if not fixpoints >> largest_fixpoint.index & 1:
        entries.append(
            {"kind": "fixpoint-join-not-fixpoint", "join": largest_fixpoint.names()}
        )
    if outcome != largest_fixpoint:
        entries.append(
            {
                "kind": "outcome-differs-from-largest-fixpoint",
                "outcome": outcome.names(),
                "largest_fixpoint": largest_fixpoint.names(),
            }
        )
    if outcome != post_join:
        entries.append(
            {
                "kind": "outcome-differs-from-post-fixpoint-join",
                "outcome": outcome.names(),
                "post_fixpoint_join": post_join.names(),
            }
        )
    details.update(
        {
            "outcome": outcome.names(),
            "fixpoints": fixpoints.bit_count(),
            "post_fixpoints": post_fixpoints.bit_count(),
        }
    )
    return CheckReport(name="tarski", passed=not entries, details=details, entries=entries)


def verify_contracting_outcome(
    op: Operator,
    game: Game,
    op_name: str = "operator",
    budget: int | None = None,
) -> CheckReport:
    """Iterate from the top to a fixpoint, checking each step descends.  A
    descending strict step removes a strategy, so the closure ordinal never
    exceeds the sum of the strategy-set sizes.

    The iterates themselves are the contraction sample; a step that grows is
    reported with the witness restriction.  Like iterate_operator, this
    raises a BudgetError when `budget` steps reach no fixpoint.
    """
    entries = []
    steps = []
    for current, nxt in _iterates(op, game, budget):
        steps.append(current)
        if not lattice_leq(nxt, current):
            entries.append(
                {
                    "kind": "contraction-violation",
                    "restriction": current.names(),
                    "image": nxt.names(),
                }
            )
            break
    details = {"game": game.name, "operator": op_name}
    if not entries:
        details["closure_ordinal"] = str(Ordinal(0, len(steps) - 1))
        details["outcome"] = steps[-1].names()
    return CheckReport(
        name="contracting-outcome",
        passed=not entries,
        details=details,
        entries=entries,
    )


def verify_inclusion_lemma(
    op1: Operator,
    op2: Operator,
    game: Game,
    op1_name: str = "op1",
    op2_name: str = "op2",
    max_restrictions: int = DEFAULT_LATTICE_BUDGET,
) -> CheckReport:
    """Hypotheses: op1 pointwise below op2, op1 monotonic, op2 contracting.
    Conclusion: outcome(op1) is included in outcome(op2).  op1's
    monotonicity is decided by the up-closure of its image table's slices;
    each other hypothesis fails at the lowest index of one OR of slices."""
    slices1 = image_table(op1, game, max_restrictions)
    slices2 = image_table(op2, game, max_restrictions)
    entries = []
    hypotheses = {"pointwise": True, "op1_monotonic": True, "op2_contracting": True}
    failed = outside(slices1, slices2)
    if failed:
        idx = (failed & -failed).bit_length() - 1
        hypotheses["pointwise"] = False
        entries.append(
            {
                "kind": "pointwise-inclusion-violation",
                "restriction": restriction_at(game, idx).names(),
                "op1_image": restriction_at(game, image_at(slices1, idx)).names(),
                "op2_image": restriction_at(game, image_at(slices2, idx)).names(),
            }
        )
    violation = next(non_monotone_pairs(game.sizes, slices1, violating_indices(slices1)), None)
    if violation is not None:
        small, big, _ = violation
        hypotheses["op1_monotonic"] = False
        entries.append(
            {
                "kind": "op1-monotonicity-violation",
                "smaller": restriction_at(game, small).names(),
                "larger": restriction_at(game, big).names(),
            }
        )
    failed = outside(slices2, lattice_patterns(len(slices2)))
    if failed:
        hypotheses["op2_contracting"] = False
        entries.append(
            {
                "kind": "op2-contraction-violation",
                "restriction": restriction_at(game, (failed & -failed).bit_length() - 1).names(),
            }
        )
    out1 = iterate_operator(op1, game).outcome
    out2 = iterate_operator(op2, game).outcome
    inclusion = lattice_leq(out1, out2)
    if not inclusion:
        entries.append(
            {
                "kind": "outcome-inclusion-violation",
                "op1_outcome": out1.names(),
                "op2_outcome": out2.names(),
            }
        )
    return CheckReport(
        name="inclusion-lemma",
        passed=all(hypotheses.values()) and inclusion,
        details={
            "game": game.name,
            "op1": op1_name,
            "op2": op2_name,
            "hypotheses": hypotheses,
            "outcome_inclusion": inclusion,
            "op1_outcome": out1.names(),
            "op2_outcome": out2.names(),
        },
        entries=entries,
    )
