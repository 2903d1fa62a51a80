"""Generic operator iteration on the restriction lattice, with exhaustive
desk-scale verifiers for the classic fixpoint facts.

Operators are callables Restriction -> Restriction over one game; one may
also build its whole image table itself (`image_table`).
Iteration starts at the top element and stops at the first fixpoint; finite
games never need a limit step, so the trace ordinals are all finite here.
"""

from __future__ import annotations

import itertools
import struct
import sys
from dataclasses import dataclass
from functools import reduce
from operator import add, or_
from typing import Callable, Iterator

from .games import (
    Game,
    Restriction,
    all_restrictions,
    check_budget,
    check_same_game,
    lattice_leq,
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
    """The lattice index of op(G) for every restriction G, at G's own index,
    within the lattice budget `max_restrictions`: the operator's own
    `table(game, max_restrictions)` when it has one, else one walk of the
    lattice in the order of `all_restrictions`."""
    table = getattr(op, "table", None)
    if table is not None:
        return table(game, max_restrictions)
    return [
        _apply(op, game, g).index for g in all_restrictions(game, max_count=max_restrictions)
    ]


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


_BITS = bytes.maketrans(b"01", b"\0\1")
# per bit position in a byte: every byte value to the ASCII digit of that bit
_DIGITS = [bytes(b"01"[v >> bit & 1] for v in range(256)) for bit in range(8)]
_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # lane width in bytes: memoryview and struct format


def transpose_slices(slices: list[int], k: int) -> list[int]:
    """The 2^k ints whose bit b at index X is bit X of slices[b].  Each
    slice is written out as one byte per index (its binary digits, lowest
    first, translated to 0 and 1), spread to the low byte of lanes wide
    enough for every slice, shifted to its bit and ORed in; the lanes are
    then read as one array.  Every step runs over whole strings and ints,
    none per index."""
    count = 1 << k
    width = min(w for w in _LANES if 8 * w >= len(slices))
    low = 0 if sys.byteorder == "little" else width - 1
    lanes = 0
    for b, bits in enumerate(slices):
        if bits:
            plane = format(bits, f"0{count}b")[::-1].encode().translate(_BITS)
            if width > 1:
                spread = bytearray(count * width)
                spread[low::width] = plane
                plane = spread
            lanes |= int.from_bytes(plane, sys.byteorder) << b
    return memoryview(lanes.to_bytes(count * width, sys.byteorder)).cast(_LANES[width]).tolist()


def table_slices(images: list[int], k: int) -> list[int]:
    """The k bit-slices of `images`, whose entries lie below 2^k: bit X of
    slice b is bit b of images[X], the inverse of `transpose_slices`.  The
    entries are packed into the same lanes, and each bit's byte column,
    taken with a stride, is translated to its slice's binary digits, lowest
    index first, and read as one int.  Every step runs over whole strings
    and ints, none per index."""
    width = min(w for w in _LANES if 8 * w >= k)
    lanes = struct.pack(f"{len(images)}{_LANES[width]}", *images)
    slices = []
    for b in range(k):
        byte = b // 8 if sys.byteorder == "little" else width - 1 - b // 8
        column = lanes[byte::width].translate(_DIGITS[b % 8])
        slices.append(int(column[::-1], 2))
    return slices


def violating_indices(images: list[int]) -> int:
    """The lattice indices with a violation below them, as one int: bit X is
    set where some smaller index's entry of `images` holds a bit that X's
    own entry lacks, the nonzero pattern of `violations_below`.

    Per bit c of the entries, its slice S_c is closed upward along each
    lattice bit b by one shift-OR of the indices with b clear onto those
    with b set; X has a violation in bit c exactly where the up-closure of
    S_c holds X and S_c does not."""
    k = len(images).bit_length() - 1
    full = (1 << len(images)) - 1
    lows = [full ^ pattern for pattern in lattice_patterns(k)]
    violating = 0
    for bits in table_slices(images, k):
        up = bits
        for b, low in enumerate(lows):
            up |= (up & low) << (1 << b)
        violating |= up & ~bits
    return violating


def violations_below(images: list[int]) -> list[int]:
    """Per lattice index, the number of (smaller index, strategy bit) pairs
    whose bit is in the smaller index's entry of `images` but not in its own.
    `violating_indices` decides where these counts are nonzero; this subset
    sum is run only to count the violations `check monotone` reports.

    Each of the K bits' counts is a subset sum over the lattice (Yates 1937),
    packed as a field of one int per index wide enough for all K fields' sum:
    K passes add every index's sums into the index with one more bit, and the
    fields of the bits missing from an index's entry are summed by casting
    out (2^width - 1)s."""
    k = len(images).bit_length() - 1
    width = k + (k + 1).bit_length()
    field = (1 << width) - 1
    units = [0]  # units[m]: a 1 in field b for every bit b of m
    for b in range(k):
        units += [u + (1 << b * width) for u in units]
    sums = [units[img] for img in images]
    half = len(sums) // 2
    for _ in range(k):
        # add each index's sums into the index with its top bit set, then
        # rotate every index's bits left by one to bring the next bit on top
        low, high = sums[:half], list(map(add, sums[half:], sums[:half]))
        sums[0::2], sums[1::2] = low, high
    top = len(images) - 1
    return [(s & field * units[top ^ img]) % field for s, img in zip(sums, images)]


def non_monotone_pairs(
    sizes: tuple[int, ...], images: list[int], violating: int
) -> Iterator[tuple[int, int]]:
    """The lattice indices of every comparable pair (small, big) whose
    entries in `images` are not included, in a fixed order, given
    `violating`, the table's `violating_indices`.

    `images` holds one lattice index per restriction, at the restriction's
    own index, over strategy sets of the given sizes, so its entries are
    ordered as the lattice is.  The larger indices are the set bits of
    `violating`, ascending, and the smaller ones below each are listed with
    every player's field descending through its submasks, the first
    player's field varying fastest.  So a monotone table, whose mask is 0,
    lists nothing; a caller pays for one up-closure and the pairs it takes,
    and the lattice budget bounds both."""
    # (shift, size) per player's field, the last (lowest) player's first, so
    # that the first player's field, the product's last factor, varies fastest
    fields = list(zip(itertools.accumulate(sizes[::-1], initial=0), sizes[::-1]))
    digits = bin(violating)[:1:-1]  # bit X of the mask at position X
    big = digits.find("1")
    while big >= 0:
        img_big = images[big]
        parts = [[m << shift for m in _submasks(big >> shift & (1 << k) - 1)] for shift, k in fields]
        for part in itertools.product(*parts):
            small = sum(part)
            if images[small] & ~img_big:
                yield small, big
        big = digits.find("1", big + 1)


def verify_tarski(
    op: Operator,
    game: Game,
    op_name: str = "operator",
    max_restrictions: int = DEFAULT_LATTICE_BUDGET,
) -> CheckReport:
    """Exhaustively confirm outcome = largest fixpoint = join of post-fixpoints.

    The operator must pass an exhaustive monotonicity check first, decided
    by the up-closure of its image table (`violating_indices`) with no
    violation counted; a failure there is reported as a precondition
    violation, with the first non-monotone pair, not raised.
    """
    images = image_table(op, game, max_restrictions)
    details = {
        "game": game.name,
        "operator": op_name,
        "restrictions": len(images),
    }

    violation = next(non_monotone_pairs(game.sizes, images, violating_indices(images)), None)
    if violation is not None:
        small, big = violation
        return CheckReport(
            name="tarski",
            passed=False,
            details={**details, "precondition_violation": "operator is not monotonic"},
            entries=[
                {
                    "kind": "monotonicity-violation",
                    "smaller": restriction_at(game, small).names(),
                    "larger": restriction_at(game, big).names(),
                    "image_smaller": restriction_at(game, images[small]).names(),
                    "image_larger": restriction_at(game, images[big]).names(),
                }
            ],
        )

    outcome = iterate_operator(op, game).outcome
    fixpoints = [idx for idx, img in enumerate(images) if img == idx]
    post_fixpoints = [idx for idx, img in enumerate(images) if not idx & ~img]
    # both joins start from the bottom, index 0
    fixpoint_join = reduce(or_, fixpoints, 0)
    largest_fixpoint = restriction_at(game, fixpoint_join)
    post_join = restriction_at(game, reduce(or_, post_fixpoints, 0))
    entries = []
    if images[fixpoint_join] != fixpoint_join:
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
            "fixpoints": len(fixpoints),
            "post_fixpoints": len(post_fixpoints),
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
    monotonicity is decided by the up-closure of its image table."""
    images1 = image_table(op1, game, max_restrictions)
    images2 = image_table(op2, game, max_restrictions)
    entries = []
    hypotheses = {"pointwise": True, "op1_monotonic": True, "op2_contracting": True}
    for idx, (img1, img2) in enumerate(zip(images1, images2)):
        if img1 & ~img2:
            hypotheses["pointwise"] = False
            entries.append(
                {
                    "kind": "pointwise-inclusion-violation",
                    "restriction": restriction_at(game, idx).names(),
                    "op1_image": restriction_at(game, img1).names(),
                    "op2_image": restriction_at(game, img2).names(),
                }
            )
            break
    violation = next(non_monotone_pairs(game.sizes, images1, violating_indices(images1)), None)
    if violation is not None:
        small, big = violation
        hypotheses["op1_monotonic"] = False
        entries.append(
            {
                "kind": "op1-monotonicity-violation",
                "smaller": restriction_at(game, small).names(),
                "larger": restriction_at(game, big).names(),
            }
        )
    for idx, img2 in enumerate(images2):
        if img2 & ~idx:
            hypotheses["op2_contracting"] = False
            entries.append(
                {
                    "kind": "op2-contraction-violation",
                    "restriction": restriction_at(game, idx).names(),
                }
            )
            break
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
