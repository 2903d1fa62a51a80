"""Generic operator iteration on the restriction lattice, with exhaustive
desk-scale verifiers for the classic fixpoint facts.

Operators are plain callables Restriction -> Restriction over one game.
Iteration starts at the top element and stops at the first fixpoint; finite
games never need a limit step, so the trace ordinals are all finite here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import BudgetError
from .games import (
    Game,
    Restriction,
    all_restrictions,
    count_comparable_pairs,
    lattice_join,
    lattice_leq,
    lattice_meet,
    masks_leq,
    restriction_bottom,
    restriction_from_names,
    restriction_top,
)
from .ordinals import Ordinal, parse_ordinal
from .reports import CheckReport

Operator = Callable[[Restriction], Restriction]

DEFAULT_LATTICE_BUDGET = 1 << 16
DEFAULT_PAIR_BUDGET = 2_000_000


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
        nxt = op(current)
        yield current, nxt
        if nxt == current:
            return
        k += 1
        if k > budget:
            raise BudgetError(
                f"no fixpoint within {budget} iterations", attempted=k
            )
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
    return op(g) == g


def is_post_fixpoint(op: Operator, g: Restriction) -> bool:
    return lattice_leq(g, op(g))


# -- mask-level verifiers -----------------------------------------------------


def _submasks(m: int) -> list[int]:
    """The submasks of m, from m itself down to 0."""
    subs = [m]
    while subs[-1]:
        subs.append((subs[-1] - 1) & m)
    return subs


def _submask_tuples(masks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every componentwise submask tuple of `masks` (including itself), each
    component descending from its mask, the first component varying
    fastest."""
    for rev in itertools.product(*(_submasks(m) for m in reversed(masks))):
        yield rev[::-1]


def _image_table(
    op: Operator, game: Game, max_restrictions: int
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The masks of op(G) for every restriction G, keyed by G's masks, in
    lattice order."""
    return {
        g.masks: op(g).masks
        for g in all_restrictions(game, max_count=max_restrictions)
    }


def non_monotone_pairs(table: dict) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every comparable pair (small, big) of restrictions whose table entries
    are not componentwise included, in a fixed order.

    `table` maps the masks of every restriction to a mask tuple and lists its
    keys in lattice order, as `all_restrictions` yields them."""
    for big, img_big in table.items():
        for small in _submask_tuples(big):
            if not masks_leq(table[small], img_big):
                yield small, big


def _monotonicity_counterexample(game: Game, table: dict) -> tuple | None:
    """First comparable pair with a non-monotone image, in a fixed order.

    `table` covers the lattice of `game`; its callers check the pair budget
    of `game` before they build the table."""
    return next(non_monotone_pairs(table), None)


def verify_tarski(
    op: Operator,
    game: Game,
    op_name: str = "operator",
    max_restrictions: int = DEFAULT_LATTICE_BUDGET,
) -> CheckReport:
    """Exhaustively confirm outcome = largest fixpoint = join of post-fixpoints.

    The operator must pass an exhaustive monotonicity check first; a failure
    there is reported as a precondition violation, not raised.
    """
    count_comparable_pairs(game, DEFAULT_PAIR_BUDGET)
    table = _image_table(op, game, max_restrictions)
    details = {
        "game": game.name,
        "operator": op_name,
        "restrictions": len(table),
    }

    violation = _monotonicity_counterexample(game, table)
    if violation is not None:
        small, big = violation
        return CheckReport(
            name="tarski",
            passed=False,
            details={**details, "precondition_violation": "operator is not monotonic"},
            entries=[
                {
                    "kind": "monotonicity-violation",
                    "smaller": Restriction.from_masks(game, small).names(),
                    "larger": Restriction.from_masks(game, big).names(),
                    "image_smaller": Restriction.from_masks(game, table[small]).names(),
                    "image_larger": Restriction.from_masks(game, table[big]).names(),
                }
            ],
        )

    outcome = iterate_operator(op, game).outcome
    fixpoints = [Restriction.from_masks(game, m) for m, img in table.items() if img == m]
    post_fixpoints = [
        Restriction.from_masks(game, m) for m, img in table.items() if masks_leq(m, img)
    ]
    bottom = restriction_bottom(game)
    largest_fixpoint = lattice_join([bottom, *fixpoints])
    post_join = lattice_join([bottom, *post_fixpoints])
    entries = []
    if table.get(largest_fixpoint.masks) != largest_fixpoint.masks:
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
    """Iterate from the top, checking each step descends, and confirm the
    iteration stops at a fixpoint within sum-of-strategy-set-sizes steps.

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
        closure = Ordinal(0, len(steps) - 1)
        bound = sum(game.sizes)
        if closure.finite > bound:
            entries.append(
                {
                    "kind": "closure-exceeds-size-bound",
                    "closure": str(closure),
                    "bound": bound,
                }
            )
        details["closure_ordinal"] = str(closure)
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
    Conclusion: outcome(op1) is included in outcome(op2)."""
    count_comparable_pairs(game, DEFAULT_PAIR_BUDGET)
    table1 = _image_table(op1, game, max_restrictions)
    table2 = _image_table(op2, game, max_restrictions)
    entries = []
    hypotheses = {"pointwise": True, "op1_monotonic": True, "op2_contracting": True}
    for m, img1 in table1.items():
        if not masks_leq(img1, table2[m]):
            hypotheses["pointwise"] = False
            entries.append(
                {
                    "kind": "pointwise-inclusion-violation",
                    "restriction": Restriction.from_masks(game, m).names(),
                    "op1_image": Restriction.from_masks(game, img1).names(),
                    "op2_image": Restriction.from_masks(game, table2[m]).names(),
                }
            )
            break
    violation = _monotonicity_counterexample(game, table1)
    if violation is not None:
        small, big = violation
        hypotheses["op1_monotonic"] = False
        entries.append(
            {
                "kind": "op1-monotonicity-violation",
                "smaller": Restriction.from_masks(game, small).names(),
                "larger": Restriction.from_masks(game, big).names(),
            }
        )
    for m, img2 in table2.items():
        if not masks_leq(img2, m):
            hypotheses["op2_contracting"] = False
            entries.append(
                {
                    "kind": "op2-contraction-violation",
                    "restriction": Restriction.from_masks(game, m).names(),
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


def exhaustive_lattice_laws(game: Game, max_restrictions: int = 1 << 8) -> CheckReport:
    """Partial-order and glb/lub laws, checked on a fully enumerated lattice.

    Pairs are checked with the lattice operations on Restriction objects,
    against componentwise inclusion of their masks; the two greatest/least
    quantifiers run over the masks so games up to eight strategies total
    stay fast.
    """
    restrictions = list(all_restrictions(game, max_count=max_restrictions))
    entries = []
    for a in restrictions:
        ma = a.masks
        if not lattice_leq(a, a):
            entries.append({"kind": "not-reflexive", "restriction": a.names()})
        for b in restrictions:
            mb = b.masks
            if lattice_leq(a, b) != all(x <= y for x, y in zip(a.sets, b.sets)):
                entries.append({"kind": "leq-disagrees-with-inclusion"})
            if lattice_leq(a, b) and lattice_leq(b, a) and a != b:
                entries.append({"kind": "not-antisymmetric"})
            meet = lattice_meet([a, b]).masks
            join = lattice_join([a, b]).masks
            if not (masks_leq(meet, ma) and masks_leq(meet, mb)):
                entries.append({"kind": "meet-not-lower-bound"})
            if not (masks_leq(ma, join) and masks_leq(mb, join)):
                entries.append({"kind": "join-not-upper-bound"})
            for c in restrictions:
                mc = c.masks
                if masks_leq(mc, ma) and masks_leq(mc, mb) and not masks_leq(mc, meet):
                    entries.append({"kind": "meet-not-greatest"})
                if masks_leq(ma, mc) and masks_leq(mb, mc) and not masks_leq(join, mc):
                    entries.append({"kind": "join-not-least"})
    return CheckReport(
        name="lattice-laws",
        passed=not entries,
        details={"game": game.name, "restrictions": len(restrictions)},
        entries=entries[:5],
    )
