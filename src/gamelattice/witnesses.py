"""Bundled symbolic games: a two-player game whose iterated elimination of
strictly dominated strategies is not stable at the first infinite ordinal,
plus lifts of the finite bundled games for embedding-consistency checks.

The transfinite witness is the following symmetric game.  Each player picks
x in [0,1] or the outside option 2.  Against an opponent playing y, a choice
x in [0,1] pays min(x, psi(y)) with psi(y) = (1 + min(y, 1)) / 2, and the
outside option pays 2 when y is in {1, 2} and -1 otherwise.  One round of
removing strategies strictly dominated on the current restriction (with
dominators drawn from the full initial strategy set) works out to:

  * x in [0,1) is removed iff psi(y) > x for every surviving opponent y,
    i.e. below the threshold (1 + inf(surviving y))/2, any higher choice
    dominating it;
  * x = 1 is removed iff the opponent's survivors all lie in {1, 2}, the
    dominator being the outside option;
  * the outside option is removed iff the opponent's survivors are non-empty
    and all lie in [0,1), when any x in [0,1] dominates it;
  * against an empty opponent set everything is removed (the dominance
    quantifier is vacuously true).

From the full sets the surviving intervals are [1 - 2^-k, 1] u {2} after k
rounds, strictly shrinking forever; the intersection at the first limit
ordinal is {1, 2}, where one more round removes 1, and {2} is a fixpoint.
So the closure ordinal is one past the first limit ordinal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import ValidationError
from .games import Game, Restriction, restriction_top
from .properties import PropertyProfile, apply_operator, parse_property_spec
from .symbolic import SymbolicGame, SymbolicSet

ONE = Fraction(1)
TWO = Fraction(2)

_UNIT = SymbolicSet.interval(0, 1)
_BELOW_ONE = SymbolicSet.interval(0, 1, hi_closed=False)
_OUTSIDE = SymbolicSet.point(TWO)
_ONE_TWO = SymbolicSet.points([ONE, TWO])
_TOP_COMPONENT = _UNIT.union(_OUTSIDE)


def _psi_threshold(opponent: SymbolicSet) -> tuple[Fraction, bool]:
    """inf of psi over the opponent's set, with attainment; requires a
    non-empty opponent set."""
    low = opponent.intersection(_UNIT)
    has_two = opponent.contains(TWO)
    if low.is_empty:
        return ONE, has_two
    c, attained = low.infimum()
    tau = (1 + c) / 2
    if tau == 1:
        return ONE, attained or has_two
    return tau, attained


def _eliminate_one_side(own: SymbolicSet, opponent: SymbolicSet) -> SymbolicSet:
    if opponent.is_empty:
        return SymbolicSet.empty()
    tau, attained = _psi_threshold(opponent)
    surviving_low = own.intersection(
        SymbolicSet.interval(tau, 1, lo_closed=attained, hi_closed=False)
    )
    out = surviving_low
    opp_in_tail = opponent.difference(_ONE_TWO).is_empty
    if own.contains(ONE) and not opp_in_tail:
        out = out.union(SymbolicSet.point(ONE))
    opp_below_one = opponent.difference(_BELOW_ONE).is_empty
    if own.contains(TWO) and not opp_below_one:
        out = out.union(_OUTSIDE)
    return out


def _witness_step(sets):
    x, y = sets
    return (_eliminate_one_side(x, y), _eliminate_one_side(y, x))


def _lower_end(s: SymbolicSet) -> Fraction:
    """l when s is [l,1] u {2} with l < 1; a limit-stage ValidationError,
    probing s's lowest point, otherwise."""
    low, closed = s.infimum() if s.pieces else (None, False)
    if not (closed and low < 1 and s == SymbolicSet.interval(low, 1).union(_OUTSIDE)):
        raise ValidationError(
            f"limit: {s} is not [l,1] u {{2}} with l < 1", "limit", witness=low
        )
    return low


def _witness_limit(block):
    """{1, 2} per player, checked: every iterate of the block is [l,1] u {2}
    with l < 1, and each recorded step sends l to (1 + l)/2.  The lower ends
    then rise to the map's fixed point 1 without reaching it, so the chain's
    intersection is {1} u {2}.  Any other block, one that records no step
    included, raises a ValidationError with stage "limit" and the offending
    lower end as its probe."""
    if len(block) < 2:
        raise ValidationError("limit: the block records no step", "limit")
    for i in range(len(block[0])):
        ends = [_lower_end(sets[i]) for sets in block]
        for low, nxt in zip(ends, ends[1:]):
            if nxt != (1 + low) / 2:
                raise ValidationError(
                    f"limit: player {i + 1}'s lower end went from {low} to {nxt},"
                    f" not to {(1 + low) / 2}",
                    "limit",
                    witness=nxt,
                )
    return tuple(_ONE_TWO for _ in block[0])


def transfinite_witness() -> SymbolicGame:
    return SymbolicGame(
        name="witness-tg",
        initial=(_TOP_COMPONENT, _TOP_COMPONENT),
        step=_witness_step,
        limit=_witness_limit,
        encodes="sd:g",
    )


# -- lifting finite games ------------------------------------------------------


def lift_finite_game(
    game: Game, profile: PropertyProfile, name: str | None = None
) -> SymbolicGame:
    """Embed a finite game as point sets; the step applies the profile's
    elimination operator through the encoding."""

    def encode(r: Restriction):
        return tuple(
            SymbolicSet.points([Fraction(s) for s in sorted(r.sets[i])])
            for i in game.players()
        )

    def decode(sets) -> Restriction:
        return Restriction(
            game,
            tuple(
                frozenset(
                    s for s in game.strategies(i) if sets[i].contains(Fraction(s))
                )
                for i in game.players()
            ),
        )

    def step(sets):
        return encode(apply_operator(profile, game, decode(sets)))

    def limit(block):
        """Refuses: a finite game whose last step still removed something
        has not reached a limit.  The probe is a strategy that step removed."""
        before = block[-2] if len(block) > 1 else block[-1]
        removed = (a.difference(b) for a, b in zip(before, block[-1]))
        probe = next((d.probe() for d in removed if not d.is_empty), None)
        raise ValidationError(
            f"limit: {game.name} still removes strategies after"
            f" {len(block) - 1} steps of its block; a finite game never needs"
            " a limit",
            "limit",
            witness=probe,
        )

    return SymbolicGame(
        name=name or f"embedded-finite-{game.name}",
        initial=encode(restriction_top(game)),
        step=step,
        limit=limit,
        encodes=str(profile),
    )


def _embedded_pd() -> SymbolicGame:
    from .fixtures import PD

    profile = PropertyProfile.uniform(parse_property_spec("sd:l"), 2)
    return lift_finite_game(PD, profile, name="embedded-finite-pd")


REGISTRY: dict[str, Callable[[], SymbolicGame]] = {
    "witness-tg": transfinite_witness,
    "embedded-finite-pd": _embedded_pd,
}


def load_witness(name: str) -> SymbolicGame:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown witness {name!r}; registered: {known}")
    return REGISTRY[name]()
