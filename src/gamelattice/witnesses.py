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
from .games import Game, Restriction, mask_members, restriction_top
from .properties import Evaluator, PropertyProfile, apply_operator, parse_property_spec
from .symbolic import Piece, SymbolicGame, SymbolicSet, _cmp

ONE = Fraction(1)
TWO = Fraction(2)

_OUTSIDE = SymbolicSet.point(TWO)
_ONE_TWO = SymbolicSet.points([ONE, TWO])
_TOP_COMPONENT = SymbolicSet.interval(0, 1).union(_OUTSIDE)
# the witness's intersection at its limit: one pair, shared by every limit,
# so the step memo sees the very same input after it in every iteration
_LIMIT = (_ONE_TWO, _ONE_TWO)


def _psi_threshold(opponent: SymbolicSet) -> tuple[Fraction, bool]:
    """inf of psi over a non-empty opponent set inside [0,1] u {2}, with
    attainment.  psi rises with y up to y = 1 and is 1 from there on, so the
    inf is psi of the first piece's lower end c, attained when that end is
    closed; at c >= 1 (the opponent lies in {1, 2}) it is 1, attained."""
    first = opponent.pieces[0]
    c = first.lo
    if _cmp(c, ONE) >= 0:
        return ONE, True
    return Fraction(c.numerator + c.denominator, 2 * c.denominator), first.lo_closed


def _eliminate_one_side(own: SymbolicSet, opponent: SymbolicSet) -> SymbolicSet:
    """own's survivors against opponent, both inside [0,1] u {2}: own
    intersected once with the set of survivors, built from canonical pieces.
    That set is [tau,1), closed at tau when attained, joined with {1} unless
    the opponent lies in {1, 2} (exactly when tau < 1, so the two make one
    piece [tau,1]), plus {2} unless the opponent lies in [0,1), that is
    unless its last piece ends below 1 or at an open 1."""
    if not opponent.pieces:
        return SymbolicSet.empty()
    tau, attained = _psi_threshold(opponent)
    keep = (Piece(tau, ONE, attained, True),) if _cmp(tau, ONE) < 0 else ()
    last = opponent.pieces[-1]
    order = _cmp(last.hi, ONE)
    if order > 0 or order == 0 and last.hi_closed:
        keep += _OUTSIDE.pieces
    return own.intersection(SymbolicSet(keep))


def _witness_step(sets):
    x, y = sets
    return (_eliminate_one_side(x, y), _eliminate_one_side(y, x))


def _step_memo(step):
    """step, computed once per input object.  The memo is keyed by the
    input's identity, and holds every input it has seen, so no id is reused
    while the memo lives.  It hits only where the engine steps the very
    iterate it stepped before: the game's initial sets, a memoised step's
    answer, or a limit rule's shared answer."""
    memo = {}

    def memoised(sets):
        seen = memo.get(id(sets))
        if seen is None:
            seen = memo[id(sets)] = (sets, step(sets))
        return seen[1]

    return memoised


def _lower_end(s: SymbolicSet) -> Fraction:
    """l when s is [l,1] u {2} with l < 1; a limit-stage ValidationError,
    probing s's lowest point, otherwise.  For a closed l < 1 that set's
    canonical pieces are [l,1] and {2}, so s's own pieces are tested."""
    pieces = s.pieces
    low = pieces[0].lo if pieces else None
    if len(pieces) == 2:
        tail, outside = pieces
        if (
            tail.lo_closed
            and tail.hi_closed
            and _cmp(low, ONE) < 0
            and _cmp(tail.hi, ONE) == 0
            and _cmp(outside.lo, TWO) == 0
            and _cmp(outside.hi, TWO) == 0
        ):
            return low
    raise ValidationError(
        f"limit: {s} is not [l,1] u {{2}} with l < 1", "limit", witness=low
    )


def _witness_limit(block):
    """{1, 2} per player, checked: every iterate of the block is [l,1] u {2}
    with l < 1, and each recorded step sends l to (1 + l)/2, tested as the
    integer identity 2 l'.num l.den == (l.num + l.den) l'.den.  The lower
    ends then rise to the map's fixed point 1 without reaching it, so the
    chain's intersection is {1} u {2}.  Any other block, one that records no
    step included, raises a ValidationError with stage "limit" and the
    offending lower end as its probe.  Every call returns the one pair
    `_LIMIT`."""
    if len(block) < 2:
        raise ValidationError("limit: the block records no step", "limit")
    for i in range(len(block[0])):
        ends = [_lower_end(sets[i]) for sets in block]
        for low, nxt in zip(ends, ends[1:]):
            n, d = low.numerator, low.denominator
            if 2 * nxt.numerator * d != (n + d) * nxt.denominator:
                raise ValidationError(
                    f"limit: player {i + 1}'s lower end went from {low} to {nxt},"
                    f" not to {(1 + low) / 2}",
                    "limit",
                    witness=nxt,
                )
    return _LIMIT


def transfinite_witness() -> SymbolicGame:
    """The witness, its step memoised for as long as the returned game lives:
    `transfinite run` validates it and then iterates it again from the same
    iterates, so each step is computed once per command.  Every descent is
    still checked, by `iterate_symbolic`."""
    return SymbolicGame(
        name="witness-tg",
        initial=(_TOP_COMPONENT, _TOP_COMPONENT),
        step=_step_memo(_witness_step),
        limit=_witness_limit,
        encodes="sd:g",
    )


# -- lifting finite games ------------------------------------------------------


def lift_finite_game(game: Game, profile: PropertyProfile) -> SymbolicGame:
    """Embed a finite game as point sets; the step applies the profile's
    elimination operator through the encoding, every step sharing one
    Evaluator."""
    evaluator = Evaluator(game)

    def encode(r: Restriction):
        return tuple(
            SymbolicSet.points([Fraction(s) for s in mask_members(m)]) for m in r.masks
        )

    def decode(sets) -> Restriction:
        return Restriction(
            game,
            tuple(
                sum(1 << s for s in game.strategies(i) if sets[i].contains(Fraction(s)))
                for i in game.players()
            ),
        )

    def step(sets):
        return encode(apply_operator(profile, game, decode(sets), evaluator))

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
        name=f"embedded-finite-{game.name}",
        initial=encode(restriction_top(game)),
        step=step,
        limit=limit,
        encodes=str(profile),
    )


def _embedded_pd() -> SymbolicGame:
    from .fixtures import PD

    profile = PropertyProfile.uniform(parse_property_spec("sd:l"), 2)
    return lift_finite_game(PD, profile)


REGISTRY: dict[str, Callable[[], SymbolicGame]] = {
    "witness-tg": transfinite_witness,
    "embedded-finite-pd": _embedded_pd,
}


def load_witness(name: str) -> SymbolicGame:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown witness {name!r}; registered: {known}")
    return REGISTRY[name]()
