"""Decision procedures for strict dominance and best response.

Pure dominance is a direct quantifier check.  Mixed dominance and
best-response-to-a-correlated-belief run exact LPs and hand back certificates;
every certificate is re-validated by direct rational evaluation before it is
returned.  Quantifiers over an empty set of opponent profiles are taken
literally: a universal is vacuously true, an existential is false.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp
from .errors import InternalError, UnsupportedBeliefError
from .games import Game, Restriction, check_same_game, mask_members
from .reports import CheckReport

PURE = "pure"
CORRELATED = "corr"
INDEPENDENT = "ind"

BELIEF_KINDS = (PURE, CORRELATED, INDEPENDENT)


def _check_distribution(weights, what: str):
    total = Fraction(0)
    for _, w in weights:
        if w <= 0:
            raise ValueError(f"{what} weights must be positive")
        total += w
    if total != 1:
        raise ValueError(f"{what} weights sum to {total}, not 1")


@dataclass(frozen=True)
class MixedStrategy:
    """A probability mixture over one player's strategies (positive weights only)."""

    owner: int
    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        _check_distribution(self.weights, "mixed strategy")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.weights)


def mixture(owner: int, weight_map) -> MixedStrategy:
    items = tuple(
        (s, Fraction(w)) for s, w in sorted(weight_map.items()) if Fraction(w) != 0
    )
    return MixedStrategy(owner, items)


def uniform_mixture(owner: int, pool: Sequence[int]) -> MixedStrategy:
    k = len(pool)
    return mixture(owner, {s: Fraction(1, k) for s in pool})


@dataclass(frozen=True)
class Belief:
    """What a player holds about the opponents: a distribution over opponent
    profiles (positive weights only).  A pure belief is a point mass, and with
    one opponent an independent belief is such a distribution too."""

    weights: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        _check_distribution(self.weights, "belief")

    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(p for p, _ in self.weights)


def pure_belief(profile: Sequence[int]) -> Belief:
    return Belief(((tuple(profile), Fraction(1)),))


def correlated_belief(weight_map) -> Belief:
    items = tuple(
        (tuple(p), Fraction(w))
        for p, w in sorted(weight_map.items())
        if Fraction(w) != 0
    )
    return Belief(items)


def decided_kind(game: Game, belief_kind: str) -> str:
    """The belief kind whose procedure decides `belief_kind` on `game`.

    With one opponent an independent belief is a correlated one (Pearce 1984),
    so `ind` is decided as `corr` for two players and rejected beyond that.
    """
    if belief_kind not in BELIEF_KINDS:
        raise ValueError(f"unknown belief kind {belief_kind!r}")
    if belief_kind != INDEPENDENT:
        return belief_kind
    if game.num_players > 2:
        raise UnsupportedBeliefError(
            "independent mixed beliefs are only decided for 2-player games"
        )
    return CORRELATED


def check_strategy(game: Game, player: int, strategy: int):
    if not 0 <= player < game.num_players:
        raise ValueError(f"no player {player}")
    if not 0 <= strategy < len(game.strategy_names[player]):
        raise ValueError(
            f"player {player + 1} has no strategy index {strategy}"
        )


def _payoff(game: Game, player: int, strategy: int, opp_profile: Sequence[int]) -> Fraction:
    """`player`'s payoff for `strategy` against the opponents' profile."""
    joint = list(opp_profile)
    joint.insert(player, strategy)
    return game.payoff(player, joint)


def expected_payoff(game: Game, player: int, strategy: int, belief: Belief) -> Fraction:
    """Exact expected payoff of `strategy` for `player` under `belief`."""
    total = Fraction(0)
    for profile, w in belief.weights:
        total += w * _payoff(game, player, strategy, profile)
    return total


def strictly_dominates_pure(
    game: Game, context: Restriction, player: int, dominator: int, dominated: int
) -> bool:
    """dominator beats dominated at every opponent profile of the context.

    Vacuously true when the context has no opponent profiles.
    """
    check_same_game(game, context.game, "restriction")
    check_strategy(game, player, dominator)
    check_strategy(game, player, dominated)
    for profile in context.opponent_profiles(player):
        up = _payoff(game, player, dominator, profile)
        low = _payoff(game, player, dominated, profile)
        if up <= low:
            return False
    return True


def mixed_dominance_witness(
    game: Game,
    context: Restriction,
    player: int,
    dominator_pool: Sequence[int],
    dominated: int,
) -> MixedStrategy | None:
    """A mixture over the pool that strictly beats `dominated` everywhere on
    the context, or None.

    Decided by the exact LP: maximize eps subject to
    sum_s m(s) p(s, y) >= p(dominated, y) + eps for every opponent profile y,
    with m a distribution over the pool.  A witness exists iff eps* > 0.
    """
    check_same_game(game, context.game, "restriction")
    check_strategy(game, player, dominated)
    pool = sorted(set(dominator_pool))
    for s in pool:
        check_strategy(game, player, s)
    if not pool:
        return None
    profiles = list(context.opponent_profiles(player))
    if not profiles:
        # no opponent profile to fail at: dominance is vacuous
        return uniform_mixture(player, pool)
    if pool == [dominated]:
        # a mixture over `dominated` alone ties it everywhere: the LP value is 0
        return None
    k = len(pool)
    objective = [lp.ZERO] * k + [lp.ONE, -lp.ONE]
    lhs_le, rhs_le = [], []
    for y in profiles:
        row = [-_payoff(game, player, s, y) for s in pool]
        row += [lp.ONE, -lp.ONE]
        lhs_le.append(row)
        rhs_le.append(-_payoff(game, player, dominated, y))
    lhs_eq = [[lp.ONE] * k + [lp.ZERO, lp.ZERO]]
    value, x = lp.simplex_maximize(objective, lhs_le, rhs_le, lhs_eq, [lp.ONE])
    if value <= 0:
        return None
    witness = mixture(player, {s: x[i] for i, s in enumerate(pool)})
    for y in profiles:
        got = sum(
            (w * _payoff(game, player, s, y) for s, w in witness.weights), Fraction(0)
        )
        if got <= _payoff(game, player, dominated, y):
            raise InternalError("LP dominance witness failed re-validation")
    return witness


def is_best_response(
    game: Game,
    belief_context: Restriction,
    comparison_pool: Sequence[int],
    player: int,
    candidate: int,
    belief: Belief,
) -> bool:
    """candidate is weakly payoff-maximal against `belief` among the pool."""
    check_same_game(game, belief_context.game, "restriction")
    check_strategy(game, player, candidate)
    allowed = set()
    for profile in belief_context.opponent_profiles(player):
        allowed.add(profile)
    if not belief.support() <= allowed:
        raise ValueError("belief support lies outside the stated restriction")
    base = expected_payoff(game, player, candidate, belief)
    for rival in comparison_pool:
        check_strategy(game, player, rival)
        if expected_payoff(game, player, rival, belief) > base:
            return False
    return True


def exists_supporting_belief(
    game: Game,
    belief_context: Restriction,
    comparison_pool: Sequence[int],
    player: int,
    candidate: int,
    belief_kind: str,
) -> Belief | None:
    """Some belief held in the context making `candidate` a best response in
    the pool, or None.  Pure beliefs are found by enumeration, correlated
    beliefs by an exact feasibility LP; independent beliefs are decided as
    correlated ones for 2 players and rejected beyond that.
    """
    check_same_game(game, belief_context.game, "restriction")
    check_strategy(game, player, candidate)
    belief_kind = decided_kind(game, belief_kind)
    pool = sorted(set(comparison_pool))
    for s in pool:
        check_strategy(game, player, s)
    profiles = list(belief_context.opponent_profiles(player))
    if not profiles:
        return None

    if belief_kind == PURE:
        for y in profiles:
            base = _payoff(game, player, candidate, y)
            if all(_payoff(game, player, s, y) <= base for s in pool):
                return pure_belief(y)
        return None

    if not pool:
        # nothing to be beaten by: the first profile, as a point distribution
        return pure_belief(profiles[0])

    r = len(profiles)
    objective = [lp.ZERO] * r + [lp.ONE, -lp.ONE]
    lhs_le, rhs_le = [], []
    for s in pool:
        row = [
            _payoff(game, player, s, y) - _payoff(game, player, candidate, y)
            for y in profiles
        ]
        row += [lp.ONE, -lp.ONE]
        lhs_le.append(row)
        rhs_le.append(lp.ZERO)
    lhs_eq = [[lp.ONE] * r + [lp.ZERO, lp.ZERO]]
    value, x = lp.simplex_maximize(objective, lhs_le, rhs_le, lhs_eq, [lp.ONE])
    if value < 0:
        return None
    belief = correlated_belief({y: x[i] for i, y in enumerate(profiles)})
    base = expected_payoff(game, player, candidate, belief)
    for s in pool:
        if expected_payoff(game, player, s, belief) > base:
            raise InternalError("LP belief witness failed re-validation")
    return belief


def _mixture_json(game: Game, m: MixedStrategy) -> dict:
    return {
        "owner": m.owner + 1,
        "weights": {
            game.strategy_names[m.owner][s]: str(w) for s, w in m.weights
        },
    }


def _belief_json(game: Game, player: int, b: Belief) -> dict:
    others = [j for j in game.players() if j != player]
    return {
        "kind": "corr",
        "weights": [
            {
                "profile": [game.strategy_names[j][s] for j, s in zip(others, p)],
                "weight": str(w),
            }
            for p, w in b.weights
        ],
    }


def pearce_equivalence_check(game: Game, g: Restriction):
    """One elimination step under never-best-response-to-a-correlated-belief
    versus one step under mixed-strategy dominance; the two must agree for
    every player and strategy.

    Both images are computed by their own LPs, and the report carries both
    certificates per strategy.  A mismatch is a release-blocking bug.
    """
    check_same_game(game, g.game, "restriction")
    entries = []
    mismatches = 0
    brc_image = []
    msd_image = []
    for i in game.players():
        pool = mask_members(g.masks[i])
        brc_survivors = set()
        msd_survivors = set()
        for s in pool:
            belief = exists_supporting_belief(game, g, pool, i, s, CORRELATED)
            witness = mixed_dominance_witness(game, g, i, pool, s)
            if belief is not None:
                brc_survivors.add(s)
            if witness is None:
                msd_survivors.add(s)
            agree = (belief is not None) == (witness is None)
            if not agree:
                mismatches += 1
            entry = {
                "player": i + 1,
                "strategy": game.strategy_names[i][s],
                "verdict": "survives" if witness is None else "eliminated",
                "agree": agree,
            }
            if belief is not None:
                entry["belief_witness"] = _belief_json(game, i, belief)
            if witness is not None:
                entry["dominance_witness"] = _mixture_json(game, witness)
            entries.append(entry)
        brc_image.append(sorted(game.strategy_names[i][s] for s in brc_survivors))
        msd_image.append(sorted(game.strategy_names[i][s] for s in msd_survivors))
    return CheckReport(
        name="pearce-equivalence",
        passed=mismatches == 0,
        details={
            "game": game.name,
            "restriction": g.names(),
            "brc_image": brc_image,
            "msd_image": msd_image,
            "mismatches": mismatches,
        },
        entries=entries,
    )
