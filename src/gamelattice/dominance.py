"""Decision procedures for strict dominance and best response.

Pure dominance is a direct quantifier check.  Strict dominance by a mixed
strategy and best response to a correlated belief, the two sides of Pearce's
lemma, each solve the same exact max-margin LP over a distribution and hand
back a certificate of one type, a `Distribution`: a mixture over the player's
strategies or a belief over the opponents' profiles.  Each procedure reads
the payoffs its LP needs by stride from `game.payoffs` and scales them to
ints by that LP's own least common denominator L, so the kernel gets int
rows, the tableau it would build from the rational rows, and `Fraction`s
are built only for the LP's value, x* and duals.  Every certificate is
re-validated against those int payoffs, with its weights over their common
denominator, before it is returned.  A negative
answer has a certificate of the other type, by LP duality (Pearce 1984,
Lemma 3): the LP's optimal dual solution.  A caller that asks for it gets it
through the keyword `refutation`, checked to be a distribution, whenever an
LP decides the answer; what it proves is checked by the caller.
`properties` asks only where an LP decides, and checks each certificate
against the whole game before it stores it, so every LP verdict it takes has
a checked certificate.
Quantifiers over an empty set of opponent profiles are taken literally: a
universal is vacuously true, an existential is false.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from . import lp
from .errors import InternalError, UnsupportedBeliefError
from .games import Game, Restriction, check_same_game, mask_members
from .reports import CheckReport

PURE = "pure"
CORRELATED = "corr"
INDEPENDENT = "ind"

BELIEF_KINDS = (PURE, CORRELATED, INDEPENDENT)


@dataclass(frozen=True)
class Distribution:
    """A certificate: a probability distribution over items, positive weights
    only.  A mixture is one over a player's strategies; a belief is one over
    opponent profiles, and a pure belief is a point mass.  With one opponent an
    independent belief is such a distribution too.  The weights are checked
    to sum to 1 over their least common denominator D, and kept that way as
    `integer_weights`: the weights times D as ints, in order, and D."""

    weights: tuple[tuple[object, Fraction], ...]

    def __post_init__(self):
        if len({item for item, _ in self.weights}) != len(self.weights):
            raise ValueError("distribution items must be distinct")
        if any(w <= 0 for _, w in self.weights):
            raise ValueError("distribution weights must be positive")
        (numerators,), scale = lp.integer_rows([[w for _, w in self.weights]])
        if sum(numerators) != scale:
            total = Fraction(sum(numerators), scale)
            raise ValueError(f"distribution weights sum to {total}, not 1")
        object.__setattr__(self, "integer_weights", (tuple(numerators), scale))

    def support(self) -> frozenset:
        return frozenset(item for item, _ in self.weights)


def distribution(weight_map) -> Distribution:
    """The distribution with these weights, zero weights dropped, items sorted."""
    items = ((item, Fraction(w)) for item, w in sorted(weight_map.items()))
    return Distribution(tuple((item, w) for item, w in items if w))


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


def _payoffs(game: Game, player: int, strategies, profiles) -> dict[int, list[Fraction]]:
    """`player`'s payoffs for each of `strategies` at each opponent profile
    in `profiles`, in order, read by stride from `game.payoffs`: a profile's
    base cell is the joint index with `player`'s strategy 0, and strategy s
    adds s * game.strides[player]."""
    strides = [t for j, t in enumerate(game.strides) if j != player]
    bases = [sum(map(mul, strides, y)) for y in profiles]
    stride = game.strides[player]
    cells = game.payoffs
    return {s: [cells[base + s * stride][player] for base in bases] for s in strategies}


def _integer_payoffs(
    game: Game, player: int, strategies, profiles
) -> tuple[dict[int, list[int]], int]:
    """`_payoffs` as ints times their least common denominator, and that
    denominator."""
    payoffs = _payoffs(game, player, strategies, profiles)
    columns, scale = lp.integer_rows(list(payoffs.values()))
    return dict(zip(payoffs, columns)), scale


def expected_payoff(
    game: Game, player: int, strategy: int, belief: Distribution
) -> Fraction:
    """Exact expected payoff of `strategy` for `player` under `belief`, a
    distribution over the opponents' profiles."""
    check_strategy(game, player, strategy)
    sizes = [k for j, k in enumerate(game.sizes) if j != player]
    for profile in belief.support():
        # payoffs are read by stride, which does not check the cell: a
        # profile the game lacks would read another cell's payoff or run off
        # the table
        if len(profile) != len(sizes) or not all(
            0 <= s < k for s, k in zip(profile, sizes)
        ):
            raise ValueError(
                f"{profile!r} is not an opponent profile of player {player + 1}"
            )
    return _expected_payoff(game, player, strategy, belief)


def _expected_payoff(
    game: Game, player: int, strategy: int, belief: Distribution
) -> Fraction:
    """expected_payoff for a strategy and belief already checked against the game."""
    (column,) = _payoffs(game, player, (strategy,), [y for y, _ in belief.weights]).values()
    return sum((w * v for (_, w), v in zip(belief.weights, column)), Fraction(0))


def _max_margin(rows: list[list[int]], bounds: list[int], scale: int) -> tuple[lp.Optimum, int]:
    """The exact max-margin LP that both sides of Pearce's lemma solve:
    maximize t = t+ - t- over distributions x subject to
    sum_j rows[r][j] x_j + t <= bounds[r] for every r, whose entries are
    given as ints times `scale`.  Dividing them by their gcd with `scale`
    leaves them times L, the least common multiple of the rational entries'
    denominators, and the kernel is handed L times every row, the `t`
    columns and the row x sums to 1 included: the integer tableau it would
    build from the rational rows, so the same pivots and the same t* and x*.
    Returns the optimum, whose entries of x* before t+ and t- are the
    weights, one per column of rows, and L.  The rows' dual multipliers,
    times L, are a distribution too (the dual constraints of t+ and t- make
    them sum to 1), read by `_refuting`."""
    if scale != 1:
        g = gcd(scale, *bounds, *(v for row in rows for v in row))
        rows = [[v // g for v in row] for row in rows]
        bounds = [b // g for b in bounds]
        scale //= g
    k = len(rows[0])
    objective = [0] * k + [1, -1]
    lhs_le = [row + [scale, -scale] for row in rows]
    lhs_eq = [[scale] * k + [0, 0]]
    return lp.simplex_maximize(objective, lhs_le, bounds, lhs_eq, [scale]), scale


def _refuting(items, optimum: lp.Optimum, scale: int) -> Distribution:
    """The max-margin LP's dual multipliers of its rows, one per item, times
    the LP's scale L, as a distribution; anything else is an InternalError."""
    duals = optimum.duals if scale == 1 else [y * scale for y in optimum.duals]
    try:
        return Distribution(tuple((item, y) for item, y in zip(items, duals) if y))
    except ValueError as exc:
        raise InternalError(f"LP dual certificate failed re-validation: {exc}") from None


def strictly_dominates_pure(
    game: Game, context: Restriction, player: int, dominator: int, dominated: int
) -> bool:
    """dominator beats dominated at every opponent profile of the context.

    Vacuously true when the context has no opponent profiles.
    """
    check_same_game(game, context.game, "restriction")
    check_strategy(game, player, dominator)
    check_strategy(game, player, dominated)
    payoffs = _payoffs(game, player, (dominator, dominated), context.opponent_profiles(player))
    return all(up > low for up, low in zip(payoffs[dominator], payoffs[dominated]))


def mixed_dominance_witness(
    game: Game,
    context: Restriction,
    player: int,
    dominator_pool: Sequence[int],
    dominated: int,
    *,
    refutation: list | None = None,
) -> Distribution | None:
    """A mixture over the pool that strictly beats `dominated` everywhere on
    the context, or None.

    Decided by the max-margin LP over mixtures m on the pool:
    sum_s m(s) p(s, y) >= p(dominated, y) + t for every opponent profile y.
    A witness exists iff t* > 0.  When the LP finds none and `refutation`
    is a list, the LP's dual is appended to it: a belief on the context's
    profiles under which `dominated` is a weak best response in the pool.  A
    pool that is empty or holds only `dominated` is answered without an LP,
    and appends nothing.
    """
    check_same_game(game, context.game, "restriction")
    check_strategy(game, player, dominated)
    pool = sorted(set(dominator_pool))
    for s in pool:
        check_strategy(game, player, s)
    profiles = list(context.opponent_profiles(player))
    if pool and not profiles:
        # no opponent profile to fail at: dominance is vacuous
        return distribution({s: Fraction(1, len(pool)) for s in pool})
    if pool in ([], [dominated]):
        # no mixture, or one over `dominated` alone, which ties it everywhere:
        # the LP value is 0, and nothing in the pool beats `dominated` anywhere
        return None
    payoffs, scale = _integer_payoffs(game, player, [*pool, dominated], profiles)
    low = payoffs[dominated]
    optimum, scale = _max_margin(
        [[-v for v in row] for row in zip(*(payoffs[s] for s in pool))],
        [-v for v in low],
        scale,
    )
    value, x = optimum
    if value <= 0:
        if refutation is not None:
            refutation.append(_refuting(profiles, optimum, scale))
        return None
    witness = Distribution(tuple((s, w) for s, w in zip(pool, x) if w))
    # every payoff above is an int over one denominator, and so is every weight
    weights, total = witness.integer_weights
    columns = [payoffs[s] for s, _ in witness.weights]
    for y, bound in enumerate(low):
        if sum(w * column[y] for w, column in zip(weights, columns)) <= total * bound:
            raise InternalError("LP dominance witness failed re-validation")
    return witness


def is_best_response(
    game: Game,
    belief_context: Restriction,
    comparison_pool: Sequence[int],
    player: int,
    candidate: int,
    belief: Distribution,
) -> bool:
    """candidate is weakly payoff-maximal against `belief` among the pool."""
    check_same_game(game, belief_context.game, "restriction")
    check_strategy(game, player, candidate)
    allowed = set()
    for profile in belief_context.opponent_profiles(player):
        allowed.add(profile)
    if not belief.support() <= allowed:
        raise ValueError("belief support lies outside the stated restriction")
    base = _expected_payoff(game, player, candidate, belief)
    for rival in comparison_pool:
        check_strategy(game, player, rival)
        if _expected_payoff(game, player, rival, belief) > base:
            return False
    return True


def exists_supporting_belief(
    game: Game,
    belief_context: Restriction,
    comparison_pool: Sequence[int],
    player: int,
    candidate: int,
    belief_kind: str,
    *,
    refutation: list | None = None,
) -> Distribution | None:
    """Some belief held in the context making `candidate` a best response in
    the pool, or None.  Pure beliefs are found by enumeration; independent
    beliefs are decided as correlated ones for 2 players and rejected beyond
    that.  A correlated belief is decided by the max-margin LP over beliefs b
    on the context's profiles: sum_y b(y) (p(s, y) - p(candidate, y)) <= -t
    for every s in the pool.  A belief exists iff t* >= 0.  When the LP finds
    none and `refutation` is a list, the LP's dual is appended to it: a
    mixture on the pool that strictly beats `candidate` at every profile.
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
        payoffs = _payoffs(game, player, [*pool, candidate], profiles)
        for j, y in enumerate(profiles):
            base = payoffs[candidate][j]
            if all(payoffs[s][j] <= base for s in pool):
                return distribution({y: 1})
        return None

    if not pool:
        # nothing to be beaten by: the first profile, as a point distribution
        return distribution({profiles[0]: 1})

    payoffs, scale = _integer_payoffs(game, player, [*pool, candidate], profiles)
    base = payoffs[candidate]
    rows = [[v - b for v, b in zip(payoffs[s], base)] for s in pool]
    optimum, scale = _max_margin(rows, [0] * len(pool), scale)
    value, x = optimum
    if value < 0:
        if refutation is not None:
            refutation.append(_refuting(pool, optimum, scale))
        return None
    held = [y for y, w in enumerate(x[:len(profiles)]) if w]
    belief = Distribution(tuple((profiles[y], x[y]) for y in held))
    # every payoff above is an int over one denominator, and so is every weight
    weights = belief.integer_weights[0]
    for row in rows:
        if sum(w * row[y] for w, y in zip(weights, held)) > 0:
            raise InternalError("LP belief witness failed re-validation")
    return belief


def _mixture_json(game: Game, player: int, m: Distribution) -> dict:
    return {
        "owner": player + 1,
        "weights": {game.strategy_names[player][s]: str(w) for s, w in m.weights},
    }


def _belief_json(game: Game, player: int, b: Distribution) -> dict:
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
    for i, mask in enumerate(g.masks):
        pool = mask_members(mask)
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
                entry["dominance_witness"] = _mixture_json(game, i, witness)
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
