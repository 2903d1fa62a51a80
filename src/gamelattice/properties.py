"""Per-player rationality properties and the elimination operator they induce.

A property is one of three kinds (pure strict dominance, mixed strict
dominance, best response to a belief), each in a global or local scope: the
comparison pool is the full strategy set for global scope and the current
restriction's component for local scope.  A profile assigns one property per
player; the induced operator removes, simultaneously for every player, each
strategy that fails its property on the current restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dominance
from .dominance import BELIEF_KINDS, CORRELATED, INDEPENDENT, PURE
from .errors import ShapeError
from .games import (
    Game,
    Restriction,
    all_restrictions,
    count_comparable_pairs,
    lattice_leq,
    mask_members,
)
from .iteration import (
    DEFAULT_LATTICE_BUDGET,
    DEFAULT_PAIR_BUDGET,
    IterationTrace,
    iterate_operator,
    non_monotone_pairs,
)
from .reports import CheckReport

KINDS = ("sd", "msd", "br")
SCOPES = ("l", "g")

# check_property_monotone lists at most this many violations
MAX_MONOTONE_ENTRIES = 20


@dataclass(frozen=True)
class PropertySpec:
    """One player's notion of rationality."""

    kind: str
    scope: str
    belief: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown property kind {self.kind!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.kind == "br":
            if self.belief not in BELIEF_KINDS:
                raise ValueError(f"br needs a belief kind, got {self.belief!r}")
        elif self.belief is not None:
            raise ValueError(f"{self.kind} does not take a belief kind")

    def __str__(self) -> str:
        if self.kind == "br":
            return f"br:{self.scope}:{self.belief}"
        return f"{self.kind}:{self.scope}"


def parse_property_spec(text: str) -> PropertySpec:
    """Parse 'sd:l', 'msd:g', 'br:g:pure', 'br:l:corr', 'br:l:ind', ..."""
    parts = text.strip().split(":")
    if parts[0] == "br":
        if len(parts) != 3:
            raise ValueError(f"malformed property {text!r}; want br:<l|g>:<pure|corr|ind>")
        return PropertySpec("br", parts[1], parts[2])
    if len(parts) != 2:
        raise ValueError(f"malformed property {text!r}; want <sd|msd>:<l|g>")
    return PropertySpec(parts[0], parts[1])


@dataclass(frozen=True)
class PropertyProfile:
    """One PropertySpec per player; heterogeneous profiles are permitted."""

    specs: tuple[PropertySpec, ...]

    @classmethod
    def uniform(cls, spec: PropertySpec, n: int) -> "PropertyProfile":
        return cls(tuple(spec for _ in range(n)))

    def __str__(self) -> str:
        if len(set(self.specs)) == 1:
            return str(self.specs[0])
        return ",".join(f"p{i + 1}={s}" for i, s in enumerate(self.specs))


class Evaluator:
    """Property verdicts on one game, cached for one top-level computation.

    A CLI command or a library entry point creates one and hands it to every
    evaluation it makes, so the cache dies with the computation.  Verdicts
    are keyed by (kind, belief, player, strategy, opponent masks, pool mask):
    the scope only picks the pool, so a global and a local spec share every
    verdict where the local pool is the full strategy set.
    """

    def __init__(self, game: Game):
        self.game = game
        self.verdicts: dict[tuple, bool] = {}


def evaluator_for(game: Game, evaluator: Evaluator | None) -> Evaluator:
    """`evaluator` after checking it belongs to `game`, or a fresh one."""
    if evaluator is None:
        return Evaluator(game)
    if evaluator.game is not game and evaluator.game != game:
        raise ShapeError("evaluator belongs to a different game")
    return evaluator


def eval_property(
    spec: PropertySpec,
    game: Game,
    player: int,
    strategy: int,
    g: Restriction,
    evaluator: Evaluator | None = None,
) -> bool:
    """Does `strategy` satisfy the property on the restriction g?  The verdict
    is cached in `evaluator`; a call given none starts with an empty cache.

    A pure certificate settles the verdict before any LP where it can: a pure
    strict dominator in the pool fails `msd`, and a supporting pure belief
    passes `br` with correlated beliefs (and with independent ones for two
    players).  Only verdicts come out of here, so no returned certificate
    changes.
    """
    verdicts = evaluator_for(game, evaluator).verdicts
    masks = g.masks
    full = (1 << len(game.strategy_names[player])) - 1
    pool = full if spec.scope == "g" else masks[player]
    key = (spec.kind, spec.belief, player, strategy, masks[:player] + masks[player + 1:], pool)
    verdict = verdicts.get(key)
    if verdict is not None:
        return verdict
    # the player's own context component never matters below: keep all of it
    context = Restriction.from_masks(game, masks[:player] + (full,) + masks[player + 1:])
    members = mask_members(pool)
    if spec.kind in ("sd", "msd"):
        verdict = not any(
            dominance.strictly_dominates_pure(game, context, player, s, strategy)
            for s in members
        )
        if verdict and spec.kind == "msd":
            verdict = (
                dominance.mixed_dominance_witness(game, context, player, members, strategy)
                is None
            )
    else:
        def supported(belief_kind: str) -> bool:
            return dominance.exists_supporting_belief(
                game, context, members, player, strategy, belief_kind
            ) is not None

        pure_settles = spec.belief == CORRELATED or (
            spec.belief == INDEPENDENT and game.num_players == 2
        )
        verdict = (pure_settles and supported(PURE)) or supported(spec.belief)
    verdicts[key] = verdict
    return verdict


def apply_operator(
    profile: PropertyProfile, game: Game, g: Restriction, evaluator: Evaluator | None = None
) -> Restriction:
    """Remove every strategy of every player that fails its property on g."""
    if len(profile.specs) != game.num_players:
        raise ValueError("profile length differs from the number of players")
    evaluator = evaluator_for(game, evaluator)
    masks = tuple(
        sum(
            1 << s
            for s in mask_members(g.masks[i])
            if eval_property(profile.specs[i], game, i, s, g, evaluator)
        )
        for i in game.players()
    )
    return Restriction.from_masks(game, masks)


def property_operator(
    profile: PropertyProfile, game: Game, evaluator: Evaluator | None = None
):
    """The elimination operator as a plain Restriction -> Restriction callable;
    its verdicts are cached for as long as the operator lives."""
    evaluator = evaluator_for(game, evaluator)

    def op(g: Restriction) -> Restriction:
        return apply_operator(profile, game, g, evaluator)

    return op


def outcome(
    profile: PropertyProfile,
    game: Game,
    budget: int | None = None,
    evaluator: Evaluator | None = None,
) -> IterationTrace:
    """Iterated elimination from the full game to its first fixpoint."""
    return iterate_operator(
        property_operator(profile, game, evaluator), game, budget=budget
    )


def check_property_monotone(
    spec: PropertySpec,
    game: Game,
    max_restrictions: int = DEFAULT_LATTICE_BUDGET,
    evaluator: Evaluator | None = None,
) -> CheckReport:
    """Exhaustively check: G below G' and property holds at G implies it holds
    at G', for every comparable pair and every strategy in T_i."""
    pairs = count_comparable_pairs(game, DEFAULT_PAIR_BUDGET)
    evaluator = evaluator_for(game, evaluator)
    # per restriction (in lattice order), per player: the bitmask of the
    # strategies in T_i satisfying the property there
    table = {
        g.masks: tuple(
            sum(
                1 << s
                for s in game.strategies(i)
                if eval_property(spec, game, i, s, g, evaluator)
            )
            for i in game.players()
        )
        for g in all_restrictions(game, max_count=max_restrictions)
    }
    entries = []
    violations = 0
    for small, big in non_monotone_pairs(table):
        for i in game.players():
            bad = table[small][i] & ~table[big][i]
            if bad:
                violations += bin(bad).count("1")
                if len(entries) < MAX_MONOTONE_ENTRIES:
                    entries.append(
                        {
                            "player": i + 1,
                            "strategies": [
                                game.strategy_names[i][s] for s in mask_members(bad)
                            ],
                            "smaller": Restriction.from_masks(game, small).names(),
                            "larger": Restriction.from_masks(game, big).names(),
                        }
                    )
    return CheckReport(
        name="property-monotonicity",
        passed=violations == 0,
        details={
            "game": game.name,
            "property": str(spec),
            "pairs_checked": pairs,
            "violations": violations,
        },
        entries=entries,
    )


def check_singleton_condition(
    spec: PropertySpec, game: Game, evaluator: Evaluator | None = None
) -> CheckReport:
    """Evaluate the property for every player on every all-singleton
    restriction built from a joint strategy."""
    evaluator = evaluator_for(game, evaluator)
    entries = []
    checked = 0
    for joint in game.joint_strategies():
        g = Restriction.from_masks(game, tuple(1 << s for s in joint))
        for i in game.players():
            checked += 1
            if not eval_property(spec, game, i, joint[i], g, evaluator):
                entries.append(
                    {"joint": list(game.joint_names(joint)), "player": i + 1}
                )
    return CheckReport(
        name="singleton-condition",
        passed=not entries,
        details={
            "game": game.name,
            "property": str(spec),
            "checked": checked,
            "failures": len(entries),
        },
        entries=entries,
    )


def _verify_pointwise_chain(
    game: Game,
    name: str,
    chain: tuple[str, ...],
    links: tuple[tuple[str, str, tuple[str, str] | None], ...],
    outcome_prefixes: tuple[str, str],
    max_restrictions: int,
) -> CheckReport:
    """Check on every restriction that the images of consecutive properties
    in `chain` are related as each link says, then that the outcome of the
    first property lies inside the outcome of the last.

    Each link is (relation, entry kind, image keys): relation "<=" asks for
    inclusion and "==" for equality; image keys, when given, name the two
    images in a failing entry.  The outcome entry and details take their keys
    from the two prefixes.
    """
    evaluator = Evaluator(game)
    profiles = [
        PropertyProfile.uniform(parse_property_spec(text), game.num_players)
        for text in chain
    ]
    entries = []
    checked = 0
    for g in all_restrictions(game, max_count=max_restrictions):
        checked += 1
        images = [apply_operator(p, game, g, evaluator) for p in profiles]
        for (relation, kind, image_keys), low, high in zip(links, images, images[1:]):
            holds = low == high if relation == "==" else lattice_leq(low, high)
            if not holds:
                entry = {"kind": kind, "restriction": g.names()}
                if image_keys is not None:
                    entry[image_keys[0]] = low.names()
                    entry[image_keys[1]] = high.names()
                entries.append(entry)
    first = outcome(profiles[0], game, evaluator=evaluator).outcome
    last = outcome(profiles[-1], game, evaluator=evaluator).outcome
    head, tail = outcome_prefixes
    if not lattice_leq(first, last):
        entries.append(
            {
                "kind": "outcome-inclusion-violation",
                f"{head}_outcome": first.names(),
                f"{tail}_outcome": last.names(),
            }
        )
    return CheckReport(
        name=name,
        passed=not entries,
        details={
            "game": game.name,
            "restrictions_checked": checked,
            f"{head}_global_outcome": first.names(),
            f"{tail}_local_outcome": last.names(),
        },
        entries=entries,
    )


def verify_theorem_just(
    game: Game, max_restrictions: int = DEFAULT_LATTICE_BUDGET
) -> CheckReport:
    """Outcome inclusion: best response to a pure belief (global) within pure
    strict dominance (local), with the pointwise chain
    br:g:pure -> sd:g -> sd:l on every restriction."""
    return _verify_pointwise_chain(
        game,
        "justification-pure",
        ("br:g:pure", "sd:g", "sd:l"),
        (("<=", "brg-not-below-sdg", None), ("<=", "sdg-not-below-sdl", None)),
        ("br", "sd"),
        max_restrictions,
    )


def verify_theorem_just1(
    game: Game, max_restrictions: int = DEFAULT_LATTICE_BUDGET
) -> CheckReport:
    """Outcome inclusion: best response to a correlated belief (global) within
    mixed strict dominance (local), with the pointwise chain
    br:g:corr -> br:l:corr = msd:l on every restriction."""
    return _verify_pointwise_chain(
        game,
        "justification-mixed",
        ("br:g:corr", "br:l:corr", "msd:l"),
        (
            ("<=", "brg-not-below-brl", None),
            ("==", "brc-msd-image-mismatch", ("brc_image", "msd_image")),
        ),
        ("br", "msd"),
        max_restrictions,
    )
