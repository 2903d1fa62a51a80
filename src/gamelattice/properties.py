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
from functools import reduce
from math import lcm
from operator import and_, or_

from . import dominance
from .dominance import BELIEF_KINDS, CORRELATED
from .errors import InternalError
from .games import (
    Game,
    Restriction,
    check_same_game,
    count_restrictions,
    lattice_leq,
    mask_members,
    restriction_at,
    unpack_index,
)
from .iteration import (
    DEFAULT_LATTICE_BUDGET,
    IterationTrace,
    image_at,
    image_table,
    iterate_operator,
    lattice_patterns,
    non_monotone_pairs,
    outside,
    violating_indices,
    violation_count,
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
    """What property queries on one game share, for one top-level computation.

    A CLI command or a library entry point creates one and hands it to every
    evaluation it makes, so the cache dies with the computation.

    When it is built it reads every player's payoffs into `payoffs`,
    `payoffs[player][y][s]` for opponent profile y, as ints over one common
    denominator per player, and compares them exactly, with one sort per
    opponent profile, into one table of int bitmasks per player,
    `beaters[player][s][y]`: the strategies that strictly beat s at opponent
    profile y.  Both tables are linear in the game's cells, as the parsed
    game is.  Opponent profiles are numbered row-major over the opponents'
    strategy sets, so with two players a profile is the opponent's strategy
    index.

    `contexts` holds, per (player, opponent bits), what `_context` derives
    from the context's opponent profiles Y, once: their list and per
    strategy s, D_s(Y); the opponent bits are the restriction's lattice
    index with the player's own bits cleared.  Only a per-restriction query
    (an iteration step, `passing_mask`, the CK/CB walk) fills it, and it
    recomputes the pure pre-checks for its candidates, a few bit tests
    each, and stores no verdict.

    An open candidate s of an LP family ("msd", "br:corr") on pool P and
    opponent profiles Y is settled from `certificates`, which keeps
    per (family, player, s) a list of mixtures and a list of beliefs: the
    certificates of that family's earlier LP answers for s, both ways
    (Pearce 1984, Lemma 3), each reduced to two masks and tried newest
    first:
    - a mixture, as (its support, the profiles at which it strictly beats
      s), proves s fails on every (P, Y) with its support in P and Y in
      those profiles;
    - a belief, as (its support, the strategies that strictly beat s under
      it), proves s passes on every (P, Y) with its support in Y and none of
      those strategies in P.
    Both are exact, whatever (P, Y) the certificate came from, and assume no
    monotonicity.  A candidate no certificate settles goes to its own LP.
    Every answer carries a certificate, the witness or the LP's dual, which
    is checked against the whole game and stored, so an LP verdict is kept
    only as its checked certificate, which settles the same query again.
    Each family reads only its own certificates, so `check pearce`'s two
    sides share only the pure pre-checks.

    `enumerations[(omega, profile)]` holds the CK/CB enumerator's walk over
    a state space of omega states as two ints: the gathered restriction's
    lattice index and the product-order rank of the last assignment the
    walk counts.  The walk depends on no mode, so a knowledge and a belief
    call sharing this evaluator walk once.
    """

    def __init__(self, game: Game):
        self.game = game
        self.payoffs, self.beaters = zip(*(_comparisons(game, i) for i in game.players()))
        self.contexts: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        self.certificates: dict[tuple, tuple[list, list]] = {}
        self.enumerations: dict[tuple[int, PropertyProfile], tuple[int, int]] = {}


def evaluator_for(game: Game, evaluator: Evaluator | None) -> Evaluator:
    """`evaluator` after checking it belongs to `game`, or a fresh one."""
    if evaluator is None:
        return Evaluator(game)
    check_same_game(game, evaluator.game, "evaluator")
    return evaluator


def _family(spec: PropertySpec, game: Game) -> str:
    """What decides `spec` on `game`: "sd", "msd", "br:pure" or "br:corr"; a
    two-player `ind` spec is decided as `corr`."""
    if spec.kind != "br":
        return spec.kind
    return "br:" + dominance.decided_kind(game, spec.belief)


def _comparisons(game: Game, player: int) -> tuple[list[list[int]], list[list[int]]]:
    """`player`'s `payoffs` and `beaters`.  The cells of opponent profile y
    are read from `game.payoffs` by stride: its base cells are those whose
    digit for `player` is 0, ascending, and strategy s adds s * stride.  Per
    profile, one sort of the column by falling payoff gives each strategy
    the mask of strictly higher payoffs, so equal payoffs never beat each
    other."""
    k = game.sizes[player]
    stride = game.strides[player]
    cells = game.payoffs
    columns = [
        [cells[base + s * stride][player] for s in range(k)]
        for block in range(0, len(cells), k * stride)
        for base in range(block, block + stride)
    ]
    scale = lcm(*{v.denominator for column in columns for v in column})
    columns = [[v.numerator * (scale // v.denominator) for v in column] for column in columns]
    beaters = [[0] * len(columns) for _ in range(k)]
    for y, column in enumerate(columns):
        # by falling payoff: `seen` holds the strategies passed so far,
        # and `above` those passed before the current run of equal payoffs
        above = seen = 0
        last = None
        for t in sorted(range(k), key=column.__getitem__, reverse=True):
            if column[t] != last:
                above, last = seen, column[t]
            beaters[t][y] = above
            seen |= 1 << t
    return columns, beaters


def _context(
    evaluator: Evaluator, player: int, opponents: int
) -> tuple[list[int], list[int]]:
    """The opponent context of `player` at the opponent bits `opponents`,
    built once per Evaluator: its opponent profiles Y, ascending row-major
    numbers over the opponents' strategy sets, and per strategy s, D_s(Y),
    the AND of beaters[s][y] over y in Y (every strategy when Y is
    empty)."""
    context = evaluator.contexts.get((player, opponents))
    if context is None:
        game = evaluator.game
        ys = [0]
        for j, k in enumerate(game.sizes):
            if j != player:
                mask = opponents >> game.shifts[j]
                ys = [y * k + s for y in ys for s in range(k) if mask >> s & 1]
        beaters = evaluator.beaters[player]
        dominators = []
        for row in beaters:
            dominator = (1 << len(beaters)) - 1
            for y in ys:
                dominator &= row[y]
            dominators.append(dominator)
        context = evaluator.contexts[player, opponents] = (ys, dominators)
    return context


def _seeded(family: str, sd: int, br: int, nonempty: int) -> tuple[int, int]:
    """What the pure pre-checks decide of `family`, as (passing, open):
    `sd` and `br` hold where sd and br:pure pass, `nonempty` where the
    opponent profiles Y are non-empty.  Every operation is bitwise, so the
    arguments are either strategy masks, with `nonempty` all ones or zero
    (`_passing`), or one strategy's bit-slices over the lattice
    (`_component`).  A pure family is decided outright.  With Y non-empty,
    a pure best response passes both LP families, and a strategy some pool
    strategy strictly beats at every profile fails both, since their mixed
    forms coincide (Pearce 1984, Lemma 3); with Y empty, msd passes what sd
    passes and br:corr nothing, since no belief lives on no profiles.  The
    rest, where Y is non-empty, sd passes and br:pure fails, is open."""
    if family == "sd":
        return sd, 0
    if family == "br:pure":
        return br, 0
    open_ = nonempty & sd & ~br
    return (br | sd & ~nonempty if family == "msd" else br), open_


def _certificate_masks(
    evaluator: Evaluator, player: int, strategy: int, certificate, mixture: bool
) -> tuple[int, int]:
    """A mixture as (its support, the opponent profiles of the whole game at
    which it strictly beats `strategy`), or a belief as (its support, as
    profile numbers, the strategies that strictly beat `strategy` under it),
    by exact integer evaluation of `payoffs`."""
    game = evaluator.game
    columns = evaluator.payoffs[player]
    scale = lcm(*{w.denominator for _, w in certificate.weights})
    weights = [(item, w.numerator * (scale // w.denominator)) for item, w in certificate.weights]
    if mixture:
        support = sum(1 << s for s, _ in weights)
        beaten = 0
        for y, column in enumerate(columns):
            if sum(w * column[s] for s, w in weights) > scale * column[strategy]:
                beaten |= 1 << y
        return support, beaten
    sizes = [k for j, k in enumerate(game.sizes) if j != player]
    support = 0
    expected = [0] * game.sizes[player]
    for profile, w in weights:
        y = 0
        for k, s in zip(sizes, profile):
            y = y * k + s
        support |= 1 << y
        expected = [e + w * v for e, v in zip(expected, columns[y])]
    base = expected[strategy]
    return support, sum(1 << t for t, e in enumerate(expected) if e > base)


def _solved(
    evaluator: Evaluator, family: str, index: int, player: int, pool: int, s: int
) -> tuple[bool, tuple[int, int]]:
    """s's `family` verdict on the restriction with lattice index `index`,
    with pool `pool`, from its LP, with the one certificate its answer must
    carry, the witness or the LP's refutation, reduced to masks and stored;
    an answer with no certificate is an InternalError.  `_settle` checks
    that the certificate proves the verdict at `index`."""
    game = evaluator.game
    g = restriction_at(game, index)
    members = mask_members(pool)
    refutation = []
    if family == "msd":
        witness = dominance.mixed_dominance_witness(
            game, g, player, members, s, refutation=refutation
        )
        passes = witness is None
    else:
        witness = dominance.exists_supporting_belief(
            game, g, members, player, s, CORRELATED, refutation=refutation
        )
        passes = witness is not None
    certificates = refutation if witness is None else [witness]
    masks = [_certificate_masks(evaluator, player, s, c, not passes) for c in certificates]
    if len(masks) != 1:
        raise InternalError(
            f"{family}: the certificate for player {player + 1}'s "
            f"{game.strategy_names[player][s]} on {g.names()} is missing"
        )
    evaluator.certificates.setdefault((family, player, s), ([], []))[passes].extend(masks)
    return passes, masks[0]


def _certificate_slice(
    masks: tuple[int, int], passes: bool, pools: list[int], in_y: list[int], ones: int
) -> int:
    """The lattice indices where a certificate with masks `masks`, a belief
    if `passes` and a mixture otherwise, settles its strategy, as one
    bit-slice over `ones`, from a pool slice per strategy and a "Y holds y"
    slice per opponent profile y of the whole game: a mixture (support,
    beaten) where the pool holds its support and Y no profile outside
    `beaten`, a belief (support, beaters) where Y holds its support and the
    pool none of `beaters`."""
    support, other = masks
    held, avoided = (in_y, pools) if passes else (pools, in_y)
    if not passes:
        other = ~other & (1 << len(in_y)) - 1
    holds = reduce(and_, (held[x] for x in mask_members(support)), ones)
    return holds & ~reduce(or_, (avoided[x] for x in mask_members(other)), 0)


def _settle(
    evaluator: Evaluator, family: str, scope: str, player: int, s: int, passing: int,
    open_: int, pools: list[int], in_y: list[int], ones: int, base: int = 0,
) -> int:
    """Strategy s's `family` passing slice once its open slice is settled,
    on slices over `ones` whose bit X stands for lattice index base + X,
    with `_certificate_slice`'s `pools` and `in_y`.  Each certificate
    stored for s, newest first, mixtures before beliefs, then the one
    `_solved` returns for the lowest open index, clears the open bits its
    slice holds, a belief passing them, until none is open.  s's LPs read
    and write only s's certificates, so they run in the order of asking one
    index at a time, whatever strategy is settled first.  A solved
    certificate whose slice misses its own index does not prove its verdict
    there, which is an InternalError."""
    game = evaluator.game
    shift = game.shifts[player]
    full = (1 << game.sizes[player]) - 1
    mixtures, beliefs = evaluator.certificates.get((family, player, s), ([], []))
    stored = [(True, masks) for masks in beliefs] + [(False, masks) for masks in mixtures]
    while open_:
        if stored:
            own = 0
            passes, masks = stored.pop()
        else:
            own = open_ & -open_
            index = base + own.bit_length() - 1
            pool = full if scope == "g" else index >> shift & full
            passes, masks = _solved(evaluator, family, index, player, pool, s)
        settled = _certificate_slice(masks, passes, pools, in_y, ones)
        if own & ~settled:
            raise InternalError(
                f"{family}: the certificate for player {player + 1}'s "
                f"{game.strategy_names[player][s]} on {restriction_at(game, index).names()} "
                "failed re-validation: its slice misses the index it settles"
            )
        if passes:
            passing |= open_ & settled
        open_ &= ~settled
    return passing


def _passing(
    evaluator: Evaluator, family: str, scope: str, player: int, index: int, candidates: int
) -> int:
    """The strategies in the mask `candidates` that pass `family` on the
    restriction with lattice index `index`: the pure pre-checks, run for
    the candidates alone, are turned into passing and open strategies by
    `_seeded`, and each open one is settled by `_settle` on the one-index
    lattice whose bit 0 is `index`: its pool and "Y holds y" slices are the
    bits of the pool and of Y."""
    game = evaluator.game
    shift = game.shifts[player]
    full = (1 << game.sizes[player]) - 1
    pool = full if scope == "g" else index >> shift & full
    ys, dominators = _context(evaluator, player, index & ~(full << shift))
    beaters = evaluator.beaters[player]
    sd = br = 0
    for s in mask_members(candidates):
        if not pool & dominators[s]:
            sd |= 1 << s
            # br:pure passes only what sd passes
            row = beaters[s]
            for y in ys:
                if not pool & row[y]:
                    br |= 1 << s
                    break
    passing, open_ = _seeded(family, sd, br, full if ys else 0)
    if open_:
        pools = [pool >> t & 1 for t in range(game.sizes[player])]
        in_y = [0] * len(beaters[0])
        for y in ys:
            in_y[y] = 1
        for s in mask_members(open_):
            passing |= _settle(evaluator, family, scope, player, s, 0, 1, pools, in_y, 1, index) << s
    return passing


def passing_mask(
    spec: PropertySpec,
    game: Game,
    player: int,
    g: Restriction,
    candidates: int,
    evaluator: Evaluator | None = None,
) -> int:
    """The strategies in the mask `candidates` that satisfy the property on
    g, as a mask; an LP runs only for a candidate its pure pre-check leaves
    open; `1 << s` asks for strategy s alone.  A player the game lacks, or a
    candidate mask out of its range, is a ValueError, raised before anything
    is cached."""
    check_same_game(game, g.game, "restriction")
    evaluator = evaluator_for(game, evaluator)
    family = _family(spec, game)
    if not 0 <= player < game.num_players:
        raise ValueError(f"no player {player}")
    if candidates < 0 or candidates >> len(game.strategy_names[player]):
        raise ValueError(f"player {player + 1}: strategy mask {candidates} out of range")
    return _passing(evaluator, family, spec.scope, player, g.index, candidates)


def apply_operator(
    profile: PropertyProfile, game: Game, g: Restriction, evaluator: Evaluator | None = None
) -> Restriction:
    """Remove every strategy of every player that fails its property on g."""
    check_same_game(game, g.game, "restriction")
    if len(profile.specs) != game.num_players:
        raise ValueError("profile length differs from the number of players")
    evaluator = evaluator_for(game, evaluator)
    masks, shifts = g.masks, game.shifts
    idx = 0
    for i, spec in enumerate(profile.specs):
        passing = _passing(evaluator, _family(spec, game), spec.scope, i, g.index, masks[i])
        idx |= passing << shifts[i]
    return restriction_at(game, idx)


@dataclass(frozen=True)
class PropertyOperator:
    """The elimination operator of `profile` on `game`: a Restriction ->
    Restriction callable for `iterate_operator`, whose `table` builds its
    image table's bit-slices at once for `image_table`.  Its contexts and
    certificates are kept in `evaluator` for as long as the operator lives."""

    profile: PropertyProfile
    game: Game
    evaluator: Evaluator

    def __call__(self, g: Restriction) -> Restriction:
        return apply_operator(self.profile, self.game, g, self.evaluator)

    def table(self, game: Game, max_restrictions: int) -> list[int]:
        check_same_game(game, self.game, "operator")
        return _property_table(self.profile, game, self.evaluator, max_restrictions, True)


def property_operator(
    profile: PropertyProfile, game: Game, evaluator: Evaluator | None = None
) -> PropertyOperator:
    """The elimination operator of `profile` on `game`."""
    return PropertyOperator(profile, game, evaluator_for(game, evaluator))


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


def _component(
    evaluator: Evaluator, family: str, scope: str, player: int, patterns: list[int], own: bool
) -> tuple[list[int], list[int], list[int], list[int]]:
    """`player`'s verdicts on every restriction at once, as bit-slices over
    the lattice: per strategy s, one int whose bit X says that s passes
    `family` at lattice index X with no LP, and one whose bit X says that
    the pure pre-checks leave s open there (never for a pure family); both
    are asked among the restriction's own strategies when `own`, among all
    of T_i otherwise.  Then the slices it builds them from: per strategy t,
    where the pool holds t, and per opponent profile y, where Y holds y.
    `patterns` holds one slice per lattice bit, from `lattice_patterns`.

    "y in Y" is the AND of one pattern per opponent, and "Y is non-empty"
    the AND over opponents of the OR of their patterns.  s fails sd where
    some pool strategy t beats it at every profile of Y, that is where t is
    in the pool and Y misses every profile at which t does not beat s, and
    passes br:pure where Y holds a profile y at which the pool misses
    beaters[s][y].  `_seeded` turns these slices into `family`'s passing
    and open slices by the rule `_passing` applies to strategy masks."""
    game = evaluator.game
    k = game.sizes[player]
    shift = game.shifts[player]
    ones = (1 << (1 << len(patterns))) - 1
    own_bits = patterns[shift:shift + k]
    in_y, nonempty = [ones], ones  # per profile y, row-major: where Y holds y
    for j, size in enumerate(game.sizes):
        if j != player:
            bits = patterns[game.shifts[j]:game.shifts[j] + size]
            in_y = [m & p for m in in_y for p in bits]
            nonempty &= reduce(or_, bits)
    pools = own_bits if scope == "l" else [ones] * k
    passing, opens = [], []
    blocked = {}  # per beaters mask: where the pool meets it
    for row, candidates in zip(evaluator.beaters[player], own_bits if own else [ones] * k):
        fails = 0
        for t, pool in enumerate(pools):
            outside = 0  # where Y holds a profile at which t does not beat s
            for y, mask in enumerate(row):
                if not mask >> t & 1:
                    outside |= in_y[y]
            fails |= pool & ~outside
        br = 0
        for y, mask in enumerate(row):
            if mask not in blocked:
                blocked[mask] = reduce(or_, (pools[t] for t in mask_members(mask)), 0)
            br |= in_y[y] & ~blocked[mask]
        seeded, open_ = _seeded(family, ones & ~fails, br, nonempty)
        passing.append(seeded & candidates)
        opens.append(open_ & candidates)
    return passing, opens, pools, in_y


def _property_table(
    profile: PropertyProfile,
    game: Game,
    evaluator: Evaluator,
    max_restrictions: int,
    own: bool,
) -> list[int]:
    """The bit-slices of the table whose entry at each restriction's lattice
    index is the lattice index whose player-i mask holds the strategies
    passing player i's property there.  With `own` these are taken among the
    restriction's own strategies, which makes the table the operator's
    images; otherwise among all of T_i, which is the table a monotonicity
    check compares.  The lattice budget is charged before anything else.

    `_component` gives each player's pure verdicts as the slices of its bits,
    and `_settle` settles an LP family's open slices one strategy at a time,
    over the whole lattice."""
    ones = (1 << count_restrictions(game, max_restrictions)) - 1
    if len(profile.specs) != game.num_players:
        raise ValueError("profile length differs from the number of players")
    k = sum(game.sizes)
    patterns = lattice_patterns(k)
    slices = [0] * k
    for i, spec in enumerate(profile.specs):
        family = _family(spec, game)
        passing, opens, pools, in_y = _component(evaluator, family, spec.scope, i, patterns, own)
        slices[game.shifts[i]:game.shifts[i] + game.sizes[i]] = [
            _settle(evaluator, family, spec.scope, i, s, seeded, open_, pools, in_y, ones)
            for s, (seeded, open_) in enumerate(zip(passing, opens))
        ]
    return slices


def property_is_monotone(
    spec: PropertySpec, game: Game, evaluator: Evaluator | None = None
) -> bool:
    """check_property_monotone's verdict alone: the slices' up-closure
    `violating_indices` marks no index, and no violation is counted."""
    evaluator = evaluator_for(game, evaluator)
    profile = PropertyProfile.uniform(spec, game.num_players)
    slices = _property_table(profile, game, evaluator, DEFAULT_LATTICE_BUDGET, False)
    return not violating_indices(slices)


def check_property_monotone(
    spec: PropertySpec,
    game: Game,
    max_restrictions: int = DEFAULT_LATTICE_BUDGET,
    evaluator: Evaluator | None = None,
) -> CheckReport:
    """Exhaustively check: G below G' and property holds at G implies it holds
    at G', for every comparable pair and every strategy in T_i.  The
    slices' up-closure `violating_indices` decides it, `violation_count`
    only counts existing violations, and pairs below marked indices are
    listed up to MAX_MONOTONE_ENTRIES entries."""
    evaluator = evaluator_for(game, evaluator)
    profile = PropertyProfile.uniform(spec, game.num_players)
    slices = _property_table(profile, game, evaluator, max_restrictions, False)
    entries = []
    for small, big, lost in non_monotone_pairs(game.sizes, slices, violating_indices(slices)):
        for i, bad in enumerate(unpack_index(game.sizes, lost)):
            if bad:
                entries.append(
                    {
                        "player": i + 1,
                        "strategies": [
                            game.strategy_names[i][s] for s in mask_members(bad)
                        ],
                        "smaller": restriction_at(game, small).names(),
                        "larger": restriction_at(game, big).names(),
                    }
                )
        if len(entries) >= MAX_MONOTONE_ENTRIES:
            break
    violations = violation_count(slices) if entries else 0
    return CheckReport(
        name="property-monotonicity",
        passed=violations == 0,
        details={
            "game": game.name,
            "property": str(spec),
            "pairs_checked": 3 ** sum(game.sizes),
            "violations": violations,
        },
        entries=entries[:MAX_MONOTONE_ENTRIES],
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
        g = Restriction(game, tuple(1 << s for s in joint))
        for i in game.players():
            checked += 1
            if not passing_mask(spec, game, i, g, 1 << joint[i], evaluator):
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
    first property lies inside the outcome of the last.  Failing links are
    reported by ascending index, then in link order.

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
    tables = [
        image_table(property_operator(p, game, evaluator), game, max_restrictions)
        for p in profiles
    ]
    failures = [
        outside(low, high) | (outside(high, low) if relation == "==" else 0)
        for (relation, _, _), low, high in zip(links, tables, tables[1:])
    ]
    entries = []
    for idx in mask_members(reduce(or_, failures)):
        for (_, kind, image_keys), failed, low, high in zip(links, failures, tables, tables[1:]):
            if failed >> idx & 1:
                entry = {"kind": kind, "restriction": restriction_at(game, idx).names()}
                if image_keys is not None:
                    entry[image_keys[0]] = restriction_at(game, image_at(low, idx)).names()
                    entry[image_keys[1]] = restriction_at(game, image_at(high, idx)).names()
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
            "restrictions_checked": 1 << len(tables[0]),
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


def pearce_equivalence_suite(
    game: Game, max_restrictions: int = DEFAULT_LATTICE_BUDGET
) -> CheckReport:
    """Pearce's lemma on every restriction: the br:l:corr and msd:l images,
    each decided by the shared pure pre-checks, its own stored certificates
    and its own LP through one Evaluator, must be equal; neither family
    reads the other's certificates.  Only a restriction where they differ
    is handed to dominance.pearce_equivalence_check, which solves both LPs
    itself and whose disagreeing entries, with both certificates, make up
    the report's entries."""
    evaluator = Evaluator(game)
    profiles = [
        PropertyProfile.uniform(parse_property_spec(text), game.num_players)
        for text in ("br:l:corr", "msd:l")
    ]
    brc, msd = [
        image_table(property_operator(p, game, evaluator), game, max_restrictions)
        for p in profiles
    ]
    mismatches = []
    for idx in mask_members(outside(brc, msd) | outside(msd, brc)):
        g = restriction_at(game, idx)
        rep = dominance.pearce_equivalence_check(game, g)
        mismatches.append(
            {
                "restriction": g.names(),
                "entries": [e for e in rep.entries if not e["agree"]],
            }
        )
    return CheckReport(
        name="pearce-equivalence-suite",
        passed=not mismatches,
        details={
            "game": game.name,
            "restrictions_checked": 1 << len(brc),
            "mismatching_restrictions": len(mismatches),
        },
        entries=mismatches,
    )
