"""Reference procedures that the tests compare the package against: the
generators of every possibility correspondence of each class, the Monderer
and Samet form of common knowledge, the decision of a player's marked sets
by walking every partition of every set of states and by the good-block
recursion, the CK/CB walk that ANDs every player's marked sets and the one
that lists and sorts every representative before it walks them, the rank
of a strategy assignment in product order, the JSON conversion of report
values with its Fraction test first, one player's integer payoff and beater
tables, built cell by cell, the two max-margin LP procedures and the LP
answer of a property query with their rows built and their certificates
re-checked in Fractions, a distribution's Fraction sum check, a property's
image table, asked one lattice index at a time, the property queries and
tables of an Evaluator that keeps a verdict store, the symbolic set algebra
as one sorted sweep over every operand's boundary cuts, and the lattice
verifiers on image tables held as lists of 2^K lattice indices, with the
transpose of a table's bit-slices into that list and the subset sum that
counts monotonicity violations per index, and the transfinite witness's
step through the set algebra."""

import itertools
from functools import reduce
from itertools import compress
from fractions import Fraction
from math import lcm
from operator import add, or_
from typing import Iterator, Sequence

from gamelattice import dominance, iteration, lp, properties
from gamelattice.epistemic import (
    EpistemicModel,
    WitnessResult,
    _or_all,
    _require_class,
    _state_indices,
    common_knowledge_event,
    event_restriction,
    is_evident,
    is_knowledge_correspondence,
    k_event,
    largest_evident_subset,
    rational_states,
)
from gamelattice.errors import InternalError, PreconditionError
from gamelattice.games import (
    Game,
    all_restrictions,
    count_restrictions,
    lattice_leq,
    mask_members,
    restriction_at,
    unpack_index,
)
from gamelattice.iteration import (
    DEFAULT_LATTICE_BUDGET,
    iterate_operator,
    lattice_patterns,
    table_slices,
)
from gamelattice.reports import CheckReport
from gamelattice.symbolic import INF, NEG_INF, Piece, SymbolicSet


def _block_partitions(members: Sequence[int]) -> list[list[int]]:
    """All partitions of the given states into blocks, as lists of block
    bitmasks: each state joins every existing block in turn, then opens a new
    one."""
    partitions: list[list[int]] = [[]]
    for w in members:
        bit = 1 << w
        partitions = [
            [*p[:b], p[b] | bit, *p[b + 1 :]] if b < len(p) else [*p, bit]
            for p in partitions
            for b in range(len(p) + 1)
        ]
    return partitions


def _block_cells(blocks: Sequence[int], n: int) -> list[int]:
    """Per-state cell bitmasks: each state covered by a block gets that block."""
    cells = [0] * n
    for mask in blocks:
        for w in mask_members(mask):
            cells[w] = mask
    return cells


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n states, yielded as per-state cell bitmasks."""
    for blocks in _block_partitions(range(n)):
        yield tuple(_block_cells(blocks, n))


def belief_correspondences(n: int) -> Iterator[tuple[int, ...]]:
    """All correspondences satisfying seriality and cell-consistency, as
    per-state cell bitmasks.

    Cell-consistency forces the image cells to be pairwise disjoint and
    fixed on themselves, so the enumeration picks disjoint non-empty target
    cells covering some subset and routes every remaining state to one of
    them.
    """
    full = (1 << n) - 1
    for covered in range(1, full + 1):
        members = [w for w in range(n) if covered >> w & 1]
        outside = [w for w in range(n) if not covered >> w & 1]
        for blocks in _block_partitions(members):
            base = _block_cells(blocks, n)
            for routing in itertools.product(range(len(blocks)), repeat=len(outside)):
                cells = list(base)
                for w, b in zip(outside, routing):
                    cells[w] = blocks[b]
                yield tuple(cells)


def common_knowledge_event_ms89(model: EpistemicModel, e: int) -> int:
    """The alternative form: membership in some evident subset of K e."""
    _require_class(model, is_knowledge_correspondence, "knowledge")
    return largest_evident_subset(model, k_event(model, e))


def partial_partitions(omega: int) -> list[list[int]]:
    """Every partition of every non-empty set of the omega states into
    blocks, as lists of block bitmasks."""
    return [
        blocks
        for covered in range(1, 1 << omega)
        for blocks in _block_partitions(mask_members(covered))
    ]


def walked_marked_sets(
    partitions: Sequence[Sequence[int]], passes: Sequence[int], mode: str
) -> int:
    """A player's marked sets in the mode, by walking the given partitions:
    knowledge mode marks the union S of every partition whose blocks b all
    lie inside passes[b], and belief mode every G from S up to S and the
    union of the blocks' passes[b].  `marked_sets` decides the knowledge
    marks, which are the belief marks on the tables of the language's
    properties."""
    good = [not b & ~p for b, p in enumerate(passes)]
    marked = 0
    for blocks in partitions:
        if all(good[b] for b in blocks):
            covered = _or_all(blocks)
            free = 0
            if mode == "belief":
                free = _or_all(passes[b] for b in blocks) & ~covered
            for sub in range(free + 1):
                if not sub & ~free:
                    marked |= 1 << (covered | sub)
    return marked


def marked_sets(passes: Sequence[int]) -> int:
    """The non-empty sets of states, as the bits of one int, that split into
    good blocks: `passes[b]` is the set of states whose strategy passes at
    the image of the set of states b, and b is good when b <= passes[b].
    By cell-consistency, a knowledge correspondence makes G evident inside
    the player's rationality exactly when it partitions G into good blocks.

    One pass over S ascending decides the marks.  The lowest state of S lies
    in exactly one block b of any partition of S, so S splits into good
    blocks iff some good b inside S that holds that state leaves S - b empty
    or split; only the submasks of S that hold it are tried.
    """
    good = [not b & ~p for b, p in enumerate(passes)]
    # bit 0 stands for the empty set, which splits into no blocks
    marked = 1
    for s in range(1, len(passes)):
        low = s & -s
        rest = sub = s ^ low
        while True:
            b = low | sub
            if good[b] and marked >> (s ^ b) & 1:
                marked |= 1 << s
                break
            if not sub:
                break
            sub = (sub - 1) & rest
    return marked & ~1


def marked_sets_walk(
    game: Game, omega: int, profile: properties.PropertyProfile, evaluator: properties.Evaluator
) -> tuple[int, int]:
    """The `(acc, rank)` that `epistemic._walk` returns, from every player's
    marked sets: per representative in product order, each player's
    `passes` table is read at the image of every non-empty set of states,
    `marked_sets` decides it, the players' marks are ANDed, and the image of
    the union of the sets left is ORed into `acc`.  The same skip test,
    early exit and rank as the walk.  `properties._passing` is asked once per
    (player, image index, used strategies) and `marked_sets` once per
    `passes` tuple."""
    n = game.num_players
    joint_list = list(game.joint_strategies())
    index_of = dict(zip(joint_list, _state_indices(game, joint_list)))
    representatives = sorted(
        tuple(zip(*per_state))
        for per_state in itertools.combinations_with_replacement(joint_list, omega)
    )
    top = (1 << sum(game.sizes)) - 1
    acc = 0
    decisions: dict[tuple[int, ...], int] = {}
    decided_as = [(properties._family(spec, game), spec.scope) for spec in profile.specs]
    verdicts: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for rows in representatives:
        state_idx = [index_of[joint] for joint in zip(*rows)]
        if not _or_all(state_idx) & ~acc:
            continue
        # images[e] is the image of the states in e
        images = [0]
        for idx in state_idx:
            images += [m | idx for m in images]
        marked = -1
        for i, row in enumerate(rows):
            # at[s] holds the states choosing s, states_of[x] those choosing in x
            at = [0] * game.sizes[i]
            used = 0
            for w, s in enumerate(row):
                at[s] |= 1 << w
                used |= 1 << s
            states_of = [0]
            for at_s in at:
                states_of += [m | at_s for m in states_of]
            asked = verdicts[i]
            passes = [0]
            for m in images[1:]:
                ok = asked.get((m, used))
                if ok is None:
                    ok = properties._passing(evaluator, *decided_as[i], i, m, used)
                    asked[m, used] = ok
                passes.append(states_of[ok])
            passes = tuple(passes)
            marks = decisions.get(passes)
            if marks is None:
                marks = decisions[passes] = marked_sets(passes)
            marked &= marks
            if not marked:
                break
        gathered = _or_all(s for s in range(1, 1 << omega) if marked >> s & 1)
        acc |= images[gathered]
        if acc == top:
            return acc, product_rank(game.sizes, tuple(zip(*rows)))
    return acc, len(joint_list) ** omega - 1


def sorted_walk(
    game: Game, omega: int, profile: properties.PropertyProfile, evaluator: properties.Evaluator
) -> tuple[int, int]:
    """The `(acc, rank)` that `epistemic._walk` returns, with every
    representative listed by `combinations_with_replacement` over the joint
    strategies and sorted by its rows before the first is visited.  Each is
    skipped when its joints' image lies inside `acc`, and otherwise peeled
    joint by joint: the joints outside the passing strategies at the
    current image are dropped until none is.  `properties._passing` is asked
    once per (global player, image index), with the image's own strategies
    as candidates."""
    joint_list = list(game.joint_strategies())
    index_of = dict(zip(joint_list, _state_indices(game, joint_list)))
    representatives = sorted(
        tuple(zip(*per_state))
        for per_state in itertools.combinations_with_replacement(joint_list, omega)
    )
    top = (1 << sum(game.sizes)) - 1
    free = 0
    globals_ = []
    for i, spec in enumerate(profile.specs):
        shift, full = game.shifts[i], (1 << game.sizes[i]) - 1
        if spec.scope == "g":
            globals_.append((i, properties._family(spec, game), shift, full))
        else:
            free |= full << shift
    passing_at: dict[int, int] = {}
    acc = 0
    for rows in representatives:
        joints = {index_of[joint] for joint in zip(*rows)}
        image = _or_all(joints)
        if not image & ~acc:
            continue
        while image:
            passing = passing_at.get(image)
            if passing is None:
                passing = free
                for i, family, shift, full in globals_:
                    ok = properties._passing(evaluator, family, "g", i, image, image >> shift & full)
                    passing |= ok << shift
                passing_at[image] = passing
            kept = [idx for idx in joints if not idx & ~passing]
            if len(kept) == len(joints):
                break
            joints = kept
            image = _or_all(kept)
        acc |= image
        if acc == top:
            return acc, product_rank(game.sizes, tuple(zip(*rows)))
    return acc, len(joint_list) ** omega - 1


def product_rank(sizes: Sequence[int], per_state: Sequence[Sequence[int]]) -> int:
    """The rank among all strategy assignments in product order of the one
    choosing the joint strategy per_state[w] at state w: per player, the row
    read as a base-k number, state 0 most significant, combined player 1
    first."""
    r = 0
    for i, k in enumerate(sizes):
        for joint in per_state:
            r = r * k + joint[i]
    return r


def json_ready(value):
    """`reports.json_ready` with the Fraction test first, then bool and
    None, int and str, dict, set and list, as the package once ordered its
    tests."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [json_ready(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    raise TypeError(f"{type(value).__name__} values are not allowed in reports")


def comparison_tables(game: Game, player: int) -> tuple[list[list[int]], list[list[int]]]:
    """The tables `properties._comparisons` builds for `player`, as
    (`payoffs[player]`, `beaters[player]`): each opponent profile's column
    read through `Game.payoff`, profiles in `itertools.product` order, over
    one common denominator; and per strategy s and profile, the mask of the
    strategies whose payoff is strictly higher, from one comparison per
    pair."""
    k = len(game.strategy_names[player])
    opponents = [range(m) for j, m in enumerate(game.sizes) if j != player]
    columns = [
        [game.payoff(player, y[:player] + (s,) + y[player:]) for s in range(k)]
        for y in itertools.product(*opponents)
    ]
    scale = lcm(*{v.denominator for column in columns for v in column})
    columns = [[v.numerator * (scale // v.denominator) for v in column] for column in columns]
    beaters = [
        [sum(1 << t for t, up in enumerate(column) if up > column[s]) for column in columns]
        for s in range(k)
    ]
    return columns, beaters


def fraction_payoff(game: Game, player: int, strategy: int, opp_profile: Sequence[int]) -> Fraction:
    """`player`'s payoff for `strategy` against the opponents' profile,
    through `Game.payoff`."""
    joint = list(opp_profile)
    joint.insert(player, strategy)
    return game.payoff(player, joint)


def _fraction_max_margin(rows: list[list[Fraction]], bounds: list[Fraction]) -> lp.Optimum:
    """The max-margin LP of `dominance._max_margin` with its rational rows
    as they are: `lp.simplex_maximize` scales them itself."""
    k = len(rows[0])
    one, zero = Fraction(1), Fraction(0)
    objective = [zero] * k + [one, -one]
    lhs_le = [row + [one, -one] for row in rows]
    lhs_eq = [[one] * k + [zero, zero]]
    return lp.simplex_maximize(objective, lhs_le, bounds, lhs_eq, [one])


def _fraction_refuting(items, optimum: lp.Optimum) -> dominance.Distribution:
    try:
        return dominance.distribution(dict(zip(items, optimum.duals)))
    except ValueError as exc:
        raise InternalError(f"LP dual certificate failed re-validation: {exc}") from None


def fraction_dominance_witness(
    game: Game, context, player: int, dominator_pool, dominated: int, *, refutation=None
):
    """`dominance.mixed_dominance_witness` with every LP row built from
    `fraction_payoff` as a Fraction and the witness re-checked by Fraction
    sums."""
    pool = sorted(set(dominator_pool))
    profiles = list(context.opponent_profiles(player))
    if pool and not profiles:
        return dominance.distribution({s: Fraction(1, len(pool)) for s in pool})
    if pool in ([], [dominated]):
        return None
    optimum = _fraction_max_margin(
        [[-fraction_payoff(game, player, s, y) for s in pool] for y in profiles],
        [-fraction_payoff(game, player, dominated, y) for y in profiles],
    )
    value, x = optimum
    if value <= 0:
        if refutation is not None:
            refutation.append(_fraction_refuting(profiles, optimum))
        return None
    witness = dominance.distribution(dict(zip(pool, x)))
    for y in profiles:
        got = sum(
            (w * fraction_payoff(game, player, s, y) for s, w in witness.weights), Fraction(0)
        )
        if got <= fraction_payoff(game, player, dominated, y):
            raise InternalError("LP dominance witness failed re-validation")
    return witness


def fraction_supporting_belief(
    game: Game, belief_context, comparison_pool, player: int, candidate: int, *, refutation=None
):
    """`dominance.exists_supporting_belief` for a correlated belief, with
    every LP row built from `fraction_payoff` as a Fraction and the belief
    re-checked by Fraction expected payoffs."""
    pool = sorted(set(comparison_pool))
    profiles = list(belief_context.opponent_profiles(player))
    if not profiles:
        return None
    if not pool:
        return dominance.distribution({profiles[0]: 1})
    optimum = _fraction_max_margin(
        [
            [
                fraction_payoff(game, player, s, y) - fraction_payoff(game, player, candidate, y)
                for y in profiles
            ]
            for s in pool
        ],
        [Fraction(0)] * len(pool),
    )
    value, x = optimum
    if value < 0:
        if refutation is not None:
            refutation.append(_fraction_refuting(pool, optimum))
        return None
    belief = dominance.distribution(dict(zip(profiles, x)))

    def expected(s):
        return sum(
            (w * fraction_payoff(game, player, s, y) for y, w in belief.weights), Fraction(0)
        )

    base = expected(candidate)
    for s in pool:
        if expected(s) > base:
            raise InternalError("LP belief witness failed re-validation")
    return belief


def fraction_solved(
    evaluator: properties.Evaluator, family: str, index: int, player: int, pool: int, s: int
) -> tuple[bool, tuple[int, int]]:
    """`properties._solved` through `fraction_dominance_witness` and
    `fraction_supporting_belief`."""
    game = evaluator.game
    g = restriction_at(game, index)
    refutation = []
    if family == "msd":
        witness = fraction_dominance_witness(
            game, g, player, mask_members(pool), s, refutation=refutation
        )
        passes = witness is None
    else:
        witness = fraction_supporting_belief(
            game, g, mask_members(pool), player, s, refutation=refutation
        )
        passes = witness is not None
    (certificate,) = refutation if witness is None else [witness]
    return passes, properties._certificate_masks(evaluator, player, s, certificate, not passes)


def fraction_distribution_error(weights) -> str | None:
    """The ValueError message a `Distribution` of these (item, weight) pairs
    gave when it summed its weights as Fractions, or None."""
    if len({item for item, _ in weights}) != len(weights):
        return "distribution items must be distinct"
    total = Fraction(0)
    for _, w in weights:
        if w <= 0:
            return "distribution weights must be positive"
        total += w
    if total != 1:
        return f"distribution weights sum to {total}, not 1"
    return None


def per_index_table(
    profile: properties.PropertyProfile, game: Game, evaluator: properties.Evaluator, own: bool
) -> list[int]:
    """The image table `properties._property_table` builds, asked one
    lattice index at a time: per player in order, per index ascending, the
    strategies passing that player's property there, from
    `properties._passing` with the index's own strategies as candidates when
    `own`, all of T_i otherwise, ORed into the index at the player's bits;
    returned as its bit-slices."""
    count = 1 << sum(game.sizes)
    table = [0] * count
    for i, spec in enumerate(profile.specs):
        family = properties._family(spec, game)
        shift = game.shifts[i]
        full = (1 << game.sizes[i]) - 1
        for idx in range(count):
            candidates = idx >> shift & full if own else full
            passing = properties._passing(evaluator, family, spec.scope, i, idx, candidates)
            table[idx] |= passing << shift
    return table_slices(table, sum(game.sizes))


def transpose_slices(slices: list[int], k: int) -> list[int]:
    """The 2^k ints whose bit b at index X is bit X of slices[b], the
    inverse of `iteration.table_slices`: bit b is set at every member of
    slices[b]."""
    images = [0] * (1 << k)
    for b, bits in enumerate(slices):
        for x in mask_members(bits):
            images[x] |= 1 << b
    return images


def settled(certificates: tuple[list, list], pool: int, profiles: int) -> bool | None:
    """The verdict a stored certificate proves on pool `pool` and the
    profile mask `profiles`, or None, asked one (pool, profiles) at a time:
    False from a mixture with its support in the pool that beats the
    candidate at every profile, True from a belief with its support in the
    profiles under which no strategy of the pool beats it, newest first."""
    mixtures, beliefs = certificates
    for support, beaten in reversed(mixtures):
        if not support & ~pool and not profiles & ~beaten:
            return False
    for support, beaters in reversed(beliefs):
        if not support & ~profiles and not pool & beaters:
            return True
    return None


class VerdictStore:
    """`properties._passing` and `properties._property_table` on
    `evaluator` as they were when the Evaluator also kept its verdicts:
    `verdicts` holds one (decided, passing) pair of strategy masks per
    (family, player, opponent bits, pool), seeded by `properties._seeded`
    from both pure pre-checks over every strategy.  A query decides each
    candidate its entry leaves open, in ascending order, from a stored
    certificate (`settled`) or else its own LP (`properties._solved`), whose
    certificate it stores and which must settle it there, and records it in
    the entry; a table
    asks the query at every index where `properties._component`'s slices
    leave a strategy open, in ascending index order, and returns its
    bit-slices, as `properties._property_table` does."""

    def __init__(self, evaluator: properties.Evaluator):
        self.evaluator = evaluator
        self.verdicts: dict[tuple[str, int, int, int], tuple[int, int]] = {}

    def passing(self, family: str, scope: str, player: int, index: int, candidates: int) -> int:
        evaluator = self.evaluator
        game = evaluator.game
        shift = game.shifts[player]
        full = (1 << game.sizes[player]) - 1
        pool = full if scope == "g" else index >> shift & full
        opponents = index & ~(full << shift)
        key = (family, player, opponents, pool)
        ys, dominators = properties._context(evaluator, player, opponents)
        profiles = sum(1 << y for y in ys)
        entry = self.verdicts.get(key)
        if entry is None:
            sd = br = 0
            for s, row in enumerate(evaluator.beaters[player]):
                if not pool & dominators[s]:
                    sd |= 1 << s
                    if any(not pool & row[y] for y in ys):
                        br |= 1 << s
            passing, open_ = properties._seeded(family, sd, br, full if ys else 0)
            entry = self.verdicts[key] = (full & ~open_, passing)
        decided, passing = entry
        open_ = candidates & ~decided
        for s in mask_members(open_):
            certificates = evaluator.certificates.setdefault((family, player, s), ([], []))
            verdict = settled(certificates, pool, profiles)
            if verdict is None:
                verdict, masks = properties._solved(evaluator, family, index, player, pool, s)
                certificates[verdict].append(masks)
                assert settled(certificates, pool, profiles) is verdict
            passing |= verdict << s
        self.verdicts[key] = (decided | open_, passing)
        return passing & candidates

    def table(
        self, profile: properties.PropertyProfile, game: Game, max_restrictions: int, own: bool
    ) -> list[int]:
        count = count_restrictions(game, max_restrictions)
        k = sum(game.sizes)
        patterns = lattice_patterns(k)
        slices = [0] * k
        for i, spec in enumerate(profile.specs):
            family = properties._family(spec, game)
            shift = game.shifts[i]
            passing, opens, _, _ = properties._component(
                self.evaluator, family, spec.scope, i, patterns, own
            )
            if any(opens):
                opens = transpose_slices(opens, k)
                for idx in compress(range(count), opens):
                    opens[idx] = self.passing(family, spec.scope, i, idx, opens[idx])
                passing = map(or_, passing, table_slices(opens, game.sizes[i]))
            slices[shift:shift + game.sizes[i]] = passing
        return slices


def sweep(sets, keep) -> tuple[Piece, ...]:
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


def sweep_from_pieces(pieces) -> tuple[Piece, ...]:
    return sweep((pieces,), any)


def sweep_union(a, b) -> tuple[Piece, ...]:
    return sweep((a.pieces, b.pieces), any)


def sweep_intersection(a, b) -> tuple[Piece, ...]:
    return sweep((a.pieces, b.pieces), all)


def sweep_difference(a, b) -> tuple[Piece, ...]:
    return sweep((a.pieces, b.pieces), lambda d: d[0] and not d[1])


def sweep_complement(a) -> tuple[Piece, ...]:
    return sweep((a.pieces,), lambda d: not d[0])


# one side of `witnesses.transfinite_witness`'s step, decided by set
# operations on the whole sets rather than read off their canonical pieces:
# x in [0,1) survives from psi's threshold up, 1 unless the opponent lies in
# {1, 2}, and 2 unless it lies in [0,1)
_UNIT = SymbolicSet.interval(0, 1)
_BELOW_ONE = SymbolicSet.interval(0, 1, hi_closed=False)
_OUTSIDE = SymbolicSet.point(2)
_ONE_TWO = SymbolicSet.points([1, 2])


def psi_threshold_by_sets(opponent: SymbolicSet) -> tuple[Fraction, bool]:
    """inf of psi over the opponent's set, with attainment; requires a
    non-empty opponent set."""
    low = opponent.intersection(_UNIT)
    has_two = opponent.contains(2)
    if low.is_empty:
        return Fraction(1), has_two
    c, attained = low.infimum()
    tau = (1 + c) / 2
    if tau == 1:
        return Fraction(1), attained or has_two
    return tau, attained


def eliminate_one_side_by_sets(own: SymbolicSet, opponent: SymbolicSet) -> SymbolicSet:
    if opponent.is_empty:
        return SymbolicSet.empty()
    tau, attained = psi_threshold_by_sets(opponent)
    out = own.intersection(SymbolicSet.interval(tau, 1, lo_closed=attained, hi_closed=False))
    if own.contains(1) and not opponent.difference(_ONE_TWO).is_empty:
        out = out.union(SymbolicSet.point(1))
    if own.contains(2) and not opponent.difference(_BELOW_ONE).is_empty:
        out = out.union(_OUTSIDE)
    return out


def witness_model_thm1(game: Game, profile: properties.PropertyProfile) -> WitnessResult:
    """The Theorem-1 witness built in two branches.  With an empty outcome
    component: every strategy 0, every cell a singleton, the event empty,
    and `image_matches_outcome` left out of `passed`.  Otherwise the player
    with the most survivors gets the row own + [own[0]] * surplus + others,
    and every other player a cyclic row over its survivors on E, padded
    outside E with a strategy of its complement."""
    evaluator = properties.Evaluator(game)
    for spec in sorted(set(profile.specs), key=str):
        if not properties.property_is_monotone(spec, game, evaluator):
            raise PreconditionError(
                f"property {spec} is not monotonic on {game.name}"
            )
    fix = properties.outcome(profile, game, evaluator=evaluator).outcome
    survivors = [mask_members(m) for m in fix.masks]
    m = max(game.sizes)
    states = tuple(f"w{t}" for t in range(m))
    degenerate = any(not s for s in survivors)

    if degenerate:
        assignment = tuple(tuple(0 for _ in states) for _ in game.players())
        singles = tuple(1 << w for w in range(m))
        correspondences = tuple(singles for _ in game.players())
        event = 0
    else:
        best = max(
            game.players(),
            key=lambda j: (
                len(survivors[j]),
                len(survivors[j]) == game.sizes[j],
                -j,
            ),
        )
        own = survivors[best]
        others = [t for t in game.strategies(best) if t not in set(own)]
        surplus = m - game.sizes[best]
        row = own + [own[0]] * surplus + others
        e_size = len(own) + surplus
        event = (1 << e_size) - 1
        assignment_rows = []
        for i in game.players():
            if i == best:
                assignment_rows.append(tuple(row))
                continue
            s_i = survivors[i]
            complement = [t for t in game.strategies(i) if t not in set(s_i)]
            filler = complement[0] if complement else s_i[0]
            assignment_rows.append(
                tuple(
                    s_i[w % len(s_i)] if w < e_size else filler
                    for w in range(m)
                )
            )
        assignment = tuple(assignment_rows)
        cells = tuple(event if w < e_size else 1 << w for w in range(m))
        correspondences = tuple(cells for _ in game.players())

    model = EpistemicModel(game, states, assignment, correspondences)
    rat = rational_states(model, profile, evaluator)
    ck_rat = common_knowledge_event(model, rat)
    image = event_restriction(model, event)
    checks = {
        "event_evident": is_evident(model, event),
        "image_matches_outcome": image == fix,
        "event_subset_rational": not event & ~rat,
        "event_subset_ck_rational": not event & ~ck_rat,
    }
    required = dict(checks)
    if degenerate:
        required.pop("image_matches_outcome")
    report = CheckReport(
        name="witness-construction-1",
        passed=all(required.values()),
        details={
            "game": game.name,
            "profile": str(profile),
            "outcome": fix.names(),
            "event": sorted(states[w] for w in mask_members(event)),
            "degenerate": degenerate,
            "checks": checks,
        },
        entries=[]
        if all(required.values())
        else [{"failed": [k for k, v in required.items() if not v]}],
    )
    return WitnessResult(model=model, event=event, report=report)


# -- the lattice verifiers on list tables --------------------------------------


def violations_below(images: list[int]) -> list[int]:
    """Per lattice index, the number of (smaller index, strategy bit) pairs
    whose bit is in the smaller index's entry of `images` but not in its own.

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


def list_image_table(op, game: Game, max_restrictions: int) -> list[int]:
    """op's image table as the list of op(G).index at G's own index: the
    transpose of the operator's own `table` when it has one, else one walk
    of the lattice."""
    table = getattr(op, "table", None)
    if table is not None:
        return transpose_slices(table(game, max_restrictions), sum(game.sizes))
    return [
        iteration._apply(op, game, g).index
        for g in all_restrictions(game, max_count=max_restrictions)
    ]


def list_non_monotone_pairs(
    sizes: tuple[int, ...], images: list[int]
) -> Iterator[tuple[int, int]]:
    """(small, big) for every comparable pair whose entries in `images` are
    not included, in `iteration.non_monotone_pairs`'s order: below each
    index `violations_below` counts a violation at, ascending, every
    player's field descending through its submasks, the first player's field
    varying fastest."""
    fields = list(zip(itertools.accumulate(sizes[::-1], initial=0), sizes[::-1]))
    for big, count in enumerate(violations_below(images)):
        if count:
            parts = [
                [m << shift for m in iteration._submasks(big >> shift & (1 << k) - 1)]
                for shift, k in fields
            ]
            for part in itertools.product(*parts):
                small = sum(part)
                if images[small] & ~images[big]:
                    yield small, big


def list_verify_tarski(
    op, game: Game, op_name: str = "operator", max_restrictions: int = DEFAULT_LATTICE_BUDGET
) -> CheckReport:
    """`iteration.verify_tarski` by scans of the list table."""
    images = list_image_table(op, game, max_restrictions)
    details = {"game": game.name, "operator": op_name, "restrictions": len(images)}
    violation = next(list_non_monotone_pairs(game.sizes, images), None)
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
    fixpoint_join = reduce(or_, fixpoints, 0)
    largest_fixpoint = restriction_at(game, fixpoint_join)
    post_join = restriction_at(game, reduce(or_, post_fixpoints, 0))
    entries = []
    if images[fixpoint_join] != fixpoint_join:
        entries.append({"kind": "fixpoint-join-not-fixpoint", "join": largest_fixpoint.names()})
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


def list_verify_inclusion_lemma(
    op1, op2, game: Game, op1_name: str = "op1", op2_name: str = "op2",
    max_restrictions: int = DEFAULT_LATTICE_BUDGET,
) -> CheckReport:
    """`iteration.verify_inclusion_lemma` by scans of the list tables."""
    images1 = list_image_table(op1, game, max_restrictions)
    images2 = list_image_table(op2, game, max_restrictions)
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
    violation = next(list_non_monotone_pairs(game.sizes, images1), None)
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
            restriction = restriction_at(game, idx).names()
            entries.append({"kind": "op2-contraction-violation", "restriction": restriction})
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


def _list_property_table(spec, game: Game, evaluator, max_restrictions: int) -> list[int]:
    """The monotonicity check's table of `spec` as a list."""
    profile = properties.PropertyProfile.uniform(spec, game.num_players)
    slices = properties._property_table(profile, game, evaluator, max_restrictions, False)
    return transpose_slices(slices, sum(game.sizes))


def list_property_is_monotone(spec, game: Game, evaluator=None) -> bool:
    """`properties.property_is_monotone` by the subset sum of the list table."""
    evaluator = properties.evaluator_for(game, evaluator)
    images = _list_property_table(spec, game, evaluator, DEFAULT_LATTICE_BUDGET)
    return not any(violations_below(images))


def list_check_property_monotone(
    spec, game: Game, max_restrictions: int = DEFAULT_LATTICE_BUDGET, evaluator=None
) -> CheckReport:
    """`properties.check_property_monotone` on the list table, counting by
    its subset sum."""
    evaluator = properties.evaluator_for(game, evaluator)
    images = _list_property_table(spec, game, evaluator, max_restrictions)
    entries = []
    for small, big in list_non_monotone_pairs(game.sizes, images):
        for i, bad in enumerate(unpack_index(game.sizes, images[small] & ~images[big])):
            if bad:
                entries.append(
                    {
                        "player": i + 1,
                        "strategies": [game.strategy_names[i][s] for s in mask_members(bad)],
                        "smaller": restriction_at(game, small).names(),
                        "larger": restriction_at(game, big).names(),
                    }
                )
        if len(entries) >= properties.MAX_MONOTONE_ENTRIES:
            break
    violations = sum(violations_below(images))
    return CheckReport(
        name="property-monotonicity",
        passed=violations == 0,
        details={
            "game": game.name,
            "property": str(spec),
            "pairs_checked": 3 ** sum(game.sizes),
            "violations": violations,
        },
        entries=entries[:properties.MAX_MONOTONE_ENTRIES],
    )


def list_verify_pointwise_chain(
    game: Game, name, chain, links, outcome_prefixes, max_restrictions: int
) -> CheckReport:
    """`properties._verify_pointwise_chain` by a scan of the list tables, one
    index at a time."""
    evaluator = properties.Evaluator(game)
    profiles = [
        properties.PropertyProfile.uniform(properties.parse_property_spec(text), game.num_players)
        for text in chain
    ]
    tables = [
        list_image_table(properties.property_operator(p, game, evaluator), game, max_restrictions)
        for p in profiles
    ]
    entries = []
    for idx, images in enumerate(zip(*tables)):
        for (relation, kind, image_keys), low, high in zip(links, images, images[1:]):
            failed = low != high if relation == "==" else low & ~high
            if failed:
                entry = {"kind": kind, "restriction": restriction_at(game, idx).names()}
                if image_keys is not None:
                    entry[image_keys[0]] = restriction_at(game, low).names()
                    entry[image_keys[1]] = restriction_at(game, high).names()
                entries.append(entry)
    first = properties.outcome(profiles[0], game, evaluator=evaluator).outcome
    last = properties.outcome(profiles[-1], game, evaluator=evaluator).outcome
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
            "restrictions_checked": len(tables[0]),
            f"{head}_global_outcome": first.names(),
            f"{tail}_local_outcome": last.names(),
        },
        entries=entries,
    )


def list_pearce_equivalence_suite(
    game: Game, max_restrictions: int = DEFAULT_LATTICE_BUDGET
) -> CheckReport:
    """`properties.pearce_equivalence_suite` by a scan of the list tables."""
    evaluator = properties.Evaluator(game)
    brc, msd = [
        list_image_table(
            properties.property_operator(
                properties.PropertyProfile.uniform(
                    properties.parse_property_spec(text), game.num_players
                ),
                game,
                evaluator,
            ),
            game,
            max_restrictions,
        )
        for text in ("br:l:corr", "msd:l")
    ]
    mismatches = []
    for idx, (brc_image, msd_image) in enumerate(zip(brc, msd)):
        if brc_image != msd_image:
            g = restriction_at(game, idx)
            rep = dominance.pearce_equivalence_check(game, g)
            mismatches.append(
                {"restriction": g.names(), "entries": [e for e in rep.entries if not e["agree"]]}
            )
    return CheckReport(
        name="pearce-equivalence-suite",
        passed=not mismatches,
        details={
            "game": game.name,
            "restrictions_checked": len(brc),
            "mismatching_restrictions": len(mismatches),
        },
        entries=mismatches,
    )
