"""Reference procedures that the tests compare the package against: the
generators of every possibility correspondence of each class, the Monderer
and Samet form of common knowledge, the decision of a player's marked sets
by walking every partition of every set of states and by the good-block
recursion, the CK/CB walk that ANDs every player's marked sets, the rank of
a strategy assignment in product order, one player's integer payoff and beater
tables, built cell by cell, a property's image table, asked one lattice
index at a time, the property queries and tables of an Evaluator that keeps
a verdict store, and the symbolic set algebra as one sorted sweep over every
operand's boundary cuts."""

import itertools
from itertools import compress
from math import lcm
from typing import Iterator, Sequence

from gamelattice import properties
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
from gamelattice.errors import PreconditionError
from gamelattice.games import Game, count_restrictions, mask_members
from gamelattice.iteration import lattice_patterns, transpose_slices
from gamelattice.reports import CheckReport
from gamelattice.symbolic import INF, NEG_INF, Piece


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


def per_index_table(
    profile: properties.PropertyProfile, game: Game, evaluator: properties.Evaluator, own: bool
) -> list[int]:
    """The image table `properties._property_table` builds, asked one
    lattice index at a time: per player in order, per index ascending, the
    strategies passing that player's property there, from
    `properties._passing` with the index's own strategies as candidates when
    `own`, all of T_i otherwise, ORed into the index at the player's
    bits."""
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
    return table


class VerdictStore:
    """`properties._passing` and `properties._property_table` on
    `evaluator` as they were when the Evaluator also kept its verdicts:
    `verdicts` holds one (decided, passing) pair of strategy masks per
    (family, player, opponent bits, pool), seeded by `properties._seeded`
    from both pure pre-checks over every strategy.  A query decides each
    candidate its entry leaves open, in ascending order, from a stored
    certificate or else its own LP (`properties._solved`), and records it
    in the entry; a table asks the query at every index where
    `properties._component`'s slices leave a strategy open."""

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
        profiles, ys, dominators = properties._context(evaluator, player, opponents)
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
            verdict = properties._settled(certificates, pool, profiles)
            if verdict is None:
                verdict = properties._solved(evaluator, family, index, player, pool, profiles, s)
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
        solved = []
        for i, spec in enumerate(profile.specs):
            family = properties._family(spec, game)
            shift = game.shifts[i]
            passing, opens = properties._component(
                self.evaluator, family, spec.scope, i, patterns, own
            )
            slices[shift:shift + len(passing)] = passing
            if any(opens):
                opens = transpose_slices(opens, k)
                solved += [
                    (idx, self.passing(family, spec.scope, i, idx, opens[idx]) << shift)
                    for idx in compress(range(count), opens)
                ]
        table = transpose_slices(slices, k)
        for idx, passing in solved:
            table[idx] |= passing
        return table


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
