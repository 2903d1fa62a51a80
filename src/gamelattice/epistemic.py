"""Epistemic models over a game: states, possibility correspondences, common
knowledge and common belief, rationality events, exhaustive model
enumeration, and the two witness constructions.

Events and cells are state bitmasks (bit w is state w), and a correspondence
is a tuple of per-state cell masks.  A possibility correspondence is
classified, never assumed: it is a belief correspondence when every value is
non-empty and consistent across its own cells, and a knowledge
correspondence when additionally every state sits in its own cell (then the
cells partition the state space).  Common knowledge of an event is
membership in some evident subset of it, and evident events are closed under
union: model queries compute the largest evident subset by peeling states
whose cells stick out.  The enumerator peels too: per strategy assignment
it gathers the greatest set of states on which every global player's
strategies pass at the set's own image, dropping failing joint strategies
until none fails.  A state's joint strategy is one lattice index
(`Restriction.index`), so an event's image is an OR of ints, as is the
restriction the enumerator gathers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ClassificationError, InternalError, PreconditionError
from .games import Game, Restriction, check_budget, mask_members, restriction_at
from .properties import (
    Evaluator,
    PropertyProfile,
    _family,
    _passing,
    check_singleton_condition,
    evaluator_for,
    outcome,
    passing_mask,
    property_is_monotone,
)
from .reports import CheckReport

DEFAULT_MODEL_BUDGET = 4_000_000


@dataclass(frozen=True)
class EpistemicModel:
    """A state space, one strategy per player per state, and one possibility
    correspondence (a tuple of per-state cell masks) per player."""

    game: Game
    states: tuple[str, ...]
    assignment: tuple[tuple[int, ...], ...]
    correspondences: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.game.num_players
        omega = len(self.states)
        if len(set(self.states)) != omega:
            raise ValueError("duplicate state ids")
        for k in self.game.sizes:
            if omega < k:
                raise ValueError(
                    "the state space must be at least as large as every strategy set"
                )
        if len(self.assignment) != n or len(self.correspondences) != n:
            raise ValueError("need one assignment and one correspondence per player")
        for i, row in enumerate(self.assignment):
            if len(row) != omega:
                raise ValueError(f"player {i + 1}: assignment not total")
            for s in row:
                if not isinstance(s, int):
                    raise ValueError(f"player {i + 1}: strategy index {s!r} is not an int")
                if not 0 <= s < self.game.sizes[i]:
                    raise ValueError(f"player {i + 1}: strategy index {s} out of range")
        for i, corr in enumerate(self.correspondences):
            if len(corr) != omega:
                raise ValueError(f"player {i + 1}: correspondence not total")
            for cell in corr:
                _check_states(self, cell)

    @property
    def omega(self) -> int:
        return len(self.states)


def correspondence_flags(corr: Sequence[int]) -> dict[str, bool]:
    """The three classification properties of one correspondence, computed."""
    serial = all(corr)
    cell_consistent = all(
        corr[w2] == cell for cell in corr for w2 in range(len(corr)) if cell >> w2 & 1
    )
    reflexive = all(corr[w] >> w & 1 for w in range(len(corr)))
    return {
        "serial": serial,
        "cell_consistent": cell_consistent,
        "reflexive": reflexive,
    }


def is_belief_correspondence(corr: Sequence[int]) -> bool:
    flags = correspondence_flags(corr)
    return flags["serial"] and flags["cell_consistent"]


def is_knowledge_correspondence(corr: Sequence[int]) -> bool:
    flags = correspondence_flags(corr)
    return flags["serial"] and flags["cell_consistent"] and flags["reflexive"]


def _or_all(values) -> int:
    return functools.reduce(operator.or_, values, 0)


def _union_cells(correspondences: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Per state, the union of every player's cell there."""
    return tuple(_or_all(cells) for cells in zip(*correspondences))


def _everyone_knows(union_cells: Sequence[int], e: int) -> int:
    """The states whose cell, for every player, fits inside e."""
    k = 0
    for w, cell in enumerate(union_cells):
        if not cell & ~e:
            k |= 1 << w
    return k


def _largest_evident(union_cells: Sequence[int], e: int) -> int:
    """The largest evident subset of e, by peeling the states whose cells
    stick out of it until none does."""
    while True:
        k = e & _everyone_knows(union_cells, e)
        if k == e:
            return e
        e = k


def _check_states(model: EpistemicModel, e: int):
    """A ValueError unless the bitmask e is a set of the model's states."""
    if not isinstance(e, int):
        raise ValueError(f"state mask {e!r} is not an int")
    if e < 0 or e >> model.omega:
        raise ValueError(f"state mask {e} mentions unknown state")


def is_evident(model: EpistemicModel, f: int) -> bool:
    """Every player's cell stays inside f at every state of f."""
    return not f & ~k_event(model, f)


def k_event(model: EpistemicModel, e: int) -> int:
    """States where every player's cell is contained in e."""
    _check_states(model, e)
    return _everyone_knows(_union_cells(model.correspondences), e)


def largest_evident_subset(model: EpistemicModel, e: int) -> int:
    """Greatest-fixpoint peeling: drop states whose cells stick out of the
    current set until stable.  Equals the union of all evident subsets of e."""
    _check_states(model, e)
    return _largest_evident(_union_cells(model.correspondences), e)


def _require_class(model: EpistemicModel, predicate, what: str):
    for i in model.game.players():
        if not predicate(model.correspondences[i]):
            raise ClassificationError(
                f"player {i + 1}'s possibility correspondence is not a {what} correspondence"
            )


def common_knowledge_event(model: EpistemicModel, e: int) -> int:
    """States where e is common knowledge: members of some evident subset of e."""
    _require_class(model, is_knowledge_correspondence, "knowledge")
    return largest_evident_subset(model, e)


def common_belief_event(model: EpistemicModel, e: int) -> int:
    """States where e is common belief: members of some evident subset of B e."""
    _require_class(model, is_belief_correspondence, "belief")
    return largest_evident_subset(model, k_event(model, e))


def _state_indices(game: Game, per_state: Iterable[Sequence[int]]) -> list[int]:
    """Per state, the lattice index of the joint strategy chosen there."""
    shifts = game.shifts
    return [sum(1 << shift + s for shift, s in zip(shifts, joint)) for joint in per_state]


def event_restriction(model: EpistemicModel, e: int) -> Restriction:
    """The componentwise image of an event under the strategy assignment."""
    _check_states(model, e)
    indices = _state_indices(model.game, zip(*model.assignment))
    return restriction_at(model.game, _or_all(indices[w] for w in mask_members(e)))


def rational_states(
    model: EpistemicModel, profile: PropertyProfile, evaluator: Evaluator | None = None
) -> int:
    """States where every player's chosen strategy satisfies the player's
    property on the restriction induced by the player's cell."""
    if len(profile.specs) != model.game.num_players:
        raise ValueError("profile length differs from the number of players")
    evaluator = evaluator_for(model.game, evaluator)
    indices = _state_indices(model.game, zip(*model.assignment))
    good = 0
    for w in range(model.omega):
        for i in model.game.players():
            members = mask_members(model.correspondences[i][w])
            g = restriction_at(model.game, _or_all(indices[v] for v in members))
            if not passing_mask(
                profile.specs[i], model.game, i, g, 1 << model.assignment[i][w], evaluator
            ):
                break
        else:
            good |= 1 << w
    return good


def model_from_joint_strategies(
    game: Game, correspondences=None
) -> EpistemicModel:
    """The canonical state space: one state per joint strategy, each player
    choosing their own component.  Correspondences default to all-singleton
    cells (a knowledge correspondence)."""
    joints = list(game.joint_strategies())
    states = tuple(",".join(game.joint_names(j)) for j in joints)
    assignment = tuple(
        tuple(j[i] for j in joints) for i in game.players()
    )
    if correspondences is None:
        singles = tuple(1 << w for w in range(len(joints)))
        correspondences = tuple(singles for _ in game.players())
    return EpistemicModel(game, states, assignment, tuple(correspondences))


# -- enumeration of CK/CB restrictions ----------------------------------------


def count_correspondences(n: int, mode: str) -> int:
    """How many possibility correspondences n states have in the mode's
    class, without listing them.

    With S(m, k) the number of ways to split m states into k blocks, the
    partitions (knowledge mode) number the Bell number sum_k S(n, k), and
    the serial, cell-consistent correspondences (belief mode) number
    sum_m C(n, m) sum_k S(m, k) k^(n-m): m covered states split into k
    target cells, and each other state routed to one.
    """
    stirling = [[1]]  # stirling[m][k] = S(m, k)
    for m in range(1, n + 1):
        prev = stirling[-1]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, m)] + [1])
    if mode == "knowledge":
        return sum(stirling[n])
    return sum(
        math.comb(n, m) * sum(s * k ** (n - m) for k, s in enumerate(stirling[m]))
        for m in range(1, n + 1)
    )


@dataclass(frozen=True)
class CkCbResult:
    restriction: Restriction
    mode: str
    omega_size: int
    models_total: int
    models_enumerated: int
    early_exit: bool


def _runs(sizes, shifts, runs, i=0):
    """Every choice of the rows of players i to the second-to-last, in
    product order, each given as the runs of states on which those rows and
    the earlier ones agree: `(prefix lattice bits, run length)` pairs in
    state order, the prefix holding one bit per player before the last.

    Each player's row is a non-decreasing block within each run of the
    earlier rows, and the row's blocks are listed by
    `combinations_with_replacement`.  `product` varies its last factor
    fastest, so the rows come in their own tuple order."""
    if i == len(sizes) - 1:
        yield runs
        return
    bits = [1 << shifts[i] + s for s in range(sizes[i])]
    options = [
        [
            tuple((prefix | bits[s], len(list(same))) for s, same in itertools.groupby(block))
            for block in itertools.combinations_with_replacement(range(sizes[i]), length)
        ]
        for prefix, length in runs
    ]
    for choice in itertools.product(*options):
        yield from _runs(sizes, shifts, tuple(itertools.chain.from_iterable(choice)), i + 1)


def _rank(sizes, shifts, runs, blocks) -> int:
    """The product-order rank of the assignment whose states choose, run by
    run, the strategies of the run's prefix and the last player's block."""
    rows = [
        [
            (prefix >> shift & (1 << size) - 1).bit_length() - 1
            for prefix, length in runs
            for _ in range(length)
        ]
        for size, shift in zip(sizes[:-1], shifts[:-1])
    ]
    rows.append(itertools.chain.from_iterable(blocks))
    rank = 0
    for size, row in zip(sizes, rows):
        for s in row:
            rank = rank * size + s
    return rank


def _walk(
    game: Game, omega: int, profile: PropertyProfile, evaluator: Evaluator
) -> tuple[int, int]:
    """The CK/CB walk over a state space of omega states, for both modes:
    the lattice index `acc` of the gathered restriction, and the product-order
    rank of the last assignment it counts, the representative at which `acc`
    reaches the full game, or else the last assignment of all."""
    # Relabelling the states maps the correspondences onto themselves, so
    # every assignment in one orbit under permutations of the states gathers
    # the same strategies.  Product order, the tuple order of the players'
    # rows (each row omega digits below k), reaches first the member whose
    # per-state joint strategies do not decrease.  Those representatives are
    # generated in that order, `_runs` expanding the players before the last
    # and one `product` of the last player's blocks per run, so the gathered
    # restriction follows the product walk's path and the early exit falls
    # at the same assignment, whose rank counts the models.
    sizes, shifts = game.sizes, game.shifts
    last = range(sizes[-1])
    # per run length, the masks of the last player's non-decreasing blocks
    masks_of = {
        length: [
            _or_all(1 << shifts[-1] + s for s in block)
            for block in itertools.combinations_with_replacement(last, length)
        ]
        for length in range(1, omega + 1)
    }

    top = (1 << sum(sizes)) - 1
    # each global player's (family, bit shift, field), resolved once for
    # `_passing`; a local player passes every strategy, at the bits `free`
    free = 0
    globals_ = []
    for i, spec in enumerate(profile.specs):
        shift, full = shifts[i], (1 << sizes[i]) - 1
        if spec.scope == "g":
            globals_.append((i, _family(spec, game), shift, full))
        else:
            free |= full << shift
    # per image index, the passing strategies of every player there
    passing_at: dict[int, int] = {}
    acc = 0
    for runs in _runs(sizes, shifts, ((0, omega),)):
        # per run, its prefix with each of the last player's block masks:
        # the joints a run's states choose are its prefix with one bit each
        choices = [[prefix | mask for mask in masks_of[length]] for prefix, length in runs]
        prefixes = [prefix for prefix, _ in runs]
        for pos, parts in enumerate(itertools.product(*choices)):
            image = functools.reduce(operator.or_, parts)
            # The states gathered are the greatest set G each player's
            # rationality holds on at G's own image: peel the failing joints
            # until none fails.  The runs' prefixes differ, so a run's joints
            # pass exactly when its prefix lies inside the passing strategies,
            # and its part is then cut to them; cutting the original parts
            # to the current image and its passing strategies keeps the same
            # joints as cutting the last peel's.  A gathered state adds the
            # strategies chosen there, and the peel only drops states, so it
            # stops once what it can still keep lies inside acc: a
            # representative whose states all choose gathered strategies is
            # skipped before any lookup.
            while image & ~acc:
                passing = passing_at.get(image)
                if passing is None:
                    passing = free
                    for i, family, shift, full in globals_:
                        ok = _passing(evaluator, family, "g", i, image, image >> shift & full)
                        passing |= ok << shift
                    passing_at[image] = passing
                if not image & ~passing:
                    acc |= image
                    break
                cut = image & passing
                if not cut & ~acc:
                    break
                image = _or_all(
                    part & cut
                    for prefix, part in zip(prefixes, parts)
                    if not prefix & ~cut and part & cut != prefix
                )
            if acc == top:
                blocks = itertools.product(
                    *(itertools.combinations_with_replacement(last, length) for _, length in runs)
                )
                return acc, _rank(sizes, shifts, runs, next(itertools.islice(blocks, pos, None)))
    return acc, math.prod(sizes) ** omega - 1


def enumerate_ck_cb(
    game: Game,
    omega_size: int,
    profile: PropertyProfile,
    mode: str = "knowledge",
    budget: int = DEFAULT_MODEL_BUDGET,
    evaluator: Evaluator | None = None,
) -> CkCbResult:
    """The restriction gathered from every state of every model (over a state
    space of the given size) where rationality is common knowledge (knowledge
    mode) or holds and is common belief (belief mode).

    The enumeration ranges over all strategy assignments and all
    correspondences of the required class, exactly.  It evaluates one
    assignment per orbit under relabelling of the states, the one whose
    per-state joint strategies do not decrease, and visits these
    representatives in the order of their rank among all assignments in
    product order, the tuple order of their per-player rows.  They are
    generated lazily in that order (`_runs`), as runs of states on which
    the rows of the players before the last agree and one product of the
    last player's blocks per item, so a walk pays only for the
    representatives it visits.  It skips a representative none of whose
    states could add a strategy, and gathers from an evaluated one the
    union of the sets of states that some correspondence of each player
    makes evident inside that player's rationality, by one peel over its
    runs (`_walk`).  `models_enumerated` counts every model up to the
    early exit, relabelled ones included: (rank + 1) times the
    correspondence combinations per assignment, the rank read from the
    exiting representative's rows.  The budget bounds the representatives
    a walk may visit by the budget over the correspondence combinations
    (1,287 at omega = 5 on 3x3), and only `budget=None` leaves it
    unbounded.

    The budget is charged with the models of the assignments it evaluates:
    one assignment per orbit, C(J + omega - 1, omega) of them for J joint
    strategies, times every combination of correspondences.  Where the lower
    bound 2^(n(omega - 1)) on that count already exceeds the budget, the
    exact count is never computed, and the message and `attempted` give a
    lower bound: the least power of two above the budget.

    For every property of the language, the sets of states a player's
    belief correspondences make evident inside their rationality are those
    their partitions do.  A global property is monotone, so those sets are
    the sets G inside the states passing at G's image, and their union is
    one of them; a local property passes every strategy alone in its pool,
    so every set qualifies.  The union of the sets every player admits is
    then the greatest G on which each global player's strategies pass at
    G's image, which the walk reaches by peeling the assignment's distinct
    joint indices.  So the walk visits the same representatives, gathers
    the same restriction and exits at the same rank in both modes, and
    nothing in it depends on the mode.  Only
    after the checks is the evaluator's `enumerations[(omega_size,
    profile)]` looked up, and only on a miss does the call walk, storing the
    walk's `(acc, rank)` there.  So of a knowledge and a belief call sharing
    one evaluator, the second walks nothing.  The mode sets only the
    correspondence combinations per assignment, and with them the budget,
    `models_total` and `models_enumerated`.  The passing index at an image
    is kept per image index for the walk: each global player is asked of
    `properties._passing` once per image, on the index itself, with the
    image's own strategies as candidates, and a local player is never
    asked.
    """
    n = game.num_players
    if len(profile.specs) != n:
        raise ValueError("profile length differs from the number of players")
    if mode not in ("knowledge", "belief"):
        raise ValueError(f"unknown mode {mode!r}")
    if omega_size < max(game.sizes):
        raise ValueError(
            "omega_size must be at least the largest strategy-set size"
        )
    evaluator = evaluator_for(game, evaluator)
    omega = omega_size
    # each player has at least Bell(omega) >= 2^(omega - 1) correspondences,
    # so at least 2^(n(omega - 1)) models: compared by bit length, a hopeless
    # omega is refused before any count that grows with it is computed
    if budget is not None and n * (omega - 1) >= budget.bit_length():
        floor = 1 << budget.bit_length()
        check_budget(floor, budget, f"enumeration of at least {floor} models")
    joints = math.prod(game.sizes)
    # the correspondence combinations per assignment
    combos = count_correspondences(omega, mode) ** n
    evaluable = math.comb(joints + omega - 1, omega) * combos
    check_budget(evaluable, budget, f"enumeration of {evaluable} models")

    walked = evaluator.enumerations.get((omega, profile))
    if walked is None:
        walked = evaluator.enumerations[omega, profile] = _walk(game, omega, profile, evaluator)
    acc, rank = walked
    return CkCbResult(
        restriction=restriction_at(game, acc),
        mode=mode,
        omega_size=omega,
        models_total=joints**omega * combos,
        models_enumerated=(rank + 1) * combos,
        early_exit=acc == (1 << sum(game.sizes)) - 1,
    )


# -- witness constructions ----------------------------------------------------


@dataclass
class WitnessResult:
    model: EpistemicModel
    event: int
    report: CheckReport


def witness_model_thm1(game: Game, profile: PropertyProfile) -> WitnessResult:
    """A model with an evident event E whose image is exactly the elimination
    outcome, on which everyone is rational, and where rationality is common
    knowledge.

    One rule builds it.  Over m = max |T_i| states, every player's row
    cycles through that player's surviving strategies.  E is the first
    |survivors_best| + m - |T_best| states, `best` being the player with the
    most survivors, ties going to a full component and then to the lowest
    index; since |E| >= |survivors_i| for every i, E's image is the outcome.
    Every player's cell is E on E and a singleton elsewhere.  The report
    reads only E: E is evident, so E lies inside CK(rat), rat being the
    rational states, exactly when it lies inside rat, which holds because
    every survivor passes at the outcome, a fixpoint.  States outside E
    appear in no report field, and the `degenerate` detail is always false.

    The outcome has no empty component, so one is an InternalError.  From
    the top, every iterate gives each player a non-empty pool (T_i for a
    global family, the component for a local one) and non-empty opponent
    profiles, and a best response in the pool to one of those profiles
    passes every family, so the next component is non-empty too."""
    evaluator = Evaluator(game)
    for spec in sorted(set(profile.specs), key=str):
        if not property_is_monotone(spec, game, evaluator):
            raise PreconditionError(
                f"property {spec} is not monotonic on {game.name}"
            )
    fix = outcome(profile, game, evaluator=evaluator).outcome
    survivors = [mask_members(m) for m in fix.masks]
    if not all(survivors):
        raise InternalError(
            f"the outcome of {profile} on {game.name} has an empty component"
        )
    m = max(game.sizes)
    states = tuple(f"w{t}" for t in range(m))
    best = max(
        game.players(),
        key=lambda j: (len(survivors[j]), len(survivors[j]) == game.sizes[j], -j),
    )
    e_size = len(survivors[best]) + m - game.sizes[best]
    event = (1 << e_size) - 1
    assignment = tuple(tuple(s[w % len(s)] for w in range(m)) for s in survivors)
    cells = tuple(event if w < e_size else 1 << w for w in range(m))
    model = EpistemicModel(game, states, assignment, tuple(cells for _ in survivors))
    rat = rational_states(model, profile, evaluator)
    ck_rat = common_knowledge_event(model, rat)
    checks = {
        "event_evident": is_evident(model, event),
        "image_matches_outcome": event_restriction(model, event) == fix,
        "event_subset_rational": not event & ~rat,
        "event_subset_ck_rational": not event & ~ck_rat,
    }
    failed = [k for k, v in checks.items() if not v]
    report = CheckReport(
        name="witness-construction-1",
        passed=not failed,
        details={
            "game": game.name,
            "profile": str(profile),
            "outcome": fix.names(),
            "event": sorted(states[w] for w in mask_members(event)),
            "degenerate": False,
            "checks": checks,
        },
        entries=[{"failed": failed}] if failed else [],
    )
    return WitnessResult(model=model, event=event, report=report)


def witness_model_thm2(
    game: Game, profile: PropertyProfile, joint: Sequence[int]
) -> WitnessResult:
    """The all-singleton-cells model over the joint-strategy state space; the
    state choosing `joint` has rationality common knowledge for any profile
    that accepts every strategy on its own all-singleton restriction."""
    evaluator = Evaluator(game)
    for spec in sorted(set(profile.specs), key=str):
        rep = check_singleton_condition(spec, game, evaluator)
        if not rep.passed:
            raise PreconditionError(
                f"property {spec} fails the singleton condition on {game.name}"
            )
    joint = tuple(joint)
    joints = list(game.joint_strategies())
    if joint not in joints:
        raise ValueError(f"{joint} is not a joint strategy of {game.name}")
    model = model_from_joint_strategies(game)
    target = joints.index(joint)
    rat = rational_states(model, profile, evaluator)
    ck_rat = common_knowledge_event(model, rat)
    ok = bool(ck_rat >> target & 1)
    report = CheckReport(
        name="witness-construction-2",
        passed=ok,
        details={
            "game": game.name,
            "profile": str(profile),
            "joint": list(game.joint_names(joint)),
            "state": model.states[target],
            "rational_states": rat.bit_count(),
            "checks": {"state_in_ck_rational": ok},
        },
        entries=[] if ok else [{"failed": ["state_in_ck_rational"]}],
    )
    return WitnessResult(model=model, event=1 << target, report=report)
