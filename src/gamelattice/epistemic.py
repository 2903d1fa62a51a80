"""Epistemic models over a game: states, possibility correspondences, common
knowledge and common belief, rationality events, exhaustive model
enumeration, and the two witness constructions.

A possibility correspondence is classified, never assumed: it is a belief
correspondence when every value is non-empty and consistent across its own
cells, and a knowledge correspondence when additionally every state sits in
its own cell (then the cells partition the state space).  Common knowledge of
an event is membership in some evident subset of it; the engine computes the
largest evident subset by iteratively peeling states whose cells stick out,
which is correct because evident events are closed under union.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ClassificationError, PreconditionError
from .games import Game, Restriction, check_budget, mask_members
from .properties import (
    Evaluator,
    PropertyProfile,
    check_property_monotone,
    check_singleton_condition,
    eval_property,
    evaluator_for,
    outcome,
)
from .reports import CheckReport

DEFAULT_MODEL_BUDGET = 4_000_000

Event = frozenset  # of state indices


@dataclass(frozen=True)
class EpistemicModel:
    """A state space, one strategy per player per state, and one possibility
    correspondence per player."""

    game: Game
    states: tuple[str, ...]
    assignment: tuple[tuple[int, ...], ...]
    correspondences: tuple[tuple[frozenset[int], ...], ...]

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
                if not 0 <= s < self.game.sizes[i]:
                    raise ValueError(f"player {i + 1}: strategy index {s} out of range")
        for i, corr in enumerate(self.correspondences):
            if len(corr) != omega:
                raise ValueError(f"player {i + 1}: correspondence not total")
            for cell in corr:
                for w in cell:
                    if not 0 <= w < omega:
                        raise ValueError("correspondence cell mentions unknown state")

    @property
    def omega(self) -> int:
        return len(self.states)

    def all_states(self) -> Event:
        return frozenset(range(self.omega))


def correspondence_flags(corr: Sequence[frozenset[int]]) -> dict[str, bool]:
    """The three classification properties of one correspondence, computed."""
    serial = all(cell for cell in corr)
    cell_consistent = all(
        corr[w2] == corr[w] for w in range(len(corr)) for w2 in corr[w]
    )
    reflexive = all(w in corr[w] for w in range(len(corr)))
    return {
        "serial": serial,
        "cell_consistent": cell_consistent,
        "reflexive": reflexive,
    }


def is_belief_correspondence(corr: Sequence[frozenset[int]]) -> bool:
    flags = correspondence_flags(corr)
    return flags["serial"] and flags["cell_consistent"]


def is_knowledge_correspondence(corr: Sequence[frozenset[int]]) -> bool:
    flags = correspondence_flags(corr)
    return flags["serial"] and flags["cell_consistent"] and flags["reflexive"]


def is_evident(model: EpistemicModel, f: Event) -> bool:
    """Every player's cell stays inside f at every state of f."""
    return all(
        model.correspondences[i][w] <= f for w in f for i in model.game.players()
    )


def k_event(model: EpistemicModel, e: Event) -> Event:
    """States where every player's cell is contained in e."""
    return frozenset(
        w
        for w in range(model.omega)
        if all(model.correspondences[i][w] <= e for i in model.game.players())
    )


def largest_evident_subset(model: EpistemicModel, e: Event) -> Event:
    """Greatest-fixpoint peeling: drop states whose cells stick out of the
    current set until stable.  Equals the union of all evident subsets of e."""
    current = set(e)
    players = list(model.game.players())
    changed = True
    while changed:
        changed = False
        for w in list(current):
            for i in players:
                if not model.correspondences[i][w] <= current:
                    current.discard(w)
                    changed = True
                    break
    return frozenset(current)


def _require_class(model: EpistemicModel, predicate, what: str):
    for i in model.game.players():
        if not predicate(model.correspondences[i]):
            raise ClassificationError(
                f"player {i + 1}'s possibility correspondence is not a {what} correspondence"
            )


def common_knowledge_event(model: EpistemicModel, e: Event) -> Event:
    """States where e is common knowledge: members of some evident subset of e."""
    _require_class(model, is_knowledge_correspondence, "knowledge")
    return largest_evident_subset(model, e)


def common_knowledge_event_ms89(model: EpistemicModel, e: Event) -> Event:
    """The alternative form: membership in some evident subset of K e."""
    _require_class(model, is_knowledge_correspondence, "knowledge")
    return largest_evident_subset(model, k_event(model, e))


def common_belief_event(model: EpistemicModel, e: Event) -> Event:
    """States where e is common belief: members of some evident subset of B e."""
    _require_class(model, is_belief_correspondence, "belief")
    return largest_evident_subset(model, k_event(model, e))


def event_restriction(model: EpistemicModel, e: Event) -> Restriction:
    """The componentwise image of an event under the strategy assignment."""
    masks = tuple(_or_all(1 << row[w] for w in e) for row in model.assignment)
    return Restriction.from_masks(model.game, masks)


def rational_states(
    model: EpistemicModel, profile: PropertyProfile, evaluator: Evaluator | None = None
) -> Event:
    """States where every player's chosen strategy satisfies the player's
    property on the restriction induced by the player's cell."""
    if len(profile.specs) != model.game.num_players:
        raise ValueError("profile length differs from the number of players")
    evaluator = evaluator_for(model.game, evaluator)
    good = []
    for w in range(model.omega):
        ok = True
        for i in model.game.players():
            cell = model.correspondences[i][w]
            g = event_restriction(model, cell)
            if not eval_property(
                profile.specs[i], model.game, i, model.assignment[i][w], g, evaluator
            ):
                ok = False
                break
        if ok:
            good.append(w)
    return frozenset(good)


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
        singles = tuple(frozenset([w]) for w in range(len(joints)))
        correspondences = tuple(singles for _ in game.players())
    return EpistemicModel(game, states, assignment, tuple(correspondences))


# -- exhaustive enumeration of correspondences --------------------------------


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
        for w in range(n):
            if mask >> w & 1:
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


def cells_to_correspondence(cells: Sequence[int], n: int) -> tuple[frozenset[int], ...]:
    return tuple(
        frozenset(w for w in range(n) if cells[s] >> w & 1) for s in range(n)
    )


# -- enumeration of CK/CB restrictions ----------------------------------------


@dataclass(frozen=True)
class CkCbResult:
    restriction: Restriction
    mode: str
    omega_size: int
    models_total: int
    models_enumerated: int
    early_exit: bool


def _evident_table(union_cells: tuple[int, ...], omega: int) -> list[int]:
    """largest evident subset of E, for every event bitmask E."""
    size = 1 << omega
    tbl = [0] * size
    for e in range(size):
        cur = e
        while True:
            nxt = cur
            for w in range(omega):
                if cur >> w & 1 and union_cells[w] & ~cur:
                    nxt &= ~(1 << w)
            if nxt == cur:
                break
            cur = nxt
        tbl[e] = cur
    return tbl


def _b_table(union_cells: tuple[int, ...], omega: int) -> list[int]:
    """B E for every event bitmask E (w included iff its joint cell fits)."""
    size = 1 << omega
    tbl = [0] * size
    for e in range(size):
        mask = 0
        for w in range(omega):
            if union_cells[w] & ~e == 0:
                mask |= 1 << w
        tbl[e] = mask
    return tbl


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
    assignment per orbit under relabelling of the states; `models_enumerated`
    counts every model up to the early exit, relabelled ones included.
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
    if mode == "knowledge":
        corrs = list(set_partitions(omega))
    else:
        corrs = list(belief_correspondences(omega))

    n_assign = 1
    for k in game.sizes:
        n_assign *= k ** omega
    total = n_assign * len(corrs) ** n
    check_budget(total, budget, f"enumeration of {total} models")

    # per correspondence combo: the per-player correspondence indices plus the
    # states the combo contributes for every rationality event e: the largest
    # evident subset of e (knowledge) or e intersected with the largest
    # evident subset of B e (belief).  Both depend on the combo only through
    # the union of cells at each state.
    contributions: dict[tuple[int, ...], list[int]] = {}
    combo_rows = []
    for combo in itertools.product(range(len(corrs)), repeat=n):
        union_cells = tuple(
            _or_all(corrs[c][w] for c in combo) for w in range(omega)
        )
        con = contributions.get(union_cells)
        if con is None:
            con = _evident_table(union_cells, omega)
            if mode == "belief":
                bt = _b_table(union_cells, omega)
                con = [e & con[bt[e]] for e in range(1 << omega)]
            contributions[union_cells] = con
        combo_rows.append((combo, con))

    all_cells = sorted({corrs[c][w] for c in range(len(corrs)) for w in range(omega)})
    assignments_per_player = [
        list(itertools.product(range(k), repeat=omega)) for k in game.sizes
    ]

    acc = [0] * n
    full = [(1 << k) - 1 for k in game.sizes]
    all_states = (1 << omega) - 1
    enumerated = 0
    early = False
    spec_of = profile.specs
    cell_members = {
        cell: [w for w in range(omega) if cell >> w & 1] for cell in all_cells
    }
    for assign in itertools.product(*assignments_per_player):
        enumerated += len(combo_rows)
        # Relabelling the states maps the correspondences onto themselves, so
        # every assignment in one orbit under permutations of the states
        # gathers the same strategies.  Product order reaches first the member
        # whose per-state joint strategies do not decrease; evaluate only it.
        joints = list(zip(*assign))
        if any(joints[w] > joints[w + 1] for w in range(omega - 1)):
            continue
        # truth table of each player's property on each possible cell image
        images = {
            cell: Restriction.from_masks(
                game, tuple(_or_all(1 << row[w] for w in members) for row in assign)
            )
            for cell, members in cell_members.items()
        }
        ok: list[dict[int, dict[int, bool]]] = []
        for i in range(n):
            used = set(assign[i])
            per_cell: dict[int, dict[int, bool]] = {}
            for cell in all_cells:
                g = images[cell]
                per_cell[cell] = {
                    s: eval_property(spec_of[i], game, i, s, g, evaluator) for s in used
                }
            ok.append(per_cell)
        ok_masks: list[dict[int, int]] = []
        for i in range(n):
            per_corr = {}
            for ci in range(len(corrs)):
                cells = corrs[ci]
                mask = 0
                row = assign[i]
                oki = ok[i]
                for w in range(omega):
                    if oki[cells[w]][row[w]]:
                        mask |= 1 << w
                per_corr[ci] = mask
            ok_masks.append(per_corr)

        union_states = 0
        for combo, con in combo_rows:
            rat = -1
            for i in range(n):
                rat &= ok_masks[i][combo[i]]
                if not rat:
                    break
            union_states |= con[rat]
            if union_states == all_states:
                break

        for i in range(n):
            row = assign[i]
            for w in range(omega):
                if union_states >> w & 1:
                    acc[i] |= 1 << row[w]
        if all(acc[i] == full[i] for i in range(n)):
            early = True
            break

    return CkCbResult(
        restriction=Restriction.from_masks(game, tuple(acc)),
        mode=mode,
        omega_size=omega,
        models_total=total,
        models_enumerated=enumerated,
        early_exit=early,
    )


def _or_all(values) -> int:
    acc = 0
    for v in values:
        acc |= v
    return acc


# -- witness constructions ----------------------------------------------------


@dataclass
class WitnessResult:
    model: EpistemicModel
    event: Event
    report: CheckReport


def witness_model_thm1(game: Game, profile: PropertyProfile) -> WitnessResult:
    """A model with an evident event E whose image is exactly the elimination
    outcome, on which everyone is rational, and where rationality is common
    knowledge: pick the player with the largest surviving component, map a
    prefix of the states onto it, align every other player's preimage with
    that prefix, and give every player the cell E on E and singleton cells
    elsewhere."""
    evaluator = Evaluator(game)
    for spec in sorted(set(profile.specs), key=str):
        rep = check_property_monotone(spec, game, evaluator=evaluator)
        if not rep.passed:
            raise PreconditionError(
                f"property {spec} is not monotonic on {game.name}"
            )
    fix = outcome(profile, game, evaluator=evaluator).outcome
    survivors = [mask_members(m) for m in fix.masks]
    m = max(game.sizes)
    states = tuple(f"w{t}" for t in range(m))
    degenerate = any(not s for s in survivors)

    if degenerate:
        assignment = tuple(tuple(0 for _ in states) for _ in game.players())
        singles = tuple(frozenset([w]) for w in range(m))
        correspondences = tuple(singles for _ in game.players())
        event: Event = frozenset()
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
        event = frozenset(range(e_size))
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
        cells = tuple(
            frozenset(range(e_size)) if w < e_size else frozenset([w])
            for w in range(m)
        )
        correspondences = tuple(cells for _ in game.players())

    model = EpistemicModel(game, states, assignment, correspondences)
    rat = rational_states(model, profile, evaluator)
    ck_rat = common_knowledge_event(model, rat)
    image = event_restriction(model, event)
    checks = {
        "event_evident": is_evident(model, event),
        "image_matches_outcome": image == fix,
        "event_subset_rational": event <= rat,
        "event_subset_ck_rational": event <= ck_rat,
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
            "event": sorted(states[w] for w in event),
            "degenerate": degenerate,
            "checks": checks,
        },
        entries=[]
        if all(required.values())
        else [{"failed": [k for k, v in required.items() if not v]}],
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
    ok = target in ck_rat
    report = CheckReport(
        name="witness-construction-2",
        passed=ok,
        details={
            "game": game.name,
            "profile": str(profile),
            "joint": list(game.joint_names(joint)),
            "state": model.states[target],
            "rational_states": len(rat),
            "checks": {"state_in_ck_rational": ok},
        },
        entries=[] if ok else [{"failed": ["state_in_ck_rational"]}],
    )
    return WitnessResult(model=model, event=frozenset([target]), report=report)
