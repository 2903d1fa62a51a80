import functools
import hashlib
import itertools
import math
import random
from operator import or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamelattice import dominance, epistemic, fixtures, lp
from gamelattice.epistemic import (
    EpistemicModel,
    common_belief_event,
    common_knowledge_event,
    correspondence_flags,
    enumerate_ck_cb,
    event_restriction,
    is_belief_correspondence,
    is_evident,
    is_knowledge_correspondence,
    k_event,
    largest_evident_subset,
    model_from_joint_strategies,
    rational_states,
    witness_model_thm1,
    witness_model_thm2,
)
from gamelattice.errors import BudgetError, ClassificationError, PreconditionError
from gamelattice.games import (
    Restriction,
    make_game,
    mask_members,
    restriction_at,
    restriction_from_names,
    restriction_top,
)
from gamelattice.properties import (
    Evaluator,
    PropertyProfile,
    check_singleton_condition,
    outcome,
    parse_property_spec,
    passing_mask,
    property_is_monotone,
)
from oracles import (
    belief_correspondences,
    common_knowledge_event_ms89,
    marked_sets,
    marked_sets_walk,
    partial_partitions,
    product_rank,
    set_partitions,
    sorted_walk,
    walked_marked_sets,
)
from oracles import witness_model_thm1 as oracle_witness_thm1

PD, MP, MIX, CHAIN, THREE = (
    fixtures.PD, fixtures.MP, fixtures.MIX, fixtures.CHAIN, fixtures.THREE,
)


def uniform(game, text):
    return PropertyProfile.uniform(parse_property_spec(text), game.num_players)


def event(*states):
    """The event bitmask of the given states."""
    return sum(1 << w for w in states)


def pd_model(cells_per_player):
    """PD model over the 4 joint-strategy states with given correspondences."""
    corr = tuple(
        tuple(event(*c) for c in cells) for cells in cells_per_player
    )
    return model_from_joint_strategies(PD, corr)


OMEGA4 = event(0, 1, 2, 3)
FULL = [{0, 1, 2, 3}] * 4
PARTITION_12_3 = [{0, 1}, {0, 1}, {2}, {3}]  # cells {w0,w1},{w2},{w3}


def test_is_evident_full_and_empty():
    model = pd_model([FULL, FULL])
    assert is_evident(model, OMEGA4)
    assert is_evident(model, 0)
    assert not is_evident(model, event(0))


def test_is_evident_singleton_cell_breaks():
    model = pd_model([[{0, 1}, {0, 1}, {2}, {3}], [[0], [1], [2], [3]]])
    assert not is_evident(model, event(0))
    assert is_evident(model, event(0, 1))


def test_k_event_examples():
    model = pd_model([PARTITION_12_3, PARTITION_12_3])
    assert k_event(model, OMEGA4) == OMEGA4
    assert k_event(model, 0) == 0
    assert k_event(model, event(0, 1)) == event(0, 1)
    assert k_event(model, event(0, 2)) == event(2)


def test_largest_evident_subset_peeling():
    model = pd_model([PARTITION_12_3, PARTITION_12_3])
    # event {w0, w2}: w0's cell {w0,w1} sticks out, w2's cell fits
    assert common_knowledge_event(model, event(0, 2)) == event(2)
    assert common_knowledge_event(model, OMEGA4) == OMEGA4
    assert common_knowledge_event(model, 0) == 0


def brute_largest_evident(model, e):
    best = 0
    for f in range(1 << model.omega):
        if f & ~e == 0 and is_evident(model, f):
            best |= f
    return best


def test_peeling_matches_brute_force_on_belief_models():
    for cells1 in belief_correspondences(3):
        for cells2 in belief_correspondences(3):
            model = EpistemicModel(
                PD, ("a", "b", "c"), ((0, 1, 0), (1, 0, 1)), (cells1, cells2)
            )
            for e in range(8):
                assert largest_evident_subset(model, e) == brute_largest_evident(model, e)


# one strategy per player, so every state space of size >= 1 is allowed
ONE = make_game("one", [("a",), ("b",)], {("a", "b"): (0, 0)})


def test_classification_flags():
    constant = tuple(event(0) for _ in range(3))
    flags = correspondence_flags(constant)
    assert flags == {"serial": True, "cell_consistent": True, "reflexive": False}
    partition = (event(0, 1), event(0, 1), event(2))
    assert is_knowledge_correspondence(partition)
    beliefish = (event(1), event(1), event(1))
    assert is_belief_correspondence(beliefish)
    assert not is_knowledge_correspondence(beliefish)
    empty_cell = (event(), event(1), event(2))
    assert not is_belief_correspondence(empty_cell)
    inconsistent = (event(0, 1), event(1), event(2))
    assert not is_belief_correspondence(inconsistent)


def test_common_knowledge_requires_knowledge_correspondence():
    beliefish = [[1], [1], [2], [3]]
    model = pd_model([beliefish, [[0], [1], [2], [3]]])
    with pytest.raises(ClassificationError):
        common_knowledge_event(model, OMEGA4)
    # but common belief is fine there
    assert common_belief_event(model, OMEGA4) == OMEGA4


def test_common_belief_requires_belief_correspondence():
    broken = [[0, 1], [0], [2], [3]]  # cell-consistency fails
    model = pd_model([broken, [[0], [1], [2], [3]]])
    with pytest.raises(ClassificationError):
        common_belief_event(model, OMEGA4)


def test_ck_ms89_bridge_on_enumerated_knowledge_models():
    for cells1 in set_partitions(3):
        for cells2 in set_partitions(3):
            model = EpistemicModel(
                PD, ("a", "b", "c"), ((0, 0, 1), (1, 0, 0)), (cells1, cells2)
            )
            for e in range(8):
                assert common_knowledge_event(model, e) == common_knowledge_event_ms89(
                    model, e
                )


def test_k_star_laws_on_partition_models():
    model = pd_model([PARTITION_12_3, [[0], [1], [2], [3]]])
    for e in range(16):
        ck = common_knowledge_event(model, e)
        assert ck & ~e == 0
        assert is_evident(model, ck)
        assert common_knowledge_event(model, ck) == ck
        for e2 in range(16):
            if e & ~e2 == 0:
                assert ck & ~common_knowledge_event(model, e2) == 0


def test_b_star_laws():
    beliefish = [[1], [1], [3], [3]]
    model = pd_model([beliefish, beliefish])
    for e in range(16):
        bstar = common_belief_event(model, e)
        be = k_event(model, e)
        assert bstar & ~be == 0
        assert is_evident(model, bstar)
        # maximality: every evident subset of B e sits inside B* e
        for f in range(16):
            if f & ~be == 0 and is_evident(model, f):
                assert f & ~bstar == 0


def test_knowledge_correspondence_cells_partition():
    for cells in set_partitions(4):
        seen = 0
        for cell in set(cells):
            assert not (seen & cell)
            seen |= cell
        assert seen == OMEGA4


def test_event_restriction_examples():
    model = model_from_joint_strategies(PD)
    assert event_restriction(model, OMEGA4) == restriction_top(PD)
    empty = event_restriction(model, 0)
    assert not all(empty.masks)
    dd = event(3)  # state (D,D) is last in product order
    assert event_restriction(model, dd) == restriction_from_names(PD, [["D"], ["D"]])


def test_event_restriction_monotone_and_join_preserving():
    model = model_from_joint_strategies(PD)
    from gamelattice.games import lattice_join, lattice_leq

    for e1 in range(16):
        for e2 in range(16):
            if e1 & ~e2 == 0:
                assert lattice_leq(
                    event_restriction(model, e1), event_restriction(model, e2)
                )
            assert event_restriction(model, e1 | e2) == lattice_join(
                [event_restriction(model, e1), event_restriction(model, e2)]
            )


EVENT_QUERIES = [
    event_restriction,
    is_evident,
    k_event,
    largest_evident_subset,
    common_knowledge_event,
    common_knowledge_event_ms89,
    common_belief_event,
]


@pytest.mark.parametrize("query", EVENT_QUERIES, ids=[q.__name__ for q in EVENT_QUERIES])
@pytest.mark.parametrize("bad", [-1, 1 << 4])
def test_event_queries_reject_events_outside_the_state_space(query, bad):
    model = model_from_joint_strategies(PD)  # four states
    with pytest.raises(ValueError, match="unknown state"):
        query(model, bad)


def test_rational_states_sd_global_full_cells():
    model = pd_model([FULL, FULL])
    rat = rational_states(model, uniform(PD, "sd:g"))
    assert rat == event(3)  # only (D,D)


def test_rational_states_sd_local_singleton_cells():
    model = model_from_joint_strategies(PD)
    rat = rational_states(model, uniform(PD, "sd:l"))
    assert rat == OMEGA4


def test_rational_states_excludes_dominated_choice():
    model = pd_model([FULL, FULL])
    rat = rational_states(model, uniform(PD, "sd:g"))
    assert not rat & event(0)  # state (C,C): player 1's C is dominated on the full image


def test_correspondence_counts():
    assert len(list(set_partitions(3))) == 5
    assert len(list(set_partitions(4))) == 15
    bels3 = list(belief_correspondences(3))
    assert len(bels3) == len(set(bels3))
    # brute force: all serial cell-consistent maps on 3 states
    brute = 0
    for func in itertools.product(range(1, 8), repeat=3):
        if all(
            not (func[w] >> w2 & 1) or func[w2] == func[w]
            for w in range(3)
            for w2 in range(3)
        ):
            brute += 1
    assert len(bels3) == brute
    every = set(belief_correspondences(4))
    assert len(every) == 89
    for cells in set_partitions(4):
        assert cells in every  # partitions are belief correspondences too


# the enumeration order of each correspondence generator, pinned
SET_PARTITION_ORDER = {
    1: [(1,)],
    2: [(3, 3), (1, 2)],
    3: [(7, 7, 7), (3, 3, 4), (5, 2, 5), (1, 6, 6), (1, 2, 4)],
    4: [(15, 15, 15, 15), (7, 7, 7, 8), (11, 11, 4, 11), (3, 3, 12, 12), (3, 3, 4, 8),
        (13, 2, 13, 13), (5, 10, 5, 10), (5, 2, 5, 8), (9, 6, 6, 9), (1, 14, 14, 14),
        (1, 6, 6, 8), (9, 2, 4, 9), (1, 10, 4, 10), (1, 2, 12, 12), (1, 2, 4, 8)],
}
BELIEF_CORRESPONDENCE_ORDER = {
    1: [(1,)],
    2: [(1, 1), (2, 2), (3, 3), (1, 2)],
    3: [(1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 2, 1), (1, 2, 2), (4, 4, 4), (5, 5, 5),
        (1, 1, 4), (1, 4, 4), (6, 6, 6), (2, 2, 4), (4, 2, 4), (7, 7, 7), (3, 3, 4),
        (5, 2, 5), (1, 6, 6), (1, 2, 4)],
    4: [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (1, 2, 1, 1), (1, 2, 1, 2),
        (1, 2, 2, 1), (1, 2, 2, 2), (4, 4, 4, 4), (5, 5, 5, 5), (1, 1, 4, 1),
        (1, 1, 4, 4), (1, 4, 4, 1), (1, 4, 4, 4), (6, 6, 6, 6), (2, 2, 4, 2),
        (2, 2, 4, 4), (4, 2, 4, 2), (4, 2, 4, 4), (7, 7, 7, 7), (3, 3, 4, 3),
        (3, 3, 4, 4), (5, 2, 5, 5), (5, 2, 5, 2), (1, 6, 6, 1), (1, 6, 6, 6),
        (1, 2, 4, 1), (1, 2, 4, 2), (1, 2, 4, 4), (8, 8, 8, 8), (9, 9, 9, 9),
        (1, 1, 1, 8), (1, 1, 8, 8), (1, 8, 1, 8), (1, 8, 8, 8), (10, 10, 10, 10),
        (2, 2, 2, 8), (2, 2, 8, 8), (8, 2, 2, 8), (8, 2, 8, 8), (11, 11, 11, 11),
        (3, 3, 3, 8), (3, 3, 8, 8), (9, 2, 9, 9), (9, 2, 2, 9), (1, 10, 1, 10),
        (1, 10, 10, 10), (1, 2, 1, 8), (1, 2, 2, 8), (1, 2, 8, 8), (12, 12, 12, 12),
        (4, 4, 4, 8), (4, 8, 4, 8), (8, 4, 4, 8), (8, 8, 4, 8), (13, 13, 13, 13),
        (5, 5, 5, 8), (5, 8, 5, 8), (9, 9, 4, 9), (9, 4, 4, 9), (1, 1, 12, 12),
        (1, 12, 12, 12), (1, 1, 4, 8), (1, 4, 4, 8), (1, 8, 4, 8), (14, 14, 14, 14),
        (6, 6, 6, 8), (8, 6, 6, 8), (10, 10, 4, 10), (4, 10, 4, 10), (2, 2, 12, 12),
        (12, 2, 12, 12), (2, 2, 4, 8), (4, 2, 4, 8), (8, 2, 4, 8), (15, 15, 15, 15),
        (7, 7, 7, 8), (11, 11, 4, 11), (3, 3, 12, 12), (3, 3, 4, 8), (13, 2, 13, 13),
        (5, 10, 5, 10), (5, 2, 5, 8), (9, 6, 6, 9), (1, 14, 14, 14), (1, 6, 6, 8),
        (9, 2, 4, 9), (1, 10, 4, 10), (1, 2, 12, 12), (1, 2, 4, 8)],
}


def test_correspondence_generators_keep_their_order():
    for n in range(1, 5):
        assert list(set_partitions(n)) == SET_PARTITION_ORDER[n]
        assert list(belief_correspondences(n)) == BELIEF_CORRESPONDENCE_ORDER[n]


def test_enumerate_examples():
    res = enumerate_ck_cb(PD, 4, uniform(PD, "sd:g"), mode="knowledge")
    assert res.restriction == restriction_from_names(PD, [["D"], ["D"]])
    res = enumerate_ck_cb(PD, 4, uniform(PD, "sd:l"), mode="knowledge")
    assert res.restriction == restriction_top(PD)
    res = enumerate_ck_cb(MP, 4, uniform(MP, "br:g:pure"), mode="belief")
    assert res.restriction == restriction_top(MP)


def test_enumerate_budget_error_reports_exact_count():
    # the charge is the models the loop can evaluate: one assignment per
    # orbit, C(4 + 4 - 1, 4) = 35 of them, times 89^2 correspondence pairs
    with pytest.raises(BudgetError) as exc:
        enumerate_ck_cb(PD, 4, uniform(PD, "sd:g"), mode="belief", budget=1000)
    assert exc.value.attempted == 35 * 89 * 89
    res = enumerate_ck_cb(PD, 4, uniform(PD, "sd:g"), mode="belief", budget=35 * 89 * 89)
    assert res.models_total == 16 * 16 * 89 * 89


def test_enumerate_results_are_pinned():
    # the brute-force differential below stops at omega 3 and leaves out
    # belief mode on CHAIN and THREE: this pins 88 runs it cannot reach
    games = [(PD, 4), (MP, 4), (MIX, 3), (CHAIN, 3), (THREE, 3)]
    games += [(game, 3) for game in fixtures.random_games(18, 6, 3, 3)]
    digest = hashlib.sha256()
    for game, omega in games:
        for mode in ("knowledge", "belief"):
            for text in ("sd:g", "br:g:pure", "sd:l", "br:l:pure"):
                r = enumerate_ck_cb(game, omega, uniform(game, text), mode=mode)
                run = (r.restriction.masks, r.models_total, r.models_enumerated, r.early_exit)
                digest.update(repr(run).encode())
    assert digest.hexdigest() == (
        "e692054ee1c7b07694cf65ad9880a885ff536859cbe9b3be9f5b75081258dc00"
    )


def test_enumerate_omega_must_cover_strategies():
    with pytest.raises(ValueError):
        enumerate_ck_cb(CHAIN, 2, uniform(CHAIN, "sd:g"))


def test_witness_thm1_postconditions():
    for game, text in [
        (PD, "sd:g"),
        (MP, "br:g:pure"),
        (CHAIN, "sd:g"),
        (MIX, "msd:g"),
    ]:
        w = witness_model_thm1(game, uniform(game, text))
        assert w.report.passed, (game.name, text, w.report.details)
        checks = w.report.details["checks"]
        assert checks["event_evident"]
        assert checks["image_matches_outcome"]
        assert checks["event_subset_rational"]
        assert checks["event_subset_ck_rational"]


def test_witness_thm1_outcome_equalities():
    w = witness_model_thm1(PD, uniform(PD, "sd:g"))
    assert event_restriction(w.model, w.event) == outcome(
        uniform(PD, "sd:g"), PD
    ).outcome
    w = witness_model_thm1(MP, uniform(MP, "br:g:pure"))
    assert event_restriction(w.model, w.event) == restriction_top(MP)
    w = witness_model_thm1(CHAIN, uniform(CHAIN, "sd:g"))
    assert event_restriction(w.model, w.event) == restriction_from_names(
        CHAIN, [["T"], ["L"]]
    )


def test_witness_thm1_rejects_non_monotone_profile():
    with pytest.raises(PreconditionError):
        witness_model_thm1(PD, uniform(PD, "sd:l"))


GLOBAL_SPECS = ["sd:g", "br:g:pure", "msd:g", "br:g:corr"]
LOCAL_SPECS = ["sd:l", "br:l:pure", "msd:l", "br:l:corr"]
# size-1 players, and 3x7 and 2x6x3, where E is a proper prefix of the states
WITNESS_SHAPES = [
    (1, 3), (3, 1), (1, 1, 2), (2, 3), (3, 2), (2, 4), (3, 4), (2, 2, 2), (3, 2, 2),
    (3, 7), (2, 6, 3),
]


def _witness_or_error(build, game, profile):
    try:
        return build(game, profile).report.to_json()
    except PreconditionError as exc:
        return PreconditionError, str(exc)


def test_witness_thm1_matches_the_two_branch_construction():
    # the report reads only E, so the one-rule model and the oracle's, which
    # differ outside E, give the same canonical JSON; a profile with a local
    # player is refused on both sides
    rng = random.Random(43)
    reports = 0
    for seed, (sizes, bound) in enumerate(itertools.product(WITNESS_SHAPES, (1, 2, 5))):
        game = seeded_game(seed, sizes, bound)
        for k in range(4):
            specs = [rng.choice(GLOBAL_SPECS) for _ in sizes]
            if k == 3:
                specs[rng.randrange(len(sizes))] = rng.choice(LOCAL_SPECS)
            profile = PropertyProfile(tuple(parse_property_spec(t) for t in specs))
            ours = _witness_or_error(witness_model_thm1, game, profile)
            assert ours == _witness_or_error(oracle_witness_thm1, game, profile), (
                game.name, str(profile),
            )
            if k == 3:
                assert ours[0] is PreconditionError, (game.name, str(profile))
            else:
                reports += isinstance(ours, str)
    assert reports > 60


def test_outcomes_have_no_empty_component():
    # the witness raises InternalError on an empty component, which this
    # invariant rules out: every iterate keeps, per player, a strategy that
    # passes against the current non-empty opponent profiles
    rng = random.Random(4343)
    families = GLOBAL_SPECS + LOCAL_SPECS
    shapes = WITNESS_SHAPES + [(1, 1), (2, 2), (3, 3), (1, 2, 1)]
    for seed, (sizes, bound) in enumerate(itertools.product(shapes, (0, 1, 5))):
        game = seeded_game(seed, sizes, bound)
        for _ in range(10):
            profile = PropertyProfile(
                tuple(parse_property_spec(rng.choice(families)) for _ in sizes)
            )
            fix = outcome(profile, game).outcome
            assert all(fix.masks), (game.name, str(profile), fix.names())


def test_witness_thm2_postconditions():
    cases = [
        (PD, "sd:l", ("C", "C")),
        (PD, "br:l:pure", ("C", "D")),
        (MIX, "msd:l", ("B", "L")),
        (MIX, "msd:l", ("T", "R")),
    ]
    for game, text, names in cases:
        joint = tuple(game.strategy_index(i, s) for i, s in enumerate(names))
        w = witness_model_thm2(game, uniform(game, text), joint)
        assert w.report.passed, (game.name, text, names)


def test_witness_thm2_rejects_global_property():
    with pytest.raises(PreconditionError):
        witness_model_thm2(PD, uniform(PD, "sd:g"), (0, 0))


def test_model_requires_omega_at_least_strategies():
    with pytest.raises(ValueError):
        EpistemicModel(
            CHAIN,
            ("a", "b"),
            ((0, 1), (0, 1)),
            ((event(0), event(1)), (event(0), event(1))),
        )


@pytest.mark.parametrize("bad", [-1, event(2), event(0, 5)])
def test_model_rejects_cells_outside_the_state_space(bad):
    with pytest.raises(ValueError, match="unknown state"):
        EpistemicModel(
            PD, ("a", "b"), ((0, 1), (0, 1)), ((bad, event(1)), (event(0), event(1)))
        )


@pytest.mark.parametrize(
    "assignment,cells",
    [(((0, 1.0), (0, 1)), (event(0), event(1))), (((0, 1), (0, 1)), (1.0, event(1)))],
    ids=["strategy", "cell"],
)
def test_model_rejects_entries_that_are_not_ints(assignment, cells):
    with pytest.raises(ValueError, match="not an int"):
        EpistemicModel(PD, ("a", "b"), assignment, (cells, (event(0), event(1))))


def _events_of_models(game, omega, assign, corrs, profile, mode, evaluator):
    """The CK/CB event of every model on the strategy assignment `assign`,
    by building each model outright: every tuple of correspondences, in
    product order."""
    states = tuple(f"w{w}" for w in range(omega))
    for combo in itertools.product(corrs, repeat=game.num_players):
        model = EpistemicModel(game, states, assign, combo)
        rat = rational_states(model, profile, evaluator)
        if mode == "knowledge":
            yield common_knowledge_event(model, rat)
        else:
            yield rat & common_belief_event(model, rat)


def _or_all(masks):
    return functools.reduce(or_, masks, 0)


def _events_per_player(game, omega, assign, corrs, profile, mode, evaluator):
    """The distinct events of `_events_of_models`, with each player's
    rational event computed once per correspondence: a player's rationality
    at a state depends only on that player's cell there.  Per model, in
    product order, the players' events are ANDed, and the CK/CB event of
    the result is read from `_ck_cb_tables`."""
    index = [
        sum(1 << game.shifts[i] + assign[i][w] for i in game.players()) for w in range(omega)
    ]
    rational = []
    for i, spec in enumerate(profile.specs):
        events = []
        for corr in corrs:
            event = 0
            for w in range(omega):
                g = restriction_at(game, _or_all(index[v] for v in mask_members(corr[w])))
                if passing_mask(spec, game, i, g, 1 << assign[i][w], evaluator):
                    event |= 1 << w
            events.append(event)
        rational.append(events)
    rats = [(1 << omega) - 1]
    for events in rational:
        rats = [rat & event for rat in rats for event in events]
    tables = _ck_cb_tables(tuple(corrs), game.num_players, mode)
    return {table[rat] for rat, table in zip(rats, tables)}


@functools.cache
def _ck_cb_tables(corrs, n, mode):
    """Per tuple of n correspondences from `corrs`, in product order, the
    CK/CB event of every event e, at index e.  Knowledge peels e: it drops
    each state whose union cell leaves the set until none does.  Belief
    peels the states whose union cell lies inside e, then meets the result
    with e."""
    omega = len(corrs[0])
    tables = []
    for combo in itertools.product(corrs, repeat=n):
        union = [_or_all(cells) for cells in zip(*combo)]

        def known(e):
            return sum(1 << w for w in range(omega) if not union[w] & ~e)

        table = []
        for e in range(1 << omega):
            event = e if mode == "knowledge" else known(e)
            while event & ~known(event):
                event &= known(event)
            table.append(event if mode == "knowledge" else e & event)
        tables.append(table)
    return tables


def brute_ck_cb(game, omega, profile, mode, events=_events_of_models):
    """The CK/CB restriction by listing every model: every strategy
    assignment times every tuple of correspondences, in product order, with
    the early exit at the first assignment after which every strategy of
    every player is gathered.  `events` gives the CK/CB event of each model
    on one assignment."""
    n = game.num_players
    cells = set_partitions if mode == "knowledge" else belief_correspondences
    corrs = list(cells(omega))
    rows = [list(itertools.product(range(k), repeat=omega)) for k in game.sizes]
    evaluator = Evaluator(game)
    gathered = [set() for _ in range(n)]
    per_assignment = len(corrs) ** n
    total = per_assignment
    for r in rows:
        total *= len(r)
    for index, assign in enumerate(itertools.product(*rows)):
        for ck_cb in events(game, omega, assign, corrs, profile, mode, evaluator):
            for i in range(n):
                gathered[i].update(assign[i][w] for w in mask_members(ck_cb))
        if all(len(gathered[i]) == game.sizes[i] for i in range(n)):
            enumerated, early = (index + 1) * per_assignment, True
            break
    else:
        enumerated, early = total, False
    restriction = Restriction(game, tuple(sum(1 << s for s in g) for g in gathered))
    return restriction, total, enumerated, early


def mixed_profile(game):
    specs = ["sd:g", "br:g:pure", "sd:l"][: game.num_players]
    return PropertyProfile(tuple(parse_property_spec(t) for t in specs))


# every fixture at every omega <= 3, PD at omega 4 in knowledge mode and
# MP at omega 4; PD at omega 4 in belief mode takes seconds and is left
# out.  The model-building oracle runs on the omega 2 cases, next to the
# per-player one, which alone runs beyond.  The LP-backed families decide
# their passing masks lazily, and the enumerator prunes states on those
# masks, so they are compared too
BOTH = ("knowledge", "belief")
DIFFERENTIAL_CASES = [
    (game, omega, mode)
    for game, omega, modes in [
        (PD, 2, BOTH), (PD, 3, BOTH), (PD, 4, ("knowledge",)),
        (MP, 2, BOTH), (MP, 3, BOTH), (MP, 4, BOTH),
        (MIX, 3, BOTH), (CHAIN, 3, BOTH), (THREE, 2, BOTH), (THREE, 3, BOTH),
    ]
    for mode in modes
]


@pytest.mark.parametrize(
    "game,omega,mode",
    DIFFERENTIAL_CASES,
    ids=[f"{g.name}-w{o}-{m}" for g, o, m in DIFFERENTIAL_CASES],
)
def test_enumerate_matches_brute_force_models(game, omega, mode):
    specs = ("sd:g", "sd:l", "br:g:pure", "msd:g", "br:l:corr")
    oracles = [_events_per_player] + [_events_of_models] * (omega == 2)
    for profile in [uniform(game, t) for t in specs] + [mixed_profile(game)]:
        res = enumerate_ck_cb(game, omega, profile, mode=mode)
        for events in oracles:
            assert (res.restriction, res.models_total, res.models_enumerated, res.early_exit) == (
                brute_ck_cb(game, omega, profile, mode, events)
            ), (game.name, omega, mode, str(profile), events.__name__)


def seeded_game(seed, sizes=(2, 2), bound=3):
    """A game of the given shape, 2x2 by default, with payoffs drawn from
    [-bound, bound] by a generator seeded with `seed`."""
    rng = random.Random(seed)
    names = [tuple(f"{'abcd'[i]}{k + 1}" for k in range(n)) for i, n in enumerate(sizes)]
    payoffs = {
        joint: tuple(rng.randint(-bound, bound) for _ in sizes)
        for joint in itertools.product(*names)
    }
    shape = "" if sizes == (2, 2) else "x".join(map(str, sizes)) + "-"
    return make_game(f"seeded{shape}{seed}", names, payoffs)


def test_enumerate_matches_brute_force_on_seeded_games():
    # seeded games reach early exits at many different assignments, so they
    # check that the loop gathers every state an assignment can add, not
    # only the restriction that later assignments would complete anyway
    for seed in range(60):
        game = seeded_game(seed)
        profiles = [uniform(game, "sd:g"), uniform(game, "br:g:pure"), mixed_profile(game)]
        for mode, profile in itertools.product(BOTH, profiles):
            res = enumerate_ck_cb(game, 2, profile, mode=mode)
            assert (
                res.restriction, res.models_total, res.models_enumerated, res.early_exit
            ) == brute_ck_cb(game, 2, profile, mode), (seed, mode, str(profile))


def test_correspondence_counts_match_the_generators():
    for n in range(1, 7):
        assert epistemic.count_correspondences(n, "knowledge") == len(list(set_partitions(n)))
        assert epistemic.count_correspondences(n, "belief") == len(
            list(belief_correspondences(n))
        )


def _drawn_tables(seed, omega, densities, count):
    """`count` seeded `passes` tables per density: the entry of each
    non-empty set of states holds each state with that chance."""
    rng = random.Random(seed)
    for density in densities:
        for _ in range(count):
            yield [0] + [
                sum(1 << w for w in range(omega) if rng.random() < density)
                for _ in range(1, 1 << omega)
            ]


def _upward_closed(passes):
    """`passes` closed upward, as for a global property, which is monotone
    in the restriction: each set's entry ORs in those of its subsets."""
    closed = passes[:]
    for b in range(len(closed)):
        for w in mask_members(b):
            closed[b] |= closed[b & ~(1 << w)]
    return closed


def _singleton_accepting(passes):
    """`passes` with each state passing at its own singleton, as for a
    local property, which accepts every strategy alone in its pool."""
    local = passes[:]
    for w in range(len(passes).bit_length() - 1):
        local[1 << w] |= 1 << w
    return local


def _shipped_tables(seed, omega, densities, count):
    """Each drawn table made upward closed and made singleton accepting:
    the two kinds of table the properties of the language give."""
    for passes in _drawn_tables(seed, omega, densities, count):
        yield _upward_closed(passes)
        yield _singleton_accepting(passes)


def _defined_marks(corrs, passes):
    """The sets G for which some correspondence Q in `corrs` gives every u
    in G a cell Q(u) inside G with u in passes[Q(u)]."""
    marked = 0
    for g in range(1, len(passes)):
        if any(
            all(not q[u] & ~g and passes[q[u]] >> u & 1 for u in mask_members(g))
            for q in corrs
        ):
            marked |= 1 << g
    return marked


@pytest.mark.parametrize("omega", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", BOTH)
def test_marked_sets_match_their_definition(omega, mode):
    # the oracles' good-block recursion against the definition over every
    # correspondence of the mode's class: on any table for partitions, and
    # for belief correspondences on the tables of the language's
    # properties, where it decides belief marks too
    seed, densities = f"{mode}-{omega}", (0.3, 0.6, 0.9)
    if mode == "knowledge":
        corrs, tables = set_partitions(omega), _drawn_tables(seed, omega, densities, 40)
    else:
        corrs, tables = belief_correspondences(omega), _shipped_tables(seed, omega, densities, 20)
    corrs = list(corrs)
    counts = [0, 0]
    for passes in tables:
        expected = _defined_marks(corrs, passes)
        assert marked_sets(passes) == expected, passes
        marked = expected.bit_count()
        counts[0] += marked
        counts[1] += len(passes) - 1 - marked
    assert all(counts), counts


@pytest.mark.parametrize("omega", [1, 2, 3, 4])
def test_knowledge_and_belief_marks_agree_for_shipped_properties(omega):
    # For a global property passes[B] is upward closed, so the union G of a
    # belief-marked partition and its routed states lies inside passes[G]:
    # G is one good block, which a partition marks.  For a local one every
    # state passes at its own singleton, so a partition marks every set.
    # Either way the two oracles mark the same sets, which is what lets the
    # enumerator walk once for both modes.
    partitions = partial_partitions(omega)
    counts = [0, 0]
    for passes in _shipped_tables(f"marks-{omega}", omega, (0.1, 0.3, 0.6), 50):
        knowledge = walked_marked_sets(partitions, passes, "knowledge")
        assert walked_marked_sets(partitions, passes, "belief") == knowledge, passes
        marked = knowledge.bit_count()
        counts[0] += marked
        counts[1] += len(passes) - 1 - marked
    assert all(counts), counts


def test_belief_marks_routed_states_where_knowledge_cannot():
    # the control: neither upward closed nor singleton accepting.  Block {0}
    # is good and routes state 1, which passes at {0}, so the belief oracles
    # mark {0} and {0, 1} while the knowledge oracle and the good-block
    # recursion mark {0} alone
    passes = [0, 0b11, 0, 0]
    routed = 1 << 0b01 | 1 << 0b11
    assert _defined_marks(list(belief_correspondences(2)), passes) == routed
    assert walked_marked_sets(partial_partitions(2), passes, "belief") == routed
    assert walked_marked_sets(partial_partitions(2), passes, "knowledge") == 1 << 0b01
    assert marked_sets(passes) == 1 << 0b01


@pytest.mark.parametrize("omega", [1, 2, 3, 4, 5])
def test_knowledge_marks_are_belief_marks_on_any_table(omega):
    # a partition of G into good blocks is a belief correspondence that
    # routes no state, so every set the knowledge oracle marks the belief
    # oracle marks, whatever the table; the shipped properties' equality
    # is the special case, and the control above shows the inclusion can
    # be strict
    partitions = partial_partitions(omega)
    strict = 0
    for passes in _drawn_tables(f"subset-{omega}", omega, (0.2, 0.5, 0.8, 0.95), 50):
        knowledge = walked_marked_sets(partitions, passes, "knowledge")
        belief = walked_marked_sets(partitions, passes, "belief")
        assert not knowledge & ~belief, passes
        strict += belief != knowledge
    assert strict or omega == 1


@pytest.mark.parametrize("omega", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", BOTH)
def test_marked_sets_match_the_partition_walk(omega, mode):
    # the oracles' recursion over sets of states against their walk over
    # every partition of every set of states: on seeded tables of every
    # density for the knowledge walk, and on the tables of the language's
    # properties for the belief walk, which routes states
    partitions = partial_partitions(omega)
    seed, densities = f"walk-{mode}-{omega}", (0.2, 0.5, 0.8, 0.95)
    if mode == "knowledge":
        tables = _drawn_tables(seed, omega, densities, 50)
    else:
        tables = _shipped_tables(seed, omega, densities, 25)
    counts = [0, 0]
    for passes in tables:
        expected = walked_marked_sets(partitions, passes, mode)
        assert marked_sets(passes) == expected, passes
        marked = expected.bit_count()
        counts[0] += marked
        counts[1] += len(passes) - 1 - marked
    assert all(counts), counts


def _union_of(marks):
    """The union of the sets of states whose bits `marks` sets."""
    return functools.reduce(or_, (g for g in range(marks.bit_length()) if marks >> g & 1), 0)


def _peeled(passes):
    """The greatest G with G <= passes[G], when `passes` is upward closed:
    the states failing at the current set are dropped until none fails."""
    g = len(passes) - 1
    while g & ~passes[g]:
        g &= passes[g]
    return g


@pytest.mark.parametrize("omega", [1, 2, 3, 4])
def test_the_peel_gathers_the_union_of_the_oracles_marks(omega):
    # Per representative the walk gathers the greatest set of states on
    # which every global player's strategies pass at the set's own image,
    # and a local player drops no state.  That is the union of the sets
    # every player marks: an upward-closed table's good sets are closed
    # under union, so the peel reaches the greatest, and a singleton-
    # accepting table marks every set.  The players' marks are ANDed, as
    # the oracles' walk ANDs them.
    full = (1 << omega) - 1
    partitions = partial_partitions(omega)
    tables = list(_shipped_tables(f"peel-{omega}", omega, (0.05, 0.1, 0.2, 0.6), 20))
    closed, local = tables[::2], tables[1::2]
    peels = set()
    for passes, other, single in zip(closed, closed[1:] + closed[:1], local):
        marks = marked_sets(passes)
        peels.add(_peeled(passes))
        assert _union_of(marks) == _peeled(passes), passes
        for mode in BOTH:
            assert _union_of(walked_marked_sets(partitions, passes, mode)) == _peeled(passes)
            assert _union_of(walked_marked_sets(partitions, single, mode)) == full, single
        assert _union_of(marked_sets(single)) == full, single
        both = [a & b for a, b in zip(passes, other)]
        assert _union_of(marks & marked_sets(other)) == _peeled(both), (passes, other)
        assert _union_of(marks & marked_sets(single)) == _peeled(passes), (passes, single)
    assert {0, full} < peels or omega == 1, peels


WALK_FAMILIES = (
    "sd:g", "sd:l", "br:g:pure", "br:l:pure", "msd:g", "msd:l", "br:g:corr", "br:l:corr",
)
# the fixtures, then one seeded game of each shape
WALK_GAMES = [PD, MP, MIX, CHAIN, THREE] + [
    seeded_game(seed, sizes)
    for seed, sizes in enumerate([(2, 3), (3, 3), (3, 4), (2, 2, 2)], start=39)
]


def _mixed_walk_profiles(game):
    """Profiles that mix global and local players, and the LP and pure
    families."""
    texts = [
        ("sd:g", "br:l:corr", "msd:l"),
        ("msd:l", "br:g:pure", "sd:g"),
        ("br:g:corr", "sd:l", "br:l:pure"),
    ]
    n = game.num_players
    return [PropertyProfile(tuple(parse_property_spec(t) for t in row[:n])) for row in texts]


@pytest.mark.parametrize("game", WALK_GAMES, ids=lambda game: game.name)
def test_walk_matches_the_marked_sets_oracle(game):
    # the peel against the oracles' walk, which decides every player's
    # marked sets over every set of states by the good-block recursion and
    # ANDs them: the same gathered index and the same exit rank, each on a
    # fresh Evaluator, at the least state space and one state more
    profiles = [uniform(game, text) for text in WALK_FAMILIES] + _mixed_walk_profiles(game)
    omegas = [max(game.sizes), max(game.sizes) + 1]
    for omega, profile in itertools.product(omegas, profiles):
        walked = epistemic._walk(game, omega, profile, Evaluator(game))
        expected = marked_sets_walk(game, omega, profile, Evaluator(game))
        assert walked == expected, (omega, str(profile))


@pytest.mark.parametrize(
    "game",
    WALK_GAMES + [seeded_game(seed, sizes) for seed, sizes in [(7, (3, 2)), (8, (2, 3, 2))]],
    ids=lambda game: game.name,
)
def test_the_peels_premises_hold(game):
    # the peel reads no marks: it takes every global family's verdicts to be
    # upward closed in the restriction, and every local family to pass each
    # strategy alone in its pool
    evaluator = Evaluator(game)
    for text in WALK_FAMILIES:
        spec = parse_property_spec(text)
        if spec.scope == "l":
            assert check_singleton_condition(spec, game, evaluator).passed, text
        else:
            assert property_is_monotone(spec, game, evaluator), text


THEOREM_CASES = [(PD, 5), (MP, 5), (CHAIN, 5), (THREE, 4), (THREE, 5), (MIX, 4)]


@pytest.mark.parametrize(
    "game,omega", THEOREM_CASES, ids=[f"{g.name}-w{o}" for g, o in THEOREM_CASES]
)
@pytest.mark.parametrize("mode", BOTH)
def test_enumerate_theorems_beyond_the_brute_force(game, omega, mode):
    # common knowledge (belief) of global rationality gathers exactly the
    # elimination outcome, and of local rationality the whole game, at state
    # spaces past the brute force and past the default model budget
    for text in ("sd:g", "br:g:pure"):
        profile = uniform(game, text)
        res = enumerate_ck_cb(game, omega, profile, mode=mode, budget=None)
        assert res.restriction == outcome(profile, game).outcome, text
    for text in ("sd:l", "br:l:pure"):
        res = enumerate_ck_cb(game, omega, uniform(game, text), mode=mode, budget=None)
        assert res.restriction == restriction_top(game), text


# (game, omega, mode): (models_enumerated, models_total) of a local property,
# whose enumeration exits early; models_enumerated is the product-order rank
# of the exiting assignment, plus one, times the correspondence combinations
EARLY_EXIT_PINS = {
    (CHAIN, 5, "knowledge"): (1_316_848, 159_668_496),
    (CHAIN, 5, "belief"): (148_390_848, 17_992_466_496),
    (MP, 5, "knowledge"): (89_232, 2_768_896),
    (MP, 5, "belief"): (10_055_232, 312_016_896),
    (THREE, 4, "knowledge"): (867_375, 13_824_000),
    (THREE, 4, "belief"): (181_177_033, 2_887_553_024),
    (CHAIN, 6, "knowledge"): (60_123_931, 21_900_152_169),
    (CHAIN, 6, "belief"): (22_134_525_475, 8_062_504_697_025),
    (THREE, 5, "knowledge"): (144_123_200, 4_607_442_944),
    (THREE, 5, "belief"): (172_401_523_200, 5_511_466_450_944),
}


@pytest.mark.parametrize(
    "game,omega,mode", EARLY_EXIT_PINS, ids=[f"{g.name}-w{o}-{m}" for g, o, m in EARLY_EXIT_PINS]
)
def test_enumerate_early_exits_are_pinned_beyond_the_brute_force(game, omega, mode):
    for text in ("sd:l", "br:l:pure"):
        r = enumerate_ck_cb(game, omega, uniform(game, text), mode=mode, budget=None)
        assert (r.models_enumerated, r.models_total, r.early_exit) == (
            *EARLY_EXIT_PINS[game, omega, mode], True
        ), text


def _per_state(sizes, shifts, runs, blocks):
    """The per-state joint strategies of the representative whose runs'
    states choose their prefix's strategies, then the last player's block."""
    return tuple(
        tuple(
            mask_members(prefix >> shift & (1 << size) - 1)[0]
            for size, shift in zip(sizes[:-1], shifts[:-1])
        )
        + (s,)
        for (prefix, _), block in zip(runs, blocks)
        for s in block
    )


def _expanded(sizes, shifts, runs):
    """The representatives one item of `epistemic._runs` stands for, in
    product order: every product of the last player's non-decreasing blocks
    over the item's runs."""
    blocks = (
        itertools.combinations_with_replacement(range(sizes[-1]), length) for _, length in runs
    )
    for choice in itertools.product(*blocks):
        yield _per_state(sizes, shifts, runs, choice)


def _generated(sizes, shifts, omega):
    """Every representative the walk generates, in its order."""
    return [
        per_state
        for runs in epistemic._runs(sizes, shifts, ((0, omega),))
        for per_state in _expanded(sizes, shifts, runs)
    ]


def _recorded_walk(monkeypatch):
    """The items each walk from now on draws from `epistemic._runs`, and the
    representative each early exit ranks, as per-state joint strategies."""
    drawn, exits = [], []
    runs_of, rank_of = epistemic._runs, epistemic._rank

    def runs(sizes, shifts, runs, i=0):
        for item in runs_of(sizes, shifts, runs, i):
            if i == 0:
                drawn.append(item)
            yield item

    def rank(sizes, shifts, runs, blocks):
        exits.append(_per_state(sizes, shifts, runs, blocks))
        return rank_of(sizes, shifts, runs, blocks)

    monkeypatch.setattr(epistemic, "_runs", runs)
    monkeypatch.setattr(epistemic, "_rank", rank)
    return drawn, exits


SHAPE_CASES = [
    (game, omega)
    for game in (PD, fixtures.random_game(random.Random(3), 2, 3), CHAIN, THREE)
    for omega in range(max(game.sizes), 5 if game.num_players == 2 else 4)
]


@pytest.mark.parametrize(
    "game,omega", SHAPE_CASES, ids=[f"{g.name}-w{o}" for g, o in SHAPE_CASES]
)
def test_representatives_are_walked_in_product_order(game, omega, monkeypatch):
    # the generated representatives are the non-decreasing per-state joint
    # strategies, and their oracle ranks rise strictly: the rows' tuple
    # order is product order.  The walk draws the generator's items in that
    # order, and stops inside the last one it draws
    per_states = _generated(game.sizes, game.shifts, omega)
    assert sorted(per_states) == list(
        itertools.combinations_with_replacement(game.joint_strategies(), omega)
    )
    ranks = [product_rank(game.sizes, per_state) for per_state in per_states]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))
    items = list(epistemic._runs(game.sizes, game.shifts, ((0, omega),)))
    drawn, exits = _recorded_walk(monkeypatch)
    assert enumerate_ck_cb(game, omega, uniform(game, "sd:l"), budget=None).early_exit
    assert drawn == items[: len(drawn)]
    (exit,) = exits
    assert exit in _expanded(game.sizes, game.shifts, drawn[-1])


@pytest.mark.parametrize(
    "game,omega", SHAPE_CASES, ids=[f"{g.name}-w{o}" for g, o in SHAPE_CASES]
)
@pytest.mark.parametrize("mode", BOTH)
def test_the_early_exit_counts_the_oracle_rank_of_the_last_representative(
    game, omega, mode, monkeypatch
):
    # models_enumerated is read from the rows of the representative the walk
    # exits at; the oracle ranks that representative's per-state strategies
    combos = epistemic.count_correspondences(omega, mode) ** game.num_players
    _, exits = _recorded_walk(monkeypatch)
    for text in ("sd:l", "br:l:pure"):
        r = enumerate_ck_cb(game, omega, uniform(game, text), mode=mode, budget=None)
        assert r.early_exit, text
        rank = product_rank(game.sizes, exits[-1])
        assert r.models_enumerated == (rank + 1) * combos, text
        assert r.models_total == math.prod(game.sizes) ** omega * combos
    assert len(exits) == 2


# (CHAIN at omega 6, profile): the items the walk draws from the generator,
# the representatives it visits up to its exit, and its `_passing` calls;
# the first exits early, the second walks all 3,003 representatives
WORK_PINS = {
    ("sd:g", "sd:l"): (3, 93, 9),
    ("sd:l", "sd:g"): (28, 3003, 34),
}


@pytest.mark.parametrize("texts", WORK_PINS, ids="-".join)
def test_the_walk_draws_and_asks_the_pinned_work(texts, monkeypatch):
    # The generator is drawn only up to the exit, and the peel stops as soon
    # as the image lies inside the gathered index, so a representative that
    # can add no strategy asks nothing: skipping none of them would ask
    # `_passing` of more images
    profile = PropertyProfile(tuple(parse_property_spec(t) for t in texts))
    asked = _recorded(monkeypatch, epistemic, "_passing")
    drawn, exits = _recorded_walk(monkeypatch)
    r = enumerate_ck_cb(CHAIN, 6, profile, budget=None)
    expanded = [
        per_state
        for runs in drawn
        for per_state in _expanded(CHAIN.sizes, CHAIN.shifts, runs)
    ]
    visited = expanded.index(exits[0]) + 1 if exits else len(expanded)
    assert r.early_exit == bool(exits)
    assert (len(drawn), visited, len(asked)) == WORK_PINS[texts]


@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4), omega=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_the_generated_representatives_are_the_sorted_ones(sizes, omega):
    # the generator's expansion is the sorted list of every representative's
    # rows, item by item, on any shape and any state space
    assume(math.comb(math.prod(sizes) + omega - 1, omega) <= 5000)
    shifts = tuple(sum(sizes[i + 1:]) for i in range(len(sizes)))
    joints = itertools.product(*(range(k) for k in sizes))
    expected = sorted(
        tuple(zip(*per_state))
        for per_state in itertools.combinations_with_replacement(joints, omega)
    )
    assert [tuple(zip(*ps)) for ps in _generated(sizes, shifts, omega)] == expected


@given(
    sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    seed=st.integers(0, 10**6),
    texts=st.lists(st.sampled_from(WALK_FAMILIES), min_size=4, max_size=4),
    extra=st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_the_walk_matches_the_sorted_and_marked_sets_walks(sizes, seed, texts, extra):
    # on seeded games of every shape, at the least state space and up to
    # two states more, with any family per player, global or local, pure or
    # LP: the lazy walk gathers the same index and exits at the same rank
    # as the walk over the sorted list and as the oracles' marked sets
    omega = max(sizes) + extra
    assume(math.comb(math.prod(sizes) + omega - 1, omega) <= 600)
    game = seeded_game(seed, tuple(sizes))
    profile = PropertyProfile(tuple(parse_property_spec(t) for t in texts[: len(sizes)]))
    walked = epistemic._walk(game, omega, profile, Evaluator(game))
    assert walked == sorted_walk(game, omega, profile, Evaluator(game))
    assert walked == marked_sets_walk(game, omega, profile, Evaluator(game))


def _recorded(monkeypatch, module, name, key=lambda *args: args):
    """The calls made from now on to `module.name`, each recorded as key(*args)."""
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(key(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


# (msd procedure calls, belief procedure calls, LPs solved)
LP_PINS = [
    (MIX, 3, "msd:g", (1, 0, 1)),
    (MIX, 3, "br:l:corr", (0, 0, 0)),
    (CHAIN, 3, "msd:l", (0, 0, 0)),
    (CHAIN, 3, "br:g:corr", (0, 1, 1)),
    (THREE, 2, "msd:l", (0, 0, 0)),
]


@pytest.mark.parametrize(
    "game,omega,text,expected", LP_PINS, ids=[f"{g.name}-w{o}-{t}" for g, o, t, _ in LP_PINS]
)
@pytest.mark.parametrize("mode", BOTH)
def test_enumerate_solves_the_pinned_lps(game, omega, text, expected, mode, monkeypatch):
    # the enumerator asks an LP family only for the strategies an assignment
    # uses, and a stored certificate settles a candidate before any call;
    # asking all of T_i would solve LPs these counts leave out.  A candidate
    # either pure test decides, with profiles to believe in, reaches no
    # procedure: a pure best response passes both families, and a strictly
    # dominated strategy fails both.  The walk depends on no mode, so both
    # modes solve the same LPs
    msd = _recorded(monkeypatch, dominance, "mixed_dominance_witness")
    belief = _recorded(monkeypatch, dominance, "exists_supporting_belief")
    solves = _recorded(monkeypatch, lp, "simplex_maximize")
    enumerate_ck_cb(game, omega, uniform(game, text), mode=mode)
    assert (len(msd), len(belief), len(solves)) == expected


@pytest.mark.parametrize("mode", BOTH)
@pytest.mark.parametrize("profile", [uniform(CHAIN, "sd:g"), mixed_profile(CHAIN)], ids=str)
def test_enumerate_asks_each_image_and_decides_each_passes_once(profile, mode, monkeypatch):
    # the peel reads an image's passing index from the walk's memo, so each
    # global player is asked once per image, with the image's own strategies
    # as candidates, and a local player is never asked
    asked = _recorded(
        monkeypatch, epistemic, "_passing",
        lambda evaluator, family, scope, player, index, candidates: (player, index, candidates),
    )
    enumerate_ck_cb(CHAIN, 4, profile, mode=mode)
    assert asked
    assert len(set(asked)) == len(asked)
    shifts, sizes = CHAIN.shifts, CHAIN.sizes
    for player, index, candidates in asked:
        assert profile.specs[player].scope == "g"
        assert candidates == index >> shifts[player] & (1 << sizes[player]) - 1


def test_a_budget_that_refuses_belief_leaves_knowledge_walking_alone():
    # PD at omega 4 charges 35 * 15^2 = 7,875 knowledge models and 35 * 89^2
    # = 277,235 belief models: a budget of 10,000 admits only knowledge, so
    # the belief call is refused on a shared Evaluator as on a fresh one,
    # although the knowledge call's walk, stored there, would serve it
    profile = uniform(PD, "sd:g")
    shared = Evaluator(PD)
    fresh = enumerate_ck_cb(PD, 4, profile, mode="knowledge", budget=10_000)
    assert enumerate_ck_cb(PD, 4, profile, "knowledge", 10_000, shared) == fresh
    walks = dict(shared.enumerations)
    assert list(walks) == [(4, profile)]
    assert all(type(v) is int for v in walks[4, profile]), walks
    refusals = []
    for evaluator in (None, shared):
        with pytest.raises(BudgetError) as exc:
            enumerate_ck_cb(PD, 4, profile, "belief", 10_000, evaluator)
        refusals.append((str(exc.value), exc.value.attempted))
    message = "enumeration of 277235 models exceeds the budget of 10000"
    assert refusals == [(message, 35 * 89 * 89)] * 2
    assert shared.enumerations == walks


SHARED_CASES = [
    (game, text)
    for game in (PD, MIX, CHAIN, THREE)
    for text in ("sd:g", "sd:l", "br:g:pure", "br:l:pure", "msd:g", "br:l:corr")
]


@pytest.mark.parametrize(
    "game,text", SHARED_CASES, ids=[f"{g.name}-{t}" for g, t in SHARED_CASES]
)
def test_a_shared_evaluator_gives_each_mode_its_fresh_result(game, text, monkeypatch):
    # The walk depends on no mode: a fresh knowledge call and a fresh belief
    # call ask the property layer the same keys, and a local profile asks
    # none.  One Evaluator serves a knowledge and a belief call, in either
    # order: the first call makes exactly that walk and the second makes
    # none, yet each returns what a call on a fresh Evaluator returns.
    profile = uniform(game, text)
    asked = _recorded(
        monkeypatch, epistemic, "_passing",
        lambda evaluator, family, scope, player, index, candidates: (player, index, candidates),
    )

    def run(mode, evaluator):
        start = len(asked)
        r = enumerate_ck_cb(game, 3, profile, mode=mode, evaluator=evaluator)
        return r, asked[start:]

    fresh = {mode: run(mode, None) for mode in BOTH}
    (_, walk), (_, belief_walk) = fresh.values()
    assert bool(walk) == (profile.specs[0].scope == "g") and belief_walk == walk
    for order in (BOTH, BOTH[::-1]):
        shared = Evaluator(game)
        (first, first_walk), (second, second_walk) = (run(mode, shared) for mode in order)
        assert (first, second) == tuple(fresh[mode][0] for mode in order), order
        assert first_walk == walk, order
        assert second_walk == [], order
