import hashlib
import pathlib
import random
from fractions import Fraction

import pytest

from gamelattice import fixtures, lp
from gamelattice.dominance import (
    Distribution,
    distribution,
    exists_supporting_belief,
    expected_payoff,
    is_best_response,
    mixed_dominance_witness,
    pearce_equivalence_check,
    strictly_dominates_pure,
)
from gamelattice.errors import ShapeError, UnsupportedBeliefError
from gamelattice.games import (
    Restriction,
    all_restrictions,
    mask_members,
    parse_game_file,
    restriction_from_names,
    restriction_top,
)

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

PD, MP, MIX, CHAIN, THREE = (
    fixtures.PD,
    fixtures.MP,
    fixtures.MIX,
    fixtures.CHAIN,
    fixtures.THREE,
)


def idx(game, player, name):
    return game.strategy_index(player, name)


def validate_dominance_witness(game, context, player, witness, dominated):
    def payoff(s, y):
        return game.payoff(player, y[:player] + (s,) + y[player:])

    for y in context.opponent_profiles(player):
        mixed = sum((w * payoff(s, y) for s, w in witness.weights), Fraction(0))
        assert mixed > payoff(dominated, y)


# -- strictly_dominates_pure ---------------------------------------------------


def test_pure_dominance_pd():
    top = restriction_top(PD)
    assert strictly_dominates_pure(PD, top, 0, idx(PD, 0, "D"), idx(PD, 0, "C"))


def test_pure_dominance_mix_row_t_vs_b():
    top = restriction_top(MIX)
    assert not strictly_dominates_pure(MIX, top, 0, idx(MIX, 0, "T"), idx(MIX, 0, "B"))


def test_pure_dominance_vacuous_on_empty_opponents():
    g = restriction_from_names(PD, [["C", "D"], []])
    assert strictly_dominates_pure(PD, g, 0, 0, 1)
    assert strictly_dominates_pure(PD, g, 0, 1, 1)


def test_pure_dominance_unknown_strategy():
    with pytest.raises(ValueError):
        strictly_dominates_pure(PD, restriction_top(PD), 0, 5, 0)


def test_pure_dominance_shape_error():
    with pytest.raises(ShapeError):
        strictly_dominates_pure(PD, restriction_top(MP), 0, 0, 1)


def test_pure_dominance_antisymmetric_when_profiles_exist():
    rng = random.Random(7)
    for game in (PD, MP, MIX, CHAIN, *fixtures.random_games(7, 10, 3, 3)):
        for _ in range(10):
            g = fixtures.random_restriction(rng, game)
            for i in game.players():
                if not list(g.opponent_profiles(i)):
                    continue
                for a in game.strategies(i):
                    for b in game.strategies(i):
                        both = strictly_dominates_pure(
                            game, g, i, a, b
                        ) and strictly_dominates_pure(game, g, i, b, a)
                        assert not both


# -- mixed_dominance_witness ---------------------------------------------------


def test_mixed_witness_mix_game():
    top = restriction_top(MIX)
    pool = [idx(MIX, 0, "T"), idx(MIX, 0, "M")]
    witness = mixed_dominance_witness(MIX, top, 0, pool, idx(MIX, 0, "B"))
    assert witness is not None
    weights = dict(witness.weights)
    assert set(weights) <= set(pool)
    # any mixture with both weights strictly between 1/3 and 2/3 works;
    # validity, not identity, is what matters
    validate_dominance_witness(MIX, top, 0, witness, idx(MIX, 0, "B"))


def test_mixed_witness_none_for_pd_d():
    top = restriction_top(PD)
    assert mixed_dominance_witness(PD, top, 0, [0, 1], idx(PD, 0, "D")) is None


def test_mixed_witness_self_pool_none():
    top = restriction_top(MIX)
    b = idx(MIX, 0, "B")
    assert mixed_dominance_witness(MIX, top, 0, [b], b) is None


def test_mixed_witness_self_pool_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp, "simplex_maximize", no_lp)
    vacuous = 0
    for path in sorted(FIXTURE_DIR.glob("*.game")):
        game = parse_game_file(path)
        for g in all_restrictions(game):
            for i in game.players():
                has_profiles = any(True for _ in g.opponent_profiles(i))
                for s in game.strategies(i):
                    witness = mixed_dominance_witness(game, g, i, [s], s)
                    if has_profiles:
                        assert witness is None, (game.name, g.names(), i, s)
                    else:
                        assert dict(witness.weights) == {s: Fraction(1)}
                        vacuous += 1
    assert vacuous > 0


def test_mixed_witness_empty_pool_none():
    assert mixed_dominance_witness(MIX, restriction_top(MIX), 0, [], 0) is None


def test_mixed_witness_vacuous_on_empty_opponents():
    g = restriction_from_names(MIX, [["T", "M", "B"], []])
    witness = mixed_dominance_witness(MIX, g, 0, [0, 1], 2)
    assert witness is not None
    assert dict(witness.weights) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_pure_dominance_implies_mixed_witness():
    rng = random.Random(11)
    for game in fixtures.random_games(11, 15, 3, 3):
        top = restriction_top(game)
        for i in game.players():
            for a in game.strategies(i):
                for b in game.strategies(i):
                    if a != b and strictly_dominates_pure(game, top, i, a, b):
                        witness = mixed_dominance_witness(
                            game, top, i, list(game.strategies(i)), b
                        )
                        assert witness is not None
                        validate_dominance_witness(game, top, i, witness, b)


def test_witness_monotone_in_pool():
    rng = random.Random(13)
    for game in fixtures.random_games(13, 10, 3, 3):
        g = fixtures.random_restriction(rng, game)
        for i in game.players():
            strategies = list(game.strategies(i))
            for b in strategies:
                small = [s for s in strategies if s != strategies[-1]]
                with_small = mixed_dominance_witness(game, g, i, small, b)
                with_full = mixed_dominance_witness(game, g, i, strategies, b)
                if with_small is not None:
                    assert with_full is not None


# -- is_best_response / exists_supporting_belief -------------------------------


def test_best_response_mp_pure_belief():
    top = restriction_top(MP)
    h = idx(MP, 0, "H")
    belief = distribution({(idx(MP, 1, "H"),): 1})
    assert is_best_response(MP, top, [0, 1], 0, h, belief)


def test_best_response_pd_c_fails():
    top = restriction_top(PD)
    c = idx(PD, 0, "C")
    belief = distribution({(idx(PD, 1, "C"),): 1})
    assert not is_best_response(PD, top, [0, 1], 0, c, belief)


def test_best_response_mix_correlated():
    top = restriction_top(MIX)
    belief = distribution({(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    b = idx(MIX, 0, "B")
    assert not is_best_response(MIX, top, [0, 1, 2], 0, b, belief)


def test_best_response_support_outside_context():
    g = restriction_from_names(PD, [["C", "D"], ["D"]])
    with pytest.raises(ValueError):
        is_best_response(
            PD, g, [0, 1], 0, 0, distribution({(idx(PD, 1, "C"),): 1})
        )


def test_independent_belief_three_players_rejected():
    top = restriction_top(THREE)
    with pytest.raises(UnsupportedBeliefError):
        exists_supporting_belief(THREE, top, [0, 1], 0, 0, "ind")


def test_independent_belief_two_players_routes_via_correlated():
    top = restriction_top(MP)
    belief = exists_supporting_belief(MP, top, [0, 1], 0, 0, "ind")
    assert belief is not None
    assert belief == exists_supporting_belief(MP, top, [0, 1], 0, 0, "corr")
    assert is_best_response(MP, top, [0, 1], 0, 0, belief)


def test_every_supporting_belief_is_a_distribution_that_supports():
    games = [PD, MP, MIX, CHAIN, THREE] + fixtures.random_games(29, 3, 3, 3)
    for game in games:
        kinds = ("pure", "corr", "ind") if game.num_players == 2 else ("pure", "corr")
        for g in all_restrictions(game):
            for i in game.players():
                for pool in (mask_members(g.masks[i]), list(game.strategies(i))):
                    for s in game.strategies(i):
                        for kind in kinds:
                            belief = exists_supporting_belief(game, g, pool, i, s, kind)
                            if belief is None:
                                continue
                            weights = [w for _, w in belief.weights]
                            assert all(w > 0 for w in weights) and sum(weights) == 1
                            assert is_best_response(game, g, pool, i, s, belief)
                            if kind == "pure":
                                assert weights == [1]


def test_supporting_belief_mp_pure():
    top = restriction_top(MP)
    t = idx(MP, 0, "T")
    belief = exists_supporting_belief(MP, top, [0, 1], 0, t, "pure")
    assert belief is not None
    assert is_best_response(MP, top, [0, 1], 0, t, belief)


def test_supporting_belief_mix_b_correlated_none():
    top = restriction_top(MIX)
    b = idx(MIX, 0, "B")
    assert exists_supporting_belief(MIX, top, [0, 1, 2], 0, b, "corr") is None


def test_supporting_belief_singleton_pool_always():
    rng = random.Random(17)
    for game in fixtures.random_games(17, 10, 3, 3):
        g = fixtures.random_restriction(rng, game)
        for i in game.players():
            if not list(g.opponent_profiles(i)):
                continue
            for s in game.strategies(i):
                for kind in ("pure", "corr"):
                    belief = exists_supporting_belief(game, g, [s], i, s, kind)
                    assert belief is not None
                    assert is_best_response(game, g, [s], i, s, belief)


def test_supporting_belief_none_without_profiles():
    g = restriction_from_names(PD, [["C", "D"], []])
    assert exists_supporting_belief(PD, g, [0, 1], 0, 0, "pure") is None
    assert exists_supporting_belief(PD, g, [0, 1], 0, 0, "corr") is None


def test_correlated_belief_witnesses_validate():
    rng = random.Random(19)
    for game in fixtures.random_games(19, 10, 4, 4):
        for _ in range(8):
            g = fixtures.random_restriction(rng, game)
            for i in game.players():
                if not list(g.opponent_profiles(i)):
                    continue
                pool = mask_members(g.masks[i]) or list(game.strategies(i))
                for s in game.strategies(i):
                    belief = exists_supporting_belief(game, g, pool, i, s, "corr")
                    if belief is not None:
                        assert is_best_response(game, g, pool, i, s, belief)


def test_three_player_correlated_path_works():
    top = restriction_top(THREE)
    for i in THREE.players():
        for s in THREE.strategies(i):
            belief = exists_supporting_belief(
                THREE, top, list(THREE.strategies(i)), i, s, "corr"
            )
            if belief is not None:
                assert is_best_response(
                    THREE, top, list(THREE.strategies(i)), i, s, belief
                )


# -- expected payoff -----------------------------------------------------------


def test_expected_payoff_correlated_exact():
    belief = distribution({(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    got = expected_payoff(MIX, 0, idx(MIX, 0, "T"), belief)
    assert got == Fraction(1)  # 3 * 1/3 + 0 * 2/3


def test_expected_payoff_rejects_what_the_game_lacks():
    c = idx(PD, 0, "C")
    # the column player has two strategies: C against (2,) would read the
    # payoff of (D, C)
    with pytest.raises(ValueError):
        expected_payoff(PD, 0, c, distribution({(2,): 1}))
    with pytest.raises(ValueError):
        expected_payoff(PD, 0, 5, distribution({(0,): 1}))
    with pytest.raises(ValueError):
        expected_payoff(PD, 0, c, distribution({(0, 0): 1}))


def test_belief_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        Distribution((((0,), Fraction(1, 2)),))


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        distribution({0: Fraction(1, 2)})


def test_distribution_items_must_be_distinct():
    # a repeated item would sum to 1 across its copies, while a rendering
    # keyed by item keeps one copy's weight
    half = Fraction(1, 2)
    for weights in (((0, half), (0, half)), (((1,), half), ((0,), Fraction(1, 4)), ((1,), Fraction(1, 4)))):
        with pytest.raises(ValueError, match="distinct"):
            Distribution(weights)
    assert Distribution(((0, half), (1, half))).support() == {0, 1}


# -- the max-margin LP both sides solve ----------------------------------------


def test_both_sides_build_the_pinned_max_margin_lp(monkeypatch):
    solve = lp.simplex_maximize
    solved = []

    def recording(*args):
        value, x = solve(*args)
        solved.append((args, value))
        return value, x

    monkeypatch.setattr(lp, "simplex_maximize", recording)
    top = restriction_top(MIX)
    pool = list(MIX.strategies(0))
    b = idx(MIX, 0, "B")
    assert mixed_dominance_witness(MIX, top, 0, pool, b) is not None
    assert exists_supporting_belief(MIX, top, pool, 0, b, "corr") is None
    assert solved == [
        (
            (
                [0, 0, 0, 1, -1],
                [[-3, 0, -1, 1, -1], [0, -3, -1, 1, -1]],
                [-1, -1],
                [[1, 1, 1, 0, 0]],
                [1],
            ),
            Fraction(1, 2),
        ),
        (
            (
                [0, 0, 1, -1],
                [[2, -1, 1, -1], [-1, 2, 1, -1], [0, 0, 1, -1]],
                [0, 0, 0],
                [[1, 1, 0, 0]],
                [1],
            ),
            Fraction(-1, 2),
        ),
    ]


# -- pearce equivalence --------------------------------------------------------


def test_pearce_mix_top():
    rep = pearce_equivalence_check(MIX, restriction_top(MIX))
    assert rep.passed
    assert rep.details["brc_image"] == [["M", "T"], ["L", "R"]]
    assert rep.details["msd_image"] == [["M", "T"], ["L", "R"]]


def test_pearce_pd_top():
    rep = pearce_equivalence_check(PD, restriction_top(PD))
    assert rep.passed
    assert rep.details["brc_image"] == [["D"], ["D"]]


def test_pearce_singleton_opponents_reduces_to_pure():
    # with singleton opponent components both procedures coincide with the
    # pure best-response / pure-dominance pictures
    for game in (PD, MP, CHAIN):
        for joint in game.joint_strategies():
            g = Restriction(game, tuple(1 << s for s in joint))
            rep = pearce_equivalence_check(game, g)
            assert rep.passed


def test_pearce_certificates_are_pinned():
    # `check pearce` prints certificates only on a mismatch, so no golden
    # output shows them: these are the bytes of every report
    digest = hashlib.sha256()
    games = [fixtures.FIXTURES[name] for name in sorted(fixtures.FIXTURES)]
    for game in games + fixtures.random_games(5, 12, 4, 4):
        for g in all_restrictions(game):
            digest.update(pearce_equivalence_check(game, g).to_json().encode())
    assert digest.hexdigest() == (
        "5bb7c01aa34ffaf46863eed931bdb5373957444dc4e666890f87de8148a36bc6"
    )


def test_pearce_every_restriction_of_fixtures():
    for game in (PD, MP, MIX, CHAIN):
        for g in all_restrictions(game):
            rep = pearce_equivalence_check(game, g)
            assert rep.passed, (game.name, g.names())
