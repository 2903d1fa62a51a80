import itertools
import pathlib
import random

import pytest

from gamelattice import dominance, fixtures
from gamelattice.errors import BudgetError, ShapeError, UnsupportedBeliefError
from gamelattice.games import (
    Restriction,
    all_restrictions,
    lattice_leq,
    make_game,
    parse_game_file,
    restriction_from_names,
    restriction_top,
)
from gamelattice.iteration import verify_tarski
from gamelattice.properties import (
    Evaluator,
    PropertyProfile,
    PropertySpec,
    apply_operator,
    check_property_monotone,
    check_singleton_condition,
    eval_property,
    outcome,
    parse_property_spec,
    property_operator,
    verify_theorem_just,
    verify_theorem_just1,
)

PD, MP, MIX, CHAIN = fixtures.PD, fixtures.MP, fixtures.MIX, fixtures.CHAIN
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

ALL_SPECS = [
    "sd:l", "sd:g", "msd:l", "msd:g",
    "br:l:pure", "br:g:pure", "br:l:corr", "br:g:corr",
]


def uniform(game, text):
    return PropertyProfile.uniform(parse_property_spec(text), game.num_players)


def test_parse_property_spec_grammar():
    assert str(parse_property_spec("sd:l")) == "sd:l"
    assert str(parse_property_spec("br:g:pure")) == "br:g:pure"
    assert parse_property_spec("br:l:ind") == PropertySpec("br", "l", "ind")
    for bad in ("sd", "sd:x", "br:l", "br:l:magic", "wd:l", "msd:g:pure"):
        with pytest.raises(ValueError):
            parse_property_spec(bad)


def test_eval_property_global_local_divergence():
    sd_l, sd_g = parse_property_spec("sd:l"), parse_property_spec("sd:g")
    c = PD.strategy_index(0, "C")
    top = restriction_top(PD)
    assert not eval_property(sd_l, PD, 0, c, top)  # D beats C
    cc = restriction_from_names(PD, [["C"], ["C"]])
    assert eval_property(sd_l, PD, 0, c, cc)  # no dominator inside {C}
    assert not eval_property(sd_g, PD, 0, c, cc)  # D from outside still beats C


def test_apply_operator_examples():
    assert apply_operator(uniform(PD, "sd:l"), PD, restriction_top(PD)).names() == [
        ["D"],
        ["D"],
    ]
    assert apply_operator(uniform(MIX, "msd:l"), MIX, restriction_top(MIX)).names() == [
        ["T", "M"],
        ["L", "R"],
    ]


def test_apply_operator_heterogeneous():
    profile = PropertyProfile(
        (parse_property_spec("sd:l"), parse_property_spec("br:g:pure"))
    )
    top = restriction_top(CHAIN)
    image = apply_operator(profile, CHAIN, top)
    # each player's component is computed independently from the same input
    sd_image = apply_operator(uniform(CHAIN, "sd:l"), CHAIN, top)
    br_image = apply_operator(uniform(CHAIN, "br:g:pure"), CHAIN, top)
    assert image.sets[0] == sd_image.sets[0]
    assert image.sets[1] == br_image.sets[1]


def test_outcome_examples():
    assert outcome(uniform(MP, "br:g:pure"), MP).outcome.is_top()
    trace = outcome(uniform(CHAIN, "sd:l"), CHAIN)
    assert trace.outcome.names() == [["T"], ["L"]]
    assert str(trace.closure_ordinal) == "3"
    assert outcome(uniform(PD, "msd:l"), PD).outcome.names() == [["D"], ["D"]]


def test_operator_contraction_everywhere():
    rng = random.Random(3)
    games = [PD, MP, MIX, CHAIN] + fixtures.random_games(3, 5, 3, 3)
    for game in games:
        for text in ALL_SPECS:
            profile = uniform(game, text)
            for _ in range(6):
                g = fixtures.random_restriction(rng, game)
                assert lattice_leq(apply_operator(profile, game, g), g)


def test_global_refines_local_pointwise():
    for game in (PD, MIX, CHAIN):
        for kind, belief in (("sd", None), ("msd", None), ("br", "pure"), ("br", "corr")):
            glob = PropertyProfile.uniform(
                PropertySpec(kind, "g", belief), game.num_players
            )
            loc = PropertyProfile.uniform(
                PropertySpec(kind, "l", belief), game.num_players
            )
            for g in all_restrictions(game):
                assert lattice_leq(
                    apply_operator(glob, game, g), apply_operator(loc, game, g)
                )


def test_monotone_global_properties():
    assert check_property_monotone(parse_property_spec("sd:g"), PD).passed
    assert check_property_monotone(parse_property_spec("br:g:pure"), MP).passed
    assert check_property_monotone(parse_property_spec("msd:g"), MIX).passed
    assert check_property_monotone(parse_property_spec("br:g:corr"), MIX).passed


def test_local_sd_monotonicity_violation_found_by_search():
    # a violation exists where shrinking the local pool hides a dominator
    spec = parse_property_spec("sd:l")
    found = None
    for game in fixtures.random_games(23, 40, 3, 2):
        report = check_property_monotone(spec, game)
        if not report.passed:
            found = (game, report)
            break
    assert found is not None
    game, report = found
    entry = report.entries[0]
    assert entry["strategies"]


def test_monotone_budget_error():
    # 3^14 comparable pairs, beyond the 2,000,000 pair budget
    game = fixtures.random_game(random.Random(7), 7, 7)
    with pytest.raises(BudgetError, match="comparable-pair"):
        check_property_monotone(parse_property_spec("sd:g"), game)


def test_singleton_condition_local_properties():
    rep = check_singleton_condition(parse_property_spec("sd:l"), PD)
    assert rep.passed and rep.details["checked"] == 8
    rep = check_singleton_condition(parse_property_spec("br:l:pure"), CHAIN)
    assert rep.passed and rep.details["checked"] == 18
    assert check_singleton_condition(parse_property_spec("msd:l"), MIX).passed


def test_singleton_condition_sd_global_fails_at_cc():
    rep = check_singleton_condition(parse_property_spec("sd:g"), PD)
    assert not rep.passed
    assert {"joint": ["C", "C"], "player": 1} in rep.entries


def test_theorem_just_fixtures():
    for game in (PD, MP, MIX, CHAIN):
        rep = verify_theorem_just(game)
        assert rep.passed, (game.name, rep.entries)
    rep = verify_theorem_just(PD)
    assert rep.details["br_global_outcome"] == [["D"], ["D"]]
    assert rep.details["sd_local_outcome"] == [["D"], ["D"]]
    rep = verify_theorem_just(MP)
    assert rep.details["br_global_outcome"] == [["H", "T"], ["H", "T"]]


def test_theorem_just1_fixtures():
    for game in (PD, MP, MIX, CHAIN):
        rep = verify_theorem_just1(game)
        assert rep.passed, (game.name, rep.entries)
    rep = verify_theorem_just1(MIX)
    assert rep.details["br_global_outcome"] == [["T", "M"], ["L", "R"]]
    assert rep.details["msd_local_outcome"] == [["T", "M"], ["L", "R"]]


def test_outcome_equals_largest_fixpoint_for_monotone_profiles():
    for game in (PD, MIX, CHAIN):
        for text in ("sd:g", "msd:g", "br:g:pure"):
            profile = uniform(game, text)
            op = property_operator(profile, game)
            report = verify_tarski(op, game, text)
            assert report.passed
            assert report.details["outcome"] == outcome(profile, game).outcome.names()


def test_profile_length_checked():
    with pytest.raises(ValueError):
        apply_operator(
            PropertyProfile((parse_property_spec("sd:l"),)), PD, restriction_top(PD)
        )


def _broken_operator(monkeypatch, broken_spec):
    """Make apply_operator return the bottom element for one property, and
    count every call."""
    from gamelattice import properties
    from gamelattice.games import restriction_bottom

    real = properties.apply_operator
    calls = []

    def fake(profile, game, g, *rest):
        calls.append(profile)
        if str(profile) == broken_spec:
            return restriction_bottom(game)
        return real(profile, game, g, *rest)

    monkeypatch.setattr(properties, "apply_operator", fake)
    return calls


def test_theorem_just1_failure_entries(monkeypatch):
    _broken_operator(monkeypatch, "msd:l")
    report = verify_theorem_just1(MIX)
    assert not report.passed
    kinds = {e["kind"] for e in report.entries}
    assert kinds == {"brc-msd-image-mismatch", "outcome-inclusion-violation"}
    mismatches = [e for e in report.entries if e["kind"] == "brc-msd-image-mismatch"]
    assert all(
        set(e) == {"kind", "restriction", "brc_image", "msd_image"} for e in mismatches
    )
    assert all(e["msd_image"] == [[], []] for e in mismatches)
    # entries follow lattice order
    order = [g.names() for g in all_restrictions(MIX)]
    positions = [order.index(e["restriction"]) for e in mismatches]
    assert positions == sorted(positions)
    violation = report.entries[-1]
    assert set(violation) == {"kind", "br_outcome", "msd_outcome"}
    assert set(report.details) == {
        "game", "restrictions_checked", "br_global_outcome", "msd_local_outcome",
    }


def test_theorem_just_failure_entries(monkeypatch):
    _broken_operator(monkeypatch, "sd:g")
    report = verify_theorem_just(PD)
    assert not report.passed
    assert {e["kind"] for e in report.entries} == {"brg-not-below-sdg"}
    assert all(set(e) == {"kind", "restriction"} for e in report.entries)


def test_theorem_just_checks_the_budget_before_any_work(monkeypatch):
    calls = _broken_operator(monkeypatch, None)
    with pytest.raises(BudgetError):
        verify_theorem_just(PD, max_restrictions=3)
    with pytest.raises(BudgetError):
        verify_theorem_just1(PD, max_restrictions=3)
    assert calls == []


def test_evaluator_belongs_to_one_game():
    with pytest.raises(ShapeError):
        apply_operator(uniform(MP, "sd:l"), MP, restriction_top(MP), Evaluator(PD))


def test_evaluator_cache_is_scoped_to_the_computation():
    profile = uniform(MIX, "msd:l")
    evaluator = Evaluator(MIX)
    first = outcome(profile, MIX, evaluator=evaluator)
    cached = len(evaluator.verdicts)
    assert cached > 0
    assert outcome(profile, MIX) == first  # a call given none uses its own
    assert len(evaluator.verdicts) == cached
    assert outcome(profile, MIX, evaluator=evaluator) == first  # all hits
    assert len(evaluator.verdicts) == cached


def _random_game(rng, sizes):
    names = [tuple(f"{'abc'[i]}{k + 1}" for k in range(n)) for i, n in enumerate(sizes)]
    table = {
        joint: tuple(rng.randint(-5, 5) for _ in sizes)
        for joint in itertools.product(*names)
    }
    return make_game(f"rand{'x'.join(map(str, sizes))}", names, table)


def _lp_only_verdict(spec, game, player, strategy, g):
    """The verdict from the LP procedures alone, with no pure pre-check."""
    pool = sorted(game.strategies(player)) if spec.scope == "g" else sorted(g.sets[player])
    if spec.kind == "msd":
        return dominance.mixed_dominance_witness(game, g, player, pool, strategy) is None
    found = dominance.exists_supporting_belief(game, g, pool, player, strategy, spec.belief)
    return found is not None


def test_pure_prechecks_agree_with_the_lp():
    """A pure certificate settles msd and corr/ind br verdicts before the LP;
    on every restriction the verdict must be the LP's own."""
    fixture_games = [
        parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))
    ]
    rng = random.Random(3031)
    games = (
        fixture_games
        + fixtures.random_games(3030, 6, 3, 3)
        + [_random_game(rng, sizes) for sizes in ((2, 2, 2), (2, 3, 2))]
    )
    texts = ["msd:l", "msd:g", "br:l:corr", "br:g:corr"]
    checked = 0
    for game in games:
        specs = texts + (["br:l:ind", "br:g:ind"] if game.num_players == 2 else [])
        # one cache for all specs, so verdicts shared across scopes are checked too
        evaluator = Evaluator(game)
        for text in specs:
            spec = parse_property_spec(text)
            for g in all_restrictions(game):
                for i in game.players():
                    for s in game.strategies(i):
                        got = eval_property(spec, game, i, s, g, evaluator)
                        assert got == _lp_only_verdict(spec, game, i, s, g), (
                            game.name, text, g.names(), i, s,
                        )
                        checked += 1
    assert checked > 10000


def test_global_and_local_specs_share_verdicts_on_the_full_pool():
    evaluator = Evaluator(MIX)
    top = restriction_top(MIX)
    for i in MIX.players():
        for s in MIX.strategies(i):
            eval_property(parse_property_spec("br:g:corr"), MIX, i, s, top, evaluator)
    cached = len(evaluator.verdicts)
    for i in MIX.players():
        for s in MIX.strategies(i):
            eval_property(parse_property_spec("br:l:corr"), MIX, i, s, top, evaluator)
    assert len(evaluator.verdicts) == cached


@pytest.mark.parametrize("masks", [(3, 3, 3), (3, 0, 3), (3, 3, 0), (0, 0, 0)])
def test_independent_beliefs_rejected_for_three_players_on_every_context(masks):
    # the rejection holds on contexts with an empty opponent component too,
    # where no belief exists at all
    g = Restriction.from_masks(fixtures.THREE, masks)
    with pytest.raises(UnsupportedBeliefError):
        eval_property(parse_property_spec("br:l:ind"), fixtures.THREE, 0, 0, g)
