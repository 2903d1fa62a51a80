import copy
import hashlib
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelattice import dominance, epistemic, fixtures, iteration, lp, properties
from gamelattice.cli import EXIT_INTERNAL, main
from gamelattice.errors import BudgetError, InternalError, ShapeError, UnsupportedBeliefError
from gamelattice.games import (
    Game,
    Restriction,
    all_restrictions,
    lattice_leq,
    make_game,
    mask_members,
    parse_game_file,
    restriction_at,
    restriction_from_names,
    restriction_top,
)
from gamelattice.iteration import (
    DEFAULT_LATTICE_BUDGET,
    image_table,
    table_slices,
    verify_inclusion_lemma,
    verify_tarski,
)
from gamelattice.properties import (
    Evaluator,
    PropertyProfile,
    PropertySpec,
    SCOPES,
    apply_operator,
    check_property_monotone,
    check_singleton_condition,
    outcome,
    parse_property_spec,
    MAX_MONOTONE_ENTRIES,
    passing_mask,
    pearce_equivalence_suite,
    property_is_monotone,
    property_operator,
    verify_theorem_just,
    verify_theorem_just1,
)
from oracles import (
    VerdictStore,
    comparison_tables,
    fraction_solved,
    per_index_table,
    settled,
    transpose_slices,
    violations_below,
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


def test_passing_mask_global_local_divergence():
    sd_l, sd_g = parse_property_spec("sd:l"), parse_property_spec("sd:g")
    c = 1 << PD.strategy_index(0, "C")
    top = restriction_top(PD)
    assert not passing_mask(sd_l, PD, 0, top, c)  # D beats C
    cc = restriction_from_names(PD, [["C"], ["C"]])
    assert passing_mask(sd_l, PD, 0, cc, c)  # no dominator inside {C}
    assert not passing_mask(sd_g, PD, 0, cc, c)  # D from outside still beats C


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
    assert image.masks[0] == sd_image.masks[0]
    assert image.masks[1] == br_image.masks[1]


def test_outcome_examples():
    assert outcome(uniform(MP, "br:g:pure"), MP).outcome == restriction_top(MP)
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


def test_property_is_monotone_is_the_checks_verdict(monkeypatch):
    games = [PD, MP, MIX, CHAIN, fixtures.THREE] + fixtures.random_games(23, 40, 3, 2)
    failing = 0
    for game in games:
        for text in ALL_SPECS:
            spec = parse_property_spec(text)
            evaluator = Evaluator(game)
            passed = check_property_monotone(spec, game, evaluator=evaluator).passed
            failing += not passed
            assert property_is_monotone(spec, game) == passed, (game.name, text)
            assert property_is_monotone(spec, game, evaluator) == passed
    assert failing > 0
    # the sums decide the verdict, so no comparable pair is listed; the
    # full check still lists pairs for its entries
    sd_l = parse_property_spec("sd:l")
    game = next(
        game for game in fixtures.random_games(23, 40, 3, 2)
        if not property_is_monotone(sd_l, game)
    )
    monkeypatch.setattr(iteration, "_submasks", None)
    assert not property_is_monotone(sd_l, game)
    with pytest.raises(TypeError):
        check_property_monotone(sd_l, game)


def test_monotone_check_is_bounded_by_the_lattice_budget_alone(monkeypatch):
    # 2^14 restrictions, within the lattice budget, and 3^14 comparable
    # pairs: a monotone property is decided by its sums with no pair listed,
    # and reports every pair as checked
    game = fixtures.random_game(random.Random(7), 7, 7)

    def no_pairs(m):
        pytest.fail("a pair was listed on a monotone table")

    with monkeypatch.context() as patched:
        patched.setattr(iteration, "_submasks", no_pairs)
        report = check_property_monotone(parse_property_spec("sd:g"), game)
    assert report.passed
    assert report.details["pairs_checked"] == 3 ** 14
    assert report.details["violations"] == 0

    # a failing property is decided too: every violation is counted and the
    # first MAX_MONOTONE_ENTRIES are listed
    sd_l = parse_property_spec("sd:l")
    report = check_property_monotone(sd_l, game)
    assert not report.passed
    slices = properties._property_table(
        PropertyProfile.uniform(sd_l, 2), game, Evaluator(game), 1 << 14, False
    )
    assert report.details["violations"] == sum(violations_below(transpose_slices(slices, 14))) > 0
    assert len(report.entries) == MAX_MONOTONE_ENTRIES


def test_property_is_monotone_charges_the_lattice_not_the_pairs():
    # the verdict is read off the up-closure over the 2^14 restrictions, so
    # the 3^14 comparable pairs are never charged
    game = fixtures.random_game(random.Random(7), 7, 7)
    assert property_is_monotone(parse_property_spec("sd:g"), game)
    # the lattice budget still bounds the table: 2^17 restrictions
    game = fixtures.random_game(random.Random(7), 9, 8)
    with pytest.raises(BudgetError, match="lattice"):
        property_is_monotone(parse_property_spec("sd:g"), game)


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
    """Make the operator of one property map every restriction to the bottom
    element, both in the image tables `_property_table` builds and in the
    steps `apply_operator` takes, and count every table built and every
    step taken."""
    from gamelattice.games import restriction_bottom

    real_table, real_apply = properties._property_table, properties.apply_operator
    calls = []

    def table(profile, game, *rest):
        images = real_table(profile, game, *rest)
        calls.append(profile)
        return [0] * len(images) if str(profile) == broken_spec else images

    def apply(profile, game, g, *rest):
        calls.append(profile)
        if str(profile) == broken_spec:
            return restriction_bottom(game)
        return real_apply(profile, game, g, *rest)

    monkeypatch.setattr(properties, "_property_table", table)
    monkeypatch.setattr(properties, "apply_operator", apply)
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
    asked = []
    real = properties._passing
    monkeypatch.setattr(properties, "_passing", lambda *a: asked.append(a) or real(*a))
    with pytest.raises(BudgetError):
        verify_theorem_just(PD, max_restrictions=3)
    with pytest.raises(BudgetError):
        verify_theorem_just1(PD, max_restrictions=3)
    assert calls == []
    assert asked == []


def test_evaluator_belongs_to_one_game():
    with pytest.raises(ShapeError):
        apply_operator(uniform(MP, "sd:l"), MP, restriction_top(MP), Evaluator(PD))


def _stores(evaluator):
    """Every certificate store, copied."""
    return {key: (list(m), list(b)) for key, (m, b) in evaluator.certificates.items()}


def _counted_lps(monkeypatch):
    """A list that gains one item per `lp.simplex_maximize` call from now on."""
    solves = []
    simplex = lp.simplex_maximize
    monkeypatch.setattr(lp, "simplex_maximize", lambda *a: solves.append(a) or simplex(*a))
    return solves


def test_evaluator_cache_is_scoped_to_the_computation(monkeypatch):
    solves = _counted_lps(monkeypatch)
    profile = uniform(MIX, "msd:l")
    evaluator = Evaluator(MIX)
    first = outcome(profile, MIX, evaluator=evaluator)
    stores, made = _stores(evaluator), len(solves)
    assert stores and made
    assert outcome(profile, MIX) == first  # a call given none uses its own
    assert _stores(evaluator) == stores and len(solves) == 2 * made
    assert outcome(profile, MIX, evaluator=evaluator) == first  # all settled by certificates
    assert _stores(evaluator) == stores and len(solves) == 2 * made


@pytest.mark.parametrize("text,open_", [("msd:l", 0b100), ("br:l:corr", 0b100)])
def test_an_lp_entry_solves_only_the_newly_open_candidates(text, open_, monkeypatch):
    # On MIX's top no pure strategy dominates T, M or B, and T and M are
    # pure best responses, so both families leave only B to the LP.  Each
    # open candidate costs one LP the first time it is asked.
    solves = []
    simplex = lp.simplex_maximize
    monkeypatch.setattr(lp, "simplex_maximize", lambda *a: solves.append(a) or simplex(*a))
    spec = parse_property_spec(text)
    evaluator = Evaluator(MIX)
    top = restriction_top(MIX)
    asked = 0
    for candidates in (0b010, 0b110, 0b111, 0b111):
        before = len(solves)
        assert passing_mask(spec, MIX, 0, top, candidates, evaluator) == 0b011 & candidates
        assert len(solves) - before == bin(open_ & candidates & ~asked).count("1")
        asked |= candidates
    assert len(solves) == bin(open_).count("1")


def _random_game(rng, sizes, bound=5, name="rand"):
    names = [tuple(f"{'abcd'[i]}{k + 1}" for k in range(n)) for i, n in enumerate(sizes)]
    table = {
        joint: tuple(rng.randint(-bound, bound) for _ in sizes)
        for joint in itertools.product(*names)
    }
    return make_game(f"{name}{'x'.join(map(str, sizes))}", names, table)


def _fraction_game(rng, sizes):
    """A game whose payoffs are fractions over the denominators 1 to 6."""
    names = tuple(tuple(f"s{s}" for s in range(k)) for k in sizes)
    payoffs = tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in sizes)
        for _ in range(math.prod(sizes))
    )
    return Game(f"frac{'x'.join(map(str, sizes))}", names, payoffs)


def _lp_only_verdict(spec, game, player, strategy, g):
    """The verdict from the LP procedures alone, with no pure pre-check."""
    pool = list(game.strategies(player)) if spec.scope == "g" else mask_members(g.masks[player])
    if spec.kind == "msd":
        return dominance.mixed_dominance_witness(game, g, player, pool, strategy) is None
    found = dominance.exists_supporting_belief(game, g, pool, player, strategy, spec.belief)
    return found is not None


def _precheck_games():
    """The fixtures, six seeded 2-player games up to 3x3, then a 2x2x2 and a
    2x3x2 game."""
    fixture_games = [
        parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))
    ]
    rng = random.Random(3031)
    return (
        fixture_games
        + fixtures.random_games(3030, 6, 3, 3)
        + [_random_game(rng, sizes) for sizes in ((2, 2, 2), (2, 3, 2))]
    )


def test_pure_prechecks_agree_with_the_lp():
    """A pure certificate settles msd and corr/ind br verdicts before the LP;
    on every restriction the verdict must be the LP's own."""
    texts = ["msd:l", "msd:g", "br:l:corr", "br:g:corr"]
    checked = 0
    for game in _precheck_games():
        specs = texts + (["br:l:ind", "br:g:ind"] if game.num_players == 2 else [])
        # one cache for all specs, so verdicts shared across scopes are checked too
        evaluator = Evaluator(game)
        for text in specs:
            spec = parse_property_spec(text)
            for g in all_restrictions(game):
                for i in game.players():
                    for s in game.strategies(i):
                        got = bool(passing_mask(spec, game, i, g, 1 << s, evaluator))
                        assert got == _lp_only_verdict(spec, game, i, s, g), (
                            game.name, text, g.names(), i, s,
                        )
                        checked += 1
    assert checked > 10000


def _pure_oracle_mask(spec, game, player, g):
    """The strategies of T_i passing sd or br:pure on g, decided one at a
    time by the dominance procedures."""
    pool = list(game.strategies(player)) if spec.scope == "g" else mask_members(g.masks[player])
    passing = 0
    for s in game.strategies(player):
        if spec.kind == "sd":
            ok = not any(
                dominance.strictly_dominates_pure(game, g, player, t, s) for t in pool
            )
        else:
            ok = dominance.exists_supporting_belief(game, g, pool, player, s, "pure") is not None
        passing |= ok << s
    return passing


def test_pure_masks_match_the_dominance_procedures():
    """The sd and br:pure masks, decided with int operations on the comparison
    tables, against strictly_dominates_pure and the pure branch of
    exists_supporting_belief: every restriction, empty components included,
    every strategy of T_i, both scopes."""
    games = _precheck_games() + fixtures.random_games(1212, 6, 4, 4)
    checked = 0
    for game in games:
        # one cache for both families and scopes, so shared masks are checked too
        evaluator = Evaluator(game)
        for text in ("sd:l", "sd:g", "br:l:pure", "br:g:pure"):
            spec = parse_property_spec(text)
            for g in all_restrictions(game):
                for i in game.players():
                    full = (1 << len(game.strategy_names[i])) - 1
                    want = _pure_oracle_mask(spec, game, i, g)
                    got = passing_mask(spec, game, i, g, full, evaluator)
                    assert got == want, (game.name, text, g.names(), i)
                    assert apply_operator(uniform(game, text), game, g, evaluator).masks[i] == (
                        want & g.masks[i]
                    )
                    checked += 1
    assert checked > 10000


def _table_games():
    """Three seeded 2-player games up to 3x3, a 2x2x2 and a 2x3x2 game; then
    a 3x1x2 game, whose second player has one strategy; a 2x2x2x2 game; a
    4x5 game, whose 9 lattice bits take more than one byte per index; a 3x3
    game with payoffs in [-1, 1], so most columns hold ties; and a 2x3x2
    game of fractions over mixed denominators."""
    rng = random.Random(2424)
    return fixtures.random_games(2424, 3, 3, 3) + [
        _random_game(rng, (2, 2, 2)),
        _random_game(rng, (2, 3, 2)),
        _random_game(rng, (3, 1, 2)),
        _random_game(rng, (2, 2, 2, 2)),
        _random_game(rng, (4, 5)),
        _random_game(rng, (3, 3), bound=1, name="ties"),
        _fraction_game(rng, (2, 3, 2)),
    ]


@pytest.mark.parametrize("game", _table_games(), ids=lambda game: game.name)
def test_property_tables_match_the_per_restriction_definitions(game):
    # the reference asks a fresh Evaluator per restriction, so it shares no
    # entry or certificate and walks no context in the builder's order
    n = game.num_players
    specs = [parse_property_spec(text) for text in ALL_SPECS + ["br:l:ind", "br:g:ind"]]
    if n > 2:
        specs = [spec for spec in specs if spec.belief != "ind"]
    rng = random.Random(game.name)
    profiles = [PropertyProfile.uniform(spec, n) for spec in specs] + [
        PropertyProfile(tuple(rng.choice(specs) for _ in range(n))) for _ in range(4)
    ]
    assert any(len(set(profile.specs)) > 1 for profile in profiles)
    restrictions = list(all_restrictions(game))
    for profile in profiles:
        want = [apply_operator(profile, game, g, Evaluator(game)).index for g in restrictions]
        op = property_operator(profile, game, Evaluator(game))
        got = iteration.image_table(op, game, len(restrictions))
        assert got == table_slices(want, sum(game.sizes)), str(profile)
    full = [(1 << k) - 1 for k in game.sizes]
    for spec in specs:
        want = [
            sum(passing_mask(spec, game, i, g, full[i]) << game.shifts[i] for i in game.players())
            for g in restrictions
        ]
        profile = PropertyProfile.uniform(spec, n)
        got = properties._property_table(profile, game, Evaluator(game), len(restrictions), False)
        assert got == table_slices(want, sum(game.sizes)), str(spec)


@pytest.mark.parametrize("game", _table_games(), ids=lambda game: game.name)
def test_queries_and_slices_are_seeded_by_one_rule(game, monkeypatch):
    # `_seeded` turns both `_passing`'s pure pre-checks, on strategy masks,
    # and `_component`'s bit-slices over the lattice into passing and open
    # strategies: with no certificate stored and `_solved` recording each
    # open strategy it is handed and failing it, by a certificate whose
    # slice is every index asked, `_passing` asked for every strategy runs
    # no LP, and at every index X its mask and the open strategies must be
    # bit X of the slices of every strategy; `_settle` stores each such
    # certificate, which is dropped before the next query
    opened = []
    monkeypatch.setattr(properties, "_certificate_slice", lambda *a: a[-1])
    monkeypatch.setattr(properties, "_solved", lambda *a: opened.append(a[-1]) or (False, (0, 0)))
    count = 1 << sum(game.sizes)
    patterns = iteration.lattice_patterns(sum(game.sizes))
    evaluator = Evaluator(game)
    for family in ("sd", "msd", "br:pure", "br:corr"):
        for scope in SCOPES:
            for i in game.players():
                full = (1 << game.sizes[i]) - 1
                passing, opens, _, _ = properties._component(
                    evaluator, family, scope, i, patterns, False
                )
                for index in range(count):
                    opened.clear()
                    got = properties._passing(evaluator, family, scope, i, index, full)
                    where = (family, scope, i, index)
                    assert got == sum((p >> index & 1) << s for s, p in enumerate(passing)), where
                    want = sum((o >> index & 1) << s for s, o in enumerate(opens))
                    assert opened == mask_members(want), where
                    assert evaluator.certificates == {
                        (family, i, s): ([(0, 0)], []) for s in opened
                    }, where
                    evaluator.certificates.clear()


def _lp_solves(game, monkeypatch, build, steps):
    """Each `_solved` call that `build(profile, game, evaluator, own)` makes,
    as (family, player, index, strategy), the tables it returns and the
    certificates it stores, for `steps` of (spec, own) on one Evaluator."""
    solves = []
    real = properties._solved

    def recording(evaluator, family, index, player, pool, s):
        solves.append((family, player, index, s))
        return real(evaluator, family, index, player, pool, s)

    monkeypatch.setattr(properties, "_solved", recording)
    evaluator = Evaluator(game)
    tables = [build(uniform(game, text), game, evaluator, own) for text, own in steps]
    monkeypatch.undo()
    return solves, tables, evaluator.certificates


def _built_table(profile, game, evaluator, own):
    return properties._property_table(profile, game, evaluator, DEFAULT_LATTICE_BUDGET, own)


def _per_strategy(solves):
    """The `_solved` calls of `_lp_solves`, stably sorted by (family,
    player, strategy): each strategy's calls in the order they were made."""
    return sorted(solves, key=lambda call: (call[0], call[1], call[3]))


def test_the_table_builder_solves_the_per_index_loops_lps(monkeypatch):
    # The builder settles one strategy's open slice at a time, and a
    # strategy's LPs read and write only its own certificates: it must
    # solve the LPs of asking every index, per player in ascending index,
    # each (family, player, strategy)'s in the same order, build the same
    # tables and store the same certificates, on a fresh Evaluator per
    # (spec, own) and on one Evaluator that builds them all in turn
    games = [MIX, CHAIN, fixtures.THREE, *_table_games()[:5]]
    games += fixtures.random_games(3838, 3, 4, 4)
    games += [_random_game(random.Random(1), (3, 3, 2)), _random_game(random.Random(2), (2, 3, 3))]
    steps = [(text, own) for text in LP_SPECS for own in (True, False)]
    solving = set()
    for game in games:
        for chain in [[step] for step in steps] + [steps]:
            solves, *got = _lp_solves(game, monkeypatch, _built_table, chain)
            want, *asked = _lp_solves(game, monkeypatch, per_index_table, chain)
            assert got == asked, (game.name, chain)
            assert _per_strategy(solves) == _per_strategy(want), (game.name, chain)
            if solves:
                solving.add(game.num_players)
    assert solving == {2, 3}


def test_a_certificate_slice_holds_the_indices_its_certificate_settles():
    # every certificate stored while the LP families' image and monotonicity
    # tables are built has, on either scope's pools, a slice whose bit X is
    # set exactly where `oracles.settled`, handed that certificate alone, settles
    # its strategy at lattice index X
    games = [parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))]
    games += fixtures.random_games(4747, 4, 4, 4)
    games += [_random_game(random.Random(1), (3, 3, 2)), _random_game(random.Random(2), (2, 3, 3))]
    kinds = set()
    for game in games:
        evaluator = Evaluator(game)
        for text in LP_SPECS:
            for own in (True, False):
                _built_table(uniform(game, text), game, evaluator, own)
        k = sum(game.sizes)
        patterns = iteration.lattice_patterns(k)
        ones = (1 << (1 << k)) - 1
        for (family, player, s), stored in list(evaluator.certificates.items()):
            shift = game.shifts[player]
            full = (1 << game.sizes[player]) - 1
            for scope in SCOPES:
                _, _, pools, in_y = properties._component(
                    evaluator, family, scope, player, patterns, False
                )
                for passes, certificates in enumerate(stored):
                    for masks in certificates:
                        alone = ([], [masks]) if passes else ([masks], [])
                        want = 0
                        for index in range(1 << k):
                            pool = full if scope == "g" else index >> shift & full
                            opponents = index & ~(full << shift)
                            ys = properties._context(evaluator, player, opponents)[0]
                            verdict = settled(alone, pool, sum(1 << y for y in ys))
                            assert verdict in (None, passes), (game.name, family, player, s)
                            want |= (verdict is not None) << index
                        got = properties._certificate_slice(masks, passes, pools, in_y, ones)
                        assert got == want, (game.name, family, scope, player, s, masks)
                        kinds.add((game.num_players, passes))
    assert kinds == {(2, False), (2, True), (3, False), (3, True)}


def test_a_certificate_slice_that_misses_its_own_index_is_internal(monkeypatch, capsys):
    # a table and a query clear each solved index by its certificate's
    # slice: a slice that misses the index it was solved at would leave it
    # open for ever, so it is an internal error at the first LP, and the
    # certificate, which proves nothing there, is not stored.  B of mix
    # loses only to a mixture of T and M, so msd leaves it open on the full
    # game, for the query and for `eliminate`'s first step.  Each Evaluator
    # first stores br:corr's certificates, which must be kept as they are
    msd = parse_property_spec("msd:l")
    top = Restriction(MIX, (0b111, 0b11))

    def evaluator_with_certificates():
        evaluator = Evaluator(MIX)
        passing_mask(parse_property_spec("br:l:corr"), MIX, 0, top, 0b111, evaluator)
        assert evaluator.certificates
        return evaluator, copy.deepcopy(evaluator.certificates)

    tabled, tabled_before = evaluator_with_certificates()
    queried, queried_before = evaluator_with_certificates()
    monkeypatch.setattr(properties, "_certificate_slice", lambda *a: 0)
    with pytest.raises(InternalError, match="misses the index it settles"):
        _built_table(uniform(MIX, "msd:l"), MIX, tabled, True)
    assert tabled.certificates == tabled_before
    with pytest.raises(InternalError, match="player 1's B on .* misses the index it settles"):
        passing_mask(msd, MIX, 0, top, 0b100, queried)
    assert queried.certificates == queried_before
    assert main(["eliminate", "--prop", "msd:l", str(FIXTURE_DIR / "mix.game")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: msd: the certificate") and "misses the index" in err


def test_an_empty_opponent_component_decides_br_corr_without_a_belief_search(monkeypatch):
    # no belief lives on an empty set of opponent profiles, so every strategy
    # fails there, as the search itself answers
    game = _random_game(random.Random(24), (2, 2, 2))
    contexts = [
        (g, i)
        for g in all_restrictions(game)
        for i in game.players()
        if not all(m for j, m in enumerate(g.masks) if j != i)
    ]
    assert len(contexts) == 84
    for g, i in contexts:
        pool = mask_members(g.masks[i])
        assert all(
            dominance.exists_supporting_belief(game, g, pool, i, s, "corr") is None
            for s in game.strategies(i)
        )
    real = dominance.exists_supporting_belief
    searches = []
    monkeypatch.setattr(
        dominance, "exists_supporting_belief", lambda *a: searches.append(a) or real(*a)
    )
    for text in ("br:l:corr", "br:g:corr"):
        spec = parse_property_spec(text)
        evaluator = Evaluator(game)
        for g, i in contexts:
            assert passing_mask(spec, game, i, g, 0b11, evaluator) == 0
    assert searches == []


def test_opponent_profiles_are_the_row_major_numbers_of_the_context():
    # a pure pre-check reads beaters[s][y] at these numbers, so they must be the
    # row-major indices of the restriction's opponent profiles, ascending
    for game in _precheck_games()[-2:]:
        for g in all_restrictions(game):
            for i in game.players():
                sizes = [k for j, k in enumerate(game.sizes) if j != i]
                want = []
                for y in g.opponent_profiles(i):
                    number = 0
                    for k, s in zip(sizes, y):
                        number = number * k + s
                    want.append(number)
                full = (1 << game.sizes[i]) - 1
                opponents = g.index & ~(full << game.shifts[i])
                ys, _ = properties._context(Evaluator(game), i, opponents)
                assert ys == want, (g.names(), i)


def test_opponent_profiles_are_keyed_by_the_player():
    # In a 2x3x2 game the restriction (m, m, m) gives players 1 and 3 the
    # same opponent masks (m, m), over strategy sets of sizes 3, 2 and 2, 3:
    # for m = 2 or 3 their opponent profiles are different index masks, so a
    # cache keyed by the opponent masks alone hands one player the other's.
    game = _precheck_games()[-1]
    assert game.sizes == (2, 3, 2)
    for m in (2, 3):
        g = Restriction(game, (m, m, m))
        for order in itertools.permutations(game.players()):
            evaluator = Evaluator(game)
            for text in ("sd:l", "sd:g", "br:l:pure", "br:g:pure"):
                spec = parse_property_spec(text)
                for i in order:
                    full = (1 << game.sizes[i]) - 1
                    assert passing_mask(spec, game, i, g, full, evaluator) == _pure_oracle_mask(
                        spec, game, i, g
                    ), (m, order, text, i)


def _assert_tables_match_the_oracle(game):
    evaluator = Evaluator(game)
    for i in game.players():
        tables = properties._comparisons(game, i)
        assert tables == (evaluator.payoffs[i], evaluator.beaters[i]), (game.name, i)
        assert tables == comparison_tables(game, i), (game.name, i)


@pytest.mark.parametrize(
    "game",
    [
        *(parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))),
        *fixtures.random_games(3434, 12, 6, 6),
        *(_random_game(random.Random(seed), sizes)
          for seed, sizes in ((1, (2, 2, 2)), (2, (2, 2, 2)), (3, (3, 3, 3)), (4, (3, 3, 3)))),
    ],
    ids=lambda g: g.name,
)
def test_integer_tables_match_the_cell_by_cell_oracle(game):
    _assert_tables_match_the_oracle(game)


@st.composite
def tied_games(draw):
    """A game whose payoffs are drawn from a pool of at most three rationals
    in [-3, 3] with denominators up to 4, so most columns hold ties."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    pool = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=3
    ))
    payoffs = tuple(
        tuple(draw(st.sampled_from(pool)) for _ in sizes) for _ in range(math.prod(sizes))
    )
    names = tuple(tuple(f"s{s}" for s in range(k)) for k in sizes)
    return Game("tied", names, payoffs)


@given(game=tied_games())
@settings(max_examples=300, deadline=None)
def test_integer_tables_match_the_oracle_on_tied_rational_games(game):
    _assert_tables_match_the_oracle(game)


def test_passing_mask_refuses_a_player_or_mask_the_game_lacks():
    spec = parse_property_spec("sd:g")
    top = restriction_top(PD)
    assert passing_mask(spec, PD, 0, top, 3) == 2
    for player, candidates in ((2, 1), (-1, 1), (0, 4), (0, -1)):
        with pytest.raises(ValueError):
            passing_mask(spec, PD, player, top, candidates)
    with pytest.raises(ShapeError):
        passing_mask(spec, PD, 0, restriction_top(MP), 3)


def test_global_and_local_specs_share_verdicts_on_the_full_pool(monkeypatch):
    solves = _counted_lps(monkeypatch)
    evaluator = Evaluator(MIX)
    top = restriction_top(MIX)
    for i in MIX.players():
        for s in MIX.strategies(i):
            passing_mask(parse_property_spec("br:g:corr"), MIX, i, top, 1 << s, evaluator)
    stores, made = _stores(evaluator), len(solves)
    assert stores and made
    for i in MIX.players():
        for s in MIX.strategies(i):
            passing_mask(parse_property_spec("br:l:corr"), MIX, i, top, 1 << s, evaluator)
    assert _stores(evaluator) == stores and len(solves) == made


@pytest.mark.parametrize("masks", [(3, 3, 3), (3, 0, 3), (3, 3, 0), (0, 0, 0)])
def test_independent_beliefs_rejected_for_three_players_on_every_context(masks):
    # the rejection holds on contexts with an empty opponent component too,
    # where no belief exists at all
    g = Restriction(fixtures.THREE, masks)
    with pytest.raises(UnsupportedBeliefError):
        passing_mask(parse_property_spec("br:l:ind"), fixtures.THREE, 0, g, 1)


def test_passing_mask_rejects_a_restriction_of_another_game():
    spec = parse_property_spec("sd:g")
    evaluator = Evaluator(PD)
    passing_mask(spec, PD, 0, restriction_top(PD), 1, evaluator)
    # MP's top has PD's masks, so a cache lookup alone would answer
    with pytest.raises(ShapeError):
        passing_mask(spec, PD, 0, restriction_top(MP), 1, evaluator)
    with pytest.raises(ShapeError):
        apply_operator(uniform(PD, "sd:g"), PD, restriction_top(MP))
    # with every component empty no property is evaluated at all
    with pytest.raises(ShapeError):
        apply_operator(uniform(PD, "sd:g"), PD, Restriction(MP, (0, 0)))


@pytest.mark.parametrize("text", ALL_SPECS)
def test_passing_mask_refuses_a_player_or_strategy_before_caching(text):
    # with player 1's component empty no dominance check runs, so only the
    # up-front check can refuse player 1's strategy 7 or a negative mask
    spec = parse_property_spec(text)
    evaluator = Evaluator(PD)
    g = Restriction(PD, (0, 3))
    for player, candidates in ((0, 1 << 7), (0, -1), (2, 1), (-1, 1)):
        with pytest.raises(ValueError):
            passing_mask(spec, PD, player, g, candidates, evaluator)
    assert not evaluator.contexts and not evaluator.certificates


def _normal_forms(profile, game):
    """Per restriction, in ascending mask order: the normal forms reachable by
    removing any non-empty subset of its failing strategies, step after step;
    a restriction where nothing fails is its own normal form."""
    evaluator = Evaluator(game)
    forms = {}
    for g in all_restrictions(game):
        image = apply_operator(profile, game, g, evaluator).masks
        failing = [m & ~k for m, k in zip(g.masks, image)]
        if not any(failing):
            forms[g.masks] = {g.masks}
            continue
        reached = set()
        for removed in itertools.product(
            *([d for d in range(f + 1) if d & ~f == 0] for f in failing)
        ):
            if any(removed):
                reached |= forms[tuple(m & ~d for m, d in zip(g.masks, removed))]
        forms[g.masks] = reached
    return forms


def _order_games():
    rng = random.Random(41)
    return [PD, MP, MIX, CHAIN, fixtures.THREE] + [
        fixtures.random_game(rng, rng.randint(2, 4), rng.randint(2, 4), bound=2)
        for _ in range(60)
    ]


@pytest.mark.parametrize("text", ALL_SPECS)
def test_elimination_order_does_not_matter(text):
    # order independence of iterated elimination (Gilboa, Kalai and Zemel
    # 1990; Apt 2004), checked exhaustively: every way of removing failing
    # strategies, some or all at each step, ends at the outcome
    for k, game in enumerate(_order_games()):
        profile = uniform(game, text)
        forms = _normal_forms(profile, game)
        top = restriction_top(game).masks
        assert forms[top] == {outcome(profile, game).outcome.masks}, (k, game.name)


def test_two_player_ind_and_corr_agree_and_share_verdicts(monkeypatch):
    solves = _counted_lps(monkeypatch)
    fixture_games = [
        parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))
    ]
    games = [g for g in fixture_games if g.num_players == 2]
    games += fixtures.random_games(4040, 6, 3, 3)
    for game in games:
        shared = Evaluator(game)
        ind_only = Evaluator(game)
        for scope in SCOPES:
            ind = parse_property_spec(f"br:{scope}:ind")
            corr = parse_property_spec(f"br:{scope}:corr")
            for g in all_restrictions(game):
                for i in game.players():
                    for s in game.strategies(i):
                        verdict = passing_mask(corr, game, i, g, 1 << s, shared)
                        assert passing_mask(ind, game, i, g, 1 << s, ind_only) == verdict, (
                            game.name, scope, g.names(), i, s,
                        )
                        stores, made = _stores(shared), len(solves)
                        assert passing_mask(ind, game, i, g, 1 << s, shared) == verdict
                        assert _stores(shared) == stores and len(solves) == made


def _pearce_reference(game):
    """The suite's report fields from pearce_equivalence_check on every
    restriction, with its disagreeing entries per mismatching restriction."""
    checked = 0
    mismatches = []
    for g in all_restrictions(game):
        checked += 1
        rep = dominance.pearce_equivalence_check(game, g)
        if not rep.passed:
            mismatches.append(
                {
                    "restriction": g.names(),
                    "entries": [e for e in rep.entries if not e["agree"]],
                }
            )
    return checked, mismatches


def test_pearce_suite_matches_the_check_on_every_restriction():
    rng = random.Random(5151)
    games = (
        [parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))]
        + fixtures.random_games(5150, 6, 4, 4)
        + [fixtures.random_game(rng, 4, 4)]
        + [_random_game(rng, (2, 2, 2)) for _ in range(2)]
    )
    for game in games:
        checked, mismatches = _pearce_reference(game)
        rep = pearce_equivalence_suite(game)
        assert rep.passed == (not mismatches), game.name
        assert rep.details["restrictions_checked"] == checked
        assert rep.details["mismatching_restrictions"] == len(mismatches)
        assert rep.entries == mismatches


def test_pearce_suite_reports_the_checks_entries_on_a_disagreement(monkeypatch):
    # no mixture ever dominates: B of mix, dominated only by a mixture of T
    # and M, is then eliminated under br:l:corr but kept under msd:l.  The
    # suite's msd side passes every candidate its LP would decide, with a
    # point-mass belief on the lowest profile, since an answer with no
    # certificate is an internal error there; the check's own msd procedure
    # finds no witness either
    solved = properties._solved

    def passing_msd(ev, family, index, player, pool, s):
        if family == "msd":
            # with two players the profiles are the opponent's strategies
            profiles = index >> MIX.shifts[1 - player] & (1 << MIX.sizes[1 - player]) - 1
            return True, (profiles & -profiles, 0)
        return solved(ev, family, index, player, pool, s)

    monkeypatch.setattr(properties, "_solved", passing_msd)
    monkeypatch.setattr(dominance, "mixed_dominance_witness", lambda *args, **kwargs: None)
    rep = pearce_equivalence_suite(MIX)
    assert not rep.passed
    assert rep.details["mismatching_restrictions"] == len(rep.entries) > 0
    _, reference = _pearce_reference(MIX)
    expected = {tuple(map(tuple, m["restriction"])): m["entries"] for m in reference}
    for mismatch in rep.entries:
        entries = expected[tuple(map(tuple, mismatch["restriction"]))]
        assert mismatch["entries"] == entries
        assert entries


def test_pearce_suite_lp_count_on_mix(monkeypatch):
    """Each image is decided once, through the verdict cache, the pure
    pre-checks both families share and each family's stored certificates:
    running pearce_equivalence_check on every restriction of mix solves 105
    LPs, so this pin would catch the loss of any of them."""
    solve = lp.simplex_maximize
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "simplex_maximize", counting)
    rep = pearce_equivalence_suite(parse_game_file(FIXTURE_DIR / "mix.game"))
    assert rep.passed
    assert len(calls) == 2


LP_SPECS = ["msd:l", "msd:g", "br:l:corr", "br:g:corr"]


def _certificate_games():
    """The fixtures, six seeded 2-player games up to 4x4, then a 2x2x2 and a
    2x3x2 game."""
    rng = random.Random(2121)
    return (
        [parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))]
        + fixtures.random_games(2120, 6, 4, 4)
        + [_random_game(rng, sizes) for sizes in ((2, 2, 2), (2, 3, 2))]
    )


def _walks(game):
    """Every restriction in ascending, descending and shuffled lattice order."""
    ascending = list(all_restrictions(game))
    shuffled = ascending[:]
    random.Random(len(ascending)).shuffle(shuffled)
    return [ascending, ascending[::-1], shuffled]


def test_certificate_verdicts_are_the_direct_calls(monkeypatch):
    """Every passing mask of an LP spec, asked first for the component's own
    strategies and then for all of T_i, on every restriction in three walk
    orders through one Evaluator per walk, equals the dominance procedure
    called directly for each candidate; stored certificates settle both
    passes and fails along the way."""
    real_slice, real_solved = properties._certificate_slice, properties._solved
    settles, solving = [], []

    def cleared(masks, passes, *args):
        # what a stored certificate settles; the slice of a certificate
        # `_solved` has just returned is taken right after it
        got = real_slice(masks, passes, *args)
        if solving:
            solving.pop()
        elif got:
            settles.append(passes)
        return got

    monkeypatch.setattr(properties, "_certificate_slice", cleared)
    monkeypatch.setattr(properties, "_solved", lambda *a: solving.append(a) or real_solved(*a))
    specs = [parse_property_spec(text) for text in LP_SPECS]
    checked = 0
    for game in _certificate_games():
        direct = {}
        for walk in _walks(game):
            evaluator = Evaluator(game)
            for g in walk:
                for spec in specs:
                    for i in game.players():
                        for candidates in (g.masks[i], (1 << game.sizes[i]) - 1):
                            got = passing_mask(spec, game, i, g, candidates, evaluator)
                            want = 0
                            for s in mask_members(candidates):
                                key = (str(spec), g.index, i, s)
                                if key not in direct:
                                    direct[key] = _lp_only_verdict(spec, game, i, s, g)
                                want |= direct[key] << s
                            assert got == want, (game.name, str(spec), g.names(), i)
                            checked += 1
    assert checked > 30000
    assert settles.count(True) > 0 and settles.count(False) > 0


def _lying_on_one_context(monkeypatch, index, player, strategy):
    """Make mixed_dominance_witness flip its verdict on one strategy of one
    restriction, handing back a pure mixture as a false witness."""
    real = dominance.mixed_dominance_witness

    def liar(game, context, who, pool, dominated, **kwargs):
        witness = real(game, context, who, pool, dominated, **kwargs)
        if (context.index, who, dominated) == (index, player, strategy):
            return None if witness is not None else dominance.distribution({pool[0]: 1})
        return witness

    monkeypatch.setattr(dominance, "mixed_dominance_witness", liar)


def test_a_false_witness_fails_its_own_context(monkeypatch):
    # On each walk, the first msd call that solves an LP and answers None
    # is made to hand back a pure mixture instead: the pure pre-check left
    # that candidate open, so no pure strategy of the pool beats it
    # everywhere, and the mixture does not prove the failure it claims.  A
    # call on an empty pool answers without an LP, so the liar is aimed at
    # a call that solved one, which every walk on CHAIN makes
    msd = parse_property_spec("msd:l")
    for walk in _walks(CHAIN):

        def run():
            evaluator = Evaluator(CHAIN)
            for g in walk:
                for i in CHAIN.players():
                    passing_mask(msd, CHAIN, i, g, g.masks[i], evaluator)

        real = dominance.mixed_dominance_witness
        simplex = lp.simplex_maximize
        solves = []
        passes = []

        def recording(game, context, who, pool, dominated, **kwargs):
            before = len(solves)
            witness = real(game, context, who, pool, dominated, **kwargs)
            if witness is None and len(solves) > before:
                passes.append((context.index, who, dominated))
            return witness

        monkeypatch.setattr(lp, "simplex_maximize", lambda *a: solves.append(a) or simplex(*a))
        monkeypatch.setattr(dominance, "mixed_dominance_witness", recording)
        run()
        monkeypatch.undo()
        _lying_on_one_context(monkeypatch, *passes[0])
        with pytest.raises(InternalError, match="failed re-validation"):
            run()
        monkeypatch.undo()


def test_a_false_witness_exits_internal_from_check_pearce(monkeypatch, capsys):
    # restriction 62 of chain keeps T, M, B for player 1 and C, R for player
    # 2; check pearce asks msd for M there, which solves its LP and passes
    _lying_on_one_context(monkeypatch, 62, 0, 1)
    assert main(["check", "pearce", str(FIXTURE_DIR / "chain.game")]) == EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: msd: the certificate") and "re-validation" in err
    assert "Traceback" not in err


def _lp_family_results(game, monkeypatch):
    """The reports, image tables and stored certificates of
    verify_theorem_just1 and pearce_equivalence_suite on `game`, then the
    msd:l verdicts and certificates of one descending walk, which reaches a
    lone pool before any smaller context has stored a belief for it."""
    tables, evaluators = [], []
    real_table, real_evaluator = properties.image_table, properties.Evaluator
    monkeypatch.setattr(
        properties, "image_table", lambda *a: tables.append(real_table(*a)) or tables[-1]
    )
    monkeypatch.setattr(
        properties, "Evaluator", lambda g: evaluators.append(real_evaluator(g)) or evaluators[-1]
    )
    reports = [verify_theorem_just1(game).to_json(), pearce_equivalence_suite(game).to_json()]
    msd = parse_property_spec("msd:l")
    walker = real_evaluator(game)
    walk = [
        passing_mask(msd, game, i, g, candidates, walker)
        for g in reversed(list(all_restrictions(game)))
        for i in game.players()
        for candidates in (g.masks[i], (1 << game.sizes[i]) - 1)
    ]
    return reports, tables, walk, [e.certificates for e in evaluators + [walker]]


@pytest.mark.parametrize(
    "game", _precheck_games()[:5] + _table_games(), ids=lambda game: game.name
)
def test_a_lone_pool_candidate_stores_what_its_procedure_would(game, monkeypatch):
    # An msd candidate alone in its pool, with profiles to believe in, is a
    # pure best response there, so the pre-check stores it passing with no
    # LP and no certificate.  The stand-in hands each such candidate to
    # mixed_dominance_witness, which must find no mixture, and to br:corr's
    # _solved on a separate Evaluator, which must pass it with a checked
    # belief, before the real _passing runs; the run must store exactly
    # what it stores without the stand-in
    shortcut = _lp_family_results(game, monkeypatch)
    monkeypatch.undo()
    real_passing, real_evaluator = properties._passing, properties.Evaluator
    probe = real_evaluator(game)
    calls = []

    def routed(evaluator, family, scope, player, index, candidates):
        shift = game.shifts[player]
        full = (1 << game.sizes[player]) - 1
        pool = full if scope == "g" else index >> shift & full
        ys = properties._context(probe, player, index & ~(full << shift))[0]
        for s in mask_members(candidates) if family == "msd" and ys else ():
            if not pool & ~(1 << s):
                calls.append(s)
                g, members = restriction_at(game, index), mask_members(pool)
                assert dominance.mixed_dominance_witness(game, g, player, members, s) is None
                probe.certificates.setdefault(("br:corr", player, s), ([], []))
                passes, masks = properties._solved(probe, "br:corr", index, player, pool, s)
                assert passes and settled(([], [masks]), pool, sum(1 << y for y in ys))
        return real_passing(evaluator, family, scope, player, index, candidates)

    monkeypatch.setattr(properties, "_passing", routed)
    assert _lp_family_results(game, monkeypatch) == shortcut
    assert calls


def test_the_pure_decided_side_reaches_no_procedure(monkeypatch):
    # Every candidate an msd or br:corr query hands to its procedure is one
    # neither pure test decides: it has opponent profiles and a pool of at
    # least two strategies, sd passes it and br:pure fails it.  With no
    # opponent profiles the entry decides every strategy, msd as sd and
    # br:corr failing all, so no procedure sees the bottom restriction or
    # the 3-player games' contexts with one opponent component empty.  A
    # fresh Evaluator per restriction keeps stored certificates from
    # settling a candidate before its procedure sees it.
    msd, belief = dominance.mixed_dominance_witness, dominance.exists_supporting_belief
    reached = []

    def dominating(game, g, i, pool, s, **kwargs):
        reached.append(("msd", game, g, i, pool, s))
        return msd(game, g, i, pool, s, **kwargs)

    def believing(game, g, pool, i, s, kind, **kwargs):
        reached.append(("br:corr", game, g, i, pool, s))
        return belief(game, g, pool, i, s, kind, **kwargs)

    monkeypatch.setattr(dominance, "mixed_dominance_witness", dominating)
    monkeypatch.setattr(dominance, "exists_supporting_belief", believing)
    specs = [parse_property_spec(text) for text in LP_SPECS]
    games = _precheck_games()
    for game in games:
        for g in all_restrictions(game):
            evaluator = Evaluator(game)
            for spec in specs:
                for i in game.players():
                    passing_mask(spec, game, i, g, (1 << game.sizes[i]) - 1, evaluator)
    for family, game, g, i, pool, s in reached:
        where = (family, game.name, g.names(), i, s)
        assert all(g.masks[j] for j in game.players() if j != i) and len(pool) >= 2, where
        assert not any(dominance.strictly_dominates_pure(game, g, i, t, s) for t in pool)
        assert belief(game, g, pool, i, s, "pure") is None
    assert {game.num_players for game in games} == {2, 3}
    assert {family for family, *_ in reached} == {"msd", "br:corr"}


def test_just1_lists_each_opponent_context_once(monkeypatch):
    # a 4x4 game has 16 opponent masks per player: `_context` builds a
    # context's profiles once, whatever pools and families ask it
    game = fixtures.random_game(random.Random(2929), 4, 4)
    built = []

    class Recording(dict):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    real = properties.Evaluator

    def evaluator(g):
        made = real(g)
        made.contexts = Recording()
        return made

    monkeypatch.setattr(properties, "Evaluator", evaluator)
    verify_theorem_just1(game)
    assert game.sizes == (4, 4)
    assert built and len(built) == len(set(built)) <= 2 * 16


def test_pure_tables_store_nothing_and_pure_queries_settle_nothing(monkeypatch):
    # sd and br:pure image and monotonicity tables, on the full pool and
    # every other, come from bit-slices and store no context or
    # certificate; per-restriction queries read contexts, and the pure
    # pre-checks decide every strategy of their player, so none is settled
    reached = []
    monkeypatch.setattr(properties, "_certificate_slice", lambda *a: reached.append(a))
    monkeypatch.setattr(properties, "_solved", lambda *a: reached.append(a) or (False, None))
    for game in (MIX, CHAIN, fixtures.THREE):
        evaluator = Evaluator(game)
        for text in ("sd:l", "sd:g", "br:l:pure", "br:g:pure"):
            profile = uniform(game, text)
            image_table(property_operator(profile, game, evaluator), game, DEFAULT_LATTICE_BUDGET)
            check_property_monotone(parse_property_spec(text), game, evaluator=evaluator)
        assert not evaluator.contexts and not evaluator.certificates
        for text in ("sd:l", "sd:g", "br:l:pure", "br:g:pure"):
            outcome(uniform(game, text), game, evaluator=evaluator)
        assert evaluator.contexts and not reached
        assert not evaluator.certificates


def test_a_second_pass_over_the_lp_tables_decides_nothing_again(monkeypatch):
    # every image table and monotonicity table of the LP families, built
    # twice through one Evaluator: the second pass settles every open
    # strategy from a stored certificate, so it calls no procedure and
    # changes no certificate store
    games = [parse_game_file(path) for path in sorted(FIXTURE_DIR.glob("*.game"))]
    games += fixtures.random_games(3030, 6, 3, 3)
    calls = []
    for module, name in (
        (lp, "simplex_maximize"),
        (dominance, "mixed_dominance_witness"),
        (dominance, "exists_supporting_belief"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        )
    for game in games:
        evaluator = Evaluator(game)
        texts = LP_SPECS + ["br:l:ind"] * (game.num_players == 2)

        def tables():
            return [
                result
                for text in texts
                for result in (
                    image_table(
                        property_operator(uniform(game, text), game, evaluator),
                        game,
                        DEFAULT_LATTICE_BUDGET,
                    ),
                    check_property_monotone(
                        parse_property_spec(text), game, evaluator=evaluator
                    ).to_json(),
                )
            ]

        first = tables()
        stores = _stores(evaluator)
        made = len(calls)
        assert tables() == first
        assert len(calls) == made, (game.name, calls[made:])
        assert _stores(evaluator) == stores
    assert calls


def _differential_games():
    """MIX, CHAIN and THREE, three seeded 2-player games up to 4x4, a 5x4
    game, 2x2x2, 3x3x2, 2x3x3 and 3x1x2 games, and a 3x2x2x2 game."""
    sized = ((5, (5, 4)), (1, (2, 2, 2)), (1, (3, 3, 2)), (2, (2, 3, 3)), (3, (3, 1, 2)))
    return [MIX, CHAIN, fixtures.THREE, *fixtures.random_games(4444, 3, 4, 4)] + [
        _random_game(random.Random(seed), sizes) for seed, sizes in sized + ((2, (3, 2, 2, 2)),)
    ]


def _lp_run(game, evaluator, seed):
    """Every kind of LP-family call, in one sequence through `evaluator`:
    a `msd:g` and a `br:g:corr` CK/CB walk, one `passing_mask` query per
    restriction, LP spec and player with seeded candidates, in a seeded
    order, every LP spec's image table, monotonicity report and outcome,
    then the queries again in another order.  Returns every result."""
    texts = LP_SPECS + ["br:l:ind", "br:g:ind"] * (game.num_players == 2)
    specs = [parse_property_spec(text) for text in texts]
    rng = random.Random(seed)
    restrictions = list(all_restrictions(game))

    def queries():
        rng.shuffle(restrictions)
        return [
            passing_mask(spec, game, i, g, rng.randrange(1 << game.sizes[i]), evaluator)
            for g in restrictions
            for spec in specs
            for i in game.players()
        ]

    results = [
        epistemic.enumerate_ck_cb(
            game, max(game.sizes), uniform(game, text), budget=None, evaluator=evaluator
        )
        for text in ("msd:g", "br:g:corr")
    ]
    results.append(queries())
    for text in texts:
        profile = uniform(game, text)
        op = property_operator(profile, game, evaluator)
        results.append(image_table(op, game, DEFAULT_LATTICE_BUDGET))
        results.append(check_property_monotone(specs[texts.index(text)], game, evaluator=evaluator))
        results.append(outcome(profile, game, evaluator=evaluator))
    results.append(queries())
    return results


def _wide_fraction_game(rng, sizes):
    """A game whose payoffs are fractions over odd 60-digit denominators."""
    names = tuple(tuple(f"s{s}" for s in range(k)) for k in sizes)
    payoffs = []
    for _ in range(math.prod(sizes)):
        dens = [rng.randrange(10**59 + 1, 10**60, 2) for _ in sizes]
        payoffs.append(tuple(Fraction(rng.randint(-6 * d, 6 * d), d) for d in dens))
    return Game(f"wide{'x'.join(map(str, sizes))}", names, tuple(payoffs))


def test_every_lp_answer_is_the_fraction_paths(monkeypatch):
    # `_solved` has its procedure build the LP's rows from the payoffs as
    # ints over the LP's own scale and re-check its certificate in ints:
    # every call, on integer games and on rational ones over small and
    # 60-digit denominators, must return the verdict and certificate masks
    # that the Fraction rows and Fraction re-check give
    real = properties._solved
    answers = []

    def compared(evaluator, family, index, player, pool, s):
        got = real(evaluator, family, index, player, pool, s)
        assert got == fraction_solved(evaluator, family, index, player, pool, s)
        answers.append((evaluator.game.name, family, got[0]))
        return got

    monkeypatch.setattr(properties, "_solved", compared)
    games = [MIX, *fixtures.random_games(53, 4, 4, 4)] + [
        make(random.Random(seed), sizes)
        for make in (_random_game, _fraction_game, _wide_fraction_game)
        for seed, sizes in ((1, (3, 3)), (2, (4, 3)), (3, (2, 2, 2)), (4, (3, 3, 2)), (5, (3, 2, 3)))
    ]
    for seed, game in enumerate(games):
        _lp_run(game, Evaluator(game), seed)
        verify_theorem_just1(game)
        pearce_equivalence_suite(game)
    # both verdicts of both families on integer, small-denominator and
    # 60-digit games, and LPs on a 3-player game of each kind
    for kind in ("rand", "frac", "wide"):
        assert {(family, passes) for name, family, passes in answers if name.startswith(kind)} == {
            (family, passes) for family in ("msd", "br:corr") for passes in (False, True)
        }, kind
    assert {name[:4] for name, _, _ in answers if name.count("x") == 2} == {"rand", "frac", "wide"}


def _recorded_solves(monkeypatch, key):
    """Per Evaluator, the `key(family, player, index, pool, s, verdict)` of
    each `_solved` call made from now on, in order."""
    solves = {}
    real = properties._solved

    def recording(evaluator, family, index, player, pool, s):
        verdict = real(evaluator, family, index, player, pool, s)
        solves.setdefault(evaluator, []).append(key(family, player, index, pool, s, verdict))
        return verdict

    monkeypatch.setattr(properties, "_solved", recording)
    return solves


def test_certificates_alone_give_the_verdict_stores_verdicts_and_lps(monkeypatch):
    # The same sequence of calls through an Evaluator and through one whose
    # queries and tables keep a verdict store (`oracles.VerdictStore`, routed
    # by the Evaluator it belongs to): every result, every `_solved` call
    # with its arguments and verdict, each (family, player, strategy)'s in
    # order, and every certificate store must be the same, on 2-, 3- and
    # 4-player games, whose contexts include ones with an empty opponent
    # component
    solves = _recorded_solves(
        monkeypatch, lambda family, player, index, pool, s, verdict: (
            family, player, index, s, pool, verdict
        )
    )
    stores = {}
    real_passing, real_table = properties._passing, properties._property_table

    def passing(evaluator, *args):
        store = stores.get(evaluator)
        return real_passing(evaluator, *args) if store is None else store.passing(*args)

    def table(profile, game, evaluator, max_restrictions, own):
        store = stores.get(evaluator)
        if store is None:
            return real_table(profile, game, evaluator, max_restrictions, own)
        return store.table(profile, game, max_restrictions, own)

    monkeypatch.setattr(properties, "_passing", passing)
    monkeypatch.setattr(epistemic, "_passing", passing)
    monkeypatch.setattr(properties, "_property_table", table)
    solving = set()
    for seed, game in enumerate(_differential_games()):
        new, old = Evaluator(game), Evaluator(game)
        stores[old] = VerdictStore(old)
        assert _lp_run(game, new, seed) == _lp_run(game, old, seed), game.name
        assert _per_strategy(solves.get(new, [])) == _per_strategy(solves.get(old, [])), game.name
        assert _stores(new) == _stores(old), game.name
        assert stores[old].verdicts, game.name
        if new in solves:
            solving.add(game.num_players)
    assert solving == {2, 3, 4}


def test_no_lp_query_reaches_its_lp_twice_in_one_run(monkeypatch):
    # `_solved` stores a certificate that settles the very (pool, profiles)
    # it was solved on, and the stores only grow, so across one Evaluator's
    # whole run no (family, player, pool, profiles, strategy) is solved
    # twice: every kind of call in one sequence, then just1 and pearce.  An
    # LP runs only where the profiles are non-empty, and there the index's
    # opponent bits, the player's own bits cleared, name them
    solves = _recorded_solves(
        monkeypatch, lambda family, player, index, pool, s, verdict: (
            family, player, pool, index, s
        )
    )
    for seed, game in enumerate(_differential_games()):
        _lp_run(game, Evaluator(game), seed)
        verify_theorem_just1(game)
        pearce_equivalence_suite(game)
    assert sum(map(len, solves.values())) > 100
    for evaluator, calls in solves.items():
        sizes, shifts = evaluator.game.sizes, evaluator.game.shifts
        keys = [
            (family, player, pool, index & ~((1 << sizes[player]) - 1 << shifts[player]), s)
            for family, player, pool, index, s in calls
        ]
        assert len(keys) == len(set(keys))


def test_monotone_msd_lp_count_on_mix(monkeypatch):
    """check monotone solves one LP per candidate its pure pre-checks and
    stored certificates leave open, on every restriction of mix."""
    solve = lp.simplex_maximize
    calls = []
    monkeypatch.setattr(lp, "simplex_maximize", lambda *a: calls.append(1) or solve(*a))
    assert main(["check", "monotone", "--prop", "msd:g", str(FIXTURE_DIR / "mix.game")]) == 0
    assert len(calls) == 1


def test_lattice_verifier_reports_are_pinned():
    # the golden sweep runs the verifiers on the five fixtures only: these are
    # the bytes of their reports on seeded 2-player and 2x2x2 games, where
    # the local specs fail, so violation entries are built from the tables
    rng = random.Random(1717)
    games = fixtures.random_games(1717, 8, 4, 4) + [
        _random_game(rng, (2, 2, 2)) for _ in range(3)
    ]
    digest = hashlib.sha256()
    failing = 0
    for game in games:
        reports = [
            verify_theorem_just(game),
            verify_theorem_just1(game),
            pearce_equivalence_suite(game),
        ]
        for text in ("sd:l", "sd:g", "br:l:pure", "br:g:pure", "msd:l"):
            reports.append(check_property_monotone(parse_property_spec(text), game))
            reports.append(verify_tarski(property_operator(uniform(game, text), game), game, text))
        for text1, text2 in (("br:g:pure", "sd:l"), ("sd:l", "br:g:pure"), ("br:g:corr", "msd:l")):
            op1 = property_operator(uniform(game, text1), game)
            op2 = property_operator(uniform(game, text2), game)
            reports.append(verify_inclusion_lemma(op1, op2, game, text1, text2))
        for report in reports:
            failing += not report.passed
            digest.update(report.to_json().encode())
    assert failing > 0
    assert digest.hexdigest() == (
        "1cee5b85b1c8be7c04dd990150db0926884f2d7679620ee85dc51bbe826fa5df"
    )
