import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelattice import fixtures, iteration, properties
from gamelattice.errors import BudgetError, ShapeError
from gamelattice.games import (
    Restriction,
    all_restrictions,
    make_game,
    mask_members,
    pack_masks,
    restriction_at,
    restriction_from_names,
    restriction_top,
    unpack_index,
)
from gamelattice.iteration import (
    is_fixpoint,
    is_post_fixpoint,
    iterate_operator,
    lattice_patterns,
    non_monotone_pairs,
    table_slices,
    trace_from_json_dict,
    verify_contracting_outcome,
    verify_inclusion_lemma,
    verify_tarski,
)
from gamelattice.ordinals import Ordinal, parse_ordinal
from gamelattice.properties import (
    MAX_MONOTONE_ENTRIES,
    PropertyProfile,
    check_property_monotone,
    parse_property_spec,
    passing_mask,
    property_is_monotone,
    property_operator,
)
from gamelattice.reports import CheckReport, canonical_json, json_ready
import oracles

PD, MP, MIX, CHAIN = fixtures.PD, fixtures.MP, fixtures.MIX, fixtures.CHAIN


def op_for(game, text, evaluator=None):
    profile = PropertyProfile.uniform(parse_property_spec(text), game.num_players)
    return property_operator(profile, game, evaluator)


def test_ordinal_parse_and_format():
    assert str(parse_ordinal("3")) == "3"
    assert str(parse_ordinal("2w+5")) == "2w+5"
    assert parse_ordinal("1w+0") == Ordinal(1, 0)
    assert Ordinal(0, 4) < Ordinal(1, 0) < Ordinal(1, 1) < Ordinal(2, 0)
    for text in ("w^2", "\u0663", "\u00b2", "\u0661w+0"):
        with pytest.raises(ValueError, match="malformed ordinal"):
            parse_ordinal(text)


def test_iterate_pd_sd_local():
    trace = iterate_operator(op_for(PD, "sd:l"), PD)
    assert [r.names() for _, r in trace.steps] == [
        [["C", "D"], ["C", "D"]],
        [["D"], ["D"]],
    ]
    assert trace.closure_ordinal == Ordinal(0, 1)


def test_iterate_chain_three_rounds():
    trace = iterate_operator(op_for(CHAIN, "sd:l"), CHAIN)
    assert trace.closure_ordinal == Ordinal(0, 3)
    assert trace.outcome == restriction_from_names(CHAIN, [["T"], ["L"]])
    # round 1 removes C, round 2 removes M and B, round 3 removes R
    assert trace.steps[1][1].names() == [["T", "M", "B"], ["L", "R"]]
    assert trace.steps[2][1].names() == [["T"], ["L", "R"]]


def test_iterate_identity():
    trace = iterate_operator(lambda g: g, PD)
    assert trace.closure_ordinal == Ordinal(0, 0)
    assert trace.outcome == restriction_top(PD)


def test_iterate_budget_guard():
    top = restriction_top(PD)
    other = restriction_from_names(PD, [["C"], ["C"]])

    def flipper(g):
        return other if g == top else top

    with pytest.raises(BudgetError) as exc:
        iterate_operator(flipper, PD)
    # the default budget is 10 steps per strategy; the step past it is reported
    assert exc.value.attempted == 41


def test_fixpoint_checks():
    sdl = op_for(PD, "sd:l")
    dd = restriction_from_names(PD, [["D"], ["D"]])
    assert is_fixpoint(sdl, dd)
    assert not is_post_fixpoint(sdl, restriction_top(PD))
    empty = Restriction(PD, (0, 0))
    assert is_fixpoint(sdl, empty)


def test_trace_serialization_deterministic_and_round_trips():
    trace = iterate_operator(op_for(CHAIN, "sd:l"), CHAIN)
    one = canonical_json(trace.to_json_dict())
    two = canonical_json(
        iterate_operator(op_for(CHAIN, "sd:l"), CHAIN).to_json_dict()
    )
    assert one == two
    back = trace_from_json_dict(CHAIN, json.loads(one))
    assert back == trace


def test_tarski_sd_global_pd():
    report = verify_tarski(op_for(PD, "sd:g"), PD, "sd:g")
    assert report.passed
    assert report.details["outcome"] == [["D"], ["D"]]


def test_tarski_sd_global_chain():
    report = verify_tarski(op_for(CHAIN, "sd:g"), CHAIN, "sd:g")
    assert report.passed
    assert report.details["restrictions"] == 64


def test_tarski_non_monotonic_reports_precondition():
    report = verify_tarski(op_for(PD, "sd:l"), PD, "sd:l")
    assert not report.passed
    assert report.details["precondition_violation"] == "operator is not monotonic"
    assert report.entries[0]["kind"] == "monotonicity-violation"


def test_tarski_budget():
    with pytest.raises(BudgetError):
        verify_tarski(op_for(PD, "sd:g"), PD, max_restrictions=4)


def test_lattice_verifiers_are_bounded_by_the_lattice_budget_alone(monkeypatch):
    # 2^14 restrictions, within the lattice budget, and 3^14 comparable pairs
    game = fixtures.random_game(random.Random(7), 7, 7)

    # a monotone table is decided by its sums, with no pair listed
    def no_pairs(m):
        pytest.fail("a pair was listed on a monotone table")

    with monkeypatch.context() as patched:
        patched.setattr(iteration, "_submasks", no_pairs)
        assert verify_tarski(op_for(game, "sd:g"), game, "sd:g").passed
        inclusion = verify_inclusion_lemma(
            op_for(game, "br:g:pure"), op_for(game, "sd:l"), game, "br:g:pure", "sd:l"
        )
        assert inclusion.passed

    # a failing table is decided too, and the pair reported is the first
    # non-monotone one below the least index with a violation
    slices = iteration.image_table(op_for(game, "sd:l"), game, 1 << 14)
    counts = oracles.violations_below(oracles.transpose_slices(slices, 14))
    violating = iteration.violating_indices(slices)
    small, big, _ = next(non_monotone_pairs(game.sizes, slices, violating))
    assert big == next(idx for idx, count in enumerate(counts) if count)
    expected = {
        "smaller": restriction_at(game, small).names(),
        "larger": restriction_at(game, big).names(),
    }
    tarski = verify_tarski(op_for(game, "sd:l"), game, "sd:l")
    assert tarski.details["precondition_violation"] == "operator is not monotonic"
    assert tarski.entries[0]["kind"] == "monotonicity-violation"
    assert {key: tarski.entries[0][key] for key in expected} == expected
    inclusion = verify_inclusion_lemma(op_for(game, "sd:l"), op_for(game, "sd:g"), game)
    assert not inclusion.details["hypotheses"]["op1_monotonic"]
    assert {"kind": "op1-monotonicity-violation", **expected} in inclusion.entries


def _masks_leq(a, b):
    return all(x & ~y == 0 for x, y in zip(a, b))


def _all_masks(sizes):
    return list(itertools.product(*(range(1 << k) for k in sizes)))


def _brute_force_non_monotone_pairs(table):
    """Every comparable pair, larger keys in table order, smaller ones with
    each component descending and the first component varying fastest."""
    pairs = []
    for big in table:
        smalls = [small for small in table if _masks_leq(small, big)]
        smalls.sort(key=lambda small: small[::-1], reverse=True)
        pairs += [(small, big) for small in smalls if not _masks_leq(table[small], table[big])]
    return pairs


def _pack_table(sizes, table):
    """The images of `table`, a dict of mask tuples, as lattice indices at
    their restriction's lattice index."""
    return [pack_masks(sizes, table[g]) for g in _all_masks(sizes)]


@st.composite
def mask_tables(draw):
    """The strategy-set sizes of a small game and a dict table over every
    restriction's masks: the image of a sample monotone map (intersect with a
    cap, then add the output of every rule whose trigger lies below), with
    some entries overwritten."""
    sizes = draw(st.sampled_from(
        [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (2, 2, 2)]
    ))
    mask_tuple = st.tuples(*(st.integers(0, (1 << k) - 1) for k in sizes))
    cap = draw(mask_tuple)
    rules = draw(st.lists(st.tuples(mask_tuple, mask_tuple), max_size=4))
    table = {}
    for g in _all_masks(sizes):
        img = tuple(x & c for x, c in zip(g, cap))
        for trigger, out in rules:
            if _masks_leq(trigger, g):
                img = tuple(x | y for x, y in zip(img, out))
        table[g] = img
    keys = list(table)
    for g, img in draw(st.lists(st.tuples(st.sampled_from(keys), mask_tuple), max_size=3)):
        table[g] = img
    return sizes, table


@given(drawn=mask_tables())
@settings(max_examples=300, deadline=None)
def test_non_monotone_pairs_matches_a_scan_of_every_comparable_pair(drawn):
    sizes, table = drawn
    images = _pack_table(sizes, table)
    slices = table_slices(images, sum(sizes))
    triples = list(non_monotone_pairs(sizes, slices, iteration.violating_indices(slices)))
    unpacked = [(unpack_index(sizes, small), unpack_index(sizes, big)) for small, big, _ in triples]
    expected = _brute_force_non_monotone_pairs(table)
    assert unpacked == expected
    # each pair carries the strategies its smaller entry keeps and its larger
    # one drops; the subset sum's count per index, and the sliced count in
    # all, are the strategies the non-monotone pairs below lose
    assert [unpack_index(sizes, lost) for _, _, lost in triples] == [
        tuple(x & ~y for x, y in zip(table[small], table[big])) for small, big in expected
    ]
    lost = dict.fromkeys(table, 0)
    for small, big in expected:
        lost[big] += sum(len(mask_members(x & ~y)) for x, y in zip(table[small], table[big]))
    assert oracles.violations_below(images) == [lost[g] for g in _all_masks(sizes)]
    assert iteration.violation_count(slices) == sum(lost.values())


@given(drawn=mask_tables())
@settings(max_examples=300, deadline=None)
def test_a_table_monotone_on_its_covers_is_monotone_on_every_pair(drawn):
    # a table is monotone on every comparable pair iff it is on every cover
    # (pairs one strategy apart), and the sliced count finds no violation iff so
    sizes, table = drawn
    count = iteration.violation_count(table_slices(_pack_table(sizes, table), sum(sizes)))
    covers = [
        (small, big) for big in table for small in table
        if _masks_leq(small, big) and sum(len(mask_members(y & ~x)) for x, y in zip(small, big)) == 1
    ]
    monotone_on_covers = all(_masks_leq(table[small], table[big]) for small, big in covers)
    assert monotone_on_covers == (not _brute_force_non_monotone_pairs(table))
    assert (count == 0) == monotone_on_covers


@given(drawn=mask_tables())
@settings(max_examples=300, deadline=None)
def test_violating_indices_are_the_larger_indices_of_the_non_monotone_pairs(drawn):
    # the up-closure marks exactly the indices some non-monotone pair ends
    # at, which are the indices where the subset sum counts a violation
    sizes, table = drawn
    images = _pack_table(sizes, table)
    violating = iteration.violating_indices(table_slices(images, sum(sizes)))
    bigs = {pack_masks(sizes, big) for _, big in _brute_force_non_monotone_pairs(table)}
    assert mask_members(violating) == sorted(bigs)
    counts = oracles.violations_below(images)
    assert mask_members(violating) == [idx for idx, count in enumerate(counts) if count]


@given(drawn=mask_tables(), width=st.sampled_from([1, 2, 4]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_table_slices_invert_transpose_slices(drawn, width, data):
    # a table's own slices come back from their transpose, and so do drawn
    # slices over its lattice, as many as need lanes of `width` bytes
    sizes, table = drawn
    images = _pack_table(sizes, table)
    k = sum(sizes)
    assert oracles.transpose_slices(table_slices(images, k), k) == images
    n = data.draw(st.integers(1 if width == 1 else 4 * width + 1, 8 * width))
    slices = data.draw(st.lists(st.integers(0, (1 << (1 << k)) - 1), min_size=n, max_size=n))
    assert table_slices(oracles.transpose_slices(slices, k), n) == slices


@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_violations_below_holds_the_largest_count(k):
    # every smaller index keeps all k strategies and the top keeps none: the
    # top's count, k * (2^k - 1), is the largest any table of k strategies
    # has, in the subset sum's top field and in the sliced count's top plane
    top = (1 << k) - 1
    images = [top] * top + [0]
    assert oracles.violations_below(images) == [0] * top + [k * top]
    assert iteration.violation_count(table_slices(images, k)) == k * top


def _random_three_player_game(seed):
    rng = random.Random(seed)
    names = [("a1", "a2"), ("b1", "b2"), ("c1", "c2")]
    table = {
        joint: tuple(rng.randint(-5, 5) for _ in names)
        for joint in itertools.product(*names)
    }
    return make_game(f"rand2x2x2-{seed}", names, table)


FALLBACK_GAMES = (
    [CHAIN, fixtures.THREE]
    + [fixtures.random_game(random.Random(seed), 3, 3) for seed in (1, 2, 3)]
    + [fixtures.random_game(random.Random(seed), 4, 4) for seed in (4, 5)]
    + [_random_three_player_game(seed) for seed in (6, 7, 8)]
)


def _tuple_table(game, image_of):
    return {g.masks: image_of(g) for g in all_restrictions(game)}


def _brute_force_monotone_check(spec, game):
    """The violation count and the listed entries of check_property_monotone,
    from a scan of every comparable pair of a dict table of mask tuples."""
    full = [(1 << k) - 1 for k in game.sizes]
    table = _tuple_table(
        game, lambda g: tuple(passing_mask(spec, game, i, g, full[i]) for i in game.players())
    )
    violations, entries = 0, []
    for small, big in _brute_force_non_monotone_pairs(table):
        for i, (low, high) in enumerate(zip(table[small], table[big])):
            bad = low & ~high
            if bad:
                violations += len(mask_members(bad))
                entries.append(
                    {
                        "player": i + 1,
                        "strategies": [game.strategy_names[i][s] for s in mask_members(bad)],
                        "smaller": Restriction(game, small).names(),
                        "larger": Restriction(game, big).names(),
                    }
                )
    return violations, entries[:MAX_MONOTONE_ENTRIES]


@pytest.mark.parametrize("text", ["sd:l", "br:l:pure"])
def test_the_fallback_scan_reports_what_a_scan_of_every_pair_finds(text):
    # no benchmark job reaches the scan of every comparable pair, so the
    # monotonicity reports are checked here, on local properties that fail
    # on every one of these games
    spec = parse_property_spec(text)
    for game in FALLBACK_GAMES:
        report = check_property_monotone(spec, game)
        violations, entries = _brute_force_monotone_check(spec, game)
        assert violations > MAX_MONOTONE_ENTRIES
        assert (report.details["violations"], report.entries) == (violations, entries)

        op = op_for(game, text)
        table = _tuple_table(game, lambda g: op(g).masks)
        small, big = _brute_force_non_monotone_pairs(table)[0]
        expected = {
            "smaller": Restriction(game, small).names(),
            "larger": Restriction(game, big).names(),
        }
        tarski = verify_tarski(op, game, text)
        assert tarski.entries == [
            {
                "kind": "monotonicity-violation",
                **expected,
                "image_smaller": Restriction(game, table[small]).names(),
                "image_larger": Restriction(game, table[big]).names(),
            }
        ]
        inclusion = verify_inclusion_lemma(op, op_for(game, "sd:l"), game, text, "sd:l")
        found = [e for e in inclusion.entries if e["kind"] == "op1-monotonicity-violation"]
        assert found == [{"kind": "op1-monotonicity-violation", **expected}]


def _verdict(verify, *args):
    """The canonical JSON of a verifier's report, or the message of the
    BudgetError it raises when an operator's iteration finds no fixpoint."""
    try:
        return verify(*args).to_json()
    except BudgetError as exc:
        return str(exc)


@given(drawn=mask_tables())
@settings(max_examples=150, deadline=None)
def test_the_slice_verifiers_report_what_the_list_oracles_do_on_drawn_tables(drawn):
    # the drawn table as an operator, and its meet with the identity, which
    # contracts; each verifier's report on the slices is the list oracle's
    sizes, table = drawn
    names = [tuple(f"p{i}s{s}" for s in range(k)) for i, k in enumerate(sizes)]
    game = make_game("drawn", names, dict.fromkeys(itertools.product(*names), (0,) * len(sizes)))

    def op(g):
        return Restriction(game, table[g.masks])

    def inside(g):
        return Restriction(game, tuple(x & y for x, y in zip(g.masks, table[g.masks])))

    for one, other in ((op, inside), (inside, op), (op, op)):
        assert _verdict(verify_tarski, one, game) == (
            _verdict(oracles.list_verify_tarski, one, game)
        )
        assert _verdict(verify_inclusion_lemma, one, other, game) == _verdict(
            oracles.list_verify_inclusion_lemma, one, other, game
        )


@pytest.mark.parametrize("game", [PD, MP, MIX] + FALLBACK_GAMES, ids=lambda g: g.name)
def test_the_slice_verifiers_report_what_the_list_oracles_do_on_games(game, monkeypatch):
    # every verifier that asks its question on image-table slices, on every
    # property, against the same verifier scanning the tables as lists of
    # lattice indices: the reports' canonical JSON must be the same; the
    # chains and Pearce's suite run twice, the second time with msd:l's
    # tables mapping every restriction to the bottom element, so they fail
    evaluator = properties.Evaluator(game)
    for text in ("sd:l", "sd:g", "msd:l", "msd:g", "br:l:pure", "br:g:pure", "br:l:corr",
                 "br:g:corr"):
        spec, op = parse_property_spec(text), op_for(game, text, evaluator)
        assert verify_tarski(op, game, text).to_json() == (
            oracles.list_verify_tarski(op, game, text).to_json()
        ), text
        assert check_property_monotone(spec, game, evaluator=evaluator).to_json() == (
            oracles.list_check_property_monotone(spec, game, evaluator=evaluator).to_json()
        ), text
        assert property_is_monotone(spec, game, evaluator) == (
            oracles.list_property_is_monotone(spec, game, evaluator)
        ), text
    pairs = (("br:g:pure", "sd:l"), ("sd:l", "br:g:pure"), ("br:g:corr", "msd:l"), ("msd:l", "sd:g"))
    for pair in pairs:
        op1, op2 = (op_for(game, text, evaluator) for text in pair)
        assert verify_inclusion_lemma(op1, op2, game, *pair).to_json() == (
            oracles.list_verify_inclusion_lemma(op1, op2, game, *pair).to_json()
        ), pair
    real_table = properties._property_table

    def broken(profile, *rest):
        slices = real_table(profile, *rest)
        return [0] * len(slices) if str(profile) == "msd:l" else slices

    for table in (real_table, broken):
        monkeypatch.setattr(properties, "_property_table", table)
        chains = (properties.verify_theorem_just, properties.verify_theorem_just1)
        sliced = [check(game).to_json() for check in chains]
        sliced.append(properties.pearce_equivalence_suite(game).to_json())
        with monkeypatch.context() as listing:
            listing.setattr(
                properties, "_verify_pointwise_chain", oracles.list_verify_pointwise_chain
            )
            listed = [check(game).to_json() for check in chains]
        listed.append(oracles.list_pearce_equivalence_suite(game).to_json())
        assert sliced == listed


def test_trace_with_too_many_components_is_a_shape_error():
    trace = iterate_operator(op_for(PD, "sd:g"), PD).to_json_dict()
    trace["steps"][0]["restriction"].append(["C"])
    with pytest.raises(ShapeError):
        trace_from_json_dict(PD, trace)
    trace = iterate_operator(op_for(PD, "sd:g"), PD).to_json_dict()
    trace["outcome"] = [["D"], ["D"], ["D"]]
    with pytest.raises(ShapeError):
        trace_from_json_dict(PD, trace)


@pytest.mark.parametrize("foreign", [MP, CHAIN], ids=lambda g: g.name)
def test_an_operator_image_from_another_game_is_a_shape_error(foreign):
    # MP has PD's shape, so its image would be read as a PD restriction;
    # CHAIN's would index past PD's table
    def op(g):
        return restriction_top(foreign)

    with pytest.raises(ShapeError, match="operator image"):
        verify_tarski(op, PD)
    with pytest.raises(ShapeError, match="operator image"):
        verify_inclusion_lemma(op_for(PD, "sd:l"), op, PD)
    with pytest.raises(ShapeError, match="operator image"):
        iterate_operator(op, PD)
    with pytest.raises(ShapeError, match="operator image"):
        is_fixpoint(op, restriction_top(PD))


def test_a_monotone_table_lists_nothing_after_its_sums(monkeypatch):
    sizes = (6, 6)
    images = [pack_masks(sizes, (g[0] & g[1], g[0] | g[1])) for g in _all_masks(sizes)]
    slices = table_slices(images, 12)
    assert iteration.violation_count(slices) == 0
    violating = iteration.violating_indices(slices)
    assert violating == 0
    # listing would read entries and scan 3^12 = 531,441 pairs
    monkeypatch.setattr(
        iteration, "image_at", lambda *a: pytest.fail("a monotone table's entry was read")
    )
    assert list(non_monotone_pairs(sizes, slices, violating)) == []


@pytest.mark.parametrize("game", [PD, CHAIN, fixtures.THREE], ids=lambda g: g.name)
@pytest.mark.parametrize("text", ["sd:l", "sd:g", "br:l:pure", "br:g:pure"])
def test_each_monotonicity_question_sums_the_violations_once(game, text, monkeypatch):
    # on monotone and non-monotone tables alike, each caller closes its
    # table's slices upward once and reads its verdict and pairs from that
    # mask; only check monotone on a table with a violation runs the sliced
    # count, once, to count them
    calls = {"closure": [], "sum": []}
    for name, kind in (("violating_indices", "closure"), ("violation_count", "sum")):
        def counting(slices, real=getattr(iteration, name), kind=kind):
            calls[kind].append(len(slices))
            return real(slices)

        monkeypatch.setattr(iteration, name, counting)
        monkeypatch.setattr(properties, name, counting)
    spec = parse_property_spec(text)
    monotone = check_property_monotone(spec, game).passed
    # the global properties are monotone, and the local ones fail on all three
    assert monotone == (spec.scope == "g")
    questions = [
        (lambda: verify_tarski(op_for(game, text), game, text), False),
        (lambda: verify_inclusion_lemma(op_for(game, text), op_for(game, "sd:l"), game), False),
        (lambda: check_property_monotone(spec, game), not monotone),
        (lambda: property_is_monotone(spec, game), False),
    ]
    for question, counts in questions:
        calls["closure"].clear()
        calls["sum"].clear()
        question()
        assert calls["closure"] == [sum(game.sizes)]
        assert calls["sum"] == ([sum(game.sizes)] if counts else [])


def test_contracting_msd_mix():
    report = verify_contracting_outcome(op_for(MIX, "msd:l"), MIX, "msd:l")
    assert report.passed
    assert report.details["closure_ordinal"] == "1"


def test_contracting_br_pure_mp():
    report = verify_contracting_outcome(op_for(MP, "br:g:pure"), MP, "br:g:pure")
    assert report.passed
    assert report.details["closure_ordinal"] == "0"
    assert report.details["outcome"] == [["H", "T"], ["H", "T"]]


def test_contracting_constant_top():
    top = restriction_top(PD)
    report = verify_contracting_outcome(lambda g: top, PD, "const-top")
    assert report.passed
    assert report.details["closure_ordinal"] == "0"


def test_contracting_detects_violation():
    top = restriction_top(PD)
    smaller = restriction_from_names(PD, [["C"], ["C"]])

    def flipper(g):
        return smaller if g == top else top

    report = verify_contracting_outcome(flipper, PD, "flipper")
    assert not report.passed
    assert report.entries[0]["kind"] == "contraction-violation"
    assert report.entries[0]["restriction"] == [["C"], ["C"]]


def test_inclusion_br_within_sd_local_chain():
    report = verify_inclusion_lemma(
        op_for(CHAIN, "br:g:pure"), op_for(CHAIN, "sd:l"), CHAIN, "br:g:pure", "sd:l"
    )
    assert report.passed
    assert all(report.details["hypotheses"].values())


def test_inclusion_sd_global_below_local_pd():
    report = verify_inclusion_lemma(
        op_for(PD, "sd:g"), op_for(PD, "sd:l"), PD, "sd:g", "sd:l"
    )
    assert report.passed


def test_inclusion_identity_trivial():
    ident = lambda g: g
    report = verify_inclusion_lemma(ident, ident, PD, "id", "id")
    assert report.passed


def test_inclusion_reports_failed_hypothesis():
    report = verify_inclusion_lemma(
        op_for(PD, "sd:l"), op_for(PD, "sd:g"), PD, "sd:l", "sd:g"
    )
    assert not report.passed
    assert not report.details["hypotheses"]["pointwise"] or not report.details[
        "hypotheses"
    ]["op1_monotonic"]


def test_report_round_trip():
    report = verify_tarski(op_for(PD, "sd:g"), PD, "sd:g")
    data = json.loads(report.to_json())
    back = CheckReport.from_json_dict(data)
    assert back.to_json() == report.to_json()


@pytest.mark.parametrize("value", [1.5, Ordinal(0, 1), object()])
def test_canonical_json_refuses_values_it_has_no_form_for(value):
    with pytest.raises(TypeError):
        canonical_json({"value": value})


# nested report values of every type `json_ready` converts, with floats as
# the one type it refuses
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4) | st.fractions()
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=3)
    | st.frozensets(st.integers(), max_size=3)
    | st.sets(st.fractions(), max_size=3),
    max_leaves=12,
)


def _converted(convert, value):
    try:
        return "value", convert(value)
    except TypeError as error:
        return "error", str(error)


@given(value=REPORT_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_ready_matches_the_fraction_first_order(value):
    # testing the JSON-native classes before Fraction converts every value
    # as testing Fraction first did, and refuses the same ones
    assert _converted(json_ready, value) == _converted(oracles.json_ready, value)


@pytest.mark.parametrize("k", [1, 8, 9, 16, 17])
def test_transpose_turns_bit_slices_into_the_table(k):
    # the reference transpose in `oracles` against a per-bit loop over each
    # slice's binary digits, and the lattice patterns transpose to the
    # lattice indices themselves
    count = 1 << k
    rng = random.Random(k)
    slices = [rng.getrandbits(count) for _ in range(k)]
    slices[k // 2] = 0
    want = [0] * count
    for b, bits in enumerate(slices):
        for x, digit in enumerate(reversed(format(bits, f"0{count}b"))):
            if digit == "1":
                want[x] |= 1 << b
    assert oracles.transpose_slices(slices, k) == want
    assert oracles.transpose_slices(lattice_patterns(k), k) == list(range(count))
