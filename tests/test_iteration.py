import json
import random

import pytest

from gamelattice import fixtures
from gamelattice.errors import BudgetError
from gamelattice.games import (
    Restriction,
    restriction_from_names,
    restriction_top,
)
from gamelattice.iteration import (
    IterationTrace,
    is_fixpoint,
    is_post_fixpoint,
    iterate_operator,
    trace_from_json_dict,
    verify_contracting_outcome,
    verify_inclusion_lemma,
    verify_tarski,
)
from gamelattice.ordinals import Ordinal, parse_ordinal
from gamelattice.properties import (
    PropertyProfile,
    parse_property_spec,
    property_operator,
)
from gamelattice.reports import CheckReport, canonical_json

PD, MP, MIX, CHAIN = fixtures.PD, fixtures.MP, fixtures.MIX, fixtures.CHAIN


def op_for(game, text):
    profile = PropertyProfile.uniform(parse_property_spec(text), game.num_players)
    return property_operator(profile, game)


def test_ordinal_parse_and_format():
    assert str(parse_ordinal("3")) == "3"
    assert str(parse_ordinal("2w+5")) == "2w+5"
    assert parse_ordinal("1w+0") == Ordinal(1, 0)
    assert Ordinal(0, 4) < Ordinal(1, 0) < Ordinal(1, 1) < Ordinal(2, 0)
    with pytest.raises(ValueError):
        parse_ordinal("w^2")


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
    assert trace.outcome.is_top()


def test_iterate_budget_guard():
    top = restriction_top(PD)
    other = restriction_from_names(PD, [["C"], ["C"]])

    def flipper(g):
        return other if g == top else top

    with pytest.raises(BudgetError):
        iterate_operator(flipper, PD)


def test_fixpoint_checks():
    sdl = op_for(PD, "sd:l")
    dd = restriction_from_names(PD, [["D"], ["D"]])
    assert is_fixpoint(sdl, dd)
    assert not is_post_fixpoint(sdl, restriction_top(PD))
    empty = Restriction(PD, (frozenset(), frozenset()))
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


def test_lattice_verifiers_check_the_pair_budget_before_any_work():
    # 3^14 comparable pairs, beyond the 2,000,000 pair budget
    game = fixtures.random_game(random.Random(7), 7, 7)

    def op(g):
        pytest.fail("an operator was applied before the pair budget was checked")

    with pytest.raises(BudgetError, match="comparable-pair"):
        verify_tarski(op, game)
    with pytest.raises(BudgetError, match="comparable-pair"):
        verify_inclusion_lemma(op, op, game)


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
