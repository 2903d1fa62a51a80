"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line; the final criterion re-runs everything and demands
byte-identical canonical JSON reports."""

import random
import time

import pytest

from gamelattice import epistemic, fixtures
from gamelattice.dominance import pearce_equivalence_check
from gamelattice.games import all_restrictions, mask_members, restriction_top
from gamelattice.iteration import verify_tarski
from gamelattice.ordinals import Ordinal, parse_ordinal
from gamelattice.properties import (
    PropertyProfile,
    check_property_monotone,
    check_singleton_condition,
    outcome,
    parse_property_spec,
    property_operator,
    verify_theorem_just,
    verify_theorem_just1,
)
from gamelattice.reports import CheckReport
from gamelattice.symbolic import iterate_symbolic, validate_witness
from gamelattice.witnesses import load_witness

FOUR = [fixtures.PD, fixtures.MP, fixtures.MIX, fixtures.CHAIN]

SEED_SMALL = 2201
SEED_PEARCE = 2404
SEED_PEARCE_SAMPLING = 2405
SEED_JUST = 2707

CRITERIA = {
    1: "Tarski: outcome = largest fixpoint = join of post-fixpoints",
    2: "exhaustive monotonicity of the global properties",
    3: "local properties accept singletons; the global variant does not",
    4: "never-best-response-to-correlated = mixed dominance, per restriction",
    5: "model enumeration matches the elimination outcome (global properties)",
    6: "model enumeration yields the full game (local properties)",
    7: "best-response outcomes inside dominance outcomes, with proof chains",
    8: "witness model constructions satisfy their postconditions",
    9: "transfinite witness: not stable at the first limit ordinal",
}

BUDGET_SECONDS = {1: 5, 2: 60, 4: 300, 5: 600, 7: 300, 9: 30}


def uniform(game, text):
    return PropertyProfile.uniform(parse_property_spec(text), game.num_players)


def criterion_1():
    reports = []
    for game in FOUR:
        for text in ("sd:g", "msd:g", "br:g:pure"):
            op = property_operator(uniform(game, text), game)
            rep = verify_tarski(op, game, op_name=text)
            reports.append(((game.name, text), rep))
    failures = [key for key, rep in reports if not rep.passed]
    return CheckReport(
        name="criterion-1-tarski",
        passed=not failures,
        details={
            "checked": [list(key) for key, _ in reports],
            "outcomes": {
                f"{g}/{t}": rep.details["outcome"] for (g, t), rep in reports
            },
        },
        entries=[{"failed": list(k)} for k in failures],
    )


def criterion_2():
    games = FOUR + fixtures.random_games(SEED_SMALL, 20, 3, 3)
    failures = []
    pairs_total = 0
    for game in games:
        for text in ("sd:g", "msd:g", "br:g:pure", "br:g:corr"):
            rep = check_property_monotone(parse_property_spec(text), game)
            pairs_total += rep.details["pairs_checked"]
            if not rep.passed:
                failures.append({"game": game.name, "property": text})
    return CheckReport(
        name="criterion-2-monotonicity",
        passed=not failures,
        details={
            "games": len(games),
            "seed": SEED_SMALL,
            "pairs_checked_total": pairs_total,
        },
        entries=failures,
    )


def criterion_3():
    games = FOUR + fixtures.random_games(SEED_SMALL, 20, 3, 3)
    failures = []
    checked = 0
    for game in games:
        for text in ("sd:l", "msd:l", "br:l:pure"):
            rep = check_singleton_condition(parse_property_spec(text), game)
            checked += rep.details["checked"]
            if not rep.passed:
                failures.append({"game": game.name, "property": text})
    global_rep = check_singleton_condition(parse_property_spec("sd:g"), fixtures.PD)
    cc_detected = (not global_rep.passed) and {
        "joint": ["C", "C"],
        "player": 1,
    } in global_rep.entries
    if not cc_detected:
        failures.append({"expected": "sd:g failure at (C,C) on pd"})
    return CheckReport(
        name="criterion-3-singletons",
        passed=not failures,
        details={
            "games": len(games),
            "seed": SEED_SMALL,
            "evaluations": checked,
            "global_counterexample_found": cc_detected,
        },
        entries=failures,
    )


def criterion_4():
    failures = []
    checked = 0
    for game in FOUR:
        for g in all_restrictions(game):
            rep = pearce_equivalence_check(game, g)
            checked += 1
            if not rep.passed:
                failures.append({"game": game.name, "restriction": g.names()})
    rng = random.Random(SEED_PEARCE_SAMPLING)
    for game in fixtures.random_games(SEED_PEARCE, 100, 4, 4):
        pool = list(all_restrictions(game))
        for g in rng.sample(pool, min(50, len(pool))):
            rep = pearce_equivalence_check(game, g)
            checked += 1
            if not rep.passed:
                failures.append({"game": game.name, "restriction": g.names()})
    return CheckReport(
        name="criterion-4-pearce",
        passed=not failures,
        details={
            "restrictions_checked": checked,
            "seeds": [SEED_PEARCE, SEED_PEARCE_SAMPLING],
        },
        entries=failures,
    )


EPIST_PROFILES = [
    ("sd:g", "sd:g"),
    ("br:g:pure", "br:g:pure"),
    ("sd:g", "br:g:pure"),  # heterogeneous
]


def criterion_5():
    failures = []
    results = {}
    for game in (fixtures.PD, fixtures.MP):
        for texts in EPIST_PROFILES:
            profile = PropertyProfile(
                tuple(parse_property_spec(t) for t in texts)
            )
            fixpoint = outcome(profile, game).outcome
            ck = epistemic.enumerate_ck_cb(game, 4, profile, mode="knowledge")
            cb = epistemic.enumerate_ck_cb(game, 4, profile, mode="belief")
            key = f"{game.name}/{profile}"
            results[key] = {
                "ck": ck.restriction.names(),
                "cb": cb.restriction.names(),
                "outcome": fixpoint.names(),
                "models_total": ck.models_total + cb.models_total,
            }
            if not (ck.restriction == cb.restriction == fixpoint):
                failures.append({"case": key})
    return CheckReport(
        name="criterion-5-enumeration-global",
        passed=not failures,
        details={"omega": 4, "results": results},
        entries=failures,
    )


def criterion_6():
    failures = []
    results = {}
    for game in (fixtures.PD, fixtures.MP):
        top = restriction_top(game)
        for text in ("sd:l", "br:l:pure"):
            profile = uniform(game, text)
            ck = epistemic.enumerate_ck_cb(game, 4, profile, mode="knowledge")
            cb = epistemic.enumerate_ck_cb(game, 4, profile, mode="belief")
            key = f"{game.name}/{text}"
            results[key] = {
                "ck": ck.restriction.names(),
                "cb": cb.restriction.names(),
            }
            if ck.restriction != top:
                failures.append({"case": key, "side": "knowledge"})
            if cb.restriction != top:
                failures.append({"case": key, "side": "belief"})
    return CheckReport(
        name="criterion-6-enumeration-local",
        passed=not failures,
        details={"omega": 4, "results": results},
        entries=failures,
    )


def criterion_7():
    failures = []
    games = FOUR + fixtures.random_games(SEED_JUST, 100, 4, 4)
    for game in games:
        rep = verify_theorem_just(game)
        if not rep.passed:
            failures.append({"game": game.name, "suite": "pure"})
        rep1 = verify_theorem_just1(game)
        if not rep1.passed:
            failures.append({"game": game.name, "suite": "mixed"})
    return CheckReport(
        name="criterion-7-justification",
        passed=not failures,
        details={"games": len(games), "seed": SEED_JUST},
        entries=failures,
    )


def criterion_8():
    failures = []
    cases = 0
    monotone_profiles = ["sd:g", "msd:g", "br:g:pure", "br:g:corr"]
    for game in FOUR:
        profiles = [uniform(game, t) for t in monotone_profiles]
        profiles.append(
            PropertyProfile(
                (parse_property_spec("sd:g"), parse_property_spec("br:g:pure"))
            )
        )
        for profile in profiles:
            w = epistemic.witness_model_thm1(game, profile)
            cases += 1
            if not w.report.passed:
                failures.append(
                    {"game": game.name, "profile": str(profile), "theorem": 1}
                )
    for game in FOUR:
        for text in ("sd:l", "msd:l", "br:l:pure"):
            profile = uniform(game, text)
            for joint in game.joint_strategies():
                w = epistemic.witness_model_thm2(game, profile, joint)
                cases += 1
                if not w.report.passed:
                    failures.append(
                        {
                            "game": game.name,
                            "profile": text,
                            "joint": list(game.joint_names(joint)),
                            "theorem": 2,
                        }
                    )
    return CheckReport(
        name="criterion-8-witnesses",
        passed=not failures,
        details={"cases": cases},
        entries=failures,
    )


def criterion_9():
    witness = load_witness("witness-tg")
    validation = validate_witness(witness)
    trace = iterate_symbolic(witness, parse_ordinal("2w+8"))
    by_label = {str(o): sets for o, sets in trace.steps}
    failures = []
    if not validation.passed:
        failures.append({"stage": "validation", "entries": validation.entries})
    if validation.details.get("transfinite_required") is not True:
        failures.append({"stage": "headline", "expected": "limit not a fixpoint"})
    if not (
        trace.status == "fixpoint" and trace.closure_ordinal > Ordinal(1, 0)
    ):
        failures.append({"stage": "closure", "got": str(trace.closure_ordinal)})
    if by_label.get("1w+0") == by_label.get("1w+1"):
        failures.append({"stage": "limit-step"})

    lifted = load_witness("embedded-finite-pd")
    sym = iterate_symbolic(lifted, parse_ordinal("1w+0"))
    profile = uniform(fixtures.PD, "sd:l")
    fin = outcome(profile, fixtures.PD)
    same_labels = [str(o) for o, _ in sym.steps] == [str(o) for o, _ in fin.steps]
    same_sets = len(sym.steps) == len(fin.steps) and all(
        {s for s in fixtures.PD.strategies(i) if sets[i].contains(s)}
        == set(mask_members(r.masks[i]))
        for (_, sets), (_, r) in zip(sym.steps, fin.steps)
        for i in fixtures.PD.players()
    )
    if not (same_labels and same_sets and str(sym.closure_ordinal) == str(fin.closure_ordinal)):
        failures.append({"stage": "embedding"})
    return CheckReport(
        name="criterion-9-transfinite",
        passed=not failures,
        details={
            "closure_ordinal": str(trace.closure_ordinal),
            "validation": validation.details,
            "embedded_closure": str(sym.closure_ordinal),
        },
        entries=failures,
    )


RUNNERS = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


@pytest.fixture(scope="module")
def recorded():
    return {}


@pytest.mark.parametrize("k", sorted(RUNNERS))
def test_criterion(k, recorded):
    start = time.monotonic()
    report = RUNNERS[k]()
    elapsed = time.monotonic() - start
    recorded[k] = report.to_json()
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\n[{verdict}] criterion {k}: {CRITERIA[k]} ({elapsed:.1f}s)")
    assert report.passed, report.entries
    budget = BUDGET_SECONDS.get(k)
    if budget is not None:
        assert elapsed < budget, f"criterion {k} took {elapsed:.1f}s (budget {budget}s)"


def test_criterion_10_determinism(recorded):
    assert sorted(recorded) == sorted(RUNNERS), "criteria 1-9 must have run"
    for k in sorted(RUNNERS):
        again = RUNNERS[k]().to_json()
        assert again == recorded[k], f"criterion {k} report changed between runs"
    print("\n[PASS] criterion 10: identical reruns produce byte-identical reports")
