import gc
import json
import pathlib
import random
import shlex
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from gamelattice import (
    cli, dominance, epistemic, fixtures, iteration, lp, properties, symbolic, witnesses,
)
from gamelattice.cli import EXIT_INTERNAL, main
from gamelattice.epistemic import DEFAULT_MODEL_BUDGET
from gamelattice.errors import BudgetError
from gamelattice.games import Restriction, format_game, parse_game_file
from gamelattice.iteration import DEFAULT_LATTICE_BUDGET, trace_from_json_dict, iterate_operator
from gamelattice.ordinals import parse_ordinal
from gamelattice.properties import PropertyProfile, parse_property_spec, property_operator
from gamelattice.symbolic import SymbolicSet

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
ROOT = FIXTURES.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands():
    """The `gamelattice ...` lines of the first code block of README's
    "Command line" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("gamelattice ")]


README_COMMANDS = _readme_commands()


def test_the_readme_shows_every_subcommand():
    assert {shlex.split(line)[1] for line in README_COMMANDS} == {
        "eliminate", "check", "epistemic", "transfinite",
    }


@pytest.mark.parametrize("line", README_COMMANDS)
def test_every_readme_command_exits_0(line, capsys, monkeypatch):
    # the documented examples run as written, from the repository root
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GAMELATTICE_BUDGET", raising=False)
    code, out, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0, err
    assert out


def test_eliminate_pd(capsys):
    code, out, err = run(capsys, "eliminate", "--prop", "sd:l", str(FIXTURES / "pd.game"))
    assert code == 0
    assert "outcome: ({D}, {D})" in out


def test_eliminate_mix_json(capsys):
    code, out, err = run(
        capsys, "eliminate", "--prop", "msd:l", "--json", str(FIXTURES / "mix.game")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == [["T", "M"], ["L", "R"]]


def test_eliminate_independent_beliefs_three_players_rejected(capsys):
    code, out, err = run(
        capsys, "eliminate", "--prop", "br:l:ind", str(FIXTURES / "three.game")
    )
    assert code == 2
    assert "independent mixed beliefs" in err


def test_eliminate_heterogeneous_by_player(capsys):
    code, out, err = run(
        capsys,
        "eliminate",
        "--player", "1=sd:l",
        "--player", "2=br:g:pure",
        str(FIXTURES / "chain.game"),
    )
    assert code == 0
    assert "outcome: ({T}, {L})" in out


def test_eliminate_missing_player_spec(capsys):
    code, out, err = run(
        capsys, "eliminate", "--player", "1=sd:l", str(FIXTURES / "pd.game")
    )
    assert code == 2
    assert "missing for player" in err


def test_check_pearce_pass(capsys):
    code, out, err = run(capsys, "check", "pearce", str(FIXTURES / "mix.game"))
    assert code == 0
    assert "[PASS]" in out


def test_check_monotone_pass(capsys):
    code, out, err = run(
        capsys, "check", "monotone", "--prop", "sd:g", str(FIXTURES / "chain.game")
    )
    assert code == 0


def test_check_monotone_local_fails_with_witness(capsys):
    code, out, err = run(
        capsys, "check", "monotone", "--prop", "sd:l", str(FIXTURES / "pd.game")
    )
    assert code == 1
    assert "[FAIL]" in out
    assert "smaller" in out and "larger" in out


def test_check_tarski_and_inclusion_and_just(capsys):
    assert run(capsys, "check", "tarski", "--prop", "sd:g", str(FIXTURES / "pd.game"))[0] == 0
    assert run(capsys, "check", "contracting", "--prop", "msd:l", str(FIXTURES / "mix.game"))[0] == 0
    code, out, _ = run(
        capsys,
        "check", "inclusion",
        "--prop", "br:g:pure", "--prop2", "sd:l",
        str(FIXTURES / "chain.game"),
    )
    assert code == 0
    assert run(capsys, "check", "just", str(FIXTURES / "pd.game"))[0] == 0
    assert run(capsys, "check", "just1", str(FIXTURES / "mix.game"))[0] == 0
    code, _, _ = run(capsys, "check", "singleton", "--prop", "sd:g", str(FIXTURES / "pd.game"))
    assert code == 1


def test_epistemic_enumerate_global(capsys):
    code, out, err = run(
        capsys,
        "epistemic", "enumerate",
        "--omega", "4", "--prop", "sd:g", "--json",
        str(FIXTURES / "pd.game"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["ck_restriction"] == [["D"], ["D"]]
    assert payload["details"]["cb_restriction"] == [["D"], ["D"]]
    assert payload["details"]["verdict"] == "pass"


def test_epistemic_enumerate_local(capsys):
    code, out, err = run(
        capsys,
        "epistemic", "enumerate",
        "--omega", "4", "--prop", "sd:l", "--json",
        str(FIXTURES / "pd.game"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["ck_restriction"] == [["C", "D"], ["C", "D"]]
    assert payload["details"]["expectation"] == "full-game"


def test_epistemic_enumerate_charges_only_the_evaluated_models(capsys):
    # CHAIN at omega 4 has 51,969,681 belief models, but the loop evaluates
    # one assignment per orbit: C(9 + 4 - 1, 4) = 495 of them times 89^2
    # correspondence pairs is 3,920,895 models, within the default budget
    code, out, err = run(
        capsys,
        "epistemic", "enumerate",
        "--omega", "4", "--prop", "sd:g", "--json",
        str(FIXTURES / "chain.game"),
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["details"]["ck_restriction"] == [["T"], ["L"]]
    assert payload["details"]["cb_restriction"] == [["T"], ["L"]]
    assert payload["details"]["verdict"] == "pass"


def test_epistemic_witnesses(capsys):
    code, _, _ = run(
        capsys,
        "epistemic", "witness",
        "--theorem", "1", "--prop", "br:g:pure",
        str(FIXTURES / "mp.game"),
    )
    assert code == 0
    code, _, _ = run(
        capsys,
        "epistemic", "witness",
        "--theorem", "2", "--prop", "sd:l", "--joint", "C,C",
        str(FIXTURES / "pd.game"),
    )
    assert code == 0
    code, _, err = run(
        capsys,
        "epistemic", "witness",
        "--theorem", "2", "--prop", "sd:g",
        str(FIXTURES / "pd.game"),
    )
    assert code == 2  # precondition failure is an input error


@pytest.mark.parametrize(
    "argv,default",
    [
        (["epistemic", "enumerate", "--prop", "sd:l"], ["--omega", "4"]),
        (["epistemic", "witness", "--prop", "sd:g"], ["--theorem", "1"]),
    ],
)
def test_epistemic_flag_defaults(argv, default, capsys):
    pd = str(FIXTURES / "pd.game")
    implicit = run(capsys, *argv, "--json", pd)
    assert implicit == run(capsys, *argv, *default, "--json", pd)
    assert implicit[0] == 0


def test_epistemic_budget_error(capsys, monkeypatch):
    monkeypatch.setenv("GAMELATTICE_BUDGET", "100")
    code, out, err = run(
        capsys,
        "epistemic", "enumerate",
        "--omega", "4", "--prop", "sd:g",
        str(FIXTURES / "pd.game"),
    )
    assert code == 2
    assert "budget" in err


def test_transfinite_run_and_bounds(capsys):
    code, out, _ = run(capsys, "transfinite", "run", "--bound", "2w+5", "witness-tg")
    assert code == 0
    assert "fixpoint at 1w+1" in out
    code, out, _ = run(capsys, "transfinite", "run", "--bound", "0w+3", "witness-tg")
    assert code == 1
    assert "unresolved at bound" in out
    code, out, _ = run(
        capsys, "transfinite", "run", "--bound", "1w+0", "embedded-finite-pd"
    )
    assert code == 0
    assert "fixpoint at 1" in out


def test_transfinite_run_takes_each_step_once_and_checks_every_descent(monkeypatch, capsys):
    # validation and the printed trace step witness-tg from the same
    # iterates: the command computes each step once, and checks every
    # descent of both iterations, as many as without the memo
    steps, descents = [], []
    witness_step, check_descent = witnesses._witness_step, symbolic._check_descent

    def step(sets):
        steps.append(sets)
        return witness_step(sets)

    def checked(*args):
        descents.append(args)
        return check_descent(*args)

    monkeypatch.setattr(witnesses, "_witness_step", step)
    monkeypatch.setattr(symbolic, "_check_descent", checked)
    unmemoised = replace(witnesses.transfinite_witness(), step=step)
    symbolic.validate_witness(unmemoised)
    symbolic.iterate_symbolic(unmemoised, parse_ordinal("2w+8"))
    assert len(set(steps)) < len(steps)
    expected = len(set(steps)), len(descents)
    steps.clear()
    descents.clear()
    code, _, _ = run(capsys, "transfinite", "run", "--bound", "2w+8", "witness-tg")
    assert code == 0
    assert (len(steps), len(descents)) == expected


def test_transfinite_list(capsys):
    code, out, _ = run(capsys, "transfinite", "list")
    assert code == 0
    assert "witness-tg" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("game g\nplayers 2\nstrategies 1 : A\nstrategies 2 : X\npayoffs\nA X : 1\nend\n")
    code, out, err = run(capsys, "eliminate", "--prop", "sd:l", str(bad))
    assert code == 2
    assert "line 6" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits")
    or not 0 < sys.get_int_max_str_digits() < 5000,
    reason="no int-string digit limit below 5,000 digits",
)
def test_a_payoff_beyond_the_digit_limit_exits_with_its_line(tmp_path, capsys):
    bad = tmp_path / "big.game"
    bad.write_text(
        "game g\nplayers 2\nstrategies 1 : A\nstrategies 2 : X\npayoffs\n"
        f"A X : 1 {'9' * 5000}\nend\n"
    )
    with pytest.raises(ValueError) as limit:
        int("9" * 5000)
    code, out, err = run(capsys, "eliminate", "--prop", "sd:l", str(bad))
    assert (code, out, err) == (2, "", f"error: line 6: {limit.value}\n")


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eliminate", "--frobnicate", str(FIXTURES / "pd.game")])
    assert exc.value.code == 2


def test_json_outputs_are_deterministic(capsys):
    argv = ["check", "tarski", "--prop", "sd:g", "--json", str(FIXTURES / "pd.game")]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_trace_json_round_trips_through_cli(capsys):
    code, out, _ = run(
        capsys, "eliminate", "--prop", "sd:l", "--json", str(FIXTURES / "chain.game")
    )
    assert code == 0
    game = parse_game_file(FIXTURES / "chain.game")
    trace = trace_from_json_dict(game, json.loads(out))
    profile = PropertyProfile.uniform(parse_property_spec("sd:l"), 2)
    assert trace == iterate_operator(property_operator(profile, game), game)


BUDGET_CASES = [
    # (GAMELATTICE_BUDGET, argv, exit code)
    (None, ["eliminate", "--prop", "sd:l", "mp.game"], 0),
    ("0", ["eliminate", "--prop", "sd:l", "mp.game"], 0),
    ("0", ["eliminate", "--prop", "sd:l", "pd.game"], 2),
    ("0", ["check", "tarski", "--prop", "sd:g", "pd.game"], 2),
    ("0", ["epistemic", "enumerate", "--omega", "2", "--prop", "sd:g", "pd.game"], 2),
    (None, ["eliminate", "--budget", "-5", "--prop", "sd:l", "mp.game"], 2),
    ("-1", ["eliminate", "--prop", "sd:l", "mp.game"], 2),
    ("-1", ["check", "singleton", "--prop", "sd:l", "mp.game"], 2),
    ("x", ["eliminate", "--prop", "sd:l", "mp.game"], 2),
    ("1", ["eliminate", "--prop", "sd:l", "chain.game"], 2),
    ("1", ["check", "contracting", "--prop", "sd:l", "chain.game"], 2),
    ("3", ["check", "contracting", "--prop", "sd:l", "chain.game"], 0),
    ("1", ["eliminate", "--budget", "3", "--prop", "sd:l", "chain.game"], 0),
]


def test_epistemic_budget_between_the_modes_refuses_belief(monkeypatch, capsys):
    # PD at omega 4 charges 7,875 knowledge and 277,235 belief models: the
    # knowledge enumeration runs and the belief one is refused, with exit 2
    # and the belief count on stderr
    monkeypatch.setenv("GAMELATTICE_BUDGET", "10000")
    code, out, err = run(
        capsys, "epistemic", "enumerate", "--omega", "4", "--prop", "sd:g",
        str(FIXTURES / "pd.game"),
    )
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 277235 models exceeds the budget of 10000\n"


@pytest.mark.parametrize("env,argv,expected", BUDGET_CASES)
def test_budget_exit_codes(env, argv, expected, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("GAMELATTICE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GAMELATTICE_BUDGET", env)
    code, _, err = run(capsys, *argv[:-1], str(FIXTURES / argv[-1]))
    assert code == expected, err


NON_ASCII_INTEGER_CASES = [
    # (GAMELATTICE_BUDGET, argv): each would run with ASCII digits, but
    # int() would also take these, so each is an input error
    ("\u0660", ["eliminate", "--prop", "sd:l", "mp.game"]),
    (" 1_0 ", ["check", "contracting", "--prop", "sd:l", "chain.game"]),
    ("1_0", ["check", "contracting", "--prop", "sd:l", "chain.game"]),
    ("+3", ["check", "contracting", "--prop", "sd:l", "chain.game"]),
    (None, ["eliminate", "--budget", "\u0663", "--prop", "sd:l", "chain.game"]),
    (None, ["eliminate", "--player", "\u0661=sd:l", "--player", "2=sd:l", "pd.game"]),
    (None, ["eliminate", "--player", " 1=sd:l", "--player", "2=sd:l", "pd.game"]),
    (None, ["epistemic", "enumerate", "--omega", "\u0662", "--prop", "sd:g", "pd.game"]),
    (None, ["epistemic", "witness", "--theorem", "\u0662", "--prop", "sd:l",
            "--joint", "C,C", "pd.game"]),
]


@pytest.mark.parametrize("env,argv", NON_ASCII_INTEGER_CASES)
def test_cli_integers_are_ascii_digits(env, argv, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("GAMELATTICE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GAMELATTICE_BUDGET", env)
    code, out, err = run(capsys, *argv[:-1], str(FIXTURES / argv[-1]))
    assert (code, out) == (2, "")
    assert "must be a non-negative integer" in err


@pytest.mark.parametrize("prop", ["sd:g", "br:g:pure", "sd:l", "br:l:pure"])
def test_lattice_checks_at_the_budget_edge(prop, tmp_path, monkeypatch, capsys):
    # 8x8 has exactly DEFAULT_LATTICE_BUDGET restrictions and 8x9 twice that;
    # the smaller one is decided, a local property failing its monotonicity
    # check with its 3^16 comparable pairs counted, and the larger one is
    # refused before any property is asked
    expected = 1 if ":l" in prop else 0
    monkeypatch.delenv("GAMELATTICE_BUDGET", raising=False)
    rng = random.Random(8)
    paths = []
    for cols in (8, 9):
        path = tmp_path / f"g{cols}.game"
        path.write_text(format_game(fixtures.random_game(rng, 8, cols)))
        paths.append(str(path))
    assert 1 << 16 == DEFAULT_LATTICE_BUDGET
    code, out, err = run(capsys, "eliminate", "--prop", prop, "--json", paths[0])
    assert code == 0, err
    outcome = json.loads(out)["outcome"]
    code, out, err = run(capsys, "check", "tarski", "--prop", prop, "--json", paths[0])
    assert code == expected, err
    if expected == 0:
        assert json.loads(out)["details"]["outcome"] == outcome
    code, out, err = run(capsys, "check", "monotone", "--prop", prop, paths[0])
    assert code == expected, err
    real = properties._passing
    asked = []
    monkeypatch.setattr(properties, "_passing", lambda *a: asked.append(a) or real(*a))
    for verifier in ("tarski", "monotone"):
        code, out, err = run(capsys, "check", verifier, "--prop", prop, paths[1])
        assert (code, out) == (2, "")
        assert "lattice of 131072 restrictions exceeds the budget of 65536" in err
    game = parse_game_file(paths[1])
    spec = parse_property_spec(prop)
    op = property_operator(PropertyProfile.uniform(spec, 2), game)
    for check in (
        lambda: iteration.verify_tarski(op, game),
        lambda: properties.check_property_monotone(spec, game),
    ):
        with pytest.raises(BudgetError) as exc:
            check()
        assert exc.value.attempted == 131072
    assert asked == []


@pytest.mark.parametrize("env,expected", [("74", 2), ("75", 0)])
def test_transfinite_bound_is_charged_before_any_iterate(env, expected, monkeypatch, capsys):
    # the default bound 2w+8 allows 33 + 33 + 9 = 75 iterates
    monkeypatch.setenv("GAMELATTICE_BUDGET", env)
    code, out, err = run(capsys, "transfinite", "run", "witness-tg")
    assert code == expected, err
    assert (out == "") == (expected == 2)


def test_independent_global_beliefs_three_players_rejected(capsys):
    # a supporting pure belief must not settle br:g:ind beyond two players
    code, out, err = run(
        capsys, "eliminate", "--prop", "br:g:ind", str(FIXTURES / "three.game")
    )
    assert code == 2
    assert "independent mixed beliefs" in err


def test_enumerate_refuses_a_huge_omega_before_listing_models(capsys):
    # 2^(n(omega - 1)) models at least already exceed the budget, so neither
    # the exact count nor any model is computed; the message gives the least
    # power of two above the budget as a lower bound
    floor = 1 << DEFAULT_MODEL_BUDGET.bit_length()
    for omega in (30, 3000, 10**6):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "epistemic", "enumerate", "--omega", str(omega), "--prop", "sd:g",
            str(FIXTURES / "pd.game"),
        )
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert f"enumeration of at least {floor} models exceeds the budget" in err


def _kernel_returning_first_vertex(objective, lhs_le=(), rhs_le=(), lhs_eq=(), rhs_eq=()):
    """A broken LP kernel: a positive value at x = (1, 0, ..., 0), whatever
    the constraints say."""
    return Fraction(1), [Fraction(int(j == 0)) for j in range(len(objective))]


def _counted_kernel(monkeypatch, kernel):
    """Install `kernel` as the LP kernel.  The returned list gets one entry
    per call, so a test can check that its injected fault met an LP: on PD,
    MP and THREE the pure pre-checks decide every candidate and none runs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(lp, "simplex_maximize", counted)
    return calls


def _broken_kernel(monkeypatch):
    return _counted_kernel(monkeypatch, _kernel_returning_first_vertex)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "pearce", "chain.game"],
        ["eliminate", "--prop", "msd:l", "chain.game"],
        ["check", "just1", "--json", "mix.game"],
    ],
)
def test_failed_revalidation_exits_internal(argv, monkeypatch, capsys):
    calls = _broken_kernel(monkeypatch)
    code, out, err = run(capsys, *argv[:-1], str(FIXTURES / argv[-1]))
    assert calls
    assert code == EXIT_INTERNAL == 3
    assert err.startswith("internal error:") and "re-validation" in err
    assert "Traceback" not in err


def _negated(duals):
    return [-y for y in duals]


def _onto_the_first_row(duals):
    """Every `<=` row's weight moved to the first, the equality's kept."""
    return [Fraction(1)] + [Fraction(0)] * (len(duals) - 2) + duals[-1:]


@pytest.mark.parametrize("corrupt", [_negated, _onto_the_first_row])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "pearce", "mix.game"],
        ["eliminate", "--prop", "msd:l", "chain.game"],
        ["check", "just1", "--json", "mix.game"],
    ],
)
def test_a_wrong_dual_exits_internal(argv, corrupt, monkeypatch, capsys):
    # the optimum and x are right, so only the certificate of a negative
    # answer is wrong: not a distribution, or one that proves nothing
    solve = lp.simplex_maximize

    def kernel(*args):
        optimum = solve(*args)
        return lp.Optimum(*optimum, corrupt(optimum.duals))

    calls = _counted_kernel(monkeypatch, kernel)
    code, out, err = run(capsys, *argv[:-1], str(FIXTURES / argv[-1]))
    assert calls
    assert code == EXIT_INTERNAL == 3
    assert err.startswith("internal error:") and "re-validation" in err
    assert "Traceback" not in err


def test_a_witness_outcome_with_an_empty_component_exits_internal(monkeypatch, capsys):
    # an outcome never has an empty component, so the Theorem-1 witness
    # treats one as the program contradicting itself
    real = epistemic.outcome

    def emptied(profile, game, **kwargs):
        trace = real(profile, game, **kwargs)
        masks = (0,) + trace.outcome.masks[1:]
        return replace(trace, outcome=Restriction(game, masks))

    monkeypatch.setattr(epistemic, "outcome", emptied)
    code = cli.main(
        ["epistemic", "witness", "--theorem", "1", "--prop", "sd:g", str(FIXTURES / "pd.game")]
    )
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error:") and "empty component" in captured.err


@pytest.mark.parametrize("fault", [lp.Infeasible, lp.Unbounded])
def test_lp_faults_exit_internal(fault, monkeypatch, capsys):
    def kernel(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(lp, "simplex_maximize", kernel)
    code, out, err = run(capsys, "check", "pearce", str(FIXTURES / "mix.game"))
    assert code == EXIT_INTERNAL
    assert err == "internal error: injected\n"


def test_a_cli_call_leaves_no_cyclic_garbage(capsys):
    pd, chain = str(FIXTURES / "pd.game"), str(FIXTURES / "chain.game")
    for argv in (
        ["check", "just1", pd],
        ["check", "tarski", "--prop", "sd:g", chain],
        ["epistemic", "enumerate", "--omega", "2", "--prop", "sd:g", pd],
    ):
        assert main(argv) == 0  # warm-up: builds the parser once
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0, argv
        finally:
            gc.enable()


def _growing_limit_witness(monkeypatch):
    base = witnesses.transfinite_witness()

    def limit(block):
        return tuple(s.union(SymbolicSet.point(-7)) for s in block[-1])

    monkeypatch.setitem(
        witnesses.REGISTRY, "growing-limit", lambda: replace(base, limit=limit)
    )


def _lifted_msd_witness(monkeypatch):
    calls = _broken_kernel(monkeypatch)
    profile = PropertyProfile.uniform(parse_property_spec("msd:l"), 2)
    game = parse_game_file(FIXTURES / "chain.game")
    lifted = witnesses.lift_finite_game(game, profile)
    monkeypatch.setitem(witnesses.REGISTRY, "lifted-msd", lambda: lifted)
    return calls


def _full_game_expected(monkeypatch):
    monkeypatch.setattr(cli, "_epistemic_expectation", lambda *args: "full-game")


def _hidden(name):
    """A fault: the procedure `name` of `dominance` solves its LP as before
    but answers None and hands back no certificate, neither the witness
    nor the LP's dual."""

    def fault(monkeypatch):
        calls = _counted_kernel(monkeypatch, lp.simplex_maximize)
        real = getattr(dominance, name)
        monkeypatch.setattr(dominance, name, lambda *args, **kwargs: real(*args) and None)
        return calls

    fault.__name__ = f"_hidden_{name}"
    return fault


EXIT_CASES = [
    # (argv, fault injected first, exit code); eliminate has no
    # counterexample to report, so it never exits 1; a fault that replaces
    # the LP kernel returns its list of calls, which must not stay empty
    (["eliminate", "--prop", "sd:l", "pd.game"], None, 0),
    (["eliminate", "--prop", "br:g:ind", "three.game"], None, 2),
    (["eliminate", "--prop", "msd:l", "chain.game"], _broken_kernel, 3),
    (["check", "tarski", "--prop", "sd:g", "pd.game"], None, 0),
    (["check", "tarski", "--prop", "sd:l", "chain.game"], None, 1),
    (["check", "tarski", "--prop", "sd:g", "no-such.game"], None, 2),
    (["check", "pearce", "mix.game"], _broken_kernel, 3),
    (["epistemic", "enumerate", "--omega", "2", "--prop", "sd:g", "pd.game"], None, 0),
    # a theorem that fails: the enumeration misses its expected restriction
    (["epistemic", "enumerate", "--omega", "2", "--prop", "sd:g", "pd.game"],
     _full_game_expected, 1),
    (["epistemic", "witness", "--theorem", "2", "--prop", "sd:g", "pd.game"], None, 2),
    # on pd the pure pre-checks settle every msd candidate, so no LP runs
    (["epistemic", "witness", "--theorem", "1", "--prop", "msd:l", "mix.game"],
     _broken_kernel, 3),
    (["transfinite", "run", "witness-tg"], None, 0),
    # the fixpoint at 1 is tested before the bound of 1 applies
    (["transfinite", "run", "--bound", "1", "embedded-finite-pd"], None, 0),
    (["transfinite", "run", "--bound", "0w+3", "witness-tg"], None, 1),
    (["transfinite", "run", "growing-limit"], _growing_limit_witness, 1),
    (["transfinite", "run", "no-such-witness"], None, 2),
    (["transfinite", "run", "lifted-msd"], _lifted_msd_witness, 3),
    # a flag the command would ignore is an input error
    (["check", "just", "--prop", "sd:g", "pd.game"], None, 2),
    (["check", "just1", "--prop2", "sd:l", "pd.game"], None, 2),
    (["check", "pearce", "--player", "1=sd:l", "--player", "2=sd:l", "pd.game"], None, 2),
    (["check", "tarski", "--prop", "sd:g", "--prop2", "sd:l", "pd.game"], None, 2),
    (["check", "monotone", "--prop", "sd:g", "--prop2", "sd:l", "pd.game"], None, 2),
    (["check", "inclusion", "--prop", "sd:g", "--prop2", "sd:l",
      "--player", "1=br:g:pure", "--player", "2=br:g:pure", "pd.game"], None, 2),
    (["check", "inclusion", "--prop", "sd:g", "--prop2", "sd:l", "pd.game"], None, 0),
    (["epistemic", "witness", "--theorem", "2", "--prop", "sd:l", "--joint", "C,C",
      "pd.game"], None, 0),
    (["epistemic", "witness", "--theorem", "1", "--prop", "sd:g", "--joint", "C,C",
      "pd.game"], None, 2),
    (["epistemic", "enumerate", "--omega", "2", "--prop", "sd:g", "--joint", "C,C",
      "pd.game"], None, 2),
    (["epistemic", "witness", "--omega", "9", "--prop", "sd:g", "pd.game"], None, 2),
    (["epistemic", "witness", "--theorem", "3", "--prop", "sd:g", "pd.game"], None, 2),
    (["epistemic", "enumerate", "--theorem", "2", "--omega", "2", "--prop", "sd:g",
      "pd.game"], None, 2),
    # 2001 iterates, beyond the default budget of 1000
    (["transfinite", "run", "--bound", "2000", "witness-tg"], None, 2),
    # an LP answer with no certificate is not taken as it is: msd would keep
    # B of mix, and br:corr would drop M of chain at the first step
    (["eliminate", "--prop", "msd:l", "mix.game"], _hidden("mixed_dominance_witness"), 3),
    (["eliminate", "--prop", "br:l:corr", "chain.game"], _hidden("exists_supporting_belief"), 3),
]


@pytest.mark.parametrize("argv,fault,expected", EXIT_CASES)
def test_exit_code_contract(argv, fault, expected, monkeypatch, capsys):
    calls = None if fault is None else fault(monkeypatch)
    if argv[-1].endswith(".game"):
        argv = [*argv[:-1], str(FIXTURES / argv[-1])]
    code, out, err = run(capsys, *argv)
    assert calls != [], "the injected LP fault met no LP"
    assert code == expected, err
    assert "Traceback" not in err
    assert bool(err) == (expected in (2, 3))
    if expected == 3:
        assert out == "" and err.startswith("internal error: ")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check", "just1", "--player", "1=sd:l"], "--player"),
        (["check", "singleton", "--prop", "sd:l", "--prop2", "sd:l"], "--prop2"),
        (["epistemic", "witness", "--prop", "sd:l", "--joint", "C,C"], "--joint"),
    ],
)
def test_an_ignored_flag_is_named_before_the_game_is_read(argv, flag, capsys):
    code, out, err = run(capsys, *argv, str(FIXTURES / "no-such.game"))
    assert (code, out) == (2, "")
    assert flag in err and "no-such" not in err


@pytest.mark.parametrize("as_json", [False, True])
def test_transfinite_prints_a_failed_validation(as_json, monkeypatch, capsys):
    _growing_limit_witness(monkeypatch)
    flags = ["--json"] if as_json else []
    code, out, err = run(capsys, "transfinite", "run", *flags, "growing-limit")
    assert code == 1 and err == ""
    if as_json:
        payload = json.loads(out)
        assert payload["trace"] is None
        assert not payload["validation"]["passed"]
        assert payload["validation"]["entries"][0]["probe"] == "-7"
    else:
        assert out.startswith("[FAIL] witness-validation")
        assert "limit-containment-failure" in out and "trace of" not in out
