import gc
import json
import pathlib
from dataclasses import replace
from fractions import Fraction

import pytest

from gamelattice import cli, lp, witnesses
from gamelattice.cli import EXIT_INTERNAL, main
from gamelattice.games import parse_game_file
from gamelattice.iteration import trace_from_json_dict, iterate_operator
from gamelattice.properties import PropertyProfile, parse_property_spec, property_operator
from gamelattice.symbolic import SymbolicSet

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("env,argv,expected", BUDGET_CASES)
def test_budget_exit_codes(env, argv, expected, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("GAMELATTICE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GAMELATTICE_BUDGET", env)
    code, _, err = run(capsys, *argv[:-1], str(FIXTURES / argv[-1]))
    assert code == expected, err


def test_independent_global_beliefs_three_players_rejected(capsys):
    # a supporting pure belief must not settle br:g:ind beyond two players
    code, out, err = run(
        capsys, "eliminate", "--prop", "br:g:ind", str(FIXTURES / "three.game")
    )
    assert code == 2
    assert "independent mixed beliefs" in err


def _kernel_returning_first_vertex(objective, lhs_le=(), rhs_le=(), lhs_eq=(), rhs_eq=()):
    """A broken LP kernel: a positive value at x = (1, 0, ..., 0), whatever
    the constraints say."""
    return Fraction(1), [Fraction(int(j == 0)) for j in range(len(objective))]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "pearce", "pd.game"],
        ["eliminate", "--prop", "msd:l", "pd.game"],
        ["check", "just1", "--json", "mix.game"],
    ],
)
def test_failed_revalidation_exits_internal(argv, monkeypatch, capsys):
    monkeypatch.setattr(lp, "simplex_maximize", _kernel_returning_first_vertex)
    code, out, err = run(capsys, *argv[:-1], str(FIXTURES / argv[-1]))
    assert code == EXIT_INTERNAL == 3
    assert err.startswith("internal error:") and "re-validation" in err
    assert "Traceback" not in err


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


def _broken_kernel(monkeypatch):
    monkeypatch.setattr(lp, "simplex_maximize", _kernel_returning_first_vertex)


def _growing_limit_witness(monkeypatch):
    base = witnesses.transfinite_witness()

    def limit(block):
        return tuple(s.union(SymbolicSet.point(-7)) for s in block[-1])

    monkeypatch.setitem(
        witnesses.REGISTRY, "growing-limit", lambda: replace(base, limit=limit)
    )


def _lifted_msd_witness(monkeypatch):
    _broken_kernel(monkeypatch)
    profile = PropertyProfile.uniform(parse_property_spec("msd:l"), 2)
    game = parse_game_file(FIXTURES / "pd.game")
    lifted = witnesses.lift_finite_game(game, profile)
    monkeypatch.setitem(witnesses.REGISTRY, "lifted-msd", lambda: lifted)


def _full_game_expected(monkeypatch):
    monkeypatch.setattr(cli, "_epistemic_expectation", lambda *args: "full-game")


EXIT_CASES = [
    # (argv, fault injected first, exit code); eliminate has no
    # counterexample to report, so it never exits 1
    (["eliminate", "--prop", "sd:l", "pd.game"], None, 0),
    (["eliminate", "--prop", "br:g:ind", "three.game"], None, 2),
    (["eliminate", "--prop", "msd:l", "pd.game"], _broken_kernel, 3),
    (["check", "tarski", "--prop", "sd:g", "pd.game"], None, 0),
    (["check", "tarski", "--prop", "sd:l", "chain.game"], None, 1),
    (["check", "tarski", "--prop", "sd:g", "no-such.game"], None, 2),
    (["check", "pearce", "pd.game"], _broken_kernel, 3),
    (["epistemic", "enumerate", "--omega", "2", "--prop", "sd:g", "pd.game"], None, 0),
    # a theorem that fails: the enumeration misses its expected restriction
    (["epistemic", "enumerate", "--omega", "2", "--prop", "sd:g", "pd.game"],
     _full_game_expected, 1),
    (["epistemic", "witness", "--theorem", "2", "--prop", "sd:g", "pd.game"], None, 2),
    (["epistemic", "witness", "--theorem", "1", "--prop", "msd:l", "pd.game"],
     _broken_kernel, 3),
    (["transfinite", "run", "witness-tg"], None, 0),
    # the fixpoint at 1 is tested before the bound of 1 applies
    (["transfinite", "run", "--bound", "1", "embedded-finite-pd"], None, 0),
    (["transfinite", "run", "--bound", "0w+3", "witness-tg"], None, 1),
    (["transfinite", "run", "growing-limit"], _growing_limit_witness, 1),
    (["transfinite", "run", "no-such-witness"], None, 2),
    (["transfinite", "run", "lifted-msd"], _lifted_msd_witness, 3),
]


@pytest.mark.parametrize("argv,fault,expected", EXIT_CASES)
def test_exit_code_contract(argv, fault, expected, monkeypatch, capsys):
    if fault is not None:
        fault(monkeypatch)
    if argv[-1].endswith(".game"):
        argv = [*argv[:-1], str(FIXTURES / argv[-1])]
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    assert "Traceback" not in err
    assert bool(err) == (expected in (2, 3))


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
