"""Golden CLI outputs: a sweep of subcommands over every file in fixtures/,
compared byte for byte (stdout) and by exit code against recorded outputs.

Regenerate the recorded outputs, only when a change of output is intended,
from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from gamelattice.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "golden_cli.json"

PROPS = ["sd:l", "sd:g", "msd:l", "msd:g", "br:l:pure", "br:g:pure",
         "br:l:corr", "br:g:corr", "br:g:ind"]
INCLUSION_PAIRS = [("br:g:pure", "sd:l"), ("sd:l", "br:g:pure"), ("br:g:corr", "msd:l")]
EPISTEMIC_PROPS = ["sd:g", "sd:l", "br:g:pure"]


def sweep() -> list[list[str]]:
    """Every invocation of the golden sweep, as argv lists."""
    from gamelattice.games import parse_game_file

    runs = []
    for path in sorted((ROOT / "fixtures").glob("*.game")):
        rel = f"fixtures/{path.name}"
        for prop in PROPS:
            runs.append(["eliminate", "--prop", prop, rel])
            for verifier in ("tarski", "contracting", "monotone", "singleton"):
                runs.append(["check", verifier, "--prop", prop, rel])
        for prop, prop2 in INCLUSION_PAIRS:
            runs.append(["check", "inclusion", "--prop", prop, "--prop2", prop2, rel])
        for verifier in ("pearce", "just", "just1"):
            runs.append(["check", verifier, rel])
        omega = str(max(parse_game_file(path).sizes))
        for prop in EPISTEMIC_PROPS:
            runs.append(["epistemic", "enumerate", "--omega", omega, "--prop", prop, rel])
            for theorem in ("1", "2"):
                runs.append(["epistemic", "witness", "--theorem", theorem, "--prop", prop, rel])
    for witness in ("embedded-finite-pd", "witness-tg"):
        runs.append(["transfinite", "run", witness])
    for witness in ("embedded-finite-pd", "witness-tg"):
        runs.append(["transfinite", "run", "--json", witness])
    for bound in ("0w+3", "1w+0"):
        runs.append(["transfinite", "run", "--bound", bound, "witness-tg"])
    # across the validation depth (16), PROBE_DEPTH (32) and the first limit
    for bound in ("0w+0", "0w+16", "0w+17", "0w+32", "0w+33", "1w+1"):
        runs.append(["transfinite", "run", "--json", "--bound", bound, "witness-tg"])
    runs.append(["transfinite", "list"])
    runs.append(["transfinite", "run", "no-such-witness"])
    runs.append(["transfinite", "run", "--bound", "w+3", "witness-tg"])
    return runs


def invoke(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _recorded() -> list[dict]:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _fixed_environment(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GAMELATTICE_BUDGET", raising=False)


RECORDED = _recorded() if DATA.exists() else []


@pytest.mark.parametrize("case", RECORDED, ids=[" ".join(c["argv"]) for c in RECORDED])
def test_golden_output(case):
    code, out = invoke(case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


def test_golden_sweep_is_complete():
    assert [c["argv"] for c in RECORDED] == sweep()


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    os.environ.pop("GAMELATTICE_BUDGET", None)
    cases = []
    for argv in sweep():
        code, out = invoke(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out})
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = [c["exit"] for c in cases]
    print(f"{len(cases)} invocations, exit codes "
          f"{ {k: codes.count(k) for k in sorted(set(codes))} }", file=sys.stderr)
