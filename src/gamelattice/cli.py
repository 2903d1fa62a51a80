"""Command-line front end.

Every verifier and analysis is a batch subcommand with deterministic output.
Exit codes: 0 when all checks pass, 1 on a mathematical counterexample or an
iteration left unresolved at its ordinal bound, 2 on input, parse, or budget
errors, 3 on an internal fault (a certificate, an LP's witness or its dual,
that fails its re-validation, an LP that should be feasible and bounded but
is not, or an elimination outcome with an empty component under `epistemic
witness --theorem 1`).  --json switches to the canonical machine-readable
rendering; the GAMELATTICE_BUDGET environment variable sets the budget of
every command that has one, unless --budget is given: the round count, the
lattice size, the model count or the iterate count.  The `epistemic`
commands' monotonicity precondition keeps the built-in lattice budget of
2^16 restrictions whatever it says.  Each command evaluates properties
through one Evaluator, so its caches live exactly as long as the command.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import epistemic, iteration, properties, symbolic, witnesses
from .errors import GameLatticeError, InternalError
from .games import check_budget, is_count, parse_game_file, restriction_top
from .ordinals import parse_ordinal
from .properties import Evaluator, PropertyProfile, parse_property_spec, property_operator
from .reports import CheckReport, canonical_json

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _count(text: str, what: str) -> int:
    """`text` as a non-negative integer, written in ASCII digits alone
    (`games.is_count`); anything else, a sign included, is an input error
    naming `what`."""
    if not is_count(text):
        raise ValueError(f"{what} must be a non-negative integer, got {text!r}")
    return int(text)


def _read_budget(flag: str | None, default: int | None) -> int | None:
    """The --budget value, else GAMELATTICE_BUDGET, else `default`.  Zero is a
    budget of zero; a negative budget is an input error."""
    if flag is not None:
        return _count(flag, "--budget")
    raw = os.environ.get("GAMELATTICE_BUDGET")
    if raw is None:
        return default
    return _count(raw, "GAMELATTICE_BUDGET")


def _profile_from_args(args, game) -> PropertyProfile:
    n = game.num_players
    if args.player:
        if args.prop:
            raise ValueError("use either --prop or --player, not both")
        specs: list = [None] * n
        for item in args.player:
            head, _, spec_text = item.partition("=")
            if not spec_text:
                raise ValueError(f"--player wants <i>=<spec>, got {item!r}")
            idx = _count(head, "--player index")
            if not 1 <= idx <= n:
                raise ValueError(f"--player index {idx} out of range 1..{n}")
            if specs[idx - 1] is not None:
                raise ValueError(f"--player {idx} given twice")
            specs[idx - 1] = parse_property_spec(spec_text)
        missing = [str(i + 1) for i, s in enumerate(specs) if s is None]
        if missing:
            raise ValueError(f"--player missing for player(s) {', '.join(missing)}")
        return PropertyProfile(tuple(specs))
    if not args.prop:
        raise ValueError("a property is required: --prop or --player")
    return PropertyProfile.uniform(parse_property_spec(args.prop), n)


def _refuse_flags(args, command: str, *flags: str) -> None:
    """An input error naming the first of `flags` that was given, since
    `command` would ignore it."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"{command} does not use {flag}")


def _emit_report(report: CheckReport, as_json: bool) -> int:
    if as_json:
        print(report.to_json())
    else:
        print("\n".join(report.summary_lines()))
    return EXIT_OK if report.passed else EXIT_COUNTEREXAMPLE


def cmd_eliminate(args) -> int:
    budget = _read_budget(args.budget, None)
    game = parse_game_file(args.game)
    profile = _profile_from_args(args, game)
    trace = properties.outcome(profile, game, budget=budget)
    if args.json:
        print(canonical_json(trace.to_json_dict()))
    else:
        print(f"game {game.name}: eliminate {profile}")
        for ordinal, restriction in trace.steps:
            print(f"  {ordinal}: {restriction}")
        print(f"closure ordinal: {trace.closure_ordinal}")
        print(f"outcome: {trace.outcome}")
    return EXIT_OK


def cmd_check(args) -> int:
    command = f"check {args.verifier}"
    if args.verifier in ("pearce", "just", "just1"):
        _refuse_flags(args, command, "--prop", "--player", "--prop2")
    elif args.verifier == "inclusion":
        _refuse_flags(args, command, "--player")
    else:
        _refuse_flags(args, command, "--prop2")
    budget = _read_budget(None, None)
    lattice_budget = iteration.DEFAULT_LATTICE_BUDGET if budget is None else budget
    game = parse_game_file(args.game)
    # pearce, just and just1 make their own
    if args.verifier not in ("pearce", "just", "just1"):
        evaluator = Evaluator(game)
    if args.verifier in ("tarski", "contracting", "monotone", "singleton"):
        profile = _profile_from_args(args, game)
    if args.verifier == "tarski":
        op = property_operator(profile, game, evaluator)
        report = iteration.verify_tarski(
            op, game, op_name=str(profile), max_restrictions=lattice_budget
        )
    elif args.verifier == "contracting":
        op = property_operator(profile, game, evaluator)
        report = iteration.verify_contracting_outcome(
            op, game, op_name=str(profile), budget=budget
        )
    elif args.verifier == "monotone":
        if len(set(profile.specs)) != 1:
            raise ValueError("check monotone wants a single property")
        report = properties.check_property_monotone(
            profile.specs[0], game, max_restrictions=lattice_budget, evaluator=evaluator
        )
    elif args.verifier == "singleton":
        if len(set(profile.specs)) != 1:
            raise ValueError("check singleton wants a single property")
        report = properties.check_singleton_condition(profile.specs[0], game, evaluator)
    elif args.verifier == "inclusion":
        if not args.prop or not args.prop2:
            raise ValueError("check inclusion wants --prop and --prop2")
        p1 = PropertyProfile.uniform(parse_property_spec(args.prop), game.num_players)
        p2 = PropertyProfile.uniform(parse_property_spec(args.prop2), game.num_players)
        report = iteration.verify_inclusion_lemma(
            property_operator(p1, game, evaluator),
            property_operator(p2, game, evaluator),
            game,
            op1_name=str(p1),
            op2_name=str(p2),
            max_restrictions=lattice_budget,
        )
    elif args.verifier == "pearce":
        report = properties.pearce_equivalence_suite(
            game, max_restrictions=lattice_budget
        )
    elif args.verifier == "just":
        report = properties.verify_theorem_just(game, max_restrictions=lattice_budget)
    elif args.verifier == "just1":
        report = properties.verify_theorem_just1(game, max_restrictions=lattice_budget)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown verifier {args.verifier!r}")
    return _emit_report(report, args.json)


def _epistemic_expectation(game, profile, evaluator):
    """Which theorem governs the enumeration: 'outcome' when every property
    is monotonic, 'full-game' when every property accepts singletons, else
    None."""
    specs = sorted(set(profile.specs), key=str)
    if all(properties.property_is_monotone(s, game, evaluator) for s in specs):
        return "outcome"
    if all(properties.check_singleton_condition(s, game, evaluator).passed for s in specs):
        return "full-game"
    return None


def cmd_epistemic(args) -> int:
    if args.action == "enumerate":
        _refuse_flags(args, "epistemic enumerate", "--joint", "--theorem")
        omega = 4 if args.omega is None else _count(args.omega, "--omega")
    else:
        _refuse_flags(args, "epistemic witness", "--omega")
        theorem = 1 if args.theorem is None else _count(args.theorem, "--theorem")
        if theorem not in (1, 2):
            raise ValueError(f"--theorem must be 1 or 2, got {theorem}")
        if theorem == 1:
            _refuse_flags(args, "epistemic witness --theorem 1", "--joint")
    budget = _read_budget(None, epistemic.DEFAULT_MODEL_BUDGET)
    game = parse_game_file(args.game)
    profile = _profile_from_args(args, game)
    if args.action == "enumerate":
        evaluator = Evaluator(game)
        ck = epistemic.enumerate_ck_cb(
            game, omega, profile, "knowledge", budget, evaluator
        )
        cb = epistemic.enumerate_ck_cb(
            game, omega, profile, "belief", budget, evaluator
        )
        operator_outcome = properties.outcome(profile, game, evaluator=evaluator).outcome
        expectation = _epistemic_expectation(game, profile, evaluator)
        if expectation == "outcome":
            target = operator_outcome
        elif expectation == "full-game":
            target = restriction_top(game)
        else:
            target = None
        agree = ck.restriction == cb.restriction and (
            target is None or ck.restriction == target
        )
        report = CheckReport(
            name="epistemic-enumeration",
            passed=agree,
            details={
                "game": game.name,
                "profile": str(profile),
                "omega_size": omega,
                "models_enumerated": ck.models_enumerated + cb.models_enumerated,
                "models_total": ck.models_total + cb.models_total,
                "ck_restriction": ck.restriction.names(),
                "cb_restriction": cb.restriction.names(),
                "operator_outcome": operator_outcome.names(),
                "expectation": expectation,
                "verdict": "pass" if agree else "mismatch",
            },
        )
        return _emit_report(report, args.json)
    # witness construction
    if theorem == 1:
        result = epistemic.witness_model_thm1(game, profile)
    else:
        if args.joint:
            names = args.joint.split(",")
            if len(names) != game.num_players:
                raise ValueError(
                    f"--joint wants {game.num_players} comma-separated strategies"
                )
            joint = tuple(
                game.strategy_index(i, s.strip()) for i, s in enumerate(names)
            )
        else:
            joint = tuple(0 for _ in game.players())
        result = epistemic.witness_model_thm2(game, profile, joint)
    return _emit_report(result.report, args.json)


def cmd_transfinite(args) -> int:
    if args.action == "list":
        for name in sorted(witnesses.REGISTRY):
            print(name)
        return EXIT_OK
    budget = _read_budget(None, symbolic.DEFAULT_ITERATE_BUDGET)
    bound = parse_ordinal(args.bound)
    # every omega-block below the bound's holds at most PROBE_DEPTH + 1 iterates
    iterates = bound.omega_coeff * (symbolic.PROBE_DEPTH + 1) + bound.finite + 1
    check_budget(iterates, budget, f"{iterates} iterates to bound {bound}")
    game = witnesses.load_witness(args.witness)
    validation = symbolic.validate_witness(game)
    trace = symbolic.iterate_symbolic(game, bound) if validation.passed else None
    if args.json:
        payload = {
            "witness": game.name,
            "encodes": game.encodes,
            "validation": validation.to_json_dict(),
            "trace": None if trace is None else trace.to_json_dict(),
        }
        print(canonical_json(payload))
    else:
        print("\n".join(validation.summary_lines()))
        if trace is None:
            return EXIT_COUNTEREXAMPLE
        print(f"trace of {game.name} (bound {bound}):")
        for ordinal, sets in trace.steps:
            rendered = " || ".join(str(s) for s in sets)
            print(f"  {ordinal}: {rendered}")
        if trace.status == "fixpoint":
            print(f"fixpoint at {trace.closure_ordinal}")
        else:
            print(f"unresolved at bound {bound}")
    if trace is None or trace.status != "fixpoint":
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never
    changes it."""
    parser = argparse.ArgumentParser(
        prog="gamelattice",
        description="Iterated strategy elimination, lattice fixpoint checks, "
        "and epistemic model checking for strategic games, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile_flags(p):
        p.add_argument("--prop", help="one property for every player, e.g. sd:l or br:g:pure")
        p.add_argument(
            "--player",
            action="append",
            metavar="I=SPEC",
            help="per-player property, e.g. --player 1=sd:l (repeatable)",
        )

    p = sub.add_parser("eliminate", help="run iterated elimination and print the trace")
    add_profile_flags(p)
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    p.add_argument("--budget", metavar="N", help="iteration budget override")
    p.add_argument("game", help="game file")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("check", help="run a verifier against a game file")
    p.add_argument(
        "verifier",
        choices=[
            "tarski",
            "contracting",
            "inclusion",
            "monotone",
            "singleton",
            "pearce",
            "just",
            "just1",
        ],
    )
    add_profile_flags(p)
    p.add_argument("--prop2", help="second property for 'inclusion'")
    p.add_argument("--json", action="store_true")
    p.add_argument("game", help="game file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("epistemic", help="model enumeration and witness constructions")
    p.add_argument("action", choices=["enumerate", "witness"])
    add_profile_flags(p)
    p.add_argument("--omega", metavar="N", help="state-space size for enumerate (default 4)")
    p.add_argument("--theorem", metavar="{1,2}", help="witness theorem (default 1)")
    p.add_argument("--joint", help="joint strategy for --theorem 2, e.g. C,C")
    p.add_argument("--json", action="store_true")
    p.add_argument("game", help="game file")
    p.set_defaults(func=cmd_epistemic)

    p = sub.add_parser("transfinite", help="ordinal-labelled symbolic iteration")
    tsub = p.add_subparsers(dest="action", required=True)
    prun = tsub.add_parser("run", help="validate a witness and iterate it")
    prun.add_argument("--bound", default="2w+8", help="ordinal bound, e.g. 2w+5")
    prun.add_argument("--json", action="store_true")
    prun.add_argument("witness", help="registered witness name")
    prun.set_defaults(func=cmd_transfinite, action="run")
    plist = tsub.add_parser("list", help="list registered witnesses")
    plist.set_defaults(func=cmd_transfinite, action="list")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GameLatticeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
