"""Seeded inputs, job mixes and output checks for the gamelattice benchmark.

A workload is a fixed cycle of jobs.  Each job is one CLI invocation
(`gamelattice.cli.main(argv)`) on a game file written from the seed, so the
program parses text exactly as it would for a user.  Cycle `c` of seed `s`
draws fresh payoffs for every group of jobs, and every job gets its own game
name, so no job can reuse property-cache entries left by another job.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from gamelattice.games import Game, format_game

PAYOFF_BOUND = 5
GAME = "{game}"


@dataclass(frozen=True)
class Job:
    """One CLI invocation; `agree` names the profile whose elimination
    outcome this job reports, so jobs of one group can be cross-checked."""

    label: str
    argv: tuple[str, ...]
    agree: str | None = None


@dataclass(frozen=True)
class Group:
    """Jobs that run on one seeded game (or on none, for transfinite jobs).

    `reducible` asks for a game where some strategy is strictly dominated by
    another pure strategy, so global-profile enumerations cannot exit early.
    """

    sizes: tuple[int, ...] | None
    jobs: tuple[Job, ...]
    reducible: bool = False


@dataclass
class JobRun:
    """A job instantiated for one cycle: its group index and real argv."""

    job: Job
    group: int
    argv: list[str]
    game: Game | None


def _shape(sizes) -> str:
    return "x".join(str(k) for k in sizes)


def _check(verifier, prop, agree=False, prop2=None):
    argv = ["check", verifier, "--prop", prop]
    label = f"{verifier} {prop}"
    if prop2 is not None:
        argv += ["--prop2", prop2]
        label += f" {prop2}"
    return Job(label, tuple(argv + ["--json", GAME]), prop if agree else None)


def _eliminate(prop):
    return Job(f"eliminate {prop}", ("eliminate", "--prop", prop, "--json", GAME), prop)


def _enumerate(omega, *profile):
    return Job(
        f"enumerate w={omega} {' '.join(profile)}",
        ("epistemic", "enumerate", *profile, "--omega", str(omega), "--json", GAME),
    )


def _witness(theorem, prop):
    return Job(
        f"witness thm{theorem} {prop}",
        ("epistemic", "witness", "--theorem", str(theorem), "--prop", prop, "--json", GAME),
    )


def _transfinite(name):
    return Job(f"transfinite {name}", ("transfinite", "run", "--json", name))


def _lp_group(sizes):
    return Group(
        sizes,
        tuple(
            Job(f"check {v}", ("check", v, "--json", GAME))
            for v in ("just", "just1", "pearce")
        ),
    )


def _lattice_group(sizes, mono, other, singleton, inclusion=True):
    """eliminate, tarski and contracting on `mono` (their outcomes must
    agree), eliminate and monotone on `other`, inclusion op1 <= sd:l, and
    singleton."""
    jobs = [
        _eliminate(mono),
        _check("tarski", mono, agree=True),
        _check("contracting", mono, agree=True),
        _eliminate(other),
        _check("monotone", other),
    ]
    if inclusion:
        jobs.append(_check("inclusion", other, agree=True, prop2="sd:l"))
    jobs.append(_check("singleton", singleton))
    return Group(sizes, tuple(jobs))


GLOBAL_PROFILES = (("--prop", "sd:g"), ("--prop", "br:g:pure"))
LOCAL_PROFILES = (("--prop", "sd:l"), ("--prop", "br:l:pure"))
HETERO = ("--player", "1=sd:g", "--player", "2=br:g:pure")


def _enumerate_group(sizes, omega, profiles):
    return Group(sizes, tuple(_enumerate(omega, *p) for p in profiles), reducible=True)


def _witness_group(sizes):
    return Group(
        sizes,
        (
            _witness(1, "sd:g"),
            _witness(1, "br:g:pure"),
            _witness(2, "sd:l"),
            _witness(2, "br:l:pure"),
        ),
    )


WORKLOADS: dict[str, tuple[Group, ...]] = {
    # LP-bound verifiers: just/just1/pearce on 2-player 2..4 x 2..4 games and
    # 3-player 2x2x2 games.
    "lp-verify": tuple(
        _lp_group(s)
        for s in (
            (2, 2), (2, 2), (2, 3), (2, 3), (2, 3), (3, 2), (3, 2), (3, 3),
            (2, 4), (4, 2), (3, 4), (4, 3), (3, 4), (4, 4), (2, 2, 2), (2, 2, 2),
        )
    ),
    # LP-free lattice verifiers: whole-lattice tables and the mask pair loop.
    "lattice": (
        _lattice_group((4, 4), "sd:g", "br:g:pure", "sd:l"),
        _lattice_group((4, 5), "br:g:pure", "sd:g", "br:l:pure"),
        _lattice_group((5, 5), "sd:g", "br:g:pure", "sd:l"),
        _lattice_group((6, 6), "br:g:pure", "sd:g", "br:l:pure", inclusion=False),
        _lattice_group((2, 2, 2), "sd:g", "br:g:pure", "sd:l"),
        _lattice_group((3, 3, 3), "br:g:pure", "sd:g", "br:l:pure"),
        Group(None, (_transfinite("witness-tg"), _transfinite("embedded-finite-pd"))),
    ),
    # LP-free model enumeration: global profiles enumerate every model (their
    # games are reducible), local profiles stop once the full game is seen.
    "epistemic": (
        _enumerate_group((2, 2), 4, (GLOBAL_PROFILES[0],) + LOCAL_PROFILES),
        _enumerate_group((2, 2), 3, GLOBAL_PROFILES + LOCAL_PROFILES + (HETERO,)),
        _enumerate_group((2, 3), 3, GLOBAL_PROFILES + LOCAL_PROFILES + (HETERO,)),
        _enumerate_group((3, 3), 3, GLOBAL_PROFILES + LOCAL_PROFILES + (HETERO,)),
        _enumerate_group((3, 3), 3, GLOBAL_PROFILES + LOCAL_PROFILES + (HETERO,)),
        _enumerate_group((2, 2, 2), 2, GLOBAL_PROFILES + LOCAL_PROFILES),
        _enumerate_group((2, 2, 2), 3, LOCAL_PROFILES),
        _witness_group((2, 2)),
        _witness_group((3, 3)),
        _witness_group((2, 2, 2)),
    ),
}

# Scaled seconds (see machine.py) one cycle took when the benchmark was
# introduced.  A run of --seconds S does round(S / CYCLE_SECONDS) whole
# cycles, so every run of one seed does the same work and a faster program
# simply finishes sooner.
CYCLE_SECONDS = {"lp-verify": 9.2, "lattice": 3.4, "epistemic": 6.0}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


# -- seeded games -------------------------------------------------------------


def _payoff(sizes, payoffs, player, joint):
    idx = 0
    for k, s in zip(sizes, joint):
        idx = idx * k + s
    return payoffs[idx][player]


def pure_dominated_exists(sizes, payoffs) -> bool:
    """Some strategy is strictly worse than another pure strategy of the same
    player against every opponent profile of the full game."""
    for i, k in enumerate(sizes):
        others = [range(m) for j, m in enumerate(sizes) if j != i]
        profiles = [list(p) for p in itertools.product(*others)]

        def pay(s, p):
            return _payoff(sizes, payoffs, i, p[:i] + [s] + p[i:])

        for low in range(k):
            for high in range(k):
                if high != low and all(pay(high, p) > pay(low, p) for p in profiles):
                    return True
    return False


def random_game(rng: random.Random, sizes, name: str, reducible: bool = False) -> Game:
    """n-player game with integer payoffs uniform in [-PAYOFF_BOUND, PAYOFF_BOUND];
    redrawn until it has a pure-dominated strategy when `reducible`."""
    names = tuple(
        tuple(f"{'abcdefgh'[i]}{s + 1}" for s in range(k)) for i, k in enumerate(sizes)
    )
    cells = math.prod(sizes)
    while True:
        payoffs = tuple(
            tuple(Fraction(rng.randint(-PAYOFF_BOUND, PAYOFF_BOUND)) for _ in sizes)
            for _ in range(cells)
        )
        if not reducible or pure_dominated_exists(sizes, payoffs):
            return Game(name, names, payoffs)


def instantiate_cycle(
    workload: str, seed: int, cycle: int, workdir: Path, tag: str = "c"
) -> list[JobRun]:
    """Write the game files of one cycle and return its jobs in run order.

    The payoffs depend only on (seed, cycle, group); `tag` only renames the
    games, so a second pass over the same cycle shares no cached results with
    the first one.
    """
    runs = []
    for gi, group in enumerate(WORKLOADS[workload]):
        game = None
        if group.sizes is not None:
            rng = random.Random(f"{workload}/{seed}/{cycle}/{gi}")
            game = random_game(rng, group.sizes, "proto", group.reducible)
        for ji, job in enumerate(group.jobs):
            argv = list(job.argv)
            job_game = None
            if game is not None:
                name = f"{tag}{cycle}g{gi}j{ji}"
                job_game = Game(name, game.strategy_names, game.payoffs)
                path = workdir / f"{name}.game"
                path.write_text(format_game(job_game), encoding="utf-8")
                argv = [str(path) if a == GAME else a for a in argv]
            runs.append(JobRun(job, gi, argv, job_game))
    return runs


def input_properties(runs: list[JobRun]) -> dict:
    """Shapes and lattice sizes of the games behind a list of jobs."""
    shapes: dict[str, int] = {}
    lattice = []
    players3 = 0
    games = 0
    seen = set()
    for r in runs:
        if r.game is None or (r.group, r.game.payoffs) in seen:
            continue
        seen.add((r.group, r.game.payoffs))
        sizes = r.game.sizes
        games += 1
        shapes[_shape(sizes)] = shapes.get(_shape(sizes), 0) + 1
        lattice.append(1 << sum(sizes))
        players3 += len(sizes) >= 3
    return {
        "games": games,
        "shapes": dict(sorted(shapes.items())),
        "lattice_sizes": sorted(set(lattice)),
        "lattice_size_mean": sum(lattice) / len(lattice) if lattice else 0.0,
        "three_player_share": players3 / games if games else 0.0,
    }


# -- output checks and the verdict digest -------------------------------------

# Verdict-level fields: anything else (certificates, model counts, game
# names, counters) may legitimately change with an optimisation.
VERDICT_KEYS = frozenset(
    {
        "passed",
        "outcome",
        "operator_outcome",
        "br_global_outcome",
        "sd_local_outcome",
        "msd_local_outcome",
        "op1_outcome",
        "op2_outcome",
        "brc_image",
        "msd_image",
        "ck_restriction",
        "cb_restriction",
        "closure_ordinal",
        "status",
        "verdict",
    }
)


def verdict_projection(payload) -> list:
    """(path, value) for every verdict-level field, in a canonical order."""
    found = []

    def walk(value, path):
        if isinstance(value, dict):
            for key in sorted(value):
                sub = f"{path}/{key}"
                if key in VERDICT_KEYS:
                    found.append([sub, value[key]])
                elif key != "entries":
                    walk(value[key], sub)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")

    walk(payload, "")
    return found


def _outcome(payload):
    """The reported elimination outcome: eliminate's, the one tarski and
    contracting report, or inclusion's op1 outcome."""
    if "details" in payload:
        details = payload["details"]
        return details.get("outcome", details.get("op1_outcome"))
    return payload.get("outcome")


@dataclass
class JobResult:
    run: JobRun
    seconds: float
    ok: bool
    reason: str = ""
    payload: dict | None = field(default=None, repr=False)
    scaled: float = 0.0  # seconds at the reference machine speed


def check_output(run: JobRun, code, out: str) -> tuple[bool, str, dict | None]:
    """Exit 0, parseable JSON, and a passing verdict."""
    if code != 0:
        return False, f"exit code {code}", None
    try:
        payload = json.loads(out)
    except ValueError:
        return False, "stdout is not JSON", None
    argv = run.job.argv
    if argv[0] == "transfinite":
        if not payload["validation"]["passed"]:
            return False, "witness validation failed", payload
        if payload["trace"]["status"] != "fixpoint":
            return False, "no fixpoint within the bound", payload
        if argv[-1] == "witness-tg" and payload["trace"]["closure_ordinal"] != "1w+1":
            return False, "witness-tg did not close at 1w+1", payload
        return True, "", payload
    if argv[0] == "eliminate":
        if "outcome" not in payload:
            return False, "no outcome", payload
        return True, "", payload
    if payload.get("passed") is not True:
        return False, "verdict is not passed", payload
    return True, "", payload


def cross_check(results: list[JobResult]) -> list[str]:
    """Within a group, every job reporting the outcome of one profile must
    report the same outcome (eliminate = tarski's largest fixpoint =
    contracting's fixpoint = inclusion's op1 outcome)."""
    problems = []
    seen: dict[tuple[int, str], tuple[str, object]] = {}
    for r in results:
        key = r.run.job.agree
        if key is None or r.payload is None:
            continue
        got = _outcome(r.payload)
        first = seen.setdefault((r.run.group, key), (r.run.job.label, got))
        if first[1] != got:
            problems.append(
                f"group {r.run.group}: {r.run.job.label} outcome {got} "
                f"differs from {first[0]} outcome {first[1]}"
            )
    return problems


def verdict_digest(results: list[JobResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        projection = verdict_projection(r.payload) if r.payload is not None else None
        line = json.dumps([r.run.group, r.run.job.label, projection], sort_keys=True)
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()
