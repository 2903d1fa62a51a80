"""Benchmark runner for gamelattice.

Run from the repository root:

    python3 bench/run.py --workload lp-verify --seed 0 --seconds 20 --trace 0

One client runs jobs back to back (closed loop, single thread).  A job is one
CLI invocation, made in-process through `gamelattice.cli.main(argv)` with its
output captured and checked.  With `--trace 0` the runner does the whole
cycles of the workload's job mix that `--seconds` buys at the reference speed
and reports the end-to-end metrics.  With `--trace 1` it runs the first cycle
untraced, the same cycle again with every layer traced, replays the frozen LP
corpus, and reports the per-layer metrics.  The last line of stdout is one
JSON object; the lines before it repeat each metric with its sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"
SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up in a fresh interpreter
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path):
    """What every measured run pays first: import the package and write the
    first cycle's game files.  Returns (cli.main, cycle-0 jobs)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gamelattice import cli

    import workloads

    if workload not in workloads.WORKLOADS:
        known = ", ".join(sorted(workloads.WORKLOADS))
        raise SystemExit(f"unknown workload {workload!r}; known: {known}")
    workdir.mkdir(parents=True, exist_ok=True)
    return cli.main, workloads.instantiate_cycle(workload, seed, 0, workdir)


def timed_setups(workload: str, seed: int) -> list[float]:
    """Scaled wall times of SETUP_REPEATS set-ups, each in a fresh
    interpreter, alternating with the reference interpreter start."""
    import machine

    walls, spawns = [], []
    for i in range(SETUP_REPEATS):
        spawns.append(machine.spawn_probe())
        workdir = OUT / f"setup-{i}"
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(workdir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        walls.append(time.perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
    factor = machine.REFERENCE_SPAWN_S / statistics.median(spawns)
    return [w * factor for w in walls]


def run_job(cli_main, run, tracer=None, job_id=0):
    import workloads

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli_main(run.argv)
            else:
                code = tracer.run_job(job_id, cli_main, run.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    ok, reason, payload = workloads.check_output(run, code, out.getvalue())
    if not ok and err.getvalue():
        reason += f" ({err.getvalue().strip().splitlines()[-1]})"
    return workloads.JobResult(run, seconds, ok, reason, payload)


def run_cycle(cli_main, runs, tracer=None, first_id=0):
    """Run one cycle with a machine-speed probe before every job and after
    the last; returns (results, scaled job seconds, cross-check problems)."""
    import machine
    import workloads

    results, probes = [], []
    for k, r in enumerate(runs):
        probes.append(machine.probe())
        results.append(run_job(cli_main, r, tracer, first_id + k))
    probes.append(machine.probe())
    for r, scaled in zip(results, machine.scale([r.seconds for r in results], probes)):
        r.scaled = scaled
    return results, sum(r.scaled for r in results), workloads.cross_check(results)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def expected_digest(workload: str, seed: int):
    if not EXPECTED.is_file():
        return None
    data = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return data.get("digests", {}).get(workload, {}).get(str(seed))


def declared_metrics(trace: int) -> list[dict]:
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return data["per_layer" if trace else "end_to_end"]


def measure(args, cli_main, cycle0, workdir):
    """Untraced run: the workload's cycles for --seconds, back to back."""
    import workloads

    results, problems, wall = [], [], 0.0
    cycles = workloads.cycles_for(args.workload, args.seconds)
    for cycle in range(cycles):
        runs = cycle0 if cycle == 0 else workloads.instantiate_cycle(
            args.workload, args.seed, cycle, workdir)
        res, w, prob = run_cycle(cli_main, runs, first_id=len(results))
        results += res
        problems += prob
        wall += w
        if cycle == 0:
            digest = workloads.verdict_digest(res)
    job_ms = [r.scaled * 1000 for r in results]
    raw_ms = [r.seconds * 1000 for r in results]
    n = len(results)
    failed = sum(not r.ok for r in results)
    metrics = {
        "jobs_per_s": (n / wall, "1/s", n),
        "job_ms.p50": (statistics.median(job_ms), "ms", n),
        "job_ms.p90": (percentile(job_ms, 90), "ms", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_ratio": (failed / n, "ratio", n),
        "unscaled.jobs_per_s": (n / (sum(raw_ms) / 1000), "1/s", n),
        "unscaled.job_ms.p50": (statistics.median(raw_ms), "ms", n),
        "unscaled.job_ms.p90": (percentile(raw_ms, 90), "ms", n),
    }
    info = {"input": workloads.input_properties(cycle0), "cycles": cycles, "scaled_job_s": wall}
    return results, problems, digest, metrics, info


def traced(args, cli_main, cycle0, workdir):
    """Cycle 0 untraced, then cycle 0 again (renamed games) traced."""
    import lpcorpus
    import tracer as tracing
    import workloads

    plain, plain_wall, problems = run_cycle(cli_main, cycle0)
    again = workloads.instantiate_cycle(args.workload, args.seed, 0, workdir, tag="t")
    tr = tracing.Tracer()
    tr.install()
    try:
        traced_res, traced_wall, prob = run_cycle(cli_main, again, tr, first_id=len(plain))
    finally:
        tr.uninstall()
    problems += prob
    from gamelattice import lp

    values = tr.metrics()
    values.update(lpcorpus.replay(lp.simplex_maximize, lpcorpus.load()))
    values["trace.overhead_ratio"] = plain_wall / traced_wall
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
    tr.write_spans(spans_path)
    digest = workloads.verdict_digest(plain)
    if workloads.verdict_digest(traced_res) != digest:
        problems.append("traced and untraced passes reached different verdicts")
    if values["lp.corpus.mismatches"]:
        problems.append(f"{values['lp.corpus.mismatches']} LP corpus mismatches")
    info = {
        "input": workloads.input_properties(cycle0),
        "spans": f"{tr.spans_recorded} recorded, {tr.spans_dropped} dropped, "
                 f"written to {spans_path.relative_to(ROOT)}",
    }
    return plain + traced_res, problems, digest, values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gamelattice" / "__init__.py").is_file():
        print(f"error: no gamelattice sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    setup_times = timed_setups(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        cli_main, cycle0 = setup(args.workload, args.seed, workdir)
        if args.trace:
            results, problems, digest, values, info = traced(args, cli_main, cycle0, workdir)
            metrics = {k: (v, None, None) for k, v in values.items()}
        else:
            results, problems, digest, metrics, info = measure(args, cli_main, cycle0, workdir)
            metrics["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in results if not r.ok]
    for r in failures[:MAX_REPORTED_FAILURES]:
        problems.append(f"job {r.run.job.label} {r.run.argv[-1]}: {r.reason}")
    want = expected_digest(args.workload, args.seed)
    if want is not None and want != digest:
        problems.append(f"verdict digest {digest} differs from the recorded {want}")

    for key, value in info.items():
        print(f"# {key}: {json.dumps(value) if isinstance(value, dict) else value}")
    print(f"# verdict digest (cycle 0): {digest}"
          + ("" if want is None else " (matches the recorded one)" if want == digest else ""))
    for problem in problems:
        print(f"# FAILED: {problem}", file=sys.stderr)

    reported = {}
    for spec in declared_metrics(args.trace):
        value, _, samples = metrics[spec["name"]]
        reported[spec["name"]] = {"value": value, "unit": spec["unit"]}
        count = "" if samples is None else f"  (n={samples})"
        print(f"# {spec['name']} = {value:.6g} {spec['unit']}{count}")
    for name, (value, unit, samples) in metrics.items():
        if name not in reported:
            print(f"# {name} = {value:.6g} {unit}  (n={samples})")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
