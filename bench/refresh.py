"""Regenerate the benchmark's recorded data.

    python3 bench/refresh.py corpus            # bench/lp_corpus.json.gz
    python3 bench/refresh.py digests 0 9       # bench/expected.json, seeds 0..9

`corpus` captures the distinct `lp.simplex_maximize` instances of the first
lp-verify cycles at the default seed.  `digests` records the cycle-0 verdict
digest of every workload for a range of seeds; the runner fails a run whose
digest differs from the recorded one.  Refresh only when the benchmark's
inputs change, never to make a failing run pass.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

CORPUS_SIZE = 3000


def capture_corpus():
    import lpcorpus
    import workloads

    workdir = run.OUT / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    cli_main, runs = run.setup("lp-verify", 0, workdir)
    from gamelattice import lp

    solve = lp.simplex_maximize
    seen = {}

    def capture(objective, lhs_le=(), rhs_le=(), lhs_eq=(), rhs_eq=()):
        key = (
            tuple(objective),
            tuple(map(tuple, lhs_le)),
            tuple(rhs_le),
            tuple(map(tuple, lhs_eq)),
            tuple(rhs_eq),
        )
        if key not in seen and len(seen) < CORPUS_SIZE:
            seen[key] = None
        return solve(objective, lhs_le, rhs_le, lhs_eq, rhs_eq)

    lp.simplex_maximize = capture
    try:
        cycle = 0
        while len(seen) < CORPUS_SIZE:
            if cycle:
                runs = workloads.instantiate_cycle("lp-verify", 0, cycle, workdir)
            results, _, problems = run.run_cycle(cli_main, runs)
            if problems or not all(r.ok for r in results):
                raise SystemExit("lp-verify failed while capturing the corpus")
            cycle += 1
    finally:
        lp.simplex_maximize = solve
        shutil.rmtree(workdir, ignore_errors=True)
    instances = [key + (lpcorpus.outcome_of(solve, key)[0],) for key in seen]
    lpcorpus.save(instances, f"lp-verify seed 0, first {len(instances)} distinct LPs")
    print(f"captured {len(instances)} instances from {cycle} cycle(s)")


def record_digests(first: int, last: int):
    import workloads

    data = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    digests = data.setdefault("digests", {})
    for name in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            workdir = run.OUT / "digests"
            shutil.rmtree(workdir, ignore_errors=True)
            cli_main, runs = run.setup(name, seed, workdir)
            results, _, problems = run.run_cycle(cli_main, runs)
            shutil.rmtree(workdir, ignore_errors=True)
            if problems or not all(r.ok for r in results):
                raise SystemExit(f"{name} seed {seed} failed; not recording it")
            digests.setdefault(name, {})[str(seed)] = workloads.verdict_digest(results)
            print(name, seed, digests[name][str(seed)])
    run.EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv):
    sys.path.insert(0, str(run.SRC))  # workloads imports gamelattice
    if argv[:1] == ["corpus"]:
        capture_corpus()
    elif argv[:1] == ["digests"] and len(argv) == 3:
        record_digests(int(argv[1]), int(argv[2]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
