"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces public functions of the `gamelattice` modules by
wrappers that record one span per call: name, start, end, parent span and job
id.  Every module binding of a wrapped function is patched, including the
ones made by `from .x import f`.  Spans stay in memory and are written out
once, at the end of the run.  Work done by the tracer's own hooks (the
pure-settled probes, argument hashing) is taken out of every open span, so it
does not show up as layer time.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

MAX_SPANS = 2_000_000  # beyond this, calls are still counted but not stored

DOMINANCE_SPANS = frozenset(
    {"dominance.msd", "dominance.belief_corr", "dominance.belief_pure", "dominance.sd_pure"}
)


class Stat:
    __slots__ = ("calls", "busy", "self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.raised = 0


def _rows(matrix):
    return tuple(tuple(row) for row in matrix)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, int] = defaultdict(int)
        self.job = -1
        self.excluded = 0.0  # seconds spent in hooks, removed from open spans
        self._stack: list[list] = []
        self._next_id = 0
        self._names: dict[str, int] = {}
        self._span_cols = {
            "id": array("q"),
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "job": array("q"),
        }
        self.spans_dropped = 0
        self._patched: list[tuple[object, str, object]] = []
        self._lp_seen: set = set()

    # -- spans -----------------------------------------------------------------

    def _record(self, name, sid, t0, t1, parent, dur, child, raised):
        stat = self.stats[name]
        stat.calls += 1
        stat.busy += dur
        stat.self_time += dur - child
        stat.raised += raised
        if parent is not None:
            parent[0] += dur
            if name in DOMINANCE_SPANS and parent[3] == "properties.eval":
                self.counters["dominance_under_eval"] += 1
        cols = self._span_cols
        if len(cols["id"]) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        nid = self._names.setdefault(name, len(self._names))
        cols["id"].append(sid)
        cols["name"].append(nid)
        cols["start"].append(t0)
        cols["end"].append(t1)
        cols["parent"].append(-1 if parent is None else parent[2])
        cols["job"].append(self.job)

    def _wrap(self, fn, name, hook=None, route=None):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = route(args, kwargs) if route is not None else name
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            # frame: [child seconds, excluded seconds at entry, span id, name]
            frame = [0.0, tracer.excluded, sid, span]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0 - (tracer.excluded - frame[1])
                tracer._record(span, sid, t0, t1, parent, dur, frame[0], raised)
                if hook is not None and not raised:
                    h0 = clock()
                    hook(span, args, kwargs, result)
                    tracer.excluded += clock() - h0

        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, job_id: int, fn, *args):
        """Run one job as a root span named 'job'."""
        self.job = job_id
        self._lp_seen = set()
        return self._wrap(fn, "job")(*args)

    # -- patching --------------------------------------------------------------

    def _patch(self, module, attr, replacement_for):
        """Replace every binding of module.attr in the gamelattice modules."""
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found; its metrics read 0",
                  file=sys.stderr)
            return
        replacement = replacement_for(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("gamelattice"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patched.append((mod, key, original))

    def _span(self, module, attr, name, hook=None, route=None):
        self._patch(module, attr, lambda fn: self._wrap(fn, name, hook, route))

    def _count_items(self, module, attr, counter):
        counters = self.counters

        def replacement_for(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[counter] += 1
                    yield item

            return wrapper

        self._patch(module, attr, replacement_for)

    def install(self):
        from gamelattice import (
            dominance, epistemic, games, iteration, lp, properties, reports, symbolic,
        )

        counters = self.counters
        sd_pure = dominance.strictly_dominates_pure
        belief = dominance.exists_supporting_belief
        lp_signature = inspect.signature(lp.simplex_maximize)

        def lp_hook(span, args, kwargs, result):
            bound = lp_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            objective, lhs_le, rhs_le, lhs_eq, rhs_eq = bound.arguments.values()
            key = (tuple(objective), _rows(lhs_le), tuple(rhs_le), _rows(lhs_eq), tuple(rhs_eq))
            if key in self._lp_seen:
                counters["lp_repeats"] += 1
            self._lp_seen.add(key)
            counters["lp_cells"] += (len(lhs_le) + len(lhs_eq)) * len(objective)

        def msd_hook(span, args, kwargs, result):
            game, context, player, pool, dominated = args
            counters["msd_witness"] += result is not None
            counters["msd_pure_settled"] += any(
                sd_pure(game, context, player, s, dominated) for s in set(pool)
            )

        def belief_route(args, kwargs):
            kind = args[5] if len(args) > 5 else kwargs["belief_kind"]
            return "dominance.belief_pure" if kind == "pure" else "dominance.belief_corr"

        def belief_hook(span, args, kwargs, result):
            if span != "dominance.belief_corr":
                return
            counters["belief_found"] += result is not None
            counters["belief_pure_settled"] += belief(*args[:5], "pure") is not None

        def monotone_hook(span, args, kwargs, result):
            counters["pairs_checked"] += result.details["pairs_checked"]

        def pair_loop_hook(span, args, kwargs, result):
            counters["pairs_checked"] += _pairs_visited(iteration, *args[:2], result)

        def enumerate_hook(span, args, kwargs, result):
            counters["models_enumerated"] += result.models_enumerated
            counters["models_total"] += result.models_total
            counters["early_exits"] += bool(result.early_exit)

        self._span(lp, "simplex_maximize", "lp.solve", lp_hook)
        self._span(dominance, "mixed_dominance_witness", "dominance.msd", msd_hook)
        self._span(dominance, "exists_supporting_belief", None, belief_hook, belief_route)
        self._span(dominance, "strictly_dominates_pure", "dominance.sd_pure")
        self._span(dominance, "pearce_equivalence_check", "dominance.pearce")
        self._span(properties, "eval_property", "properties.eval")
        self._span(properties, "apply_operator", "properties.apply")
        self._span(properties, "verify_theorem_just", "properties.just")
        self._span(properties, "verify_theorem_just1", "properties.just1")
        self._span(properties, "check_property_monotone", "properties.monotone", monotone_hook)
        self._span(iteration, "iterate_operator", "iteration.iterate")
        self._span(iteration, "verify_tarski", "iteration.tarski")
        self._span(iteration, "verify_inclusion_lemma", "iteration.inclusion")
        self._span(iteration, "_monotonicity_counterexample", "iteration.pair_loop", pair_loop_hook)
        self._span(games, "parse_game_file", "games.parse")
        self._span(epistemic, "enumerate_ck_cb", "epistemic.enumerate", enumerate_hook)
        self._span(symbolic, "iterate_symbolic", "symbolic.iterate")
        self._span(symbolic, "validate_witness", "symbolic.validate")
        self._span(reports, "canonical_json", "reports.render")
        # both lattice enumerators count toward one number, so merging them
        # into one enumerator leaves the metric comparable
        self._count_items(games, "all_restrictions", "lattice_items")
        self._count_items(iteration, "_all_mask_tuples", "lattice_items")

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: Path):
        names = {v: k for k, v in self._names.items()}
        cols = self._span_cols
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for sid, nid, t0, t1, parent, job in zip(
                cols["id"], cols["name"], cols["start"], cols["end"],
                cols["parent"], cols["job"],
            ):
                fh.write(f"{sid}\t{names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{job}\n")

    @property
    def spans_recorded(self) -> int:
        return len(self._span_cols["id"])

    def metrics(self) -> dict[str, float]:
        s = self.stats
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        lp_calls = s["lp.solve"].calls
        msd = s["dominance.msd"]
        corr = s["dominance.belief_corr"]
        ev = s["properties.eval"]
        en = s["epistemic.enumerate"]
        return {
            "lp.solve.calls": lp_calls,
            "lp.solve.busy_s": s["lp.solve"].busy,
            "lp.solve.repeat_ratio": ratio(c["lp_repeats"], lp_calls),
            "lp.solve.cells": c["lp_cells"],
            "lp.solve.raised": s["lp.solve"].raised,
            "dominance.msd.calls": msd.calls,
            "dominance.msd.busy_s": msd.busy,
            "dominance.msd.self_s": msd.self_time,
            "dominance.msd.witness_ratio": ratio(c["msd_witness"], msd.calls),
            "dominance.msd.pure_settled_ratio": ratio(c["msd_pure_settled"], msd.calls),
            "dominance.belief_corr.calls": corr.calls,
            "dominance.belief_corr.busy_s": corr.busy,
            "dominance.belief_corr.self_s": corr.self_time,
            "dominance.belief_corr.found_ratio": ratio(c["belief_found"], corr.calls),
            "dominance.belief_corr.pure_settled_ratio": ratio(
                c["belief_pure_settled"], corr.calls
            ),
            "dominance.belief_pure.calls": s["dominance.belief_pure"].calls,
            "dominance.belief_pure.busy_s": s["dominance.belief_pure"].busy,
            "dominance.sd_pure.calls": s["dominance.sd_pure"].calls,
            "dominance.sd_pure.busy_s": s["dominance.sd_pure"].busy,
            "dominance.pearce.calls": s["dominance.pearce"].calls,
            "dominance.pearce.self_s": s["dominance.pearce"].self_time,
            "properties.eval.calls": ev.calls,
            "properties.eval.busy_s": ev.busy,
            "properties.eval.self_s": ev.self_time,
            "properties.eval.dominance_calls_per_eval": ratio(
                c["dominance_under_eval"], ev.calls
            ),
            "properties.apply.calls": s["properties.apply"].calls,
            "properties.apply.self_s": s["properties.apply"].self_time,
            "properties.just.busy_s": s["properties.just"].busy,
            "properties.just1.busy_s": s["properties.just1"].busy,
            "properties.monotone.busy_s": s["properties.monotone"].busy,
            "properties.monotone.self_s": s["properties.monotone"].self_time,
            "iteration.iterate.calls": s["iteration.iterate"].calls,
            "iteration.iterate.self_s": s["iteration.iterate"].self_time,
            "iteration.tarski.self_s": s["iteration.tarski"].self_time,
            "iteration.inclusion.self_s": s["iteration.inclusion"].self_time,
            "iteration.pairs_checked": c["pairs_checked"],
            "games.parse.calls": s["games.parse"].calls,
            "games.parse.busy_s": s["games.parse"].busy,
            "games.all_restrictions.items": c["lattice_items"],
            "epistemic.enumerate.calls": en.calls,
            "epistemic.enumerate.busy_s": en.busy,
            "epistemic.enumerate.self_s": en.self_time,
            "epistemic.enumerate.models_enumerated": c["models_enumerated"],
            "epistemic.enumerate.models_total": c["models_total"],
            "epistemic.enumerate.models_per_s": ratio(c["models_enumerated"], en.busy),
            "epistemic.enumerate.early_exit_ratio": ratio(c["early_exits"], en.calls),
            "symbolic.iterate.busy_s": s["symbolic.iterate"].busy,
            "symbolic.validate.busy_s": s["symbolic.validate"].busy,
            "reports.render.busy_s": s["reports.render"].busy,
        }


def _pairs_visited(iteration, game, table, result) -> int:
    """Comparable pairs the monotonicity loop looked at before it returned:
    all 3^(sum of sizes) of them, or those up to the first violation."""
    if result is None:
        pairs = 1
        for k in game.sizes:
            pairs *= 3 ** k
        return pairs
    small, big = result
    visited = 0
    for masks in sorted(table):
        if masks == big:
            break
        visited += 1 << sum(bin(m).count("1") for m in masks)
    for sub in iteration._submask_tuples(big):
        visited += 1
        if sub == small:
            break
    return visited
