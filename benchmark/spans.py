"""Spans around the public functions of each dtldesign layer.

The call sites import these functions by name (`from .mvn import
mvn_rectangle_prob`), so patching the defining module alone would miss
them: `install` replaces every attribute of every loaded dtldesign module
that is the original function object.  Spans (name, parent, start, end,
counts) stay in memory until `write`.

The program itself is not changed; a layer's span covers the call from
outside, so a layer's self time is its span time minus the spans of the
layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# span name -> (defining module, public functions measured as that layer)
LAYERS = {
    "cli.parse": ("dtldesign.cli", ("parse_config", "_load_designed")),
    "calibrate.boundaries": ("dtldesign.calibrate",
                             ("calibrate_boundaries",)),
    "calibrate.sample_size": ("dtldesign.calibrate", ("find_sample_size",)),
    "characteristics.stop": ("dtldesign.characteristics",
                             ("stop_stage_probabilities",)),
    "characteristics.power": ("dtldesign.characteristics", ("power_lfc",)),
    "characteristics.type1": ("dtldesign.characteristics",
                              ("type_i_global_null", "pwer")),
    "events.enumerate": ("dtldesign.events",
                         ("pwer_problem", "win_problems",
                          "power_lfc_problems", "stop_stage_problems",
                          "reject_problems", "global_null_typeI_problems")),
    "events.set": ("dtldesign.events",
                   ("set_probability", "total_probability")),
    "covariance.assemble": ("dtldesign.covariance",
                            ("build_moment_problem",)),
    "mvn": ("dtldesign.mvn", ("mvn_rectangle_prob",)),
    "simulate": ("dtldesign.simulate", ("estimate_characteristics",)),
}


# units of the per-layer metrics, as BENCHMARK.json lists them
UNITS = {
    "cli.parse_s": "s",
    "calibrate.boundaries_s": "s",
    "calibrate.pwer_evals": "count",
    "calibrate.sample_size_s": "s",
    "calibrate.n_visited": "count",
    "characteristics.stop_s": "s",
    "characteristics.power_s": "s",
    "characteristics.type1_s": "s",
    "events.enumerate_s": "s",
    "events.problems": "count",
    "events.max_set_error": "prob",
    "covariance.assemble_s": "s",
    "covariance.assemble_calls": "count",
    "mvn.calls": "count",
    "mvn.call_ms_p50": "ms",
    "mvn.s": "s",
    "mvn.evals": "count",
    "mvn.evals_per_s": "1/s",
    "mvn.max_call_evals": "count",
    "mvn.unconverged": "count",
    "simulate.reps": "count",
    "simulate.s": "s",
    "simulate.reps_per_s": "1/s",
    "trace.run_s": "s",
}


def _counts(name: str, args, kwargs, result) -> dict:
    """Counts read off a call's arguments and result."""
    if name == "events.enumerate":
        design = args[0] if args else kwargs["design"]
        if isinstance(result, list):
            problems = sum(len(s.problems) for s in result)
        else:
            problems = 1                      # pwer_problem: one rectangle
        return {"problems": problems, "n": design.n_per_stage}
    if name == "events.set":
        return {"error": result.error_bound}
    if name == "mvn":
        return {"evals": result.evaluations, "converged": result.converged}
    if name == "simulate":
        return {"reps": result.replicates}
    return {}


class Tracer:
    """In-memory span recorder.  Spans carry the phase they ran in: 0 for
    set-up, r for timed round r."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.phase = 0
        self.active = True

    def install(self) -> None:
        for name, (module, functions) in LAYERS.items():
            defining = importlib.import_module(module)
            for fname in functions:
                original = getattr(defining, fname)
                traced = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "dtldesign":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name,
                    "fn": fn.__name__, "phase": self.phase,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_counts(name, args, kwargs, result))
            return result
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


def span_cost_s(calls: int = 20_000) -> float:
    """Measured cost of recording one span: a traced no-op call minus a
    bare one, averaged over `calls` calls."""
    def noop():
        return None

    traced = Tracer()._wrap("cost", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - start - bare) / calls


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _per_round(span, rounds: int) -> float:
    # set-up spans (phase 0) count in full, timed-round spans per round
    return 1.0 if span["phase"] == 0 else 1.0 / rounds


def _ancestors(spans, span):
    while span["parent"] is not None:
        span = spans[span["parent"]]
        yield span


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics, per timed round.

    Set-up spans (phase 0) count in full; spans from the timed rounds are
    divided by the number of rounds.  Times under calibrate.* and
    characteristics.* include the layers those functions call; the others
    are self times.  A call that raised carries no counts and adds none.
    """
    own = self_times(spans)

    def scale(s):
        return _per_round(s, rounds)

    def by(name):
        return [s for s in spans if s["name"] == name]

    def self_s(name):
        return sum(own[s["id"]] * scale(s) for s in by(name))

    def inclusive_s(name):
        return sum((s["end"] - s["start"]) * scale(s) for s in by(name)
                   if all(a["name"] != name for a in _ancestors(spans, s)))

    def count(items):
        return sum(scale(s) for s in items)

    mvn = by("mvn")
    mvn_s = self_s("mvn")
    mvn_evals = sum(s.get("evals", 0) * scale(s) for s in mvn)
    enumerators = by("events.enumerate")
    sim_s = self_s("simulate")
    sim_reps = sum(s.get("reps", 0) * scale(s) for s in by("simulate"))
    visited = 0.0
    for search in by("calibrate.sample_size"):
        ns = {s["n"] for s in enumerators
              if s["fn"] == "power_lfc_problems" and "n" in s
              and any(a["id"] == search["id"]
                      for a in _ancestors(spans, s))}
        visited += len(ns) * scale(search)
    return {
        "cli.parse_s": self_s("cli.parse"),
        "calibrate.boundaries_s": inclusive_s("calibrate.boundaries"),
        "calibrate.pwer_evals": count(
            s for s in mvn if any(a["name"] == "calibrate.boundaries"
                                  for a in _ancestors(spans, s))),
        "calibrate.sample_size_s": inclusive_s("calibrate.sample_size"),
        "calibrate.n_visited": visited,
        "characteristics.stop_s": inclusive_s("characteristics.stop"),
        "characteristics.power_s": inclusive_s("characteristics.power"),
        "characteristics.type1_s": inclusive_s("characteristics.type1"),
        "events.enumerate_s": self_s("events.enumerate"),
        "events.problems": sum(
            s.get("problems", 0) * scale(s) for s in enumerators
            if all(a["name"] != "events.enumerate"
                   for a in _ancestors(spans, s))),
        "events.max_set_error": max(
            (s.get("error", 0.0) for s in by("events.set")), default=0.0),
        "covariance.assemble_s": self_s("covariance.assemble"),
        "covariance.assemble_calls": count(by("covariance.assemble")),
        "mvn.calls": count(mvn),
        "mvn.call_ms_p50": 1e3 * statistics.median(
            s["end"] - s["start"] for s in mvn) if mvn else 0.0,
        "mvn.s": mvn_s,
        "mvn.evals": mvn_evals,
        "mvn.evals_per_s": mvn_evals / mvn_s if mvn_s > 0.0 else 0.0,
        "mvn.max_call_evals": max((s.get("evals", 0) for s in mvn),
                                  default=0),
        "mvn.unconverged": count(s for s in mvn
                                 if not s.get("converged", True)),
        "simulate.reps": sim_reps,
        "simulate.s": sim_s,
        "simulate.reps_per_s": sim_reps / sim_s if sim_s > 0.0 else 0.0,
    }


def self_time_table(spans, rounds: int) -> list[tuple[str, float, float]]:
    """(layer, self seconds per round, calls per round) for every layer."""
    own = self_times(spans)
    rows = []
    for name in LAYERS:
        items = [s for s in spans if s["name"] == name]
        rows.append((name,
                     sum(own[s["id"]] * _per_round(s, rounds) for s in items),
                     sum(_per_round(s, rounds) for s in items)))
    return rows
