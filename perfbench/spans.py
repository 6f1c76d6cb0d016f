"""Span recorder for the traced run.

It wraps each public function of the package at the site where another
module calls it: `model.traffic` as bound in `search`, `baselines`,
`casestudy`, `oracle` and `cli` gets one wrapper per binding, so its time
splits by calling module.  In the front-end modules (search, baselines,
casestudy, oracle, cli) the module's own binding is wrapped too, so that
calls such as `validate -> simulate` or `best_schedule -> evaluate_layer`
nest.  Nothing is edited on disk; the wrappers live in this process only.

Each span records name, caller, parent, start and end; spans stay in
memory until `write`.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict

PACKAGE_MODULES = ("layers", "suites", "space", "model", "search",
                   "baselines", "casestudy", "oracle", "cli")
# Modules whose own calls to their public functions are wrapped too; they
# are also the callers that the model's time is split by.
FRONT_ENDS = ("search", "baselines", "casestudy", "oracle", "cli")


def _count_evaluation(rec, args, kwargs, out):
    rec.counters["search.candidates"] += out.candidates
    rec.counters["search.points"] += len(out.results)
    rec.counters["search.feasible"] += sum(r.feasible for r in out.results)


def _count_peemen(rec, args, kwargs, out):
    rec.counters["baselines.candidates"] += out.candidates


def _count_cache(rec, args, kwargs, out):
    # Every result of one pass carries the same pass-wide candidate count.
    rec.counters["baselines.candidates"] += out[0].candidates if out else 0


def _count_simulate(rec, args, kwargs, out):
    schedule = args[0] if args else kwargs["schedule"]
    rec.counters["oracle.iterations"] += math.prod(
        l.extent for l in schedule.loops)
    rec.counters["oracle.distinct_keys"] += (out.loads_i + out.loads_w
                                             + out.writes_o_partial
                                             + out.writes_o_final)


def _count_validate(rec, args, kwargs, out):
    rec.counters["oracle.undercounts"] += len(out.undercounts)
    rec.rel_errs.append(out.rel_err_total)


_HOOKS = {
    "search.evaluate_layer": _count_evaluation,
    "baselines.peemen_best": _count_peemen,
    "baselines.cache_results": _count_cache,
    "oracle.simulate": _count_simulate,
    "oracle.validate": _count_validate,
}


class Recorder:
    """Spans and counters of the calls made while `active` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, caller, parent, start, end]
        self.counters: Counter = Counter()
        self.rel_errs: list[float] = []
        self.active = False
        self._stack: list[int] = []

    def begin(self, name: str, caller: str = "bench") -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, caller, parent, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][4] = time.perf_counter()

    def _wrap(self, fn, name: str, caller: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(name, caller)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public package function at each binding that calls it."""
        mods = {n: importlib.import_module(f"convsched.{n}")
                for n in PACKAGE_MODULES}
        for caller, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home_mod = fn.__module__
                if not home_mod.startswith("convsched."):
                    continue
                home = home_mod.rpartition(".")[2]
                if home == caller and caller not in FRONT_ENDS:
                    continue
                setattr(mod, attr, self._wrap(fn, f"{home}.{attr}", caller))

    def self_times(self) -> dict[tuple[str, str], tuple[int, float]]:
        """(name, caller) -> (calls, self seconds)."""
        covered = [0.0] * len(self.spans)
        for name, caller, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0])
        for (name, caller, _, start, end), child in zip(self.spans, covered):
            cell = out[name, caller]
            cell[0] += 1
            cell[1] += (end - start) - child
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """One span per line: name, caller, parent index, start, end."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def per_layer_metrics(rec: Recorder, overhead_s: float, busy_frac: float
                      ) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    st = rec.self_times()
    c = rec.counters

    def calls(name: str, caller: str | None = None) -> int:
        return sum(n for (nm, cl), (n, _) in st.items()
                   if nm == name and caller in (None, cl))

    def self_s(name: str, caller: str | None = None) -> float:
        return sum(s for (nm, cl), (_, s) in st.items()
                   if nm == name and caller in (None, cl))

    m: dict[str, tuple[float, str]] = {}
    ev_self = self_s("search.evaluate_layer")
    points = c["search.points"]
    m["search.evaluate_layer.calls"] = (calls("search.evaluate_layer"), "count")
    m["search.evaluate_layer.self_s"] = (ev_self, "s")
    m["search.candidates"] = (c["search.candidates"], "count")
    m["search.s_per_point"] = (ev_self / points if points else 0.0, "s")
    m["search.feasible_frac"] = (c["search.feasible"] / points if points else 0.0,
                                 "frac")
    for fn in ("precompute_requirements", "distribution_from", "sweep"):
        m[f"search.{fn}.self_s"] = (self_s(f"search.{fn}"), "s")
    m["search.pool.busy_frac"] = (busy_frac, "frac")
    for fn in ("traffic", "schedule_to_json"):
        for caller in FRONT_ENDS:
            m[f"model.{fn}.from_{caller}.calls"] = (calls(f"model.{fn}", caller),
                                                    "count")
            m[f"model.{fn}.from_{caller}.self_s"] = (self_s(f"model.{fn}", caller),
                                                     "s")
    m["space.enumerate_tiles.self_s"] = (self_s("space.enumerate_tiles"), "s")
    m["space.instantiate.calls"] = (calls("space.instantiate"), "count")
    m["space.instantiate.self_s"] = (self_s("space.instantiate"), "s")
    for fn in ("peemen_best", "cache_results"):
        m[f"baselines.{fn}.calls"] = (calls(f"baselines.{fn}"), "count")
        m[f"baselines.{fn}.self_s"] = (self_s(f"baselines.{fn}"), "s")
    m["baselines.candidates"] = (c["baselines.candidates"], "count")
    m["casestudy.hwc_schedule.calls"] = (calls("casestudy.hwc_schedule"), "count")
    m["casestudy.hwc_schedule.self_s"] = (self_s("casestudy.hwc_schedule"), "s")
    m["casestudy.hwce_schedule.self_s"] = (self_s("casestudy.hwce_schedule"), "s")
    sim_self = self_s("oracle.simulate")
    m["oracle.simulate.calls"] = (calls("oracle.simulate"), "count")
    m["oracle.simulate.self_s"] = (sim_self, "s")
    m["oracle.iterations"] = (c["oracle.iterations"], "count")
    m["oracle.distinct_keys"] = (c["oracle.distinct_keys"], "count")
    m["oracle.iters_per_s"] = (c["oracle.iterations"] / sim_self if sim_self else 0.0,
                               "1/s")
    m["oracle.validate.self_s"] = (self_s("oracle.validate"), "s")
    errs = rec.rel_errs
    m["oracle.undercounts"] = (c["oracle.undercounts"], "count")
    m["oracle.rel_err_total.max"] = (max(errs) if errs else 0.0, "frac")
    m["oracle.rel_err_total.mean"] = (sum(errs) / len(errs) if errs else 0.0, "frac")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.csv_rows"] = (c["cli.csv_rows"], "count")
    m["layers.parse_layer_suite.self_s"] = (self_s("layers.parse_layer_suite"), "s")
    by_module: dict[str, float] = Counter()
    for (name, _), (_, s) in st.items():
        by_module[name.partition(".")[0]] += s
    for mod in PACKAGE_MODULES + ("bench",):
        m[f"{mod}.self_s"] = (by_module[mod], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (len(rec.spans), "count")
    return m
