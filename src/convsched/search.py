"""Search front-ends over the engine: best schedules, the model sweep and
the permutation-quality distribution.

evaluate_layer holds each ordering to its own bound, so its ordering_best
feeds the distribution; best_schedule and the sweep's "ours" bound every
ordering by the best traffic so far (see engine).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .baselines import cache_results, peemen_results
from .casestudy import hwc_results, hwce_schedule
from .engine import (
    DEFAULT_BUDGETS, SearchResult, check_budgets, evaluate,
    precompute_requirements,
)
from .layers import LayerShape, LayerSuite, ValidationError
from .model import TrafficReport, ideal_report, schedule_to_json
from .space import Ordering, TilePolicy, enumerate_tiles


@dataclass
class LayerEvaluation:
    """Everything one exhaustive pass over a layer's schedule space yields."""

    layer: LayerShape
    budgets: tuple[int, ...]
    results: tuple[SearchResult, ...]      # one per budget
    orderings: tuple[Ordering, ...]
    ordering_best: np.ndarray              # (orderings, budgets); -1 infeasible
    candidates: int


def evaluate_layer(layer: LayerShape, budgets: tuple[int, ...],
                   policy: TilePolicy | None = None) -> LayerEvaluation:
    """Exhaustive search over the full space, all budgets in one pass.

    The cost barely grows with the number of budgets (see engine.evaluate).
    Per budget the winner has the least traffic among candidates whose
    buffer fits, then the fewest buffer bytes, spill bytes and the least
    canonical serialization; `ordering_best` holds each ordering's least
    traffic per budget.  Both are those of the full space.  Budgets need
    not be sorted or unique.  Where nothing fits, the first least-buffer
    candidate is reported as infeasible.
    """
    plans = precompute_requirements()
    results, ordering_best, candidates = evaluate(
        layer, budgets, enumerate_tiles(layer, policy or TilePolicy()), plans)
    return LayerEvaluation(
        layer=layer, budgets=tuple(budgets), results=tuple(results),
        orderings=tuple(p.ordering for p in plans),
        ordering_best=ordering_best, candidates=candidates,
    )


def _best_results(layer: LayerShape, budgets: tuple[int, ...],
                  policy: TilePolicy | None = None) -> list[SearchResult]:
    """evaluate_layer's results alone, found with every ordering bounded
    by the best traffic so far (see engine._survivors)."""
    return evaluate(layer, budgets,
                    enumerate_tiles(layer, policy or TilePolicy()),
                    precompute_requirements(), shared=True)[0]


def best_schedule(layer: LayerShape, budget: int,
                  policy: TilePolicy | None = None) -> SearchResult:
    """Minimal-traffic feasible schedule for one layer and budget."""
    return _best_results(layer, (budget,), policy)[0]


# ---------------------------------------------------------------------------
# Parallel evaluation and the sweep / distribution front-ends.

def worker_count() -> int:
    env = os.environ.get("CONVSCHED_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValidationError(f"CONVSCHED_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise ValidationError("CONVSCHED_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _parallel_map(fn, tasks: list[tuple]) -> list:
    """fn(*task) per task, in order; in processes when more than one
    worker helps."""
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


@dataclass(frozen=True)
class SweepRow:
    suite: str
    layer: str
    model: str
    budget: int
    report: TrafficReport | None   # None when the model has no schedule at all
    schedule_json: str | None
    candidates: int


@dataclass(frozen=True)
class AggregateRow:
    suite: str
    model: str
    budget: int
    report: TrafficReport          # the layers' reports summed field by field
    overhead_vs_ours_pct: float | None


_SUMMED = tuple(f.name for f in fields(TrafficReport) if f.name != "feasible")


@dataclass(frozen=True)
class SweepResult:
    suite_name: str
    budgets: tuple[int, ...]
    models: tuple[str, ...]
    rows: tuple[SweepRow, ...]
    aggregates: tuple[AggregateRow, ...]


def _hwc(layer: LayerShape, budgets: tuple[int, ...], policy):
    """The HWC's results: it pins its own tile menus, so no policy applies."""
    return hwc_results(layer, budgets)


def _hwce(layer: LayerShape, budgets: tuple[int, ...], policy):
    """The HWCE's result per budget, None where even its narrowest line
    buffer does not fit; its sizing rule picks the stripe, so no policy
    applies."""
    return [hwce_schedule(layer, budget) for budget in budgets]


# Per model, fn(layer, budgets, policy) -> per budget its SearchResult, or
# None where the model has no schedule at all.
_MODELS = {"ours": _best_results, "peemen": peemen_results,
           "cache": cache_results, "hwc": _hwc, "hwce": _hwce}

MODEL_ORDER = (*_MODELS, "ideal")


def model_rows(layer: LayerShape, model: str, budgets: tuple[int, ...],
               policy: TilePolicy | None = None
               ) -> list[tuple[TrafficReport | None, str | None, int]]:
    """Per budget, the model's (report, schedule serialization, candidate
    count): a row of the sweep, or of the command line's search; (None,
    None, 0) where the model has no schedule."""
    return [(None, None, 0) if r is None
            else (r.report, schedule_to_json(r.schedule, r.assignment),
                  r.candidates)
            for r in _MODELS[model](layer, budgets, policy)]


def sweep(suite: LayerSuite, budgets: tuple[int, ...] = DEFAULT_BUDGETS,
          policy: TilePolicy | None = None,
          models: tuple[str, ...] = ("ours", "peemen", "cache")) -> SweepResult:
    """Per-layer results and per-suite aggregate totals for several models.

    Each model answers through its results function in _MODELS, all the
    budgets of a layer in one call, under the tile policy (the default
    policy when None).  The budgets must pass the one budget rule
    (check_budgets) and then be ascending, unique and non-empty.
    "ideal" rows (the full-reuse floor, budget-independent) are always
    included.  Aggregates sum traffic over the suite's layers; the peemen
    aggregate carries its percentage overhead against ours when both ran.
    """
    check_budgets(budgets)
    if not budgets or list(budgets) != sorted(set(budgets)):
        raise ValidationError("budgets must be ascending, unique, and non-empty")
    for m in models:
        if m not in MODEL_ORDER:
            raise ValidationError(f"unknown model {m!r}")
    run_models = [m for m in MODEL_ORDER if m in models and m != "ideal"]

    tasks = [(layer, model, budgets, policy)
             for layer in suite for model in run_models]
    outcomes = _parallel_map(model_rows, tasks)
    by_key = {}
    for (layer, model, *_), rows in zip(tasks, outcomes):
        by_key[layer.name, model] = rows

    all_models = run_models + ["ideal"]
    rows: list[SweepRow] = []
    for layer in suite:
        for model in all_models:
            for bidx, budget in enumerate(budgets):
                if model == "ideal":
                    rep, serial, cand = ideal_report(layer), None, 0
                else:
                    rep, serial, cand = by_key[layer.name, model][bidx]
                rows.append(SweepRow(suite=suite.name, layer=layer.name,
                                     model=model, budget=budget, report=rep,
                                     schedule_json=serial, candidates=cand))

    aggregates: list[AggregateRow] = []
    totals: dict[tuple[str, int], int] = {}
    for model in all_models:
        for budget in budgets:
            cell = [r for r in rows if r.model == model and r.budget == budget]
            present = [r.report for r in cell if r.report is not None]
            report = TrafficReport(
                **{f: sum(getattr(r, f) for r in present) for f in _SUMMED},
                feasible=all(r.report is not None and r.report.feasible
                             for r in cell))
            totals[model, budget] = report.total
            ours = totals.get(("ours", budget))
            overhead = (100.0 * (report.total - ours) / ours
                        if model == "peemen" and ours else None)
            aggregates.append(AggregateRow(
                suite=suite.name, model=model, budget=budget, report=report,
                overhead_vs_ours_pct=overhead))
    return SweepResult(suite_name=suite.name, budgets=budgets,
                       models=tuple(all_models), rows=tuple(rows),
                       aggregates=tuple(aggregates))


# ---------------------------------------------------------------------------
# Permutation-quality distribution.

DISTRIBUTION_BINS = ("optimal", "within+10%", "within+20%", "within+50%",
                     "within2x", "over2x")


def _bin_index(per_best: int, global_best: int) -> int:
    # Integer-exact thresholds; per_best >= global_best >= 1 always.
    if per_best == global_best:
        return 0
    if per_best * 10 <= global_best * 11:
        return 1
    if per_best * 5 <= global_best * 6:
        return 2
    if per_best * 2 <= global_best * 3:
        return 3
    if per_best <= 2 * global_best:
        return 4
    return 5


@dataclass(frozen=True)
class DistributionTable:
    budgets: tuple[int, ...]
    bins: tuple[str, ...]
    fractions: tuple[tuple[float, ...], ...]  # per budget, summing to 1
    layer_count: int
    ordering_count: int


def distribution_from(evaluations: list[LayerEvaluation]) -> DistributionTable:
    """Bin each ordering by its summed-over-layers best traffic per budget.

    Each of the 180 orderings gets one aggregate number per budget: the sum
    over the layer set of its best-achievable traffic there.  Bins compare
    that against the best aggregate with integer-exact thresholds.  An
    ordering infeasible on any layer lands in the worst bin.
    """
    budgets = evaluations[0].budgets
    n_ord = len(evaluations[0].orderings)
    rows = []
    for bidx in range(len(budgets)):
        agg = np.zeros(n_ord, dtype=np.int64)
        broken = np.zeros(n_ord, dtype=bool)
        for ev in evaluations:
            if ev.budgets != budgets or len(ev.orderings) != n_ord:
                raise ValidationError(
                    f"{ev.layer.name} was evaluated at budgets {ev.budgets} "
                    f"over {len(ev.orderings)} orderings, the first layer at "
                    f"{budgets} over {n_ord}")
            col = ev.ordering_best[:, bidx]
            broken |= col < 0
            agg += np.where(col < 0, 0, col)
        counts = np.zeros(len(DISTRIBUTION_BINS), dtype=np.int64)
        ok = ~broken
        counts[5] += int(broken.sum())
        if ok.any():
            gb = int(agg[ok].min())
            for v in agg[ok]:
                counts[_bin_index(int(v), gb)] += 1
        rows.append(tuple(counts / n_ord))
    return DistributionTable(
        budgets=budgets, bins=DISTRIBUTION_BINS, fractions=tuple(rows),
        layer_count=len(evaluations), ordering_count=n_ord,
    )


def distribution(layers, budgets, policy: TilePolicy | None = None
                 ) -> DistributionTable:
    tasks = [(layer, tuple(budgets), policy) for layer in layers]
    return distribution_from(_parallel_map(evaluate_layer, tasks))
