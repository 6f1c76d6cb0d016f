"""Exhaustive schedule search: permutations x tilings x buffering levels.

The search follows a two-step shape.  Step one (precompute_requirements)
derives, per loop ordering, the layer-independent structure of the
candidate space: which positions multiply into each array's footprint,
which positions can carry reuse of each array, and the short list of
buffering levels worth considering (raising a level between two carriers
never changes the buffer but never increases traffic, so only the level
just under each carrier, and the top, can win).  Step two evaluates that
structure for a concrete layer over all tile choices with vectorized
integer arithmetic, then answers every budget at once from one staircase
per ordering: the candidates sorted by buffer bytes with the running
minimum of traffic, which searchsorted reads off at each budget.  Ties
are broken deterministically (buffer bytes, spill bytes, then the
canonical serialization), and only at the stairs some budget lands on.

Every nest is laid out on ten fixed positions: the six tile-body loops of
the ordering innermost-first, then controlling loops for SX, SY, IF, OF.
Untiled axes keep their controlling position with a trip count of one,
which never carries reuse and multiplies nothing, so the uniform layout is
exact; reported winners drop those unit loops again.

All traffic numbers here are exact int64; winners are re-materialized
through the scalar model as a cross-check before being reported.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .layers import LayerShape, LayerSuite, ValidationError
from .model import (
    Axis, BufferingAssignment, Schedule, Tiles, TrafficReport,
    ideal_traffic, schedule_to_json, traffic,
)
from .space import (
    Ordering, TilePolicy, enumerate_permutations, enumerate_tiles, instantiate,
)

_HUGE = np.iinfo(np.int64).max // 4

# Fixed positions of the controlling loops in the uniform ten-slot nest,
# innermost first (so the outermost-first order is OF, IF, SY, SX).
_POS_TSX, _POS_TSY, _POS_TIF, _POS_TOF = 6, 7, 8, 9
_CTRL_AXIS = {_POS_TSX: Axis.SX, _POS_TSY: Axis.SY,
              _POS_TIF: Axis.IF, _POS_TOF: Axis.OF}

_W_DIMS = {Axis.FX, Axis.FY, Axis.IF, Axis.OF}
_O_DIMS = {Axis.SX, Axis.SY, Axis.OF}

MODEL_ORDER = ("ours", "peemen", "cache", "hwc", "hwce", "ideal")

TIE_BREAK_DEFAULT = "traffic,buffer,acc,serial"


class CrossCheckError(RuntimeError):
    """An engine answer disagrees with the scalar model that arbitrates it."""


@dataclass(frozen=True)
class SearchConfig:
    budgets: tuple[int, ...] = tuple(1024 * 2 ** k for k in range(10))
    tile_policy: TilePolicy = field(default_factory=TilePolicy)
    prune: bool = True
    tie_break: str = TIE_BREAK_DEFAULT

    def __post_init__(self) -> None:
        if not self.budgets or list(self.budgets) != sorted(set(self.budgets)):
            raise ValidationError("budgets must be ascending, unique, and non-empty")
        if self.budgets[0] <= 0:
            raise ValidationError("budgets must be positive")
        if self.tie_break != TIE_BREAK_DEFAULT:
            raise ValidationError(f"unknown tie-break rule {self.tie_break!r}")


@dataclass(frozen=True)
class SearchResult:
    layer_name: str
    budget: int
    schedule: Schedule
    assignment: BufferingAssignment
    report: TrafficReport
    candidates: int

    @property
    def feasible(self) -> bool:
        return self.report.feasible


@dataclass(frozen=True)
class OrderingPlan:
    """Layer-independent candidate structure of one loop ordering."""

    ordering: Ordering
    # Potential reuse-carrying positions per array, ascending.  Whether a
    # position actually carries depends on the tile values (extent 1 never
    # carries); an input-side spatial carrier additionally needs a kernel
    # wider than one, which only the layer knows.
    carriers: dict[str, tuple[int, ...]]
    # Buffering levels worth evaluating per array: just under each
    # potential carrier, plus the top of the nest.
    cand_levels: dict[str, tuple[int, ...]]
    # Input spatial state per dim: (kernel body pos, spatial body pos).
    x_pair: tuple[int, int]
    y_pair: tuple[int, int]

    @property
    def body_pos(self) -> dict[Axis, int]:
        return {a: i for i, a in enumerate(self.ordering)}


def _make_plan(ordering: Ordering) -> OrderingPlan:
    pos = {a: i for i, a in enumerate(ordering)}
    carriers = {
        "I": tuple(sorted({max(pos[Axis.FX], pos[Axis.SX]),
                           max(pos[Axis.FY], pos[Axis.SY]),
                           pos[Axis.OF], _POS_TOF})),
        "W": tuple(sorted({pos[Axis.SX], pos[Axis.SY], _POS_TSX, _POS_TSY})),
        "O": tuple(sorted({pos[Axis.FX], pos[Axis.FY], pos[Axis.IF], _POS_TIF})),
    }
    cand = {
        a: tuple(sorted({p - 1 for p in carriers[a] if p >= 1} | {9}))
        for a in carriers
    }
    return OrderingPlan(
        ordering=ordering, carriers=carriers, cand_levels=cand,
        x_pair=(pos[Axis.FX], pos[Axis.SX]),
        y_pair=(pos[Axis.FY], pos[Axis.SY]),
    )


_PLANS: dict[Ordering, OrderingPlan] = {}


@dataclass(frozen=True)
class RequirementTable:
    """Memoized per-ordering plans; structure is layer-independent."""

    orderings: tuple[Ordering, ...]

    def plan(self, ordering: Ordering) -> OrderingPlan:
        if ordering not in _PLANS:
            _PLANS[ordering] = _make_plan(ordering)
        return _PLANS[ordering]

    def row_count(self, layer: LayerShape, policy: TilePolicy) -> int:
        menus = enumerate_tiles(layer, policy)
        combos = math.prod(len(m) for m in menus.values())
        return len(self.orderings) * combos


def precompute_requirements(orderings: tuple[Ordering, ...] | None = None,
                            prune: bool = True) -> RequirementTable:
    if orderings is None:
        orderings = enumerate_permutations(prune)
    table = RequirementTable(orderings=tuple(orderings))
    for o in table.orderings:
        table.plan(o)
    return table


@dataclass
class _Tables:
    """Vectorized per-(ordering, layer) candidate tables over tile combos."""

    ext: np.ndarray          # (10, T) loop extents
    suffix: np.ndarray       # (10, T) product of extents above each position
    ft: dict[str, np.ndarray]   # (11, T); ft[a][p] = footprint below position p
    carrier_masks: dict[str, list[tuple[int, np.ndarray]]]
    tiles: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # mss,css,iss,jss


def _tile_vectors(menus: dict[Axis, tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    grids = np.meshgrid(
        np.asarray(menus[Axis.OF], dtype=np.int64),
        np.asarray(menus[Axis.IF], dtype=np.int64),
        np.asarray(menus[Axis.SY], dtype=np.int64),
        np.asarray(menus[Axis.SX], dtype=np.int64),
        indexing="ij",
    )
    return tuple(g.reshape(-1) for g in grids)


def _build_tables(plan: OrderingPlan, layer: LayerShape,
                  tiles: tuple[np.ndarray, ...]) -> _Tables:
    mss, css, iss, jss = tiles
    t = mss.size
    ones = np.ones(t, dtype=np.int64)
    body_extent = {
        Axis.OF: mss, Axis.IF: css, Axis.SY: iss, Axis.SX: jss,
        Axis.FY: ones * layer.k_h, Axis.FX: ones * layer.k_w,
    }
    ext = np.empty((10, t), dtype=np.int64)
    for p, axis in enumerate(plan.ordering):
        ext[p] = body_extent[axis]
    ext[_POS_TSX] = -(-layer.out_w // jss)
    ext[_POS_TSY] = -(-layer.out_h // iss)
    ext[_POS_TIF] = -(-layer.c_in // css)
    ext[_POS_TOF] = -(-layer.c_out // mss)

    cum = np.cumprod(ext, axis=0)
    total = cum[9]
    suffix = total // cum

    ft = {a: np.ones((11, t), dtype=np.int64) for a in ("I", "W", "O")}
    dims = {"W": _W_DIMS, "O": _O_DIMS}
    for a in ("W", "O"):
        for p in range(10):
            axis = plan.ordering[p] if p < 6 else _CTRL_AXIS[p]
            grow = ext[p] if axis in dims[a] else 1
            ft[a][p + 1] = ft[a][p] * grow

    # Inputs: channel product times a window factor per spatial dim.
    channels = np.ones(t, dtype=np.int64)
    x_state = {"k": False, "s": None, "trips": None}
    y_state = {"k": False, "s": None, "trips": None}

    def dim_factor(state, kernel: int) -> np.ndarray:
        if state["k"] and state["s"] is not None:
            base = (state["s"] - 1) * layer.stride + kernel
        elif state["k"]:
            base = ones * kernel
        elif state["s"] is not None:
            base = state["s"]
        else:
            base = ones
        return base * state["trips"] if state["trips"] is not None else base

    for p in range(10):
        axis = plan.ordering[p] if p < 6 else _CTRL_AXIS[p]
        if axis is Axis.IF and p < 6:
            channels = channels * css
        elif axis is Axis.IF:
            channels = channels * ext[_POS_TIF]
        elif p == plan.x_pair[0]:
            x_state["k"] = True
        elif p == plan.x_pair[1]:
            x_state["s"] = jss
        elif p == _POS_TSX:
            x_state["trips"] = ext[_POS_TSX]
        elif p == plan.y_pair[0]:
            y_state["k"] = True
        elif p == plan.y_pair[1]:
            y_state["s"] = iss
        elif p == _POS_TSY:
            y_state["trips"] = ext[_POS_TSY]
        ft["I"][p + 1] = channels * dim_factor(x_state, layer.k_w) \
            * dim_factor(y_state, layer.k_h)

    # A carrier position carries iff its extent exceeds one; the input
    # spatial carriers also need the kernel in that dim to exceed one.
    masks: dict[str, list[tuple[int, np.ndarray]]] = {}
    for a in ("I", "W", "O"):
        lst = []
        for p in plan.carriers[a]:
            m = ext[p] > 1
            if a == "I":
                if p == max(plan.x_pair) and layer.k_w == 1:
                    m = np.zeros(t, dtype=bool)
                if p == max(plan.y_pair) and layer.k_h == 1:
                    m = np.zeros(t, dtype=bool)
            lst.append((p, m))
        masks[a] = lst
    return _Tables(ext=ext, suffix=suffix, ft=ft, carrier_masks=masks,
                   tiles=tiles)


def _level_tables(tabs: _Tables, plan: OrderingPlan, array: str
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(traffic-units, buffer-elements) per candidate level, each (nL, T)."""
    levels = plan.cand_levels[array]
    t = tabs.ext.shape[1]
    tr = np.empty((len(levels), t), dtype=np.int64)
    bf = np.empty((len(levels), t), dtype=np.int64)
    for i, lvl in enumerate(levels):
        tr[i] = tabs.ft[array][lvl + 1] * tabs.suffix[lvl]
        b = np.ones(t, dtype=np.int64)
        for p, mask in tabs.carrier_masks[array]:
            if p > lvl:
                break
            b = np.where(mask, tabs.ft[array][p], b)
        bf[i] = b
    return tr, bf


def _o_acc_table(tabs: _Tables, plan: OrderingPlan, layer: LayerShape
                 ) -> np.ndarray:
    """Partial-sum spill bytes per candidate O level, (nL, T).

    Each O-carrying loop above the level multiplies the accumulation
    passes; every pass beyond the first costs a write plus a read of all
    distinct outputs at accumulator precision.
    """
    levels = plan.cand_levels["O"]
    t = tabs.ext.shape[1]
    distinct = layer.c_out * layer.out_h * layer.out_w
    out = np.empty((len(levels), t), dtype=np.int64)
    for i, lvl in enumerate(levels):
        passes = np.ones(t, dtype=np.int64)
        for p, mask in tabs.carrier_masks["O"]:
            if p > lvl:
                passes = np.where(mask, passes * tabs.ext[p], passes)
        out[i] = 2 * layer.p_acc * distinct * (passes - 1)
    return out


def _compact_levels(layer: LayerShape, mss: int, css: int, iss: int, jss: int,
                    levels10: tuple[int, int, int]) -> tuple[list[Axis], tuple[int, int, int]]:
    """Drop unit controlling loops; remap ten-slot levels onto what's left."""
    trips = {
        _POS_TSX: -(-layer.out_w // jss), _POS_TSY: -(-layer.out_h // iss),
        _POS_TIF: -(-layer.c_in // css), _POS_TOF: -(-layer.c_out // mss),
    }
    kept = list(range(6)) + [p for p in (6, 7, 8, 9) if trips[p] > 1]
    ctrl = [_CTRL_AXIS[p] for p in (6, 7, 8, 9) if trips[p] > 1]

    def remap(lvl: int) -> int:
        return sum(1 for q in kept if q <= lvl) - 1

    return ctrl, tuple(remap(l) for l in levels10)


def _serialize_candidate(ordering: Ordering, layer: LayerShape,
                         mss: int, css: int, iss: int, jss: int,
                         levels10: tuple[int, int, int]) -> str:
    _, (li, lw, lo) = _compact_levels(layer, mss, css, iss, jss, levels10)
    doc = {
        "order": [a.name for a in ordering],
        "tiles": {"mss": mss, "css": css, "iss": iss, "jss": jss},
        "buffering": {"I": li, "W": lw, "O": lo},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class LayerEvaluation:
    """Everything one exhaustive pass over a layer's schedule space yields."""

    layer: LayerShape
    budgets: tuple[int, ...]
    results: tuple[SearchResult, ...]      # one per budget
    orderings: tuple[Ordering, ...]
    ordering_best: np.ndarray              # (orderings, budgets); -1 infeasible
    min_budget_ideal: int
    candidates: int


@dataclass(eq=False)
class _Step:
    """One stair of an ordering's staircase that some budget lands on.

    Its candidates share the stair's traffic and the fewest buffer bytes
    at that traffic, narrowed to the fewest spill bytes.  The canonical
    serialization that breaks the last tie is computed once, on demand:
    for the winner, or when another stair ties it on all three numbers.
    """

    total: int
    buffer: int
    acc: int
    ids: np.ndarray                        # flat candidate indices
    decode: Callable[[int], tuple[str, object]]  # flat -> (serial, payload)
    _best: tuple[str, object] | None = None

    def best(self) -> tuple[str, object]:
        """(serial, payload) of the least serialization among the ties."""
        if self._best is None:
            for flat in np.sort(self.ids).tolist():
                serial, payload = self.decode(flat)
                if self._best is None or serial < self._best[0]:
                    self._best = (serial, payload)
        return self._best


class _Staircase:
    """Per budget, the least (traffic, buffer, spill, serial) candidate.

    Orderings are added one at a time.  Each ordering's candidates are
    sorted by buffer bytes once; the running minimum of traffic along that
    order is the ordering's best traffic at every budget, which
    searchsorted reads off for all budgets together.  The winner at a
    budget is the first candidate where the running minimum reaches its
    value (the smallest buffer at that traffic); equal buffers sit
    together, so the spill tie-break looks at one contiguous block.
    Budgets may come in any order and may repeat.
    """

    def __init__(self, budgets: tuple[int, ...]):
        self.budgets = np.asarray(budgets, dtype=np.int64)
        self.key = np.full((3, self.budgets.size), _HUGE, dtype=np.int64)
        self.win = np.full(self.budgets.size, -1, dtype=np.int64)
        self.steps: list[_Step] = []  # every step that has led somewhere

    @property
    def winners(self) -> list[_Step | None]:
        return [self.steps[w] if w >= 0 else None for w in self.win.tolist()]

    def add(self, total: np.ndarray, buffer: np.ndarray, floor: int,
            acc_of: Callable[[np.ndarray], np.ndarray],
            decode: Callable[[int], tuple[str, object]]) -> np.ndarray:
        """Merge one ordering's flat candidates; its best traffic per budget.

        `floor` is the smallest buffer among them, `acc_of` maps flat
        indices to spill bytes, `decode` one flat index to its canonical
        serialization and whatever the caller needs to materialize it.
        Returns -1 where none of its candidates fits.
        """
        budgets = self.budgets
        reach = budgets[budgets >= floor]
        if reach.size == 0:
            return np.full(budgets.size, -1, dtype=np.int64)
        # Nothing over the best traffic at the smallest budget that admits
        # a candidate can win at any budget, and nothing over the largest
        # budget fits anywhere.
        ceiling = total[buffer <= reach.min()].min()
        keep = np.flatnonzero(total <= ceiling)
        keep = keep[buffer[keep] <= reach.max()]
        order = keep[np.argsort(buffer[keep])]
        sb, st = buffer[order], total[order]
        run = np.minimum.accumulate(st)

        fits = np.searchsorted(sb, budgets, side="right")
        ok = fits > 0
        best = np.full(budgets.size, -1, dtype=np.int64)
        best[ok] = run[fits[ok] - 1]
        first = np.searchsorted(-run, -best[ok], side="left")
        heads, step_of = np.unique(first, return_inverse=True)

        steps = []
        for j in heads.tolist():
            lo, hi = np.searchsorted(sb, (sb[j], sb[j] + 1))
            ids = order[lo:hi][st[lo:hi] == st[j]]
            acc = acc_of(ids)
            steps.append(_Step(total=int(st[j]), buffer=int(sb[j]),
                               acc=int(acc.min()), ids=ids[acc == acc.min()],
                               decode=decode))

        # Merge into the per-budget winners: lexicographic on the three
        # numbers; where those tie, serializations decide, once per pair of
        # steps rather than once per budget.
        pick = np.full(budgets.size, -1, dtype=np.int64)
        pick[ok] = step_of
        key = np.full_like(self.key, _HUGE)
        key[:, ok] = np.array([(s.total, s.buffer, s.acc) for s in steps],
                              dtype=np.int64).T[:, step_of]
        (t, b, a), (bt, bb, ba) = key, self.key
        better = (t < bt) | ((t == bt) & ((b < bb) | ((b == bb) & (a < ba))))
        tied = ok & (t == bt) & (b == bb) & (a == ba)
        if tied.any():
            pairs, inv = np.unique(pick[tied] * len(self.steps) + self.win[tied],
                                   return_inverse=True)
            wins = [steps[s].best()[0] < self.steps[w].best()[0]
                    for s, w in (divmod(p, len(self.steps))
                                 for p in pairs.tolist())]
            better[tied] = np.asarray(wins)[inv]
        if better.any():
            local, inv = np.unique(pick[better], return_inverse=True)
            self.win[better] = len(self.steps) + inv
            self.steps.extend(steps[s] for s in local.tolist())
            self.key[:, better] = key[:, better]
        return best


def _materialize(step: _Step, layer: LayerShape, budget: int | None,
                 candidates: int) -> SearchResult:
    serial, (ordering, tiles, levels10) = step.best()
    mss, css, iss, jss = tiles
    _, (li, lw, lo) = _compact_levels(layer, mss, css, iss, jss, levels10)
    schedule = instantiate(ordering, Tiles(mss, css, iss, jss), layer)
    assignment = BufferingAssignment(level_i=li, level_w=lw, level_o=lo)
    report = traffic(schedule, assignment, budget)
    # The scalar model arbitrates: the engine must agree exactly.
    scalar = (report.total, report.buffer_bytes, report.t_o_acc,
              schedule_to_json(schedule, assignment))
    engine = (step.total, step.buffer, step.acc, serial)
    if scalar != engine:
        raise CrossCheckError(
            f"{layer.name} at budget {budget}: the scalar model prices the "
            f"engine's winner as (total, buffer, spill, serial) = {scalar}, "
            f"the engine as {engine}")
    return SearchResult(layer_name=layer.name, budget=budget,
                        schedule=schedule, assignment=assignment,
                        report=report, candidates=candidates)


def evaluate_layer(layer: LayerShape,
                   budgets: tuple[int, ...],
                   policy: TilePolicy | None = None,
                   prune: bool = True,
                   orderings: tuple[Ordering, ...] | None = None
                   ) -> LayerEvaluation:
    """Exhaustive search over the full space, all budgets in one pass.

    Each ordering's candidates go through one staircase (see _Staircase),
    so the cost barely grows with the number of budgets.  Per budget the
    winner has the least traffic among candidates whose buffer fits, then
    the fewest buffer bytes, spill bytes and the least canonical
    serialization; `ordering_best` holds each ordering's least traffic
    per budget.  Budgets need not be sorted or unique.  Where nothing
    fits, the smallest-buffer candidate is reported as infeasible.
    """
    policy = policy or TilePolicy()
    table = precompute_requirements(orderings, prune)
    orderings = table.orderings
    menus = enumerate_tiles(layer, policy)
    tiles = _tile_vectors(menus)
    ideal = ideal_traffic(layer)

    stairs = _Staircase(budgets)
    ordering_best = np.full((len(orderings), len(budgets)), -1, dtype=np.int64)
    fallback: tuple | None = None  # smallest-buffer candidate overall
    min_ideal_sb = _HUGE
    candidates = 0

    for oi, ordering in enumerate(orderings):
        plan = table.plan(ordering)
        tabs = _build_tables(plan, layer, tiles)
        cand = plan.cand_levels
        ti, bi = _level_tables(tabs, plan, "I")
        tw, bw = _level_tables(tabs, plan, "W")
        _, bo = _level_tables(tabs, plan, "O")

        distinct = layer.c_out * layer.out_h * layer.out_w
        toacc = _o_acc_table(tabs, plan, layer)
        # The constant output write joins the smallest operand.
        st = (layer.p_in * ti + layer.p_out * distinct)[:, None, None, :] \
            + (layer.p_w * tw)[None, :, None, :] \
            + toacc[None, None, :, :]
        sb = (layer.p_in * bi)[:, None, None, :] \
            + (layer.p_w * bw)[None, :, None, :] \
            + (layer.p_acc * bo)[None, None, :, :]
        shape = st.shape
        st_flat, sb_flat = st.reshape(-1), sb.reshape(-1)
        candidates += st_flat.size

        at_ideal = sb_flat[st_flat == ideal]
        if at_ideal.size:
            min_ideal_sb = min(min_ideal_sb, int(at_ideal.min()))

        flat = int(sb_flat.argmin())
        floor = int(sb_flat[flat])
        fb = (floor, int(st_flat[flat]), oi, flat)
        if fallback is None or fb[:2] < fallback[:2]:
            fallback = fb

        def acc_of(ids, toacc=toacc, n_t=shape[3], n_o=shape[2]):
            return toacc[(ids // n_t) % n_o, ids % n_t]

        def decode(flat, ordering=ordering, cand=cand, shape=shape):
            i, j, k, t = np.unravel_index(flat, shape)
            tile = tuple(int(v[t]) for v in tiles)
            lv = (cand["I"][i], cand["W"][j], cand["O"][k])
            serial = _serialize_candidate(ordering, layer, *tile, lv)
            return serial, (ordering, tile, lv)

        ordering_best[oi] = stairs.add(st_flat, sb_flat, floor, acc_of,
                                       decode)

    results = []
    for budget, step in zip(budgets, stairs.winners):
        if step is not None:
            results.append(_materialize(step, layer, budget, candidates))
        else:
            results.append(_materialize_fallback(fallback, table, layer,
                                                 budget, tiles, candidates))
    if min_ideal_sb >= _HUGE:
        min_ideal_sb = -1  # explicit tile menus can exclude the untiled nest
    return LayerEvaluation(
        layer=layer, budgets=tuple(budgets), results=tuple(results),
        orderings=orderings, ordering_best=ordering_best,
        min_budget_ideal=min_ideal_sb, candidates=candidates,
    )


def _materialize_fallback(fallback, table, layer, budget, tiles, candidates
                          ) -> SearchResult:
    """No candidate fits: report the smallest-buffer one as infeasible."""
    _, _, oi, flat = fallback
    ordering = table.orderings[oi]
    plan = table.plan(ordering)
    cand = plan.cand_levels
    shape = (len(cand["I"]), len(cand["W"]), len(cand["O"]), tiles[0].size)
    i, j, k, t = np.unravel_index(flat, shape)
    mss, css, iss, jss = (int(v[t]) for v in tiles)
    lv = (cand["I"][i], cand["W"][j], cand["O"][k])
    _, (li, lw, lo) = _compact_levels(layer, mss, css, iss, jss, lv)
    schedule = instantiate(ordering, Tiles(mss, css, iss, jss), layer)
    assignment = BufferingAssignment(li, lw, lo)
    report = traffic(schedule, assignment, budget)
    if report.feasible:
        raise CrossCheckError(
            f"{layer.name} at budget {budget}: the engine found nothing that "
            f"fits, but the scalar model fits its smallest buffer "
            f"({report.buffer_bytes} B)")
    return SearchResult(layer_name=layer.name, budget=budget,
                        schedule=schedule, assignment=assignment,
                        report=report, candidates=candidates)


def best_schedule(layer: LayerShape, budget: int,
                  config: SearchConfig | None = None) -> SearchResult:
    """Minimal-traffic feasible schedule for one layer and budget."""
    config = config or SearchConfig()
    if budget <= 0:
        raise ValidationError("budget must be positive")
    ev = evaluate_layer(layer, (budget,), config.tile_policy, config.prune)
    return ev.results[0]


def min_budget_for_ideal(layer: LayerShape,
                         policy: TilePolicy | None = None,
                         prune: bool = True) -> int:
    """Smallest buffer capacity at which some schedule reaches ideal traffic."""
    ev = evaluate_layer(layer, (1,), policy, prune)
    if ev.min_budget_ideal < 0:
        raise ValidationError("ideal traffic unreachable under this tile policy")
    return ev.min_budget_ideal


def ideal_report(layer: LayerShape) -> TrafficReport:
    """The per-array decomposition of the reuse floor, as a report row."""
    t_in = layer.p_in * layer.c_in * layer.eff_h * layer.eff_w
    t_w = layer.p_w * layer.c_out * layer.c_in * layer.k_h * layer.k_w
    t_o = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    return TrafficReport(t_in=t_in, t_w=t_w, t_o_acc=0, t_o_final=t_o,
                         total=t_in + t_w + t_o, b_in=0, b_w=0, b_o=0,
                         feasible=True)


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


def _parallel_map(fn, tasks: list) -> list:
    """Order-preserving map, in processes when more than one worker helps."""
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _evaluate_task(args) -> LayerEvaluation:
    layer, budgets, policy, prune = args
    return evaluate_layer(layer, budgets, policy, prune)


def evaluate_layers(layers, budgets, policy: TilePolicy | None = None,
                    prune: bool = True) -> list[LayerEvaluation]:
    policy = policy or TilePolicy()
    tasks = [(layer, tuple(budgets), policy, prune) for layer in layers]
    return _parallel_map(_evaluate_task, tasks)


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
    t_in: int
    t_w: int
    t_o_acc: int
    t_o_final: int
    total: int
    buffer_bytes: int
    feasible: bool
    overhead_vs_ours_pct: float | None


@dataclass(frozen=True)
class SweepResult:
    suite_name: str
    budgets: tuple[int, ...]
    models: tuple[str, ...]
    rows: tuple[SweepRow, ...]
    aggregates: tuple[AggregateRow, ...]


def _sweep_task(args) -> list[tuple[TrafficReport | None, str | None, int]]:
    """Per-budget (report, schedule serialization, candidate count) rows."""
    layer, model, budgets, policy, prune = args
    if model == "ours":
        ev = evaluate_layer(layer, budgets, policy, prune)
        return [(r.report, schedule_to_json(r.schedule, r.assignment),
                 r.candidates) for r in ev.results]
    if model == "peemen":
        from . import baselines
        return [_result_row(baselines.peemen_best(layer, b, policy))
                for b in budgets]
    if model == "cache":
        from . import baselines
        return [_result_row(r)
                for r in baselines.cache_results(layer, budgets, policy)]
    if model == "hwc":
        from . import casestudy
        out = []
        for b in budgets:
            cfg = casestudy.HwcConfig(budget=b)
            sch, asg, rep = casestudy.hwc_schedule(layer, cfg)
            out.append((rep, schedule_to_json(sch, asg), 0))
        return out
    if model == "hwce":
        from . import casestudy
        out = []
        for b in budgets:
            cfg = casestudy.HwcConfig(budget=b)
            sch, asg, rep = casestudy.hwce_schedule(layer, cfg)
            serial = schedule_to_json(sch, asg) if sch is not None else None
            out.append((rep, serial, 0))
        return out
    raise ValidationError(f"unknown model {model!r}")


def _result_row(res: SearchResult):
    return (res.report, schedule_to_json(res.schedule, res.assignment),
            res.candidates)


def sweep(suite: LayerSuite, config: SearchConfig | None = None,
          models: tuple[str, ...] = ("ours", "peemen", "cache")) -> SweepResult:
    """Per-layer results and per-suite aggregate totals for several models.

    "ideal" rows (the full-reuse floor, budget-independent) are always
    included.  Aggregates sum traffic over the suite's layers; the peemen
    aggregate carries its percentage overhead against ours when both ran.
    """
    config = config or SearchConfig()
    for m in models:
        if m not in MODEL_ORDER:
            raise ValidationError(f"unknown model {m!r}")
    run_models = [m for m in MODEL_ORDER if m in models and m != "ideal"]
    budgets = config.budgets

    tasks = [(layer, model, budgets, config.tile_policy, config.prune)
             for layer in suite for model in run_models]
    outcomes = _parallel_map(_sweep_task, tasks)
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
            agg = {f: sum(getattr(r, f) for r in present)
                   for f in ("t_in", "t_w", "t_o_acc", "t_o_final", "total",
                             "buffer_bytes")}
            feasible = all(r.report is not None and r.report.feasible
                           for r in cell)
            totals[model, budget] = agg["total"]
            overhead = None
            if model == "peemen" and ("ours", budget) in totals \
                    and totals["ours", budget] > 0:
                ours = totals["ours", budget]
                overhead = 100.0 * (agg["total"] - ours) / ours
            aggregates.append(AggregateRow(
                suite=suite.name, model=model, budget=budget,
                feasible=feasible, overhead_vs_ours_pct=overhead, **agg))
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


def distribution(layers, budgets, policy: TilePolicy | None = None,
                 prune: bool = True) -> DistributionTable:
    evals = evaluate_layers(layers, tuple(budgets), policy, prune)
    return distribution_from(evals)
