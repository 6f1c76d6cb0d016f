"""Exhaustive schedule search: permutations x tilings x buffering levels.

The search has two steps, the second of which prunes before it
evaluates.  Step one (precompute_requirements) derives, per loop
ordering, the layer-independent structure of the candidate space: which
positions multiply into each array's footprint, which positions can
carry reuse of each array, and the short list of buffering levels worth
considering (raising a level between two carriers never changes the
buffer but never increases traffic, so only the level just under each
carrier, and the top, can win).

Step two evaluates that structure for a concrete layer with vectorized
integer arithmetic.  It first prices each array's candidate levels on
every tile choice, then bounds and prunes: per tile, the cheapest level
of each array that leaves room for the other two arrays' least buffers
gives a lower bound on the tile's traffic at a budget, and a few real
candidates give an upper bound on the ordering's best there.  Only tiles
whose lower bound reaches the upper bound at some budget go into the
full cross product of levels.  The survivors answer every budget at once
from one staircase per ordering: the candidates sorted by buffer bytes
with the running minimum of traffic, which searchsorted reads off at
each budget.  Ties are broken deterministically (buffer bytes, spill
bytes, then the canonical serialization), and only at the stairs some
budget lands on.

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
    axis_full_extent, ideal_traffic, schedule_to_json, traffic,
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

# Rows of a layer's stacked extents (see _layer_extents): the six body
# axes, then the controlling trip counts at their own positions.
_AXIS_ROW = {Axis.OF: 0, Axis.IF: 1, Axis.SY: 2, Axis.SX: 3,
             Axis.FY: 4, Axis.FX: 5}

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
    # Row of the layer's stacked extents at each of the ten positions.
    rows: tuple[int, ...]

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
        rows=tuple(_AXIS_ROW[a] for a in ordering) + (6, 7, 8, 9),
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


def _tile_vectors(menus: dict[Axis, tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    grids = np.meshgrid(
        np.asarray(menus[Axis.OF], dtype=np.int64),
        np.asarray(menus[Axis.IF], dtype=np.int64),
        np.asarray(menus[Axis.SY], dtype=np.int64),
        np.asarray(menus[Axis.SX], dtype=np.int64),
        indexing="ij",
    )
    return tuple(g.reshape(-1) for g in grids)


def _layer_extents(layer: LayerShape,
                   tiles: tuple[np.ndarray, ...]) -> np.ndarray:
    """(10, T) loop extents of a layer over tile combos, rows per _AXIS_ROW.

    Rows 0-5 hold the body extent of each axis and rows 6-9 the trip
    counts of the controlling loops, which sit at positions 6-9 in every
    ordering; an ordering's nest takes these rows by its `rows`.
    """
    mss, css, iss, jss = tiles
    ext = np.empty((10, mss.size), dtype=np.int64)
    ext[:4] = tiles
    ext[_AXIS_ROW[Axis.FY]] = layer.k_h
    ext[_AXIS_ROW[Axis.FX]] = layer.k_w
    ext[_POS_TSX] = -(-layer.out_w // jss)
    ext[_POS_TSY] = -(-layer.out_h // iss)
    ext[_POS_TIF] = -(-layer.c_in // css)
    ext[_POS_TOF] = -(-layer.c_out // mss)
    return ext


def _build_tables(plan: OrderingPlan, layer: LayerShape,
                  extents: np.ndarray) -> _Tables:
    """The ordering's tables from the layer's stacked `extents`."""
    t = extents.shape[1]
    ext = extents.take(plan.rows, axis=0)
    axes = plan.ordering + tuple(_CTRL_AXIS[p] for p in range(6, 10))

    # Running products go row by row: numpy's cumprod along the first
    # axis is several times slower on these short, wide tables.
    suffix = np.ones((10, t), dtype=np.int64)
    for p in range(8, -1, -1):
        np.multiply(suffix[p + 1], ext[p + 1], out=suffix[p])

    ft = {a: np.ones((11, t), dtype=np.int64) for a in ("I", "W", "O")}
    for a, dims in (("W", _W_DIMS), ("O", _O_DIMS)):
        for p, axis in enumerate(axes):
            if axis in dims:
                np.multiply(ft[a][p], ext[p], out=ft[a][p + 1])
            else:
                ft[a][p + 1] = ft[a][p]

    # Inputs: channel product times a window factor per spatial dim; each
    # factor changes only at its own positions.
    def window(state, kernel: int):
        k_in, s, trips = state
        if s is None:
            base = kernel if k_in else 1
        else:
            base = (s - 1) * layer.stride + kernel if k_in else s
        return base if trips is None else base * trips

    # Per spatial dim: (kernel loop below, spatial extent, trip count).
    slot = {plan.x_pair[0]: ("x", 0), plan.x_pair[1]: ("x", 1),
            _POS_TSX: ("x", 2), plan.y_pair[0]: ("y", 0),
            plan.y_pair[1]: ("y", 1), _POS_TSY: ("y", 2)}
    state = {"x": [False, None, None], "y": [False, None, None]}
    kernel = {"x": layer.k_w, "y": layer.k_h}
    factor = {"x": 1, "y": 1}
    channels = 1
    fi = ft["I"]
    for p, axis in enumerate(axes):
        if axis is Axis.IF:
            channels = channels * ext[p]
        elif p in slot:
            dim, i = slot[p]
            state[dim][i] = True if i == 0 else ext[p]
            factor[dim] = window(state[dim], kernel[dim])
        else:
            fi[p + 1] = fi[p]
            continue
        fi[p + 1] = channels * factor["x"] * factor["y"]

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
    return _Tables(ext=ext, suffix=suffix, ft=ft, carrier_masks=masks)


def _level_tables(tabs: _Tables, plan: OrderingPlan, array: str
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(traffic-units, buffer-elements) per candidate level, each (nL, T).

    The buffer is the footprint below the highest carrier at or under the
    level that carries; levels and carriers both ascend.
    """
    levels = plan.cand_levels[array]
    ft = tabs.ft[array]
    tr = ft[np.add(levels, 1)] * tabs.suffix[list(levels)]
    bf = np.empty_like(tr)
    carriers = tabs.carrier_masks[array][::-1]
    b = np.ones(tr.shape[1], dtype=np.int64)
    for i, lvl in enumerate(levels):
        while carriers and carriers[-1][0] <= lvl:
            p, mask = carriers.pop()
            b = np.where(mask, ft[p], b)
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
    distinct = layer.c_out * layer.out_h * layer.out_w
    out = np.empty((len(levels), tabs.ext.shape[1]), dtype=np.int64)
    carriers = list(tabs.carrier_masks["O"])
    passes = np.ones(out.shape[1], dtype=np.int64)
    for i in reversed(range(len(levels))):
        while carriers and carriers[-1][0] > levels[i]:
            p, mask = carriers.pop()
            passes = np.where(mask, passes * tabs.ext[p], passes)
        out[i] = passes
    return 2 * layer.p_acc * distinct * (out - 1)


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


def _compact_table(extents: np.ndarray) -> np.ndarray:
    """(10, T): the compacted level of each ten-slot level per tile combo.

    The vectorized _compact_levels over a layer's stacked extents: a body
    position keeps its index, a controlling position lands after the
    controlling loops up to it that run more than once.
    """
    out = np.empty_like(extents)
    out[:6] = np.arange(6)[:, None]
    out[6:] = 5 + np.cumsum(extents[6:] > 1, axis=0)
    return out


@dataclass
class LayerEvaluation:
    """Everything one exhaustive pass over a layer's schedule space yields."""

    layer: LayerShape
    budgets: tuple[int, ...]
    results: tuple[SearchResult, ...]      # one per budget
    orderings: tuple[Ordering, ...]
    ordering_best: np.ndarray              # (orderings, budgets); -1 infeasible
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
    levels_of: Callable[[np.ndarray], np.ndarray]  # flat -> (3, n) I, O, W
    decode: Callable[[int], tuple[str, object]]  # flat -> (serial, payload)
    _best: tuple[str, object] | None = None

    def best(self) -> tuple[str, object]:
        """(serial, payload) of the least serialization among the ties."""
        if self._best is None:
            # A serialization opens with the compacted I, O and W levels,
            # one digit each, so only the least of those can hold the least.
            li, lo, lw = self.levels_of(self.ids)
            rank = (li * 10 + lo) * 10 + lw
            for flat in np.sort(self.ids[rank == rank.min()]).tolist():
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
            levels_of: Callable[[np.ndarray], np.ndarray],
            decode: Callable[[int], tuple[str, object]]) -> np.ndarray:
        """Merge one ordering's flat candidates; its best traffic per budget.

        `floor` is the ordering's smallest buffer.  The candidates need
        not be all of the ordering's, only every one that fits some budget
        at the ordering's best traffic there.  `acc_of` maps flat indices
        to spill bytes, `levels_of` to their compacted (I, O, W) buffering
        levels, `decode` one flat index to its canonical serialization and
        whatever the caller needs to materialize it.  Returns -1 where
        none of its candidates fits.
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
                               levels_of=levels_of, decode=decode))

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


# ---------------------------------------------------------------------------
# Bound and prune: which tiles of an ordering can still hold a best candidate.

# Tiles of least lower bound, per bound point, whose exact best sets the
# upper bound there.
_PROBE = 4

# One (value, weight) pair of (nL, T) tables per array, in (I, W, O)
# order: traffic and buffer bytes in the search, swapped for the buffer
# that reaches ideal traffic.
_Arrays = list[tuple[np.ndarray, np.ndarray]]


def _byte_tables(plan: OrderingPlan, layer: LayerShape,
                 extents: np.ndarray) -> _Arrays:
    """(traffic, buffer) bytes per candidate level of I, W and O.

    The constant output write joins the input traffic, so the output's
    traffic is its partial-sum spill alone.
    """
    tabs = _build_tables(plan, layer, extents)
    ti, bi = _level_tables(tabs, plan, "I")
    tw, bw = _level_tables(tabs, plan, "W")
    _, bo = _level_tables(tabs, plan, "O")
    distinct = layer.c_out * layer.out_h * layer.out_w
    return [(layer.p_in * ti + layer.p_out * distinct, layer.p_in * bi),
            (layer.p_w * tw, layer.p_w * bw),
            (_o_acc_table(tabs, plan, layer), layer.p_acc * bo)]


def _columns(arrays: _Arrays, cols: np.ndarray) -> _Arrays:
    return [(v.take(cols, axis=1), w.take(cols, axis=1)) for v, w in arrays]


def _cross(arrays: _Arrays) -> tuple[np.ndarray, np.ndarray]:
    """Summed values and weights of every (I, W, O) level triple on every
    tile, each shaped (nI, nW, nO, T)."""
    (vi, wi), (vw, ww), (vo, wo) = arrays
    value = vi[:, None, None, :] + vw[None, :, None, :] + vo[None, None, :, :]
    weight = wi[:, None, None, :] + ww[None, :, None, :] + wo[None, None, :, :]
    return value, weight


def _lower_bound(arrays: _Arrays, caps: np.ndarray) -> np.ndarray:
    """(G, T): per cap and tile, at most the least summed value of a level
    triple whose summed weight fits the cap.

    Each array can weigh at most the cap less the other two arrays' least
    weights on that tile; its least value within that bounds its share.
    Where the least weights alone exceed the cap the bound is _HUGE or more.
    """
    least = [w.min(axis=0) for _, w in arrays]
    spare = caps[:, None] - sum(least)
    bound = np.zeros(spare.shape, dtype=np.int64)
    for (v, w), m in zip(arrays, least):
        room = spare + m
        share = np.full(room.shape, _HUGE)
        for level_v, level_w in zip(v, w):
            np.minimum(share, level_v, out=share, where=level_w <= room)
        bound += share
    return bound


def _survivors(arrays: _Arrays, reach: np.ndarray) -> np.ndarray:
    """Tile columns that can hold the ordering's best traffic at a budget.

    `reach` holds the budgets, ascending and distinct, none below the
    ordering's smallest buffer.  The bound points are those budgets when
    there are no more of them than points on the doubling grid from the
    smallest to the largest, and that grid otherwise.  A tile survives if
    its lower bound is at most the upper bound at some point: the exact
    best over a probe of the tiles of least lower bound, which holds a
    tile that fits, so it is never below the ordering's true best.  On the
    grid a budget between two points has a best no worse than the left
    point's and a bound no lower than the right point's, so those two are
    compared.
    """
    lo, hi = int(reach[0]), int(reach[-1])
    grid = [lo]
    while grid[-1] < hi:
        grid.append(min(2 * grid[-1], hi))
    exact = reach.size <= len(grid)
    points = reach if exact else np.asarray(grid, dtype=np.int64)

    bound = _lower_bound(arrays, points)
    if bound.shape[1] > _PROBE:
        probe = np.unique(np.argpartition(bound, _PROBE, axis=1)[:, :_PROBE])
    else:
        probe = np.arange(bound.shape[1])
    value, weight = _cross(_columns(arrays, probe))
    fits = weight.reshape(1, -1) <= points[:, None]
    upper = np.where(fits, value.reshape(1, -1), _HUGE).min(axis=1)
    if exact:
        keep = (bound <= upper[:, None]).any(axis=0)
    else:
        keep = (bound[1:] <= upper[:-1, None]).any(axis=0)
    return np.flatnonzero(keep)


def _first_least(arrays: _Arrays) -> tuple[int, int, int]:
    """(flat index, buffer, traffic) of the first least-buffer candidate.

    The flat index is into the full (nI, nW, nO, T) cross product, and the
    candidate is the one its argmin would find, derived from the per-array
    least buffers without building the product: the least level of each
    array in turn among tiles still at the floor, then the least tile.
    """
    least = [w.min(axis=0) for _, w in arrays]
    floors = sum(least)
    cols = floors == floors.min()
    levels = []
    for (_, w), m in zip(arrays, least):
        at = (w == m) & cols
        levels.append(int(np.flatnonzero(at.any(axis=1))[0]))
        cols = at[levels[-1]]
    t = int(np.flatnonzero(cols)[0])
    shape = tuple(w.shape[0] for _, w in arrays) + (cols.size,)
    flat = int(np.ravel_multi_index((*levels, t), shape))
    buffer = sum(int(w[l, t]) for (_, w), l in zip(arrays, levels))
    total = sum(int(v[l, t]) for (v, _), l in zip(arrays, levels))
    return flat, buffer, total


def _check_int64_range(layer: LayerShape,
                       menus: dict[Axis, tuple[int, ...]]) -> None:
    """Refuse a layer whose byte counts could overflow the engine's int64.

    Bounds with Python ints what the tables multiply: the loop product
    (per tiled axis the largest tile times its trip count), an input
    window wider than tile times kernel when the stride exceeds the
    kernel, and the spill passes (kernel and input-channel loops).  Every
    traffic, buffer and spill entry, and every sum of them, is below it;
    the bound step's sentinels stay clear of it too.
    """
    def span(axis: Axis) -> int:
        extent = axis_full_extent(axis, layer)
        return max(t * -(-extent // t) for t in menus[axis])

    kernel = layer.k_h * layer.k_w
    loops = kernel * math.prod(span(a) for a in menus)
    window = -(-layer.stride // layer.k_h) * -(-layer.stride // layer.k_w)
    distinct = layer.c_out * layer.out_h * layer.out_w
    worst = ((layer.p_in * window + layer.p_w + layer.p_out + 2 * layer.p_acc)
             * loops + layer.p_out * distinct
             + 2 * layer.p_acc * distinct * kernel * span(Axis.IF))
    if worst >= _HUGE:
        raise ValidationError(
            f"layer {layer.name!r}: byte counts up to {worst} do not fit the "
            f"search's 64-bit arithmetic (limit {_HUGE})")


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

    Per ordering, only the tiles that survive the bound step (see
    _survivors) are expanded into candidates, and those go through one
    staircase (see _Staircase), so the cost barely grows with the number
    of budgets.  Per budget the winner has the least traffic among
    candidates whose buffer fits, then the fewest buffer bytes, spill
    bytes and the least canonical serialization; `ordering_best` holds
    each ordering's least traffic per budget.  Both are those of the full
    space.  Budgets need not be sorted or unique.  Where nothing fits, the
    smallest-buffer candidate is reported as infeasible.
    """
    policy = policy or TilePolicy()
    table = precompute_requirements(orderings, prune)
    orderings = table.orderings
    menus = enumerate_tiles(layer, policy)
    _check_int64_range(layer, menus)
    tiles = _tile_vectors(menus)
    extents = _layer_extents(layer, tiles)
    compact = _compact_table(extents)
    n_t = extents.shape[1]
    budgets_v = np.asarray(budgets, dtype=np.int64)

    stairs = _Staircase(budgets)
    ordering_best = np.full((len(orderings), len(budgets)), -1, dtype=np.int64)
    fallback: tuple | None = None  # smallest-buffer candidate overall
    candidates = 0

    for oi, ordering in enumerate(orderings):
        plan = table.plan(ordering)
        arrays = _byte_tables(plan, layer, extents)
        candidates += math.prod(w.shape[0] for _, w in arrays) * n_t

        flat, floor, total = _first_least(arrays)
        if fallback is None or (floor, total) < fallback[:2]:
            fallback = (floor, total, oi, flat)
        reach = np.unique(budgets_v[budgets_v >= floor])
        if reach.size == 0:
            continue

        cols = _survivors(arrays, reach)
        kept = _columns(arrays, cols)
        st, sb = _cross(kept)
        toacc, shape = kept[2][0], st.shape
        levels = [np.asarray(plan.cand_levels[a]) for a in ("I", "W", "O")]

        def acc_of(ids, toacc=toacc, n_c=shape[3], n_o=shape[2]):
            return toacc[(ids // n_c) % n_o, ids % n_c]

        def levels_of(ids, levels=levels, cols=cols, shape=shape):
            i, j, k, c = np.unravel_index(ids, shape)
            t = cols[c]
            return np.stack([compact[levels[0][i], t],
                             compact[levels[2][k], t],
                             compact[levels[1][j], t]])

        def decode(flat, ordering=ordering, levels=levels, cols=cols,
                   shape=shape):
            i, j, k, c = np.unravel_index(flat, shape)
            tile = tuple(int(v[cols[c]]) for v in tiles)
            lv = (int(levels[0][i]), int(levels[1][j]), int(levels[2][k]))
            serial = _serialize_candidate(ordering, layer, *tile, lv)
            return serial, (ordering, tile, lv)

        ordering_best[oi] = stairs.add(st.reshape(-1), sb.reshape(-1), floor,
                                       acc_of, levels_of, decode)

    results = []
    for budget, step in zip(budgets, stairs.winners):
        if step is not None:
            results.append(_materialize(step, layer, budget, candidates))
        else:
            results.append(_materialize_fallback(fallback, table, layer,
                                                 budget, tiles, candidates))
    return LayerEvaluation(
        layer=layer, budgets=tuple(budgets), results=tuple(results),
        orderings=orderings, ordering_best=ordering_best,
        candidates=candidates,
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
    """Smallest buffer capacity at which some schedule reaches ideal traffic.

    An exact pass of its own over the search's space, bound and pruned
    with traffic and buffer in swapped roles: per tile, the least buffer
    of a level triple whose traffic fits the ideal bounds the buffer of
    one that reaches it.  The least buffer found so far, first over a
    probe of the tiles of least bound, drops every tile bounded at or
    above it.
    """
    policy = policy or TilePolicy()
    table = precompute_requirements(None, prune)
    menus = enumerate_tiles(layer, policy)
    _check_int64_range(layer, menus)
    extents = _layer_extents(layer, _tile_vectors(menus))
    ideal = ideal_traffic(layer)
    least = _HUGE

    def least_at_ideal(arrays: _Arrays, cols: np.ndarray) -> int:
        st, sb = _cross(_columns(arrays, cols))
        at = sb[st == ideal]
        return int(at.min()) if at.size else _HUGE

    for ordering in table.orderings:
        arrays = _byte_tables(table.plan(ordering), layer, extents)
        bound = _lower_bound([(w, v) for v, w in arrays],
                             np.asarray([ideal], dtype=np.int64))[0]
        probe = np.argsort(bound, kind="stable")[:_PROBE]
        least = min(least, least_at_ideal(arrays, probe))
        rest = np.flatnonzero(bound < least)
        least = min(least, least_at_ideal(arrays, rest))
    if least >= _HUGE:
        raise ValidationError("ideal traffic unreachable under this tile policy")
    return least


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
