"""Exhaustive schedule search: permutations x tilings x buffering levels.

Each loop ordering has a plan (_make_plan, memoized;
precompute_requirements returns them all): the layer-independent
structure of its candidate space, namely which positions can carry reuse
of each array and the short list of buffering levels worth considering
(raising a level between two carriers never changes the buffer but never
increases traffic, so only the level just under each carrier, and the
top, can win).

The search evaluates that structure for a concrete layer with vectorized
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
exact; reported winners drop those unit loops again, their levels
remapped by one table per layer (_compact_table).

A level's traffic and buffer need only footprints and loop products over
a prefix set: the loops below a cut, whatever their order.  Weight and
output footprints are products over the set; an input footprint is the
channel product times a window per spatial dim, fixed by which of its
kernel, spatial and trip loops are inside.  The 180 orderings cut at 40
sets (all 720 at 68), so a layer's tables are built once per set
(_prefix_tables) and each ordering gathers its rows.

All traffic numbers here are exact int64; winners are re-materialized
through the scalar model as a cross-check before being reported.

One core (_evaluate) serves two callers: evaluate_layer over every
ordering and the HWC tile search (casestudy) on one plan with pinned
levels.  The cache and Peemen models (baselines) price their own
candidates but share the staircase and the materialization (_answers);
the cache model prices the same prefix tables once per set, not once per
ordering, since its candidates are cuts.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .layers import CrossCheckError, LayerShape, LayerSuite, ValidationError
from .model import (
    Axis, BufferingAssignment, Schedule, Tiles, TrafficReport,
    axis_full_extent, format_schedule, ideal_report, ideal_traffic,
    schedule_to_json, traffic,
)
from .space import (
    TILEABLE_AXES, Ordering, TilePolicy, enumerate_permutations,
    enumerate_tiles, instantiate,
)

_HUGE = np.iinfo(np.int64).max // 4

# Fixed positions of the controlling loops in the uniform ten-slot nest,
# innermost first (so the outermost-first order is OF, IF, SY, SX).
_POS_TSX, _POS_TSY, _POS_TIF, _POS_TOF = 6, 7, 8, 9

# Rows of a layer's stacked extents (see _layer_extents): the six body
# axes, then the controlling trip counts at their own positions.
_AXIS_ROW = {Axis.OF: 0, Axis.IF: 1, Axis.SY: 2, Axis.SX: 3,
             Axis.FY: 4, Axis.FX: 5}

# Rows of the array's own axes, whose loops inside a prefix set multiply
# its footprint; inputs take spatial tiles and kernels as windows.
_FOOT_ROWS = {"I": (1, 6, 7, 8), "W": (0, 1, 4, 5, 8, 9),
              "O": (0, 2, 3, 6, 7, 9)}


# The budgets of the paper's comparison: 1 KiB to 256 KiB in doublings.
DEFAULT_BUDGETS = tuple(1024 << k for k in range(9))


def _check_budgets(budgets) -> np.ndarray:
    """The budgets as int64: every model's and command's one budget rule."""
    for b in budgets:
        if not 0 < b <= np.iinfo(np.int64).max:
            raise ValidationError(
                f"budget must be positive and fit in 64 bits, got {b}")
    return np.asarray(budgets, dtype=np.int64)


@dataclass(frozen=True)
class SearchConfig:
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    tile_policy: TilePolicy = field(default_factory=TilePolicy)
    prune: bool = True

    def __post_init__(self) -> None:
        if not self.budgets or list(self.budgets) != sorted(set(self.budgets)):
            raise ValidationError("budgets must be ascending, unique, and non-empty")
        _check_budgets(self.budgets)


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
    # Prefix set of each cut c = 0..10, the loops below position c, as a
    # bit mask over their rows: layer-independent ids, 68 in all.
    pre: tuple[int, ...]


@functools.cache
def _make_plan(ordering: Ordering) -> OrderingPlan:
    pos = {a: i for i, a in enumerate(ordering)}
    rows = tuple(_AXIS_ROW[a] for a in ordering) + (6, 7, 8, 9)
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
        rows=rows,
        pre=tuple(sum(1 << r for r in rows[:c]) for c in range(11)),
    )


def precompute_requirements(prune: bool = True) -> tuple[OrderingPlan, ...]:
    """The plan of every ordering, of the pruned 180 by default."""
    return tuple(_make_plan(o) for o in enumerate_permutations(prune))


def _tile_vectors(menus: dict[Axis, tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """(mss, css, iss, jss) over every combination of the tile menus."""
    grids = np.meshgrid(*(np.asarray(menus[a], dtype=np.int64)
                          for a in TILEABLE_AXES), indexing="ij")
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


@dataclass(frozen=True)
class _Prefixes:
    """A layer's loop extents and its tables per prefix set, over tiles.

    Row i of each (K, T) table belongs to the prefix set ids[i]: ft[a] is
    array a's footprint inside the set, `outside` the product of the
    extents outside it.
    """

    extents: np.ndarray         # (10, T), rows per _AXIS_ROW
    carries: np.ndarray         # (10, T) extents > 1
    ids: np.ndarray             # (K,) ascending
    ft: dict[str, np.ndarray]   # (K, T) per array
    outside: np.ndarray         # (K, T)


def _prefix_tables(layer: LayerShape, extents: np.ndarray,
                   plans: tuple[OrderingPlan, ...]) -> _Prefixes:
    """The layer's tables for every prefix set the plans cut at."""
    ids = np.unique(np.asarray([plan.pre for plan in plans], dtype=np.int64))
    inside = (ids >> np.arange(10)[:, None]) & 1 == 1   # (10, K)
    shape = (ids.size, extents.shape[1])
    ft = {a: np.ones(shape, dtype=np.int64) for a in "IWO"}
    outside = np.ones(shape, dtype=np.int64)
    for r, ext in enumerate(extents):
        np.multiply(outside, ext, out=outside, where=~inside[r, :, None])
        for a, rows in _FOOT_ROWS.items():
            if r in rows:
                np.multiply(ft[a], ext, out=ft[a], where=inside[r, :, None])
    # The input window per spatial dim: the rows or columns the spatial
    # tile (one if its loop is outside) reads through the kernel (a point
    # if the kernel loop is outside).
    for kernel_axis, axis in ((Axis.FX, Axis.SX), (Axis.FY, Axis.SY)):
        k, s = _AXIS_ROW[kernel_axis], _AXIS_ROW[axis]
        tile = np.where(inside[s, :, None], extents[s], 1)
        ft["I"] *= np.where(inside[k, :, None],
                            (tile - 1) * layer.stride + extents[k], tile)
    return _Prefixes(extents=extents, carries=extents > 1, ids=ids, ft=ft,
                     outside=outside)


def _carrier_masks(plan: OrderingPlan, layer: LayerShape, tabs: _Prefixes,
                   array: str) -> list[tuple[int, np.ndarray]]:
    """(position, carries on each tile) of the array's potential carriers.

    A carrier position carries iff its extent exceeds one; the input
    spatial carriers also need the kernel in that dim to exceed one.
    """
    masks = []
    for p in plan.carriers[array]:
        mask = tabs.carries[plan.rows[p]]
        if array == "I" and ((p == max(plan.x_pair) and layer.k_w == 1)
                             or (p == max(plan.y_pair) and layer.k_h == 1)):
            mask = np.zeros_like(mask)
        masks.append((p, mask))
    return masks


def _compact_table(extents: np.ndarray) -> np.ndarray:
    """(10, T): the compacted level of each ten-slot level per tile combo.

    Compaction drops the controlling loops that run once: a body position
    keeps its index, a controlling position lands after the controlling
    loops up to it that run more than once.
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
    Budgets may come in any order and may repeat, but must pass
    _check_budgets: every model's budgets pass through here, before any
    tables are built.
    """

    def __init__(self, budgets: tuple[int, ...]):
        self.budgets = _check_budgets(budgets)
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
                 tabs: _Prefixes) -> _Arrays:
    """(traffic, buffer) bytes per candidate level of I, W and O.

    A level moves the footprint inside the cut just above it once per
    iteration of the loops outside that cut.  The buffer is the footprint
    inside the highest carrier at or under the level that carries; levels
    and carriers both ascend.  The constant output write joins the input
    traffic, so the output's traffic is its partial-sum spill alone.
    """
    cut = np.searchsorted(tabs.ids, plan.pre)   # table row per cut

    def moved(array: str) -> np.ndarray:
        at = cut[np.add(plan.cand_levels[array], 1)]
        return tabs.ft[array][at] * tabs.outside[at]

    def buffers(array: str) -> np.ndarray:
        levels = plan.cand_levels[array]
        out = np.ones((len(levels), tabs.extents.shape[1]), dtype=np.int64)
        for p, mask in _carrier_masks(plan, layer, tabs, array):
            np.copyto(out[bisect.bisect_left(levels, p):],
                      tabs.ft[array][cut[p]], where=mask)
        return out

    distinct = layer.c_out * layer.out_h * layer.out_w
    return [(layer.p_in * moved("I") + layer.p_out * distinct,
             layer.p_in * buffers("I")),
            (layer.p_w * moved("W"), layer.p_w * buffers("W")),
            (_spill(plan, layer, tabs), layer.p_acc * buffers("O"))]


def _spill(plan: OrderingPlan, layer: LayerShape, tabs: _Prefixes
           ) -> np.ndarray:
    """Partial-sum spill bytes per candidate O level, (nL, T).

    Each O-carrying loop above the level multiplies the accumulation
    passes; every pass beyond the first costs a write plus a read of all
    distinct outputs at accumulator precision.
    """
    levels = plan.cand_levels["O"]
    distinct = layer.c_out * layer.out_h * layer.out_w
    passes = np.ones((len(levels), tabs.extents.shape[1]), dtype=np.int64)
    for p, mask in _carrier_masks(plan, layer, tabs, "O"):
        below = passes[:bisect.bisect_left(levels, p)]
        np.multiply(below, tabs.extents[plan.rows[p]], out=below, where=mask)
    return 2 * layer.p_acc * distinct * (passes - 1)


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


def _first_least(arrays: _Arrays, serial=None
                 ) -> tuple[int, int, tuple[int, int, int], int]:
    """The search's fallback: (buffer, traffic, level indices, tile) of the
    first least-buffer candidate.

    The candidate is the one an argmin over the full (nI, nW, nO, T) cross
    product would find, derived from the per-array least buffers without
    building the product: the least level of each array in turn among
    tiles still at the floor, then the least tile.  `serial` is unused.
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
    buffer = sum(int(w[l, t]) for (_, w), l in zip(arrays, levels))
    total = sum(int(v[l, t]) for (v, _), l in zip(arrays, levels))
    return buffer, total, tuple(levels), t


def _least_buffer(arrays: _Arrays, serial
                  ) -> tuple[int, int, tuple[int, int, int], int]:
    """The HWC's and Peemen's fallback: the least (buffer, traffic, spill,
    serialization) candidate over the full cross product."""
    value, weight = _cross(arrays)
    spill = np.broadcast_to(arrays[2][0][None, None], value.shape)
    ids = np.flatnonzero(weight == weight.min())
    for key in (value, spill):
        key = key.reshape(-1)[ids]
        ids = ids[key == key.min()]
    tied = [tuple(map(int, np.unravel_index(f, value.shape)))
            for f in ids.tolist()]
    *idx, t = min(tied, key=lambda c: serial(c[:3], c[3]))
    return int(weight.min()), int(value.reshape(-1)[ids[0]]), tuple(idx), t


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


def _layer_space(layer: LayerShape, menus: dict,
                 plans: tuple[OrderingPlan, ...]) -> tuple:
    """(tile vectors, prefix tables, compact table), int64 range checked."""
    _check_int64_range(layer, menus)
    tiles = _tile_vectors(menus)
    extents = _layer_extents(layer, tiles)
    return tiles, _prefix_tables(layer, extents, plans), _compact_table(extents)


def _nest_of(layer: LayerShape, payload: tuple
             ) -> tuple[Schedule, BufferingAssignment]:
    """The schedule and buffering a payload names (see _answers)."""
    ordering, tile, levels, controlling = payload[:4]
    return (instantiate(ordering, Tiles(*tile), layer, controlling),
            BufferingAssignment(*levels))


def _answers(layer: LayerShape, budgets: tuple[int, ...], stairs: _Staircase,
             fallback: tuple, candidates: int, report_of: Callable | None = None
             ) -> list[SearchResult]:
    """Per budget, the staircase's winner, else the `fallback`, checked
    against the model that prices it: `report_of(payload, budget)`, else
    the scalar model.  A payload is (ordering, tile, compacted (I, W, O)
    levels, controlling loops innermost first or None for the default
    order, ...).  A winner's (total, buffer, spill, serialization) must be
    the report's and the schedule's exactly; the fallback must not fit.
    """
    results = []
    for budget, step in zip(budgets, stairs.winners):
        serial, payload = (None, fallback) if step is None else step.best()
        schedule, assignment = _nest_of(layer, payload)
        report = (traffic(schedule, assignment, budget) if report_of is None
                  else report_of(payload, budget))
        if step is not None:
            engine = (step.total, step.buffer, step.acc, serial)
            priced = (report.total, report.buffer_bytes, report.t_o_acc,
                      schedule_to_json(schedule, assignment))
            if priced != engine:
                raise CrossCheckError(
                    f"{layer.name} at budget {budget}: the model prices the "
                    f"engine's winner as (total, buffer, spill, serial) = "
                    f"{priced}, the engine as {engine}")
        elif report.feasible:
            raise CrossCheckError(
                f"{layer.name} at budget {budget}: the engine found nothing "
                f"that fits, but the model fits its smallest buffer "
                f"({report.buffer_bytes} B)")
        results.append(SearchResult(
            layer_name=layer.name, budget=budget, schedule=schedule,
            assignment=assignment, report=report, candidates=candidates))
    return results


def _evaluate(layer: LayerShape, budgets: tuple[int, ...],
              menus: dict[Axis, tuple[int, ...]],
              plans: tuple[OrderingPlan, ...], fallback_of: Callable
              ) -> tuple[list[SearchResult], np.ndarray, int]:
    """(results, ordering_best, candidates) of the plans on the tile menus.

    Per ordering, only the tiles that survive the bound step (see
    _survivors) are expanded into candidates, and those go through one
    staircase (see _Staircase).  For budgets where nothing fits,
    `fallback_of(arrays, serial)` names an ordering's candidate as
    _first_least does, one of its least buffer (serial(level indices,
    tile) serializes one); the least (buffer, traffic) of those, the
    first on ties, is reported.  The fallback is lazy: it is taken only
    when some budget needs it, and only from the orderings whose least
    buffer is the least of all, the only ones that can hold it; their
    tables are built again for it.
    """
    stairs = _Staircase(budgets)
    tiles, tabs, compact = _layer_space(layer, menus, plans)
    n_t = tabs.extents.shape[1]

    def candidate(plan: OrderingPlan, idx, t: int):
        """(serialization, payload) of the (I, W, O) level indices `idx`
        into the plan's candidate levels, on tile column t."""
        levels = tuple(int(compact[plan.cand_levels[a][n], t])
                       for a, n in zip(("I", "W", "O"), idx))
        tile = tuple(int(v[t]) for v in tiles)
        return (format_schedule(plan.ordering, tile, levels),
                (plan.ordering, tile, levels, None))

    ordering_best = np.full((len(plans), len(budgets)), -1, dtype=np.int64)
    floors = []  # each ordering's smallest buffer
    candidates = 0

    for oi, plan in enumerate(plans):
        arrays = _byte_tables(plan, layer, tabs)
        candidates += math.prod(w.shape[0] for _, w in arrays) * n_t

        floor = int(sum(w.min(axis=0) for _, w in arrays).min())
        floors.append(floor)
        reach = np.unique(stairs.budgets[stairs.budgets >= floor])
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

        def decode(flat, plan=plan, cols=cols, shape=shape):
            *idx, c = np.unravel_index(flat, shape)
            return candidate(plan, idx, cols[c])

        ordering_best[oi] = stairs.add(st.reshape(-1), sb.reshape(-1), floor,
                                       acc_of, levels_of, decode)

    fallback = None  # (traffic, payload) of the least-buffer candidate
    if (stairs.win < 0).any():
        least = min(floors)
        for plan in (p for p, f in zip(plans, floors) if f == least):
            _, total, idx, t = fallback_of(
                _byte_tables(plan, layer, tabs),
                lambda idx, t, plan=plan: candidate(plan, idx, t)[0])
            if fallback is None or total < fallback[0]:
                fallback = (total, candidate(plan, idx, t)[1])
        fallback = fallback[1]
    results = _answers(layer, budgets, stairs, fallback, candidates)
    return results, ordering_best, candidates


def evaluate_layer(layer: LayerShape,
                   budgets: tuple[int, ...],
                   policy: TilePolicy | None = None,
                   prune: bool = True) -> LayerEvaluation:
    """Exhaustive search over the full space, all budgets in one pass.

    The cost barely grows with the number of budgets (see _evaluate).  Per
    budget the winner has the least traffic among candidates whose buffer
    fits, then the fewest buffer bytes, spill bytes and the least
    canonical serialization; `ordering_best` holds each ordering's least
    traffic per budget.  Both are those of the full space.  Budgets need
    not be sorted or unique.  Where nothing fits, the first least-buffer
    candidate (see _first_least) is reported as infeasible.
    """
    plans = precompute_requirements(prune)
    results, ordering_best, candidates = _evaluate(
        layer, budgets, enumerate_tiles(layer, policy or TilePolicy()),
        plans, _first_least)
    return LayerEvaluation(
        layer=layer, budgets=tuple(budgets), results=tuple(results),
        orderings=tuple(p.ordering for p in plans),
        ordering_best=ordering_best, candidates=candidates,
    )


def best_schedule(layer: LayerShape, budget: int,
                  config: SearchConfig | None = None) -> SearchResult:
    """Minimal-traffic feasible schedule for one layer and budget."""
    config = config or SearchConfig()
    return evaluate_layer(layer, (budget,), config.tile_policy,
                          config.prune).results[0]


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
    plans = precompute_requirements(prune)
    _, tabs, _ = _layer_space(
        layer, enumerate_tiles(layer, policy or TilePolicy()), plans)
    ideal = ideal_traffic(layer)
    least = _HUGE

    def least_at_ideal(arrays: _Arrays, cols: np.ndarray) -> int:
        st, sb = _cross(_columns(arrays, cols))
        at = sb[st == ideal]
        return int(at.min()) if at.size else _HUGE

    for plan in plans:
        arrays = _byte_tables(plan, layer, tabs)
        bound = _lower_bound([(w, v) for v, w in arrays],
                             np.asarray([ideal], dtype=np.int64))[0]
        probe = np.argsort(bound, kind="stable")[:_PROBE]
        least = min(least, least_at_ideal(arrays, probe))
        rest = np.flatnonzero(bound < least)
        least = min(least, least_at_ideal(arrays, rest))
    if least >= _HUGE:
        raise ValidationError("ideal traffic unreachable under this tile policy")
    return least


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


# Per model, fn(layer, budgets, policy, prune) -> per budget (schedule,
# assignment, report, candidate count); the schedule is None where the
# model has none.  baselines and casestudy build on this module, so they
# are imported late.

def _unpack(results) -> list[tuple]:
    return [(r.schedule, r.assignment, r.report, r.candidates) for r in results]


def _ours(layer, budgets, policy, prune):
    return _unpack(evaluate_layer(layer, budgets, policy, prune).results)


def _peemen(layer, budgets, policy, prune):
    from .baselines import peemen_results
    return _unpack(peemen_results(layer, budgets, policy))


def _cache(layer, budgets, policy, prune):
    from .baselines import cache_results
    return _unpack(cache_results(layer, budgets, policy))


def _hwc(layer, budgets, policy, prune):
    from .casestudy import hwc_results
    return _unpack(hwc_results(layer, budgets))


def _hwce(layer, budgets, policy, prune):
    from .casestudy import HwcConfig, hwce_schedule
    return [(*hwce_schedule(layer, HwcConfig(budget=b)), 0) for b in budgets]


_MODELS = {"ours": _ours, "peemen": _peemen, "cache": _cache,
           "hwc": _hwc, "hwce": _hwce}

MODEL_ORDER = (*_MODELS, "ideal")


def _sweep_task(args) -> list[tuple[TrafficReport | None, str | None, int]]:
    """Per-budget (report, schedule serialization, candidate count) rows."""
    layer, model, budgets, policy, prune = args
    return [(report, None if schedule is None
             else schedule_to_json(schedule, assignment), candidates)
            for schedule, assignment, report, candidates
            in _MODELS[model](layer, budgets, policy, prune)]


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


def distribution(layers, budgets, policy: TilePolicy | None = None,
                 prune: bool = True) -> DistributionTable:
    evals = evaluate_layers(layers, tuple(budgets), policy, prune)
    return distribution_from(evals)
