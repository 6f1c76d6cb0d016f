"""The evaluation engine: every schedule space priced and ranked at once.

Each loop ordering has a plan (make_plan, memoized;
precompute_requirements returns them all): the layer-independent
structure of its candidate space, namely which positions can carry reuse
of each array and the short list of buffering levels worth considering
(raising a level between two carriers never changes the buffer but never
increases traffic, so only the level just under each carrier, and the
top, can win).

The engine evaluates that structure for a concrete layer with vectorized
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
(prefix_tables) and each ordering gathers its rows.

All traffic numbers here are exact int64; winners are re-materialized
through the scalar model as a cross-check before being reported.

One core (evaluate) serves three callers in `search` and `casestudy`:
the search over every ordering with each ordering held to its own bound
(evaluate_layer), the same with a bound shared across orderings
(best_schedule and the sweep's "ours"), and the HWC tile search on one
plan with pinned levels.  The shared bound is the staircase's best
traffic so far, an upper bound for every later ordering at the same
budget: a tile whose lower bound exceeds it cannot win, one that ties it
is kept, so the winners stay exact.  An ordering's own best does not, so
evaluate_layer, whose ordering_best feeds the distribution, keeps each
ordering to its own bound.  The cache and Peemen models (baselines)
price their own candidates but share the staircase and the
materialization (answers); the cache model prices the same prefix
tables once per set, not once per ordering, since its candidates are
cuts.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .layers import CrossCheckError, LayerShape, ValidationError, is_int
from .model import (
    Axis, BufferingAssignment, Schedule, Tiles, TrafficReport,
    axis_full_extent, format_schedule, ideal_traffic, schedule_to_json,
    traffic,
)
from .space import (
    TILEABLE_AXES, Ordering, TilePolicy, enumerate_permutations,
    enumerate_tiles, instantiate,
)

HUGE = np.iinfo(np.int64).max // 4

# Fixed positions of the controlling loops in the uniform ten-slot nest,
# innermost first (so the outermost-first order is OF, IF, SY, SX).
_POS_TSX, _POS_TSY, POS_TIF, _POS_TOF = 6, 7, 8, 9

# Rows of a layer's stacked extents (see layer_extents): the six body
# axes, then the controlling trip counts at their own positions.
AXIS_ROW = {Axis.OF: 0, Axis.IF: 1, Axis.SY: 2, Axis.SX: 3,
            Axis.FY: 4, Axis.FX: 5}

# Rows of the array's own axes, whose loops inside a prefix set multiply
# its footprint; inputs take spatial tiles and kernels as windows.
_FOOT_ROWS = {"I": (1, 6, 7, 8), "W": (0, 1, 4, 5, 8, 9),
              "O": (0, 2, 3, 6, 7, 9)}


# The budgets of the paper's comparison: 1 KiB to 256 KiB in doublings.
DEFAULT_BUDGETS = tuple(1024 << k for k in range(9))


def check_budgets(budgets) -> np.ndarray:
    """The budgets as int64: every model's and command's one budget rule,
    an int (not a bool, as for layer dimensions) from 1 to int64's most."""
    for b in budgets:
        if not (is_int(b) and 0 < b <= np.iinfo(np.int64).max):
            raise ValidationError(
                f"budget must be positive and fit in 64 bits as an integer, "
                f"got {b!r}")
    return np.asarray(budgets, dtype=np.int64)


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
def make_plan(ordering: Ordering) -> OrderingPlan:
    pos = {a: i for i, a in enumerate(ordering)}
    rows = tuple(AXIS_ROW[a] for a in ordering) + (6, 7, 8, 9)
    carriers = {
        "I": tuple(sorted({max(pos[Axis.FX], pos[Axis.SX]),
                           max(pos[Axis.FY], pos[Axis.SY]),
                           pos[Axis.OF], _POS_TOF})),
        "W": tuple(sorted({pos[Axis.SX], pos[Axis.SY], _POS_TSX, _POS_TSY})),
        "O": tuple(sorted({pos[Axis.FX], pos[Axis.FY], pos[Axis.IF], POS_TIF})),
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
    return tuple(make_plan(o) for o in enumerate_permutations(prune))


def tile_vectors(menus: dict[Axis, tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """(mss, css, iss, jss) over every combination of the tile menus."""
    grids = np.meshgrid(*(np.asarray(menus[a], dtype=np.int64)
                          for a in TILEABLE_AXES), indexing="ij")
    return tuple(g.reshape(-1) for g in grids)


def layer_extents(layer: LayerShape,
                  tiles: tuple[np.ndarray, ...]) -> np.ndarray:
    """(10, T) loop extents of a layer over tile combos, rows per AXIS_ROW.

    Rows 0-5 hold the body extent of each axis and rows 6-9 the trip
    counts of the controlling loops, which sit at positions 6-9 in every
    ordering; an ordering's nest takes these rows by its `rows`.
    """
    mss, css, iss, jss = tiles
    ext = np.empty((10, mss.size), dtype=np.int64)
    ext[:4] = tiles
    ext[AXIS_ROW[Axis.FY]] = layer.k_h
    ext[AXIS_ROW[Axis.FX]] = layer.k_w
    ext[_POS_TSX] = -(-layer.out_w // jss)
    ext[_POS_TSY] = -(-layer.out_h // iss)
    ext[POS_TIF] = -(-layer.c_in // css)
    ext[_POS_TOF] = -(-layer.c_out // mss)
    return ext


@dataclass(frozen=True)
class _Prefixes:
    """A layer's loop extents and its tables per prefix set, over tiles.

    Row i of each (K, T) table belongs to the prefix set ids[i]: ft[a] is
    array a's footprint inside the set, `outside` the product of the
    extents outside it.
    """

    extents: np.ndarray         # (10, T), rows per AXIS_ROW
    carries: np.ndarray         # (10, T) extents > 1
    ids: np.ndarray             # (K,) ascending
    ft: dict[str, np.ndarray]   # (K, T) per array
    outside: np.ndarray         # (K, T)


def prefix_tables(layer: LayerShape, extents: np.ndarray,
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
        k, s = AXIS_ROW[kernel_axis], AXIS_ROW[axis]
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


class Staircase:
    """Per budget, the least (traffic, buffer, spill, serial) candidate.

    Orderings are added one at a time.  Each ordering's candidates are
    sorted by buffer bytes once; the running minimum of traffic along that
    order is the ordering's best traffic at every budget, which
    searchsorted reads off for all budgets together.  The winner at a
    budget is the first candidate where the running minimum reaches its
    value (the smallest buffer at that traffic); equal buffers sit
    together, so the spill tie-break looks at one contiguous block.
    Budgets may come in any order and may repeat, but must pass
    check_budgets: every model's budgets pass through here, before any
    tables are built.
    """

    def __init__(self, budgets: tuple[int, ...]):
        self.budgets = check_budgets(budgets)
        self.key = np.full((3, self.budgets.size), HUGE, dtype=np.int64)
        self.win = np.full(self.budgets.size, -1, dtype=np.int64)
        self.steps: list[_Step] = []  # every step that has led somewhere
        self._ascending = np.argsort(self.budgets, kind="stable")

    @property
    def winners(self) -> list[_Step | None]:
        return [self.steps[w] if w >= 0 else None for w in self.win.tolist()]

    def best_at(self, caps: np.ndarray) -> np.ndarray:
        """Per cap, the least traffic found so far at a budget at or under
        it, HUGE where there is none: a candidate that fits such a budget
        fits the cap, so no cap's best traffic is above it."""
        order = self._ascending
        run = np.minimum.accumulate(self.key[0, order])
        at = np.searchsorted(self.budgets[order], caps, side="right") - 1
        return np.where(at >= 0, run[at], HUGE)

    def add(self, total: np.ndarray, buffer: np.ndarray,
            acc_of: Callable[[np.ndarray], np.ndarray],
            levels_of: Callable[[np.ndarray], np.ndarray],
            decode: Callable[[int], tuple[str, object]]) -> np.ndarray:
        """Merge one ordering's flat candidates; their best traffic per budget.

        The candidates need not be all of the ordering's, only every one
        that fits some budget at the least traffic there: at the
        ordering's own best, or at the best over all orderings for
        best_schedule and the sweep's "ours", which bound each ordering by
        the best found so far (see _survivors).  Their winners are exact,
        since every candidate that can win or tie is still given; the
        returned best is then that of the candidates given, which is the
        ordering's only where it can win.  `acc_of` maps flat indices to
        spill bytes, `levels_of` to their compacted (I, O, W) buffering
        levels, `decode` one flat index to its canonical serialization and
        whatever the caller needs to materialize it.  Returns -1 where
        none of them fits.
        """
        budgets = self.budgets
        reach = budgets[budgets >= int(buffer.min())]
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
        first = np.zeros(budgets.size, dtype=np.int64)
        first[ok] = np.searchsorted(-run, -best[ok], side="left")
        # A stair can lead or tie only where it is no worse than the winner
        # on (traffic, buffer); only those stairs are built.
        (bt, bb), stair = self.key[:2], sb[first]
        live = ok & ((best < bt) | ((best == bt) & (stair <= bb)))
        if not live.any():
            return best
        heads, step_of = np.unique(first[live], return_inverse=True)

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
        pick[live] = step_of
        key = np.full_like(self.key, HUGE)
        key[:, live] = np.array([(s.total, s.buffer, s.acc) for s in steps],
                                dtype=np.int64).T[:, step_of]
        (t, b, a), (bt, bb, ba) = key, self.key
        better = (t < bt) | ((t == bt) & ((b < bb) | ((b == bb) & (a < ba))))
        tied = live & (t == bt) & (b == bb) & (a == ba)
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


def _floor(arrays: _Arrays) -> int:
    """The least summed weight of a level triple on any tile."""
    return int(sum(w.min(axis=0) for _, w in arrays).min())


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
    Where the least weights alone exceed the cap the bound is HUGE or more.
    """
    least = [w.min(axis=0) for _, w in arrays]
    spare = caps[:, None] - sum(least)
    bound = np.zeros(spare.shape, dtype=np.int64)
    for (v, w), m in zip(arrays, least):
        room = spare + m
        share = np.full(room.shape, HUGE)
        for level_v, level_w in zip(v, w):
            np.minimum(share, level_v, out=share, where=level_w <= room)
        bound += share
    return bound


def _survivors(arrays: _Arrays, reach: np.ndarray,
               stairs: Staircase | None = None) -> np.ndarray:
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

    Given the `stairs` of the orderings before this one, the upper bound
    at a point is at most their best traffic at the budgets at or under
    it (Staircase.best_at): the candidate that reaches it fits every
    budget from the point up, so on the grid it bounds the best up to the
    next point too.  Where that is finite at every point the probe is
    skipped.  A tile then survives only if it can tie (<=) or beat the
    best over all orderings, so the winners stay exact but the ordering's
    own best does not; only callers that drop ordering_best pass
    `stairs`, and no tile may survive.
    """
    lo, hi = int(reach[0]), int(reach[-1])
    grid = [lo]
    while grid[-1] < hi:
        grid.append(min(2 * grid[-1], hi))
    exact = reach.size <= len(grid)
    points = reach if exact else np.asarray(grid, dtype=np.int64)

    bound = _lower_bound(arrays, points)
    upper = None if stairs is None else stairs.best_at(points)
    if upper is None or (upper >= HUGE).any():
        if bound.shape[1] > _PROBE:
            probe = np.unique(np.argpartition(bound, _PROBE, axis=1)[:, :_PROBE])
        else:
            probe = np.arange(bound.shape[1])
        value, weight = _cross(_columns(arrays, probe))
        fits = weight.reshape(1, -1) <= points[:, None]
        probed = np.where(fits, value.reshape(1, -1), HUGE).min(axis=1)
        upper = probed if upper is None else np.minimum(upper, probed)
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


def least_buffer(arrays: _Arrays, serial
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


def check_int64_range(layer: LayerShape,
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
    if worst >= HUGE:
        raise ValidationError(
            f"layer {layer.name!r}: byte counts up to {worst} do not fit the "
            f"search's 64-bit arithmetic (limit {HUGE})")


def layer_space(layer: LayerShape, menus: dict,
                plans: tuple[OrderingPlan, ...]) -> tuple:
    """(tile vectors, prefix tables, compact table), int64 range checked."""
    check_int64_range(layer, menus)
    tiles = tile_vectors(menus)
    extents = layer_extents(layer, tiles)
    return tiles, prefix_tables(layer, extents, plans), _compact_table(extents)


def nest_of(layer: LayerShape, payload: tuple
            ) -> tuple[Schedule, BufferingAssignment]:
    """The schedule and buffering a payload names (see answers)."""
    ordering, tile, levels, controlling = payload[:4]
    return (instantiate(ordering, Tiles(*tile), layer, controlling),
            BufferingAssignment(*levels))


def answers(layer: LayerShape, budgets: tuple[int, ...], stairs: Staircase,
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
        schedule, assignment = nest_of(layer, payload)
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


def evaluate(layer: LayerShape, budgets: tuple[int, ...],
             menus: dict[Axis, tuple[int, ...]],
             plans: tuple[OrderingPlan, ...],
             fallback_of: Callable | None = None, shared: bool = False
             ) -> tuple[list[SearchResult], np.ndarray, int]:
    """(results, ordering_best, candidates) of the plans on the tile menus.

    Per ordering, only the tiles that survive the bound step (see
    _survivors) are expanded into candidates, and those go through one
    staircase (see Staircase).  With `shared`, each ordering's bound
    step is also bounded by the staircase's best so far: the results are
    the same, ordering_best is not (an ordering is -1 or too high where
    it cannot win), so only callers that drop it may ask.  For budgets
    where nothing fits, `fallback_of(arrays, serial)` names an ordering's
    candidate of its least buffer, _first_least's by default
    (serial(level indices, tile) serializes one); the least (buffer,
    traffic) of those, the first on ties, is reported.  The fallback is
    lazy: it is taken only when some budget needs it, and only from the
    orderings whose least buffer is the least of all, the only ones that
    can hold it; their tables are built again for it.
    """
    stairs = Staircase(budgets)
    tiles, tabs, compact = layer_space(layer, menus, plans)
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

        floor = _floor(arrays)
        floors.append(floor)
        reach = np.unique(stairs.budgets[stairs.budgets >= floor])
        if reach.size == 0:
            continue

        cols = _survivors(arrays, reach, stairs if shared else None)
        if cols.size == 0:
            continue
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

        ordering_best[oi] = stairs.add(st.reshape(-1), sb.reshape(-1),
                                       acc_of, levels_of, decode)

    fallback = None  # (traffic, payload) of the least-buffer candidate
    if (stairs.win < 0).any():
        fallback_of = fallback_of or _first_least
        least = min(floors)
        for plan in (p for p, f in zip(plans, floors) if f == least):
            _, total, idx, t = fallback_of(
                _byte_tables(plan, layer, tabs),
                lambda idx, t, plan=plan: candidate(plan, idx, t)[0])
            if fallback is None or total < fallback[0]:
                fallback = (total, candidate(plan, idx, t)[1])
        fallback = fallback[1]
    results = answers(layer, budgets, stairs, fallback, candidates)
    return results, ordering_best, candidates


def min_budget_for_ideal(layer: LayerShape,
                         policy: TilePolicy | None = None) -> int:
    """Smallest buffer capacity at which some schedule reaches ideal traffic.

    An exact pass of its own over the search's space, bound and pruned
    with traffic and buffer in swapped roles: per tile, the least buffer
    of a level triple whose traffic fits the ideal bounds the buffer of
    one that reaches it.  The least buffer found so far, first over a
    probe of the tiles of least bound, drops every tile bounded at or
    above it.
    """
    plans = precompute_requirements()
    _, tabs, _ = layer_space(
        layer, enumerate_tiles(layer, policy or TilePolicy()), plans)
    ideal = ideal_traffic(layer)
    least = HUGE

    def least_at_ideal(arrays: _Arrays, cols: np.ndarray) -> int:
        st, sb = _cross(_columns(arrays, cols))
        at = sb[st == ideal]
        return int(at.min()) if at.size else HUGE

    for plan in plans:
        arrays = _byte_tables(plan, layer, tabs)
        bound = _lower_bound([(w, v) for v, w in arrays],
                             np.asarray([ideal], dtype=np.int64))[0]
        probe = np.argsort(bound, kind="stable")[:_PROBE]
        least = min(least, least_at_ideal(arrays, probe))
        rest = np.flatnonzero(bound < least)
        least = min(least, least_at_ideal(arrays, rest))
    if least >= HUGE:
        raise ValidationError("ideal traffic unreachable under this tile policy")
    return least
