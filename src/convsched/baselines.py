"""Comparison cost models: an application-managed-buffer baseline and a cache.

The buffer baseline fixes the canonical nest and picks one controlling loop
to run innermost with its axis held fully resident, which yields four cases
(output channels, input channels, rows, columns innermost).  One rule
prices all four: with the case's axis at full extent, the working set of
the tiles moves once per trip of the other three axes, and outputs
round-trip at accumulator precision while the input channels take more
than one trip.  Its best result can never beat the exhaustive search, only
match it.

The cache baseline localizes the k innermost loops of an arbitrary ordering:
everything the localized space touches must fit at once, and each outer trip
moves the whole working set again.  Output partial sums round-trip at
accumulator precision whenever accumulation is interrupted outside the
localized space.  All of that depends only on the set of localized loops,
so the model prices each prefix set the orderings cut at once (39 for the
pruned 180 orderings, against 1,800 cuts), not each ordering's cuts.

Both price their own candidates but rank them on the engine's staircase
and materialize the winners through its answers: one pass answers every
budget, with the search's tie-break and exact cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    AXIS_ROW, HUGE, POS_TIF, SearchResult, Staircase, answers,
    check_int64_range, layer_extents, layer_space, least_buffer, nest_of,
    precompute_requirements, prefix_tables, tile_vectors,
)
from .layers import CrossCheckError, LayerShape, ValidationError
from .model import (
    Axis, Tiles, TrafficReport, axis_full_extent, format_schedule,
    schedule_to_json, traffic, window_extent,
)
from .space import TILEABLE_AXES, TilePolicy, enumerate_tiles

PEEMEN_CASES = ("TOF", "TIF", "TSY", "TSX")

_CASE_AXIS = {"TOF": Axis.OF, "TIF": Axis.IF, "TSY": Axis.SY, "TSX": Axis.SX}

# Canonical tiled nest, innermost-first: kernel, then column/row, then
# channels.  The baseline never permutes these.
_PEEMEN_BODY = (Axis.FX, Axis.FY, Axis.SX, Axis.SY, Axis.IF, Axis.OF)


@dataclass(frozen=True)
class PeemenCandidate:
    innermost: str
    tiles: Tiles

    def __post_init__(self) -> None:
        if self.innermost not in PEEMEN_CASES:
            raise ValidationError(f"unknown innermost loop {self.innermost!r}")


def peemen_buffer(candidate: PeemenCandidate, layer: LayerShape
                  ) -> tuple[int, int, int]:
    """Buffer elements (inputs, weights, outputs) for one tile choice.

    The input term is the window footprint of the spatial tile; weights and
    outputs hold one full tile each.
    """
    t = candidate.tiles
    return _buffer_elements(layer, t.mss, t.css, t.iss, t.jss)


def _buffer_elements(layer: LayerShape, mss, css, iss, jss):
    """peemen_buffer's (inputs, weights, outputs) on ints or tile vectors."""
    s = layer.stride
    b_i = css * window_extent(iss, layer.k_h, s) \
        * window_extent(jss, layer.k_w, s)
    return b_i, mss * css * layer.k_h * layer.k_w, mss * iss * jss


def _case_vectors(case: str, layer: LayerShape, mss, css, iss, jss
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t_in, t_w, t_o) byte vectors over the tile grid for one case.

    One rule for all four cases: the case's axis runs at full extent, the
    working set is _buffer_elements of those tiles, and it moves once per
    trip of the other three axes.  Outputs round-trip at accumulator
    precision on every trip while the input channels take more than one
    trip, and leave once, at output precision, when they take one.
    """
    tiles = dict(zip(TILEABLE_AXES, (mss, css, iss, jss)))
    axis = _CASE_AXIS[case]
    tiles[axis] = np.full_like(tiles[axis], axis_full_extent(axis, layer))
    trips = {a: -(-axis_full_extent(a, layer) // t) for a, t in tiles.items()}
    moves = math.prod(trips.values())
    b_i, b_w, b_o = _buffer_elements(layer, *tiles.values())
    t_o = np.where(trips[Axis.IF] > 1, 2 * layer.p_acc * moves * b_o,
                   layer.p_out * moves * b_o)
    return moves * layer.p_in * b_i, moves * layer.p_w * b_w, t_o


def _peemen_report(candidate: PeemenCandidate, layer: LayerShape,
                   budget: int | None) -> TrafficReport:
    t = candidate.tiles
    tiles = (np.asarray([v], dtype=np.int64)
             for v in (t.mss, t.css, t.iss, t.jss))
    t_in, t_w, t_o = (int(part[0]) for part in
                      _case_vectors(candidate.innermost, layer, *tiles))
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    b_i, b_w, b_o = peemen_buffer(candidate, layer)
    b_in, b_wb, b_ob = layer.p_in * b_i, layer.p_w * b_w, layer.p_acc * b_o
    return TrafficReport(
        t_in=t_in, t_w=t_w, t_o_acc=t_o - final, t_o_final=final,
        total=t_in + t_w + t_o, b_in=b_in, b_w=b_wb, b_o=b_ob,
        feasible=budget is None or b_in + b_wb + b_ob <= budget,
    )


def _peemen_payload(candidate: PeemenCandidate, layer: LayerShape) -> tuple:
    """The candidate as answers materializes it: (canonical body, tiles,
    (I, W, O) levels, controlling loops innermost first, candidate).  The
    case loop sits innermost among the controlling loops, and the arrays
    are buffered atop the body.  The array the case loop reuses (inputs
    under TOF, outputs under TIF) is buffered just above that loop instead,
    which is where the case formulas hold."""
    t = candidate.tiles
    ctrl = [a for a in (Axis.SX, Axis.SY, Axis.IF, Axis.OF)
            if t.for_axis(a, layer) < axis_full_extent(a, layer)]
    case_axis = _CASE_AXIS[candidate.innermost]
    tiled = case_axis in ctrl
    if tiled:
        ctrl.remove(case_axis)
        ctrl.insert(0, case_axis)
    levels = (5 + (tiled and candidate.innermost == "TOF"), 5,
              5 + (tiled and candidate.innermost == "TIF"))
    return (_PEEMEN_BODY, (t.mss, t.css, t.iss, t.jss), levels, tuple(ctrl),
            candidate)


def peemen_results(layer: LayerShape, budgets: tuple[int, ...],
                   policy: TilePolicy | None = None) -> list[SearchResult]:
    """Best baseline candidate per budget over the four cases and the tile
    menus, all budgets (any order, repeats included) in one pass.

    The spatial cases keep their axis untiled: the case formulas already
    charge the full row or column stream, so tiling that axis cannot change
    traffic and would only under-book the stripe's buffer.  The four case
    grids are one candidate list on the engine's staircase, so the
    tie-break is the search's; where nothing fits, the least (buffer,
    traffic, spill, serialization) candidate is reported as infeasible.
    """
    stairs = Staircase(budgets)
    base_menus = enumerate_tiles(layer, policy or TilePolicy())
    # In every case, trips times each case buffer is at most the product of
    # the loop spans (times the stride window, for inputs), so the search's
    # bound covers the case formulas too.
    check_int64_range(layer, base_menus)
    grids = []
    for i, case in enumerate(PEEMEN_CASES):
        menus = dict(base_menus)
        if case in ("TSY", "TSX"):
            axis = _CASE_AXIS[case]
            menus[axis] = (axis_full_extent(axis, layer),)
        tiles = tile_vectors(menus)
        grids.append((np.full(tiles[0].size, i), *tiles,
                      *_case_vectors(case, layer, *tiles)))
    case, mss, css, iss, jss, t_in, t_w, t_o = map(np.concatenate, zip(*grids))
    b_i, b_w, b_o = _buffer_elements(layer, mss, css, iss, jss)
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    # (traffic, buffer) bytes of I, W and O as (1, N) level tables, the
    # output's traffic its spill alone, as the engine's _byte_tables.
    arrays = [(t[None], b[None]) for t, b in (
        (t_in + final, layer.p_in * b_i), (t_w, layer.p_w * b_w),
        (t_o - final, layer.p_acc * b_o))]
    # Compacted (I, O, W) levels: see _peemen_payload.
    levels = np.stack([5 + ((case == 0) & (mss < layer.c_out)),
                       5 + ((case == 1) & (css < layer.c_in)),
                       np.full(case.size, 5)])

    def decode(flat):
        """(serialization, payload) of the candidate at `flat`."""
        candidate = PeemenCandidate(PEEMEN_CASES[case[flat]], Tiles(
            int(mss[flat]), int(css[flat]), int(iss[flat]), int(jss[flat])))
        payload = _peemen_payload(candidate, layer)
        return schedule_to_json(*nest_of(layer, payload)), payload

    def report_of(payload, budget):
        """The case formulas' report; the equivalent schedule in our own
        model can never cost more."""
        candidate = payload[4]
        report = _peemen_report(candidate, layer, budget)
        ours = traffic(*nest_of(layer, payload)).total
        if ours > report.total:
            raise CrossCheckError(
                f"{layer.name} at budget {budget}: the scalar model prices "
                f"the Peemen {candidate.innermost} winner {candidate.tiles} "
                f"at {ours} B, above its own {report.total} B")
        return report

    fb = least_buffer(arrays, lambda idx, t: decode(t)[0])[3]
    stairs.add(t_in + t_w + t_o, sum(w[0] for _, w in arrays),
               arrays[2][0][0].__getitem__, lambda ids: levels[:, ids], decode)
    return answers(layer, budgets, stairs, decode(fb)[1], case.size,
                   report_of)


# ---------------------------------------------------------------------------
# Cache model.

# Rows of the layer's stacked extents (engine.AXIS_ROW) whose loops
# revisit the same outputs: the kernel and input-channel body loops and
# the input-channel controlling loop.
_O_REUSE_ROWS = (AXIS_ROW[Axis.FX], AXIS_ROW[Axis.FY], AXIS_ROW[Axis.IF],
                 POS_TIF)


@functools.cache
def _cuts() -> tuple[tuple[np.ndarray, tuple], ...]:
    """Per cut k = 1..10, the prefix sets of the pruned orderings' k
    innermost positions, ascending, each with the plan of its
    least-serialized ordering.

    Cache candidates at one cut and tile share their levels, so their
    serializations differ only in the order list, whose axis names all
    have two letters: the least name list serializes least.
    """
    plans = sorted(precompute_requirements(),
                   key=lambda p: [a.name for a in p.ordering])
    cuts = []
    for k in range(1, 11):
        rep = {}
        for plan in plans:
            rep.setdefault(plan.pre[k], plan)
        ids = sorted(rep)
        cuts.append((np.asarray(ids, dtype=np.int64),
                     tuple(rep[i] for i in ids)))
    return tuple(cuts)


def cache_results(layer: LayerShape, budgets: tuple[int, ...],
                  policy: TilePolicy | None = None) -> list[SearchResult]:
    """Best cache-model result per budget, one pass over the prefix sets.

    A candidate localizes the k innermost of an ordering's ten uniform
    positions.  Its working set is the byte-weighted footprint of those
    loops, outputs at accumulator precision; traffic re-moves the working
    set once per outer trip.  The output charge doubles to accumulator
    round trips when an output-reuse loop outside the localized space runs
    more than once, and is a plain write at output precision otherwise.

    All three numbers depend only on the set of localized loops, so each
    prefix set is priced once (_cache_sets), standing for every ordering
    that cuts at it through the least-serialized one, which wins their
    ties.  Each cut's sets join the engine's staircase in one call, so all
    budgets, in any order and repeats included, cost about one.  Where no
    working set fits, the first least (working set, traffic) candidate in
    ordering, cut and tile order is reported as infeasible.  The candidate
    count covers every ordering, cut and tile.
    """
    stairs = Staircase(budgets)
    plans = precompute_requirements()
    tiles, tabs, compact = layer_space(
        layer, enumerate_tiles(layer, policy or TilePolicy()), plans)
    n_t = tiles[0].size
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w

    def candidate(plan, r, t):
        """(serialization, payload) of localizing the plan's r + 1
        innermost positions on tile t; the payload carries the plan and r
        for report_of."""
        tile = tuple(int(v[t]) for v in tiles)
        levels = (int(compact[r, t]),) * 3
        return (format_schedule(plan.ordering, tile, levels),
                (plan.ordering, tile, levels, None, plan, r))

    least = {}  # set id -> (working set, traffic, tile) of its least tile
    for r, (ids, reps) in enumerate(_cuts()):
        t_in, t_w, t_acc, b_in, b_w, b_o = _cache_sets(layer, tabs, ids)
        ws, tot = b_in + b_w + b_o, t_in + t_w + t_acc + final
        at_floor = np.where(ws == ws.min(axis=1, keepdims=True), tot, HUGE)
        first = at_floor.argmin(axis=1)
        for s, (i, t) in enumerate(zip(ids.tolist(), first.tolist())):
            least[i] = (int(ws[s, t]), int(tot[s, t]), t)

        def levels_of(flat, r=r):
            c = compact[r, flat % n_t]
            return np.stack([c, c, c])

        def decode(flat, r=r, reps=reps):
            s, t = divmod(flat, n_t)
            return candidate(reps[s], r, t)

        stairs.add(tot.reshape(-1), ws.reshape(-1),
                   t_acc.reshape(-1).__getitem__, levels_of, decode)

    plan, r = min(((p, r) for p in plans for r in range(10)),
                  key=lambda c: least[c[0].pre[c[1] + 1]][:2])
    fallback = candidate(plan, r, least[plan.pre[r + 1]][2])[1]

    def report_of(payload, budget):
        """The candidate's report, from the tables of its tile alone."""
        _, tile, _, _, plan, r = payload
        one = tuple(np.asarray([v], dtype=np.int64) for v in tile)
        own = prefix_tables(layer, layer_extents(layer, one), (plan,))
        t_in, t_w, t_acc, b_in, b_w, b_o = (
            int(part[0, 0])
            for part in _cache_sets(layer, own, plan.pre[r + 1:r + 2]))
        return TrafficReport(
            t_in=t_in, t_w=t_w, t_o_acc=t_acc, t_o_final=final,
            total=t_in + t_w + t_acc + final, b_in=b_in, b_w=b_w, b_o=b_o,
            feasible=b_in + b_w + b_o <= budget)

    return answers(layer, budgets, stairs, fallback, len(plans) * 10 * n_t,
                   report_of)


def _cache_sets(layer: LayerShape, tabs, ids: np.ndarray
                ) -> tuple[np.ndarray, ...]:
    """Traffic and buffer bytes per array of localizing each prefix set in
    `ids`, each (len(ids), T) over the layer's prefix tables `tabs`.

    (t_in, t_w, t_o_acc, b_in, b_w, b_o), where t_o_acc is the output
    traffic less the final write.  The working set is each array's
    footprint inside the set, and each iteration of the loops outside it
    moves the set once.  Outputs round-trip at accumulator precision where
    an output-reuse loop outside the set runs more than once.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.searchsorted(tabs.ids, ids)
    outside = tabs.outside[rows]
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    visits = tabs.ft["O"][rows] * outside
    interrupted = np.zeros(visits.shape, dtype=bool)
    for row in _O_REUSE_ROWS:
        interrupted |= ((ids >> row) & 1 == 0)[:, None] & tabs.carries[row]
    t_acc = np.where(interrupted, 2 * layer.p_acc * visits,
                     layer.p_out * visits) - final
    b_in, b_w = (layer.p_in * tabs.ft["I"][rows],
                 layer.p_w * tabs.ft["W"][rows])
    return (b_in * outside, b_w * outside, t_acc,
            b_in, b_w, layer.p_acc * tabs.ft["O"][rows])
