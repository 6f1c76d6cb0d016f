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
localized space.

Both price their own candidates but rank them on the search's staircase
and materialize the winners through its _answers: one pass answers every
budget, with the search's tie-break and exact cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import LayerShape, ValidationError
from .model import (
    Axis, Tiles, TrafficReport, axis_full_extent, format_schedule,
    schedule_to_json, traffic, window_extent,
)
from .search import (
    CrossCheckError, SearchResult, _answers, _carrier_masks,
    _check_int64_range, _layer_extents, _layer_space, _least_buffer,
    _nest_of, _prefix_tables, _Staircase, _tile_vectors,
    precompute_requirements,
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


def peemen_traffic(candidate: PeemenCandidate, layer: LayerShape) -> int:
    """Total bytes moved under the given innermost-loop case."""
    return _peemen_report(candidate, layer, None).total


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
    """The candidate as _answers materializes it: (canonical body, tiles,
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
    grids are one candidate list on the search's staircase, so the
    tie-break is the search's; where nothing fits, the least (buffer,
    traffic, spill, serialization) candidate is reported as infeasible.
    """
    stairs = _Staircase(budgets)
    base_menus = enumerate_tiles(layer, policy or TilePolicy())
    # In every case, trips times each case buffer is at most the product of
    # the loop spans (times the stride window, for inputs), so the search's
    # bound covers the case formulas too.
    _check_int64_range(layer, base_menus)
    grids = []
    for i, case in enumerate(PEEMEN_CASES):
        menus = dict(base_menus)
        if case in ("TSY", "TSX"):
            axis = _CASE_AXIS[case]
            menus[axis] = (axis_full_extent(axis, layer),)
        tiles = _tile_vectors(menus)
        grids.append((np.full(tiles[0].size, i), *tiles,
                      *_case_vectors(case, layer, *tiles)))
    case, mss, css, iss, jss, t_in, t_w, t_o = map(np.concatenate, zip(*grids))
    b_i, b_w, b_o = _buffer_elements(layer, mss, css, iss, jss)
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    # (traffic, buffer) bytes of I, W and O as (1, N) level tables, the
    # output's traffic its spill alone, as the search's _byte_tables.
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
        return schedule_to_json(*_nest_of(layer, payload)), payload

    def report_of(payload, budget):
        """The case formulas' report; the equivalent schedule in our own
        model can never cost more."""
        candidate = payload[4]
        report = _peemen_report(candidate, layer, budget)
        ours = traffic(*_nest_of(layer, payload)).total
        if ours > report.total:
            raise CrossCheckError(
                f"{layer.name} at budget {budget}: the scalar model prices "
                f"the Peemen {candidate.innermost} winner {candidate.tiles} "
                f"at {ours} B, above its own {report.total} B")
        return report

    floor, _, _, fb = _least_buffer(arrays, lambda idx, t: decode(t)[0])
    stairs.add(t_in + t_w + t_o, sum(w[0] for _, w in arrays), floor,
               arrays[2][0][0].__getitem__, lambda ids: levels[:, ids], decode)
    return _answers(layer, budgets, stairs, decode(fb)[1], case.size,
                    report_of)


def peemen_best(layer: LayerShape, budget: int,
                policy: TilePolicy | None = None) -> SearchResult:
    """Best baseline candidate for one budget; see peemen_results."""
    return peemen_results(layer, (budget,), policy)[0]


# ---------------------------------------------------------------------------
# Cache model.

def cache_results(layer: LayerShape, budgets: tuple[int, ...],
                  policy: TilePolicy | None = None) -> list[SearchResult]:
    """Best cache-model result per budget, one pass over the orderings.

    A candidate localizes the k innermost of the ten uniform positions.
    Its working set is the byte-weighted footprint below position k,
    outputs at accumulator precision; traffic re-moves the working set once
    per outer trip.  The output charge doubles to accumulator round trips
    when an output-reuse carrier sits outside the localized space, and is
    a plain write at output precision otherwise.

    Every ordering's (traffic, working set, spill) candidates go through
    the search's staircase, so all budgets, in any order and repeats
    included, cost about one; the tie-break is the search's.  Where no
    working set fits, the smallest one is reported as infeasible.
    """
    stairs = _Staircase(budgets)
    plans = precompute_requirements()
    tiles, tabs, compact = _layer_space(
        layer, enumerate_tiles(layer, policy or TilePolicy()), plans)
    n_t = tiles[0].size
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w

    def levels_of(ids):
        c = compact[divmod(ids, n_t)]
        return np.stack([c, c, c])

    fallback = None
    candidates = 0
    for plan in plans:
        t_in, t_w, t_acc, b_in, b_w, b_o = _cache_tables(plan, layer, tabs)
        candidates += t_in.size
        ws_f = (b_in + b_w + b_o).reshape(-1)
        tot_f = (t_in + t_w + t_acc + final).reshape(-1)
        acc_f = t_acc.reshape(-1)

        def decode(flat, plan=plan):
            """(serialization, payload): the candidate at `flat` of the
            plan's tables, its plan and table row for report_of."""
            k, t = divmod(flat, n_t)
            tile = tuple(int(v[t]) for v in tiles)
            levels = (int(compact[k, t]),) * 3
            return (format_schedule(plan.ordering, tile, levels),
                    (plan.ordering, tile, levels, None, plan, k))

        floor = int(ws_f.min())
        fb_ids = np.flatnonzero(ws_f == floor)
        fb_i = int(fb_ids[int(tot_f[fb_ids].argmin())])
        if fallback is None or (floor, int(tot_f[fb_i])) < fallback[:2]:
            fallback = (floor, int(tot_f[fb_i]), decode, fb_i)
        stairs.add(tot_f, ws_f, floor, acc_f.__getitem__, levels_of, decode)

    def report_of(payload, budget):
        """The candidate's report, from the tables of its tile alone."""
        _, tile, _, _, plan, k = payload
        one = tuple(np.asarray([v], dtype=np.int64) for v in tile)
        own = _prefix_tables(layer, _layer_extents(layer, one), (plan,))
        t_in, t_w, t_acc, b_in, b_w, b_o = (
            int(part[k, 0]) for part in _cache_tables(plan, layer, own))
        return TrafficReport(
            t_in=t_in, t_w=t_w, t_o_acc=t_acc, t_o_final=final,
            total=t_in + t_w + t_acc + final, b_in=b_in, b_w=b_w, b_o=b_o,
            feasible=b_in + b_w + b_o <= budget)

    _, _, decode, fb_i = fallback
    return _answers(layer, budgets, stairs, decode(fb_i)[1], candidates,
                    report_of)


def _cache_tables(plan, layer: LayerShape, tabs) -> tuple[np.ndarray, ...]:
    """Traffic and buffer bytes per array of one ordering, each (10, T).

    (t_in, t_w, t_o_acc, b_in, b_w, b_o), where t_o_acc is the output
    traffic less the final write.  Row k - 1 localizes the k innermost of
    the ten uniform positions: its working set is each array's footprint
    inside cut k of the layer's prefix tables `tabs`, and each iteration
    of the loops outside that cut moves it once.  Outputs round-trip at
    accumulator precision where a position at or above k carries their
    reuse.
    """
    cut = np.searchsorted(tabs.ids, plan.pre[1:])
    outside = tabs.outside[cut]
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    visits = tabs.ft["O"][cut] * outside
    interrupted = np.zeros(visits.shape, dtype=bool)
    for p, mask in _carrier_masks(plan, layer, tabs, "O"):
        interrupted[:p] |= mask
    t_acc = np.where(interrupted, 2 * layer.p_acc * visits,
                     layer.p_out * visits) - final
    b_in, b_w = layer.p_in * tabs.ft["I"][cut], layer.p_w * tabs.ft["W"][cut]
    return (b_in * outside, b_w * outside, t_acc,
            b_in, b_w, layer.p_acc * tabs.ft["O"][cut])


def cache_best(layer: LayerShape, budget: int,
               policy: TilePolicy | None = None) -> SearchResult:
    """Best cache-model schedule for one budget; see cache_results."""
    return cache_results(layer, (budget,), policy)[0]
