"""Comparison cost models: an application-managed-buffer baseline and a cache.

The buffer baseline fixes the canonical nest and picks one controlling loop
to run innermost with its axis held fully resident, which yields four cases
(output channels, input channels, rows, columns innermost).  Each case pays
the full working set of the other three tile loops per trip, so its best
result can never beat the exhaustive search, only match it.

The cache baseline localizes the k innermost loops of an arbitrary ordering:
everything the localized space touches must fit at once, and each outer trip
moves the whole working set again.  Output partial sums round-trip at
accumulator precision whenever accumulation is interrupted outside the
localized space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LayerShape, ValidationError
from .model import (
    Axis, BufferingAssignment, Schedule, Tiles, TrafficReport,
    axis_full_extent, schedule_to_json, traffic, window_extent,
)
from .search import (
    CrossCheckError, SearchResult, _HUGE, _build_tables, _check_int64_range,
    _compact_levels, _compact_table, _layer_extents, _serialize_candidate,
    _Staircase, _tile_vectors, precompute_requirements,
)
from .space import TilePolicy, enumerate_tiles, instantiate

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
    s = layer.stride
    b_i = t.css * window_extent(t.iss, layer.k_h, s) \
        * window_extent(t.jss, layer.k_w, s)
    b_w = t.mss * t.css * layer.k_h * layer.k_w
    b_o = t.mss * t.iss * t.jss
    return b_i, b_w, b_o


def _case_vectors(case: str, layer: LayerShape, mss, css, iss, jss,
                  win_i, win_j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t_in, t_w, t_o) byte vectors over the tile grid for one case.

    The innermost controlling loop's trip factor drops out of the products
    and its axis runs at full extent inside the working set.  Output tiles
    round-trip per input-channel step at accumulator precision; once the
    channel loop collapses to a single trip the doubled term degenerates
    and each output leaves once, at output precision.
    """
    ceil_m = -(-layer.c_out // mss)
    ceil_c = -(-layer.c_in // css)
    ceil_h = -(-layer.out_h // iss)
    ceil_w = -(-layer.out_w // jss)
    k2 = layer.k_h * layer.k_w

    if case == "TOF":
        trips = ceil_c * ceil_h * ceil_w
        b_i = css * win_i * win_j
        b_w = layer.c_out * css * k2
        o_half = layer.c_out * iss * jss
        doubled = ceil_c > 1
    elif case == "TIF":
        trips = ceil_m * ceil_h * ceil_w
        b_i = layer.c_in * win_i * win_j
        b_w = mss * layer.c_in * k2
        o_half = mss * iss * jss
        doubled = np.zeros(mss.shape, dtype=bool)
    elif case == "TSY":
        trips = ceil_m * ceil_c * ceil_w
        b_i = css * layer.eff_h * win_j
        b_w = mss * css * k2
        o_half = mss * layer.out_h * jss
        doubled = ceil_c > 1
    elif case == "TSX":
        trips = ceil_m * ceil_c * ceil_h
        b_i = css * win_i * layer.eff_w
        b_w = mss * css * k2
        o_half = mss * iss * layer.out_w
        doubled = ceil_c > 1
    else:
        raise ValidationError(f"unknown innermost loop {case!r}")

    visits = o_half * trips
    t_o = np.where(doubled, 2 * layer.p_acc * visits,
                   layer.p_out * visits)
    return trips * layer.p_in * b_i, trips * layer.p_w * b_w, t_o


def _candidate_parts(candidate: PeemenCandidate, layer: LayerShape
                     ) -> tuple[int, int, int]:
    t = candidate.tiles
    one = np.asarray([0], dtype=np.int64)
    mss, css, iss, jss = (one + v for v in (t.mss, t.css, t.iss, t.jss))
    s = layer.stride
    parts = _case_vectors(candidate.innermost, layer, mss, css, iss, jss,
                          (iss - 1) * s + layer.k_h, (jss - 1) * s + layer.k_w)
    return tuple(int(p[0]) for p in parts)


def peemen_traffic(candidate: PeemenCandidate, layer: LayerShape) -> int:
    """Total bytes moved under the given innermost-loop case."""
    return sum(_candidate_parts(candidate, layer))


def _peemen_report(candidate: PeemenCandidate, layer: LayerShape,
                   budget: int | None) -> TrafficReport:
    t_in, t_w, t_o = _candidate_parts(candidate, layer)
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    b_i, b_w, b_o = peemen_buffer(candidate, layer)
    b_in, b_wb, b_ob = layer.p_in * b_i, layer.p_w * b_w, layer.p_acc * b_o
    return TrafficReport(
        t_in=t_in, t_w=t_w, t_o_acc=t_o - final, t_o_final=final,
        total=t_in + t_w + t_o, b_in=b_in, b_w=b_wb, b_o=b_ob,
        feasible=budget is None or b_in + b_wb + b_ob <= budget,
    )


def _peemen_embed(candidate: PeemenCandidate, layer: LayerShape
                  ) -> tuple[Schedule, BufferingAssignment]:
    """The candidate as a schedule: canonical body, case loop innermost
    among the controlling loops, arrays buffered atop the body.  The array
    the case loop reuses (inputs under TOF, outputs under TIF) is buffered
    just above that loop instead, which is where the case formulas hold."""
    t = candidate.tiles
    ctrl = [a for a in (Axis.SX, Axis.SY, Axis.IF, Axis.OF)
            if t.for_axis(a, layer) < axis_full_extent(a, layer)]
    case_axis = _CASE_AXIS[candidate.innermost]
    levels = {"I": 5, "W": 5, "O": 5}
    if case_axis in ctrl:
        ctrl.remove(case_axis)
        ctrl.insert(0, case_axis)
        if candidate.innermost == "TOF":
            levels["I"] = 6
        elif candidate.innermost == "TIF":
            levels["O"] = 6
    schedule = instantiate(_PEEMEN_BODY, t, layer, controlling=tuple(ctrl))
    return schedule, BufferingAssignment(
        level_i=levels["I"], level_w=levels["W"], level_o=levels["O"])


def _peemen_serial(candidate: PeemenCandidate, layer: LayerShape) -> str:
    return schedule_to_json(*_peemen_embed(candidate, layer))


def peemen_best(layer: LayerShape, budget: int,
                policy: TilePolicy | None = None) -> SearchResult:
    """Best baseline candidate over the four cases and the tile menus.

    The spatial cases keep their axis untiled: the case formulas already
    charge the full row or column stream, so tiling that axis cannot change
    traffic and would only under-book the stripe's buffer.  Same staged
    tie-break as the exhaustive search: traffic, buffer bytes, spill bytes,
    then the canonical serialization.  With nothing feasible the
    smallest-buffer candidate is reported, marked infeasible.
    """
    if budget <= 0:
        raise ValidationError("budget must be positive")
    base_menus = enumerate_tiles(layer, policy or TilePolicy())
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w

    best = None      # (total, buffer, acc, serial, candidate)
    fallback = None  # (buffer, total, acc, serial, candidate)
    candidates = 0
    for case in PEEMEN_CASES:
        menus = dict(base_menus)
        if case == "TSY":
            menus[Axis.SY] = (layer.out_h,)
        elif case == "TSX":
            menus[Axis.SX] = (layer.out_w,)
        mss_v, css_v, iss_v, jss_v = _tile_vectors(menus)
        candidates += mss_v.size
        s = layer.stride
        win_i = (iss_v - 1) * s + layer.k_h
        win_j = (jss_v - 1) * s + layer.k_w
        sb = (layer.p_in * css_v * win_i * win_j
              + layer.p_w * mss_v * css_v * layer.k_h * layer.k_w
              + layer.p_acc * mss_v * iss_v * jss_v)
        t_in, t_w, t_o = _case_vectors(case, layer, mss_v, css_v, iss_v,
                                       jss_v, win_i, win_j)
        total = t_in + t_w + t_o
        acc = t_o - final

        def reduce(primary: np.ndarray, secondary: np.ndarray):
            ids = np.flatnonzero(primary == primary.min())
            sub = secondary[ids]
            ids = ids[sub == sub.min()]
            sub = acc[ids]
            ids = ids[sub == sub.min()]
            out = None
            for j in ids:
                c = PeemenCandidate(case, Tiles(
                    int(mss_v[j]), int(css_v[j]), int(iss_v[j]), int(jss_v[j])))
                key = (int(primary[j]), int(secondary[j]), int(acc[j]),
                       _peemen_serial(c, layer), c)
                if out is None or key[3] < out[3]:
                    out = key
            return out

        fb = reduce(sb, total)
        if fallback is None or fb[:4] < fallback[:4]:
            fallback = fb
        if (sb <= budget).any():
            cand = reduce(np.where(sb <= budget, total, _HUGE), sb)
            if best is None or cand[:4] < best[:4]:
                best = cand

    chosen = best if best is not None else fallback
    candidate = chosen[4]
    schedule, assignment = _peemen_embed(candidate, layer)
    report = _peemen_report(candidate, layer, budget)
    # The equivalent schedule in our own model can never cost more.
    ours = traffic(schedule, assignment).total
    if ours > report.total:
        raise CrossCheckError(
            f"{layer.name} at budget {budget}: the scalar model prices the "
            f"Peemen {candidate.innermost} winner {candidate.tiles} at {ours} "
            f"B, above its own {report.total} B")
    if best is None and report.feasible:
        raise CrossCheckError(
            f"{layer.name} at budget {budget}: no Peemen candidate was found "
            f"to fit, but the smallest buffer ({report.buffer_bytes} B) does")
    return SearchResult(layer_name=layer.name, budget=budget,
                        schedule=schedule, assignment=assignment,
                        report=report, candidates=candidates)


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
    if any(b <= 0 for b in budgets):
        raise ValidationError("budget must be positive")
    table = precompute_requirements()
    menus = enumerate_tiles(layer, policy or TilePolicy())
    _check_int64_range(layer, menus)
    tiles = _tile_vectors(menus)
    extents = _layer_extents(layer, tiles)
    compact = _compact_table(extents)
    n_t = tiles[0].size

    def levels_of(ids):
        c = compact[divmod(ids, n_t)]
        return np.stack([c, c, c])

    stairs = _Staircase(budgets)
    fallback = None
    candidates = 0
    for ordering in table.orderings:
        plan = table.plan(ordering)
        ws, tot, acc = _cache_tables(plan, layer, extents)
        candidates += ws.size
        ws_f, tot_f, acc_f = ws.reshape(-1), tot.reshape(-1), acc.reshape(-1)

        floor = int(ws_f.min())
        fb_ids = np.flatnonzero(ws_f == floor)
        fb_i = int(fb_ids[int(tot_f[fb_ids].argmin())])
        fb = (floor, int(tot_f[fb_i]), plan, fb_i)
        if fallback is None or fb[:2] < fallback[:2]:
            fallback = fb

        def decode(flat, plan=plan):
            k, t = divmod(flat, n_t)
            tile = tuple(int(v[t]) for v in tiles)
            serial = _serialize_candidate(plan.ordering, layer, *tile,
                                          (k, k, k))
            return serial, (plan, tile, k + 1)

        stairs.add(tot_f, ws_f, floor, acc_f.__getitem__, levels_of, decode)

    out = []
    for budget, step in zip(budgets, stairs.winners):
        if step is not None:
            _, (plan, tile, k) = step.best()
        else:
            _, _, plan, flat = fallback
            k = int(flat // n_t) + 1
            tile = tuple(int(v[flat % n_t]) for v in tiles)
        res = _cache_materialize(layer, budget, plan, tile, k, candidates)
        if step is None and res.report.feasible:
            raise CrossCheckError(
                f"{layer.name} at budget {budget}: no cache working set was "
                f"found to fit, but the smallest one ({res.report.buffer_bytes}"
                f" B) does")
        out.append(res)
    return out


def _cache_tables(plan, layer: LayerShape, extents: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(working set, traffic, spill) bytes of one ordering, each (10, T).

    Row k - 1 localizes the k innermost of the ten uniform positions.
    """
    tabs = _build_tables(plan, layer, extents)
    n_t = extents.shape[1]
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    ws = np.empty((10, n_t), dtype=np.int64)
    tot = np.empty((10, n_t), dtype=np.int64)
    acc = np.empty((10, n_t), dtype=np.int64)
    for k in range(1, 11):
        f_i, f_w, f_o = (tabs.ft[a][k] for a in ("I", "W", "O"))
        trips = tabs.suffix[k - 1]
        visits = f_o * trips
        interrupted = np.zeros(n_t, dtype=bool)
        for p, mask in tabs.carrier_masks["O"]:
            if p >= k:
                interrupted |= mask
        o_bytes = np.where(interrupted, 2 * layer.p_acc * visits,
                           layer.p_out * visits)
        ws[k - 1] = layer.p_in * f_i + layer.p_w * f_w + layer.p_acc * f_o
        tot[k - 1] = (layer.p_in * f_i + layer.p_w * f_w) * trips + o_bytes
        acc[k - 1] = o_bytes - final
    return ws, tot, acc


def cache_best(layer: LayerShape, budget: int,
               policy: TilePolicy | None = None) -> SearchResult:
    """Best cache-model schedule for one budget; see cache_results."""
    return cache_results(layer, (budget,), policy)[0]


def _cache_materialize(layer, budget, plan, tile, k, candidates
                       ) -> SearchResult:
    mss, css, iss, jss = tile
    tiles_v = tuple(np.asarray([v], dtype=np.int64) for v in tile)
    tabs = _build_tables(plan, layer, _layer_extents(layer, tiles_v))
    f_i, f_w, f_o = (int(tabs.ft[a][k][0]) for a in ("I", "W", "O"))
    trips = int(tabs.suffix[k - 1][0])
    distinct = layer.c_out * layer.out_h * layer.out_w
    final = layer.p_out * distinct
    visits = f_o * trips
    interrupted = any(bool(mask[0]) for p, mask in tabs.carrier_masks["O"]
                      if p >= k)
    if interrupted:
        o_bytes = 2 * layer.p_acc * visits
    else:
        o_bytes = layer.p_out * visits
    t_in = layer.p_in * f_i * trips
    t_w = layer.p_w * f_w * trips
    b_in, b_w, b_o = layer.p_in * f_i, layer.p_w * f_w, layer.p_acc * f_o
    report = TrafficReport(
        t_in=t_in, t_w=t_w, t_o_acc=o_bytes - final, t_o_final=final,
        total=t_in + t_w + o_bytes, b_in=b_in, b_w=b_w, b_o=b_o,
        feasible=b_in + b_w + b_o <= budget,
    )
    _, (li, lw, lo) = _compact_levels(layer, mss, css, iss, jss,
                                      (k - 1, k - 1, k - 1))
    schedule = instantiate(plan.ordering, Tiles(mss, css, iss, jss), layer)
    assignment = BufferingAssignment(li, lw, lo)
    return SearchResult(layer_name=layer.name, budget=budget,
                        schedule=schedule, assignment=assignment,
                        report=report, candidates=candidates)
