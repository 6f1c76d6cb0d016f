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
    axis_full_extent, format_schedule, schedule_to_json, traffic,
    window_extent,
)
from .search import (
    CrossCheckError, SearchResult, _HUGE, _answers, _build_tables,
    _layer_extents, _layer_space, _Staircase, _tile_vectors,
    precompute_requirements,
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
    win_i = window_extent(iss, layer.k_h, layer.stride)
    win_j = window_extent(jss, layer.k_w, layer.stride)

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
    parts = _case_vectors(candidate.innermost, layer, mss, css, iss, jss)
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
        b_i, b_w, b_o = _buffer_elements(layer, mss_v, css_v, iss_v, jss_v)
        sb = layer.p_in * b_i + layer.p_w * b_w + layer.p_acc * b_o
        t_in, t_w, t_o = _case_vectors(case, layer, mss_v, css_v, iss_v,
                                       jss_v)
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
                       schedule_to_json(*_peemen_embed(c, layer)), c)
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
    tiles, extents, compact = _layer_space(
        layer, enumerate_tiles(layer, policy or TilePolicy()))
    n_t = tiles[0].size
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w

    def levels_of(ids):
        c = compact[divmod(ids, n_t)]
        return np.stack([c, c, c])

    stairs = _Staircase(budgets)
    fallback = None
    candidates = 0
    for plan in precompute_requirements():
        t_in, t_w, t_acc, b_in, b_w, b_o = _cache_tables(plan, layer, extents)
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
                    (plan.ordering, tile, levels, plan, k))

        floor = int(ws_f.min())
        fb_ids = np.flatnonzero(ws_f == floor)
        fb_i = int(fb_ids[int(tot_f[fb_ids].argmin())])
        if fallback is None or (floor, int(tot_f[fb_i])) < fallback[:2]:
            fallback = (floor, int(tot_f[fb_i]), decode, fb_i)
        stairs.add(tot_f, ws_f, floor, acc_f.__getitem__, levels_of, decode)

    def report_of(payload, budget):
        """The candidate's report, from the tables of its tile alone."""
        _, tile, _, plan, k = payload
        one = tuple(np.asarray([v], dtype=np.int64) for v in tile)
        t_in, t_w, t_acc, b_in, b_w, b_o = (
            int(part[k, 0])
            for part in _cache_tables(plan, layer, _layer_extents(layer, one)))
        return TrafficReport(
            t_in=t_in, t_w=t_w, t_o_acc=t_acc, t_o_final=final,
            total=t_in + t_w + t_acc + final, b_in=b_in, b_w=b_w, b_o=b_o,
            feasible=b_in + b_w + b_o <= budget)

    _, _, decode, fb_i = fallback
    return _answers(layer, budgets, stairs, decode(fb_i)[1], candidates,
                    report_of)


def _cache_tables(plan, layer: LayerShape, extents: np.ndarray
                  ) -> tuple[np.ndarray, ...]:
    """Traffic and buffer bytes per array of one ordering, each (10, T).

    (t_in, t_w, t_o_acc, b_in, b_w, b_o), where t_o_acc is the output
    traffic less the final write.  Row k - 1 localizes the k innermost of
    the ten uniform positions.
    """
    tabs = _build_tables(plan, layer, extents)
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    visits = tabs.ft["O"][1:] * tabs.suffix
    interrupted = np.zeros(visits.shape, dtype=bool)
    for p, mask in tabs.carrier_masks["O"]:
        interrupted[:p] |= mask
    t_acc = np.where(interrupted, 2 * layer.p_acc * visits,
                     layer.p_out * visits) - final
    b_in, b_w = layer.p_in * tabs.ft["I"][1:], layer.p_w * tabs.ft["W"][1:]
    return (b_in * tabs.suffix, b_w * tabs.suffix, t_acc,
            b_in, b_w, layer.p_acc * tabs.ft["O"][1:])


def cache_best(layer: LayerShape, budget: int,
               policy: TilePolicy | None = None) -> SearchResult:
    """Best cache-model schedule for one budget; see cache_results."""
    return cache_results(layer, (budget,), policy)[0]
