"""Brute-force trace oracle for the analytical traffic model.

Walks every iteration of a scheduled nest and counts actual off-buffer
transfers under the buffering-level semantics: a read of I or W misses the
local buffer exactly when that element has not been touched before within
the current execution instance of the array's buffering loop, and an output
element spills a partial sum (one write plus one later read, at accumulator
precision) whenever its accumulation spans more than one instance of O's
buffering loop.

The walk counts distinct (instance, element) pairs directly with no closed
forms, so it is an independent check of model.py, not a restatement of it.

Work is at most linear in the iterations.  An array's key
`instance * size + element` is a linear function of the loop counters: the
element from the layer shape and the loop weights, the instance
`iteration // block` from the loops above the buffering level.  The
innermost loops that fit a chunk, plus a slice of the next loop when that
one alone is too long, form one key grid built once; every chunk of
iterations is that grid plus one offset per array.  An offset does not
change how many distinct keys a set holds, so a chunk's counts depend only
on which of its iterations are valid: all of them on interior tiles, those
under a padding mask on edge tiles that run past an axis bound.  Counts are
taken once per such pattern, by sorting the keys and counting the changes,
and reused.  An instance that spans chunks marks its elements in one
element bitmap instead, counted and cleared when the instance ends, so no
set grows with the walk.  On a 2-core machine (numpy 2.4) the search
winners of Inception-3-5 and Inception-0-2 at 4 KiB and 64 KiB (5.3 M and
11.3 M iterations) run at 270-740 M iterations/s, and those of AlexNet-2
and VGG-2 (0.46-1.85 G iterations) at 1.2-3.3 G iterations/s.  The
default cap (DEFAULT_CAP) admits every built-in layer's winner at 1, 4,
64 and 256 KiB: the largest, VGG-9's at 64 KiB (2.11 G iterations),
validates in 1.1 s at 45 MB peak RSS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import CrossCheckError, ValidationError
from .model import ARRAYS, Axis, BufferingAssignment, Schedule, TrafficReport, traffic

_CHUNK = 1 << 18
DEFAULT_CAP = 2 ** 32  # loop iterations: seconds at the rates above

# Axes whose tiles can overrun the layer; kernel axes are never tiled.
_BOUNDED = (Axis.OF, Axis.IF, Axis.SY, Axis.SX)
_COLS = 2 * len(ARRAYS) + len(_BOUNDED)


class OracleCapError(RuntimeError):
    """The nest is too large to simulate; carries the required iteration count."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"simulation needs {required} iterations, over the cap of {cap}")
        self.required = required
        self.cap = cap


@dataclass(frozen=True)
class TraceStats:
    """Measured off-buffer transfer counts for one simulated nest."""

    loads_i: int
    loads_w: int
    writes_o_partial: int
    reads_o_partial: int
    writes_o_final: int
    bytes_total: int
    iterations: int

    def __post_init__(self) -> None:
        if self.reads_o_partial != self.writes_o_partial:
            raise ValueError(
                f"partial-sum reads {self.reads_o_partial} differ from "
                f"partial-sum writes {self.writes_o_partial}")
        counts = {"loads_i": self.loads_i, "loads_w": self.loads_w,
                  "writes_o_partial": self.writes_o_partial,
                  "writes_o_final": self.writes_o_final,
                  "bytes_total": self.bytes_total,
                  "iterations": self.iterations}
        negative = {k: v for k, v in counts.items() if v < 0}
        if negative:
            raise ValueError(f"negative trace counts: {negative}")


@dataclass(frozen=True)
class ValidationReport:
    """Model-vs-oracle relative errors; positive means the model overcounts."""

    model: TrafficReport
    oracle: TraceStats
    rel_err_i: float
    rel_err_w: float
    rel_err_o: float
    rel_err_total: float
    undercounts: tuple[str, ...]
    model_bytes: dict[str, int]    # per array, I, W and O
    oracle_bytes: dict[str, int]


def _element_weights(layer) -> dict[str, dict[Axis, int]]:
    """Per array, the element-index step of one unit along each axis."""
    eff_h, eff_w, s = layer.eff_h, layer.eff_w, layer.stride
    kk = layer.k_h * layer.k_w
    return {
        "I": {Axis.IF: eff_h * eff_w, Axis.SY: s * eff_w, Axis.FY: eff_w,
              Axis.SX: s, Axis.FX: 1},
        "W": {Axis.OF: layer.c_in * kk, Axis.IF: kk, Axis.FY: layer.k_w,
              Axis.FX: 1},
        "O": {Axis.OF: layer.out_h * layer.out_w, Axis.SY: layer.out_w,
              Axis.SX: 1},
    }


def _unique(keys: np.ndarray) -> np.ndarray:
    # Sorting and keeping the changes beats np.unique's hash table on
    # these arrays several times over.
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _coefficients(schedule: Schedule, levels: dict[str, int],
                  blocks: dict[str, int]) -> np.ndarray:
    """One row per loop: what a unit step of its counter adds to each
    array's instance id and element index (columns 2a and 2a+1 for the
    a-th of ARRAYS), and to the index along each of _BOUNDED (columns 6..9).

    A tile-body counter steps its axis by one, a controlling counter by the
    tile size.  The instance `iteration // block` steps only with the loops
    above the buffering level, by their stride over the block.
    """
    layer = schedule.layer
    elem_w = _element_weights(layer)
    extents = [l.extent for l in schedule.loops]
    coef = np.zeros((len(extents), _COLS), dtype=np.int64)
    for j, loop in enumerate(schedule.loops):
        step = 1 if loop.is_tile_loop else \
            schedule.tiles.for_axis(loop.axis, layer)
        stride = math.prod(extents[:j])
        for a, array in enumerate(ARRAYS):
            if j > levels[array]:
                coef[j, 2 * a] = stride // blocks[array]
            coef[j, 2 * a + 1] = step * elem_w[array].get(loop.axis, 0)
        if loop.axis in _BOUNDED:
            coef[j, 6 + _BOUNDED.index(loop.axis)] = step
    return coef


def simulate(schedule: Schedule, assignment: BufferingAssignment,
             cap: int = DEFAULT_CAP) -> TraceStats:
    """Off-buffer transfers of one nest, counted by walking its iterations.

    Raises OracleCapError when the nest runs more than `cap` iterations or
    its keys would overflow 64 bits, ValidationError when `cap` is below
    one (every nest runs at least one iteration, so no cap below that can
    admit any), and CrossCheckError when the walk does not write every
    output element.
    """
    if cap < 1:
        raise ValidationError(f"oracle cap must be at least 1, got {cap}")
    assignment.check(schedule)
    layer = schedule.layer
    n = len(schedule.loops)
    extents = [l.extent for l in schedule.loops]
    total = math.prod(extents)
    if total > cap:
        raise OracleCapError(required=total, cap=cap)

    sizes = {
        "I": layer.c_in * layer.eff_h * layer.eff_w,
        "W": layer.c_out * layer.c_in * layer.k_h * layer.k_w,
        "O": layer.c_out * layer.out_h * layer.out_w,
    }
    levels = {"I": assignment.level_i, "W": assignment.level_w,
              "O": assignment.level_o}
    blocks = {a: math.prod(extents[:levels[a] + 1]) for a in ARRAYS}
    for array in ARRAYS:
        if total // blocks[array] * sizes[array] >= 1 << 62:
            raise OracleCapError(required=total, cap=cap)

    coef = _coefficients(schedule, levels, blocks)

    # The grid: loops 0..k-1 whole, whose product fits a chunk, then `q`
    # counter values of loop k (a virtual loop of extent 1 when every loop
    # fits).  Loops above k are walked, and loop k in slices of q.
    k, inner = 0, 1
    while k < n and inner * extents[k] <= _CHUNK:
        inner *= extents[k]
        k += 1
    if k < n:
        split_extent, split_coef = extents[k], coef[k]
        q = max(1, _CHUNK // inner)
    else:
        split_extent, split_coef, q = 1, np.zeros(_COLS, dtype=np.int64), 1
    grid_extents = [q] + extents[:k][::-1]
    grid_coef = [split_coef] + list(coef[:k][::-1])
    shape = tuple(grid_extents)

    def axis_grid(col: int) -> np.ndarray:
        # Broadcast sum over the grid dims of one coefficient column; only
        # the dims that contribute keep their length.
        out = np.zeros((1,) * len(shape), dtype=np.int64)
        for d, (e, c) in enumerate(zip(grid_extents, grid_coef)):
            if c[col]:
                view = [1] * len(shape)
                view[d] = e
                out = out + (np.arange(e, dtype=np.int64) * c[col]).reshape(view)
        return out

    def full(grid: np.ndarray, limit: int) -> np.ndarray:
        # Sorting 32-bit keys is about twice as fast; `limit` bounds every
        # key and every element the walk adds an offset to.
        dtype = np.int32 if limit < 1 << 31 else np.int64
        return np.broadcast_to(grid, shape).reshape(q, -1).astype(dtype)

    spanning = {a for a in ARRAYS if levels[a] >= k}
    keys = {}
    for a, array in enumerate(ARRAYS):
        key = axis_grid(2 * a + 1)
        if array not in spanning:
            key = key + axis_grid(2 * a) * sizes[array]
        keys[array] = full(key, total // blocks[array] * sizes[array])
    elems_o = keys["O"] if "O" in spanning else \
        full(axis_grid(5), sizes["O"])
    bounds = (layer.c_out, layer.c_in, layer.out_h, layer.out_w)
    axes = [axis_grid(6 + b) for b in range(len(_BOUNDED))]

    def counts(r: int, limits: tuple) -> tuple:
        """Valid iterations, distinct keys of each array wholly inside the
        chunk, the distinct elements of each spanning array, and the
        distinct output elements, of the first r slices of the grid with
        axis b kept below limits[b] (None: no limit)."""
        mask = None
        for g, lim in zip(axes, limits):
            if lim is not None:
                below = g[:r] < lim
                mask = below if mask is None else mask & below
        if mask is not None:
            mask = np.broadcast_to(mask, (r,) + shape[1:]).reshape(-1)

        def pick(grid: np.ndarray) -> np.ndarray:
            flat = grid[:r].reshape(-1)
            return flat if mask is None else flat[mask]

        valid = r * inner if mask is None else int(np.count_nonzero(mask))
        distinct, marks = {}, {}
        for array in ARRAYS:
            if array in spanning:
                marks[array] = _unique(pick(keys[array]))
            else:
                distinct[array] = _unique(pick(keys[array])).size
        outputs = marks["O"] if "O" in spanning else _unique(pick(elems_o))
        return valid, distinct, marks, outputs

    # Walked dims, outermost first, so chunks come in iteration order and
    # each spanning instance's chunks are consecutive.
    slices = -(-split_extent // q)
    walk_extents = extents[k + 1:][::-1] + [slices]
    walk_coef = np.array(list(coef[k + 1:][::-1]) + [q * split_coef])
    last_r = split_extent - (slices - 1) * q
    # Per slice count, the largest index along each bounded axis.
    axis_max = {r: [int(g[:r].max()) for g in axes] for r in (q, last_r)}

    # Counts per (slice count, limits); the cached element arrays stay
    # within four chunks' worth, past which a pattern is recounted.
    cache: dict[tuple, tuple] = {}
    cached = 0
    pairs = dict.fromkeys(ARRAYS, 0)
    marked = {a: np.zeros(sizes[a], dtype=bool) for a in spanning}
    current = dict.fromkeys(spanning, -1)
    seen_o = np.zeros(sizes["O"], dtype=bool)
    valid_iterations = 0

    def close(array: str) -> None:
        pairs[array] += int(np.count_nonzero(marked[array]))
        marked[array][:] = False

    # Chunk offsets come in batches of about one chunk's worth of numbers.
    chunks = math.prod(walk_extents)
    batch = max(1, _CHUNK // _COLS)
    for lo in range(0, chunks, batch):
        idx = np.unravel_index(np.arange(lo, min(lo + batch, chunks)),
                               walk_extents)
        offsets = np.stack(idx, axis=1) @ walk_coef
        for off, b in zip(offsets.tolist(), idx[-1].tolist()):
            r = q if b < slices - 1 else last_r
            limits = tuple(
                None if bound - o > most else max(bound - o, 0)
                for bound, o, most in zip(bounds, off[6:], axis_max[r]))
            if 0 in limits:
                continue  # some axis starts past its bound: nothing valid
            entry_key = (r, limits)
            entry = cache.get(entry_key)
            if entry is None:
                entry = counts(r, limits)
                size = sum(m.size for m in entry[2].values()) + entry[3].size
                if cached + size <= 4 * _CHUNK:
                    cache[entry_key] = entry
                    cached += size
            valid, distinct, marks, outputs = entry
            valid_iterations += valid
            for array, d in distinct.items():
                pairs[array] += d
            for a, array in enumerate(ARRAYS):
                if array in spanning:
                    if off[2 * a] != current[array]:
                        close(array)
                        current[array] = off[2 * a]
                    marked[array][marks[array] + off[2 * a + 1]] = True
            seen_o[outputs + off[5]] = True
    for array in spanning:
        close(array)

    loads_i, loads_w, pairs_o = pairs["I"], pairs["W"], pairs["O"]
    distinct_o = int(np.count_nonzero(seen_o))
    if distinct_o != sizes["O"]:
        raise CrossCheckError(
            f"trace of {layer.name} wrote {distinct_o} distinct output "
            f"elements, the layer has {sizes['O']}")
    spills = pairs_o - distinct_o

    bytes_total = (layer.p_in * loads_i + layer.p_w * loads_w
                   + layer.p_acc * 2 * spills + layer.p_out * distinct_o)
    return TraceStats(
        loads_i=loads_i, loads_w=loads_w,
        writes_o_partial=spills, reads_o_partial=spills,
        writes_o_final=distinct_o,
        bytes_total=bytes_total, iterations=valid_iterations,
    )


def validate(schedule: Schedule, assignment: BufferingAssignment,
             cap: int = DEFAULT_CAP) -> ValidationReport:
    """Relative model error per array and in total, plus undercount flags.

    The model is meant to overestimate or match; any array where it counts
    fewer bytes than the oracle is reported in `undercounts`.
    """
    stats = simulate(schedule, assignment, cap=cap)
    layer = schedule.layer
    report = traffic(schedule, assignment)
    oracle_bytes = {
        "I": layer.p_in * stats.loads_i,
        "W": layer.p_w * stats.loads_w,
        "O": layer.p_acc * (stats.writes_o_partial + stats.reads_o_partial)
             + layer.p_out * stats.writes_o_final,
    }
    model_bytes = {
        "I": report.t_in,
        "W": report.t_w,
        "O": report.t_o_acc + report.t_o_final,
    }
    undercounts = tuple(a for a in ARRAYS if model_bytes[a] < oracle_bytes[a])
    rel = {a: (model_bytes[a] - oracle_bytes[a]) / oracle_bytes[a] for a in ARRAYS}
    total_oracle = sum(oracle_bytes.values())
    if total_oracle != stats.bytes_total:
        raise CrossCheckError(
            f"oracle bytes of {layer.name} sum to {total_oracle} per array "
            f"but {stats.bytes_total} in total")
    return ValidationReport(
        model=report, oracle=stats,
        rel_err_i=rel["I"], rel_err_w=rel["W"], rel_err_o=rel["O"],
        rel_err_total=(report.total - total_oracle) / total_oracle,
        undercounts=undercounts, model_bytes=model_bytes,
        oracle_bytes=oracle_bytes,
    )
