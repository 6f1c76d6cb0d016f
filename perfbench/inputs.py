"""Seeded inputs for the four workloads.

Each workload's input is one block: the work one pass of the measuring loop
does.  A block depends only on the seed and on the built-in layer tables,
so the same seed always yields the same block.  Blocks are drawn so that
their cost is about the same from one seed to the next: stratified by
schedule-space size, and of several seeded draws the one whose size is
closest to the expected size is kept.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, TypeVar

from convsched import layers, space, suites

#: The paper's nine budgets, 1 KiB .. 256 KiB.
BUDGETS_9 = tuple(1024 * 2 ** k for k in range(9))

SWEEP_MODELS = ("ours", "peemen", "cache", "hwc", "hwce")


def curve_budgets(phase: float) -> tuple[int, ...]:
    """64 budgets, 8 per octave, from 1 KiB up to 256 KiB, shifted by
    `phase` (0 <= phase < 1) of one step."""
    return tuple(round(1024 * 2 ** ((i + phase) / 8)) for i in range(64))


@functools.cache
def space_size(layer: layers.LayerShape) -> int:
    """Candidates in a layer's fixed schedule space: one per (loop ordering,
    tile choice) pair under the default policy.  It does not depend on how
    the engine prunes buffering levels, so it stays comparable across
    engine changes."""
    menus = space.enumerate_tiles(layer, space.TilePolicy())
    return _orderings() * math.prod(len(m) for m in menus.values())


@functools.cache
def _orderings() -> int:
    return len(space.enumerate_permutations())


def _suite_of() -> dict[str, str]:
    return {layer.name: name for name in suites.BUILTIN_SUITE_NAMES
            for layer in suites.builtin_suite(name)}


def _strata(pool: list[layers.LayerShape], k: int
            ) -> list[list[layers.LayerShape]]:
    """Split a pool, sorted by schedule-space size, into k contiguous strata."""
    ranked = sorted(pool, key=lambda l: (space_size(l), l.name))
    n = len(ranked)
    return [ranked[i * n // k:(i + 1) * n // k] for i in range(k)]


@dataclass(frozen=True)
class SearchBlock:
    """layer-search: one best_schedule call per (layer, budget)."""

    calls: tuple[tuple[layers.LayerShape, int], ...]


@dataclass(frozen=True)
class CurveBlock:
    """budget-curve: evaluate_layer at the dense budgets per layer, then one
    distribution_from over the block's evaluations."""

    layers: tuple[layers.LayerShape, ...]
    budgets: tuple[int, ...]


@dataclass(frozen=True)
class SweepBlock:
    """sweep-models: one `convsched sweep` call over a layer file, with the
    SWEEP_MODELS at the nine budgets."""

    suite: layers.LayerSuite


@dataclass(frozen=True)
class OracleBlock:
    """oracle-check: per layer, one search at three budgets and one
    oracle.validate per winner."""

    cases: tuple[tuple[layers.LayerShape, tuple[int, int, int]], ...]


# Sized so that one pass over a block takes several seconds and blocks of
# different seeds cost about the same (see README.md).
SEARCH_STRATA = 8
SWEEP_STRATA = 3
BALANCE_TRIES = 32
# Two layers of different suites with cheap dense curves.
CURVE_LAYERS = ("ZFNet-6", "ResNet-1")
# Nominal multiply-accumulate count of an oracle layer; padding by tiles
# that do not divide their extents raises the simulated count above it.
ORACLE_MACS = (400_000, 600_000)
ORACLE_LAYERS = 4

T = TypeVar("T")


def _balanced(rng: random.Random, draw: Callable[[], T],
              weight: Callable[[T], int], target: float) -> T:
    """Of BALANCE_TRIES seeded draws, the one whose weight is closest to
    `target`; the first such draw on ties."""
    draws = [draw() for _ in range(BALANCE_TRIES)]
    return min(draws, key=lambda d: abs(weight(d) - target))


def _stratified_layers(rng: random.Random, k: int, all_suites: bool
                       ) -> tuple[layers.LayerShape, ...]:
    """One built-in layer per stratum of k, balanced on schedule-space size;
    with `all_suites` every suite must be present."""
    strata = _strata(list(suites.all_builtin_layers()), k)
    suite_of = _suite_of()
    target = sum(sum(map(space_size, s)) / len(s) for s in strata)

    def draw():
        while True:
            picks = [rng.choice(s) for s in strata]
            if not all_suites or len({suite_of[l.name] for l in picks}) \
                    == len(suites.BUILTIN_SUITE_NAMES):
                rng.shuffle(picks)
                return tuple(picks)

    return _balanced(rng, draw, lambda ls: sum(map(space_size, ls)), target)


def layer_search_block(seed: int) -> SearchBlock:
    """SEARCH_STRATA layers from all five suites, one of the nine budgets
    each."""
    rng = random.Random(f"layer-search/{seed}")
    picks = _stratified_layers(rng, SEARCH_STRATA, all_suites=True)
    return SearchBlock(tuple((l, rng.choice(BUDGETS_9)) for l in picks))


def budget_curve_block(seed: int) -> CurveBlock:
    """The CURVE_LAYERS at a dense budget grid of seeded phase.  The layers
    stay fixed: a dense curve costs seconds and its cost differs widely
    between layers, so drawing layers would make the cost follow the seed."""
    rng = random.Random(f"budget-curve/{seed}")
    pair = tuple(suites.find_builtin_layer(n) for n in CURVE_LAYERS)
    return CurveBlock(pair, curve_budgets(rng.random()))


def sweep_block(seed: int) -> SweepBlock:
    """SWEEP_STRATA built-in layers in one layer file."""
    rng = random.Random(f"sweep-models/{seed}")
    picks = _stratified_layers(rng, SWEEP_STRATA, all_suites=False)
    return SweepBlock(layers.LayerSuite(f"bench-{seed}", picks))


def desk_layer(rng: random.Random, name: str, shape: str) -> layers.LayerShape:
    """A random desk-scale layer.  `shape` forces the feature the draw must
    include: "rect" a rectangular kernel, "stride" a stride larger than
    the kernel in some dimension.  Spatial extents lie in 9..15 and
    channel counts in 17..31: no extent is a power of two, so power-of-two
    tiles never divide it, and every layer has the same tile menus, so the
    same schedule space."""
    while True:
        k_h, k_w = rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 5))
        stride = rng.choice((1, 2, 3, 4))
        if shape == "rect" and k_h == k_w:
            continue
        if shape == "stride" and stride <= min(k_h, k_w):
            continue
        layer = layers.LayerShape(
            name=name, out_h=rng.randint(9, 15), out_w=rng.randint(9, 15),
            k_h=k_h, k_w=k_w, stride=stride,
            c_in=rng.randint(17, 31), c_out=rng.randint(17, 31))
        if ORACLE_MACS[0] <= layer_macs(layer) <= ORACLE_MACS[1]:
            return layer


def layer_macs(layer: layers.LayerShape) -> int:
    return (layer.out_h * layer.out_w * layer.c_in * layer.c_out
            * layer.k_h * layer.k_w)


def oracle_budgets(layer: layers.LayerShape) -> tuple[int, int, int]:
    """Tight, middle and loose budgets, as shares of the bytes needed to
    hold every array at once (outputs at accumulator precision)."""
    whole = (layer.p_in * layer.c_in * layer.eff_h * layer.eff_w
             + layer.p_w * layer.c_out * layer.c_in * layer.k_h * layer.k_w
             + layer.p_acc * layer.c_out * layer.out_h * layer.out_w)
    return (max(64, whole // 1024), max(128, whole // 64), whole)


def oracle_block(seed: int) -> OracleBlock:
    """ORACLE_LAYERS random desk-scale layers, half with a rectangular
    kernel and half with a stride larger than their kernel, balanced on
    their summed multiply-accumulates."""
    rng = random.Random(f"oracle-check/{seed}")
    shapes = ("rect", "stride") * (ORACLE_LAYERS // 2)

    def draw():
        return tuple(desk_layer(rng, f"desk-{seed}-{i + 1}", shape)
                     for i, shape in enumerate(shapes))

    target = ORACLE_LAYERS * sum(ORACLE_MACS) / 2
    picks = _balanced(rng, draw, lambda ls: sum(map(layer_macs, ls)), target)
    return OracleBlock(tuple((l, oracle_budgets(l)) for l in picks))
