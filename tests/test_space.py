from __future__ import annotations

import pytest

from convsched import (
    Axis,
    LayerShape,
    TilePolicy,
    Tiles,
    ValidationError,
    enumerate_permutations,
    instantiate,
)
from convsched.casestudy import HWC_BODY
from convsched.space import enumerate_tiles
from conftest import make_tiny


def test_unpruned_space_is_all_720_orderings():
    perms = enumerate_permutations(prune=False)
    assert len(perms) == 720
    assert len(set(perms)) == 720
    assert all(set(p) == set(Axis) for p in perms)


def test_pruned_space_is_180_canonical_orderings():
    perms = enumerate_permutations(prune=True)
    assert len(perms) == 180
    # Canonical representative: FX inside FY, SX inside SY (innermost-first
    # tuples, so "inside" means a smaller index).
    for p in perms:
        assert p.index(Axis.FX) < p.index(Axis.FY)
        assert p.index(Axis.SX) < p.index(Axis.SY)
    assert set(perms) <= set(enumerate_permutations(prune=False))


def test_hwc_ordering_survives_pruning():
    assert HWC_BODY in enumerate_permutations(prune=True)


def test_tile_menu_pow2_plus_extent():
    layer = LayerShape(name="l", out_h=27, out_w=27, k_h=3, k_w=3,
                       stride=1, c_in=2, c_out=27)
    menus = enumerate_tiles(layer, TilePolicy())
    assert menus[Axis.OF] == (1, 2, 4, 8, 16, 27)
    assert menus[Axis.SY] == (1, 2, 4, 8, 16, 27)
    assert menus[Axis.IF] == (1, 2)


def test_tile_menu_pure_pow2_omits_extent():
    layer = LayerShape(name="l", out_h=27, out_w=27, k_h=3, k_w=3,
                       stride=1, c_in=2, c_out=27)
    menus = enumerate_tiles(layer, TilePolicy(mode="pow2"))
    assert menus[Axis.SY] == (1, 2, 4, 8, 16)


def test_tile_menu_degenerate_and_power_extents():
    layer = LayerShape(name="l", out_h=1, out_w=256, k_h=1, k_w=1,
                       stride=1, c_in=1, c_out=1)
    menus = enumerate_tiles(layer, TilePolicy())
    assert menus[Axis.SY] == (1,)
    assert menus[Axis.SX] == (1, 2, 4, 8, 16, 32, 64, 128, 256)


def test_explicit_policy_validates_bounds():
    tiny = make_tiny()
    good = {Axis.OF: (4,), Axis.IF: (2,), Axis.SY: (3, 6), Axis.SX: (6,)}
    menus = enumerate_tiles(tiny, TilePolicy(mode="explicit", explicit=good))
    assert menus[Axis.SY] == (3, 6)
    bad = {**good, Axis.SX: (7,)}  # above the extent
    with pytest.raises(ValidationError):
        enumerate_tiles(tiny, TilePolicy(mode="explicit", explicit=bad))
    with pytest.raises(ValidationError):
        enumerate_tiles(tiny, TilePolicy(mode="explicit",
                                         explicit={Axis.OF: ()}))


def test_policy_mode_and_explicit_must_agree():
    with pytest.raises(ValidationError):
        TilePolicy(mode="explicit")
    with pytest.raises(ValidationError):
        TilePolicy(explicit={Axis.OF: (1,)})
    with pytest.raises(ValidationError):
        TilePolicy(mode="fibonacci")


def test_instantiate_untiled_has_no_controlling_loops():
    tiny = make_tiny()
    sched = instantiate(tuple(Axis), Tiles(4, 2, 6, 6), tiny)
    assert sched.n == 6
    assert sched.controlling_order() == ()


def test_instantiate_fully_tiled_is_a_ten_loop_nest():
    tiny = make_tiny()
    sched = instantiate(tuple(Axis), Tiles(2, 1, 3, 2), tiny)
    assert sched.n == 10
    # Fixed controlling nest, outermost-first OF, IF, SY, SX; the
    # innermost-first tuple therefore reads SX, SY, IF, OF.
    assert sched.controlling_order() == (Axis.SX, Axis.SY, Axis.IF, Axis.OF)
    trips = {l.axis: l.extent for l in sched.loops if not l.is_tile_loop}
    assert trips == {Axis.OF: 2, Axis.IF: 2, Axis.SY: 2, Axis.SX: 3}


def test_instantiate_untiled_axis_has_no_controlling_loop():
    tiny = make_tiny()
    sched = instantiate(tuple(Axis), Tiles(2, 2, 6, 6), tiny)
    assert sched.controlling_order() == (Axis.OF,)
    assert sched.n == 7


def test_instantiate_custom_controlling_order():
    tiny = make_tiny()
    sched = instantiate(tuple(Axis), Tiles(2, 1, 6, 6), tiny,
                        controlling=(Axis.OF, Axis.IF))
    assert sched.controlling_order() == (Axis.OF, Axis.IF)
    with pytest.raises(ValidationError):
        instantiate(tuple(Axis), Tiles(2, 1, 6, 6), tiny,
                    controlling=(Axis.OF, Axis.SY))


def test_instantiate_rejects_bad_ordering_and_tiles():
    tiny = make_tiny()
    with pytest.raises(ValidationError):
        instantiate((Axis.FX,) * 6, Tiles(4, 2, 6, 6), tiny)
    with pytest.raises(ValidationError):
        instantiate(tuple(Axis), Tiles(5, 2, 6, 6), tiny)  # 5 > c_out=4
