"""Shared fixtures: a desk-scale layer and its untiled nest."""
from __future__ import annotations

import pytest

from convsched import Axis, LayerShape, Tiles, instantiate

# Innermost-first: the untiled nest of the reference formulation.
CANONICAL_ORDER = (Axis.FX, Axis.FY, Axis.SX, Axis.SY, Axis.IF, Axis.OF)


def make_tiny() -> LayerShape:
    """6x6 outputs, 3x3 kernel, stride 1, 2 in / 4 out maps, 1-byte data."""
    return LayerShape(name="tiny", out_h=6, out_w=6, k_h=3, k_w=3,
                      stride=1, c_in=2, c_out=4)


def untiled(layer: LayerShape, order=CANONICAL_ORDER):
    tiles = Tiles(mss=layer.c_out, css=layer.c_in,
                  iss=layer.out_h, jss=layer.out_w)
    return instantiate(order, tiles, layer)


@pytest.fixture
def tiny() -> LayerShape:
    return make_tiny()
