from __future__ import annotations

import json

import pytest

from convsched import LayerShape, ValidationError, parse_layer_suite
from conftest import make_tiny


def test_effective_extent_derivation():
    tiny = make_tiny()
    # (6-1)*1 + 3 = 8 per dim.
    assert (tiny.eff_h, tiny.eff_w) == (8, 8)
    assert tiny.eff_h == 8 and tiny.eff_w == 8
    # in_h/in_w default to the effective extent when not given.
    assert (tiny.in_h, tiny.in_w) == (8, 8)


def test_effective_extent_can_exceed_nominal_input():
    # Stride-2 window arithmetic: (27-1)*2 + 5 = 57 rows touched even
    # though the nominal map is 55; the overhang is padding, still fetched.
    layer = LayerShape(name="a2", out_h=27, out_w=27, k_h=5, k_w=5,
                       stride=2, c_in=96, c_out=256, in_h=55, in_w=55)
    assert (layer.eff_h, layer.eff_w) == (57, 57)
    assert (layer.in_h, layer.in_w) == (55, 55)


def test_precision_defaults():
    tiny = make_tiny()
    assert (tiny.p_in, tiny.p_w, tiny.p_out, tiny.p_acc) == (1, 1, 1, 4)


@pytest.mark.parametrize("field,value", [
    ("out_h", 0), ("k_w", 0), ("stride", 0), ("c_in", -1), ("p_in", 0),
])
def test_rejects_non_positive_extents(field, value):
    kwargs = dict(name="bad", out_h=4, out_w=4, k_h=3, k_w=3,
                  stride=1, c_in=2, c_out=2)
    kwargs[field] = value
    with pytest.raises(ValidationError):
        LayerShape(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("stride", True), ("c_out", True), ("in_h", False), ("k_h", "3"),
    ("out_w", 4.0),
])
def test_rejects_non_integer_extents(field, value):
    # Bools are ints to isinstance; a string used to fail deriving in_h.
    kwargs = dict(name="bad", out_h=4, out_w=4, k_h=3, k_w=3,
                  stride=1, c_in=2, c_out=2)
    kwargs[field] = value
    with pytest.raises(ValidationError, match=f"field {field} must be"):
        LayerShape(**kwargs)


def test_rejects_accumulator_narrower_than_output():
    with pytest.raises(ValidationError):
        LayerShape(name="bad", out_h=4, out_w=4, k_h=1, k_w=1,
                   stride=1, c_in=1, c_out=1, p_out=4, p_acc=1)


def test_rejects_empty_name():
    with pytest.raises(ValidationError):
        LayerShape(name="", out_h=4, out_w=4, k_h=1, k_w=1,
                   stride=1, c_in=1, c_out=1)


def test_transpose_swaps_dims_and_is_an_involution():
    layer = LayerShape(name="rect", out_h=5, out_w=7, k_h=3, k_w=2,
                       stride=2, c_in=3, c_out=4)
    t = layer.transpose()
    assert (t.out_h, t.out_w, t.k_h, t.k_w) == (7, 5, 2, 3)
    assert (t.in_h, t.in_w) == (layer.in_w, layer.in_h)
    assert (t.c_in, t.c_out, t.stride) == (3, 4, 2)
    assert t.transpose() == layer


def test_to_dict_round_trips_through_constructor():
    layer = LayerShape(name="rt", out_h=5, out_w=7, k_h=3, k_w=2,
                       stride=2, c_in=3, c_out=4, p_acc=2, p_out=2)
    assert LayerShape(**layer.to_dict()) == layer


def test_parse_layer_suite_round_trip():
    tiny = make_tiny()
    doc = {"name": "desk", "layers": [tiny.to_dict()]}
    suite = parse_layer_suite(json.dumps(doc))
    assert suite.name == "desk"
    assert suite.get("tiny") == tiny
    assert parse_layer_suite(suite.to_json()).layers == suite.layers


def test_parse_layer_suite_fills_precision_defaults():
    doc = {"name": "s", "layers": [{
        "name": "l", "out_h": 4, "out_w": 4, "k_h": 3, "k_w": 3,
        "stride": 1, "c_in": 2, "c_out": 2}]}
    layer = parse_layer_suite(json.dumps(doc)).get("l")
    assert (layer.p_in, layer.p_w, layer.p_out, layer.p_acc) == (1, 1, 1, 4)


def test_parse_layer_suite_rejects_unknown_keys():
    doc = {"name": "s", "layers": [{
        "name": "l", "out_h": 4, "out_w": 4, "k_h": 3, "k_w": 3,
        "stride": 1, "c_in": 2, "c_out": 2, "dilation": 2}]}
    with pytest.raises(ValidationError):
        parse_layer_suite(json.dumps(doc))


def test_parse_layer_suite_rejects_missing_required_key():
    doc = {"name": "s", "layers": [{"name": "l", "out_h": 4}]}
    with pytest.raises(ValidationError):
        parse_layer_suite(json.dumps(doc))


def test_suite_rejects_duplicate_layer_names():
    tiny = make_tiny()
    doc = {"name": "s", "layers": [tiny.to_dict(), tiny.to_dict()]}
    with pytest.raises(ValidationError):
        parse_layer_suite(json.dumps(doc))
