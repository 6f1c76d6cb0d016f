"""Convolution layer shapes and layer-suite ingestion.

A LayerShape captures the geometry of one convolutional layer: feature-map
extents, kernel extents, stride, channel counts, and the byte precision of
each array (input pixels, weights, final outputs, partial accumulations).

All footprint and traffic arithmetic downstream derives the input extent it
needs from the output extent, stride, and kernel, i.e. the window the
computation actually reads.  The nominal input size is stored for reference
only; several published layer tables are consistent only under implicit
padding, and using the derived window sidesteps that.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields


class ValidationError(ValueError):
    """A layer, suite, or schedule violates one of its invariants."""


class CrossCheckError(RuntimeError):
    """An engine or oracle answer disagrees with the check that arbitrates it."""


def _is_int(v) -> bool:
    """An int, not a bool: JSON true and false load as bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class LayerShape:
    """Shape and precision of one convolution layer.

    ``in_h``/``in_w`` default to the effective window extent when given as 0.
    Precisions are bytes per element; partial sums accumulate at ``p_acc``
    which must be at least ``p_out``.
    """

    name: str
    out_h: int
    out_w: int
    k_h: int
    k_w: int
    stride: int
    c_in: int
    c_out: int
    in_h: int = 0
    in_w: int = 0
    p_in: int = 1
    p_w: int = 1
    p_out: int = 1
    p_acc: int = 4

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "name":
                if not self.name:
                    raise ValidationError("layer name must be non-empty")
                continue
            v = getattr(self, f.name)
            if not _is_int(v) or v < (0 if f.name in ("in_h", "in_w") else 1):
                raise ValidationError(
                    f"layer {self.name!r}: field {f.name} must be a positive "
                    f"integer, got {v!r}"
                )
        if self.in_h == 0:
            object.__setattr__(self, "in_h", self.eff_h)
        if self.in_w == 0:
            object.__setattr__(self, "in_w", self.eff_w)
        if self.p_acc < self.p_out:
            raise ValidationError(
                f"layer {self.name!r}: p_acc ({self.p_acc}) must be >= "
                f"p_out ({self.p_out})"
            )

    @property
    def eff_h(self) -> int:
        """Input rows actually read: (out_h-1)*stride + k_h."""
        return (self.out_h - 1) * self.stride + self.k_h

    @property
    def eff_w(self) -> int:
        return (self.out_w - 1) * self.stride + self.k_w

    def transpose(self) -> LayerShape:
        """Swap the h/w roles of every extent, for symmetry checks."""
        return LayerShape(
            name=self.name,
            out_h=self.out_w, out_w=self.out_h,
            k_h=self.k_w, k_w=self.k_h,
            stride=self.stride,
            c_in=self.c_in, c_out=self.c_out,
            in_h=self.in_w, in_w=self.in_h,
            p_in=self.p_in, p_w=self.p_w,
            p_out=self.p_out, p_acc=self.p_acc,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class LayerSuite:
    """An ordered, uniquely named collection of layers."""

    name: str
    layers: tuple[LayerShape, ...]

    def __post_init__(self) -> None:
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValidationError(
                    f"suite {self.name!r}: duplicate layer name {layer.name!r}"
                )
            seen.add(layer.name)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def get(self, name: str) -> LayerShape:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"suite {self.name!r} has no layer {name!r}")

    def to_json(self) -> str:
        doc = {"name": self.name, "layers": [l.to_dict() for l in self.layers]}
        return json.dumps(doc, indent=2)


_LAYER_KEYS = {f.name for f in fields(LayerShape)}
_REQUIRED_KEYS = {f.name for f in fields(LayerShape) if f.default is MISSING}


def parse_layer_suite(text: str) -> LayerSuite:
    """Parse a JSON layer-suite document.

    Top level is an object with "name" and a "layers" array.  Each layer
    object needs the shape keys; missing precisions take the 1/1/1/4 byte
    defaults and missing in_h/in_w are derived from the effective window.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"layer file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError("layer file must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError('layer file needs a non-empty "name" string')
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValidationError('layer file needs a non-empty "layers" array')

    layers = []
    for idx, entry in enumerate(raw_layers):
        if not isinstance(entry, dict):
            raise ValidationError(f"layers[{idx}] must be an object")
        unknown = set(entry) - _LAYER_KEYS
        if unknown:
            raise ValidationError(
                f"layers[{idx}]: unknown keys {sorted(unknown)}"
            )
        missing = _REQUIRED_KEYS - set(entry)
        if missing:
            raise ValidationError(
                f"layers[{idx}]: missing keys {sorted(missing)}"
            )
        layers.append(LayerShape(**entry))
    return LayerSuite(name=name, layers=tuple(layers))
