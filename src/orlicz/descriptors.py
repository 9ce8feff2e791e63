"""Function descriptors: the JSON wire format for tail-represented functions.

Four kinds are accepted::

    {"kind": "step", "pieces": [{"value": 2.0, "mass": 0.3}, ...], "mass": 1.0}
    {"kind": "indicator", "a": 0.5, "mass": 1.0}
    {"kind": "analytic-tail", "family": "power", "p": 2.0, "mass": 1.0}
    {"kind": "extremal", "mass": 1.0}

``mass`` is a positive number or the token "inf".  Unknown fields are
rejected.  ``analytic-tail`` currently knows the family "power":
min(mass, t^-p), the canonical heavy tail.  ``extremal`` refers to the
Young function supplied alongside the descriptor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from .errors import DescriptorError
from .tails import AnalyticTail, TailRepFunction, step_tail
from .embedding import _json_number, extremal_function
from .young import YoungFunction

__all__ = ["FunctionDescriptor", "parse_descriptor", "parse_descriptor_json"]

# each kind's fields besides "kind" and "mass"
_FIELDS = {"step": ("pieces",), "indicator": ("a",), "analytic-tail": ("family", "p"),
           "extremal": ()}


def _parse_mass(raw, where: str) -> float:
    if raw == "inf":
        return math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DescriptorError(f"{where}: mass must be a number or \"inf\"")
    mass = float(raw)
    if not (mass > 0.0) or math.isnan(mass):
        raise DescriptorError(f"{where}: mass must be positive")
    return mass


def _require_number(obj, key: str, where: str) -> float:
    if key not in obj:
        raise DescriptorError(f"{where}: missing field {key!r}")
    raw = obj[key]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DescriptorError(f"{where}: field {key!r} must be a number")
    return float(raw)


@dataclass(frozen=True)
class FunctionDescriptor:
    kind: str
    mass: float
    pieces: Optional[Tuple[Tuple[float, float], ...]] = None
    a: Optional[float] = None
    family: Optional[str] = None
    p: Optional[float] = None

    def to_jsonable(self) -> Dict[str, object]:
        """The fields that are set, with the pieces as objects and an infinite mass as "inf"."""
        out: Dict[str, object] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = _json_number(v)
        if self.pieces is not None:
            out["pieces"] = [{"value": v, "mass": m} for v, m in self.pieces]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    def build(self, young: Optional[YoungFunction] = None) -> TailRepFunction:
        """Materialize the tail representation this descriptor denotes."""
        if self.kind == "step":
            return step_tail(list(self.pieces), self.mass)
        if self.kind == "indicator":
            return step_tail([(1.0, self.a)], self.mass)
        if self.kind == "analytic-tail":
            p = self.p
            mass = self.mass
            try:
                kink = mass ** (-1.0 / p)  # where t^-p meets the mass; 0 on infinite mass
            except OverflowError:  # a mass below 1 and a tiny p: no float leaves the plateau
                kink = math.inf

            def fn(t: float) -> float:
                if t <= kink:  # t^-p may overflow here, and is the mass anyway
                    return mass
                v = t ** -p  # overflows only on infinite mass, where the kink is 0
                return v if v < mass else mass

            return TailRepFunction(AnalyticTail(fn, label=f"min(mass, t^-{p:g})"), mass)
        if young is None:
            raise DescriptorError("extremal descriptor requires a Young function")
        return extremal_function(young, self.mass)


def parse_descriptor(obj: object) -> FunctionDescriptor:
    """Validate a decoded JSON object; DescriptorError carries field context."""
    if not isinstance(obj, dict):
        raise DescriptorError("descriptor must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise DescriptorError(f"kind must be one of {tuple(_FIELDS)}, got {kind!r}")
    unknown = set(obj) - {"kind", "mass", *_FIELDS[kind]}
    if unknown:
        raise DescriptorError(f"{kind}: unknown fields {sorted(unknown)}")
    if "mass" not in obj:
        raise DescriptorError(f"{kind}: missing field 'mass'")
    mass = _parse_mass(obj["mass"], kind)

    if kind == "step":
        raw = obj.get("pieces")
        if not isinstance(raw, list):
            raise DescriptorError("step: 'pieces' must be a list")
        pieces = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or set(entry) != {"value", "mass"}:
                raise DescriptorError(
                    f"step: pieces[{i}] must be an object with exactly"
                    " 'value' and 'mass'"
                )
            v = _require_number(entry, "value", f"pieces[{i}]")
            m = _require_number(entry, "mass", f"pieces[{i}]")
            if v < 0.0:
                raise DescriptorError(f"pieces[{i}]: value must be non-negative")
            if m <= 0.0:
                raise DescriptorError(f"pieces[{i}]: mass must be positive")
            pieces.append((v, m))
        return FunctionDescriptor("step", mass, pieces=tuple(pieces))

    if kind == "indicator":
        a = _require_number(obj, "a", "indicator")
        if not (0.0 < a <= mass):
            raise DescriptorError("indicator: needs 0 < a <= mass")
        return FunctionDescriptor("indicator", mass, a=a)

    if kind == "analytic-tail":
        family = obj.get("family")
        if family != "power":
            raise DescriptorError(
                f"analytic-tail: unknown family {family!r} (expected 'power')"
            )
        p = _require_number(obj, "p", "analytic-tail")
        if not (p > 0.0):
            raise DescriptorError("analytic-tail: p must be positive")
        return FunctionDescriptor("analytic-tail", mass, family="power", p=p)

    return FunctionDescriptor("extremal", mass)


def parse_descriptor_json(text: str) -> FunctionDescriptor:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: {exc}") from exc
    return parse_descriptor(obj)
