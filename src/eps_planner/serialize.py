"""JSON text serialization for the core domain types.

One codec serves every core type: an object becomes a dict tagged with
its type name and holding each dataclass field under the field's name.
Arrays are written as lists and nested core types recurse. Floats
survive the round trip exactly: json emits them via repr, which is
shortest-round-trip in Python 3, so re-reading reproduces every field
bit for bit.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .model import (
    Dataset,
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
    PrivateModel,
    SensitivityReport,
)

# type tag -> core type
CORE_TYPES = {
    cls.__name__: cls
    for cls in (
        Dataset,
        PrivacyBudget,
        LossSpec,
        NoiseDraw,
        PrivateModel,
        SensitivityReport,
        ExtrapolationLine,
    )
}


def to_dict(obj: Any) -> dict:
    """Plain-dict form of any core type, tagged with its type name."""
    tag = type(obj).__name__
    if CORE_TYPES.get(tag) is not type(obj):
        raise TypeError(f"not a serializable core type: {tag}")
    out = {"type": tag}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif type(value) in CORE_TYPES.values():
            value = to_dict(value)
        out[f.name] = value
    return out


def from_dict(payload: dict) -> Any:
    """Rebuild a core type from its to_dict form."""
    cls = CORE_TYPES.get(payload.get("type"))
    if cls is None:
        raise TypeError(f"unknown serialized type tag: {payload.get('type')!r}")
    values = {}
    for f in dataclasses.fields(cls):
        value = payload[f.name]
        values[f.name] = from_dict(value) if isinstance(value, dict) else value
    return cls(**values)


def dumps(obj: Any) -> str:
    return json.dumps(to_dict(obj))


def loads(text: str) -> Any:
    return from_dict(json.loads(text))
