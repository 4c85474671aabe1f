"""Save and load fitted models as self-describing JSON bundles.

A bundle records the algorithm, the training schema (feature and class
names), the standardization parameters, and the model itself, so a saved
model can score new feature files exactly as the in-process one would.

One codec writes every model from its dataclass fields, in field order: an
array becomes a nested list, a tuple a list and a nested dataclass an object.
A field whose default is None is left out while it is None (a tree leaf keeps
only its class and distribution), unless its metadata has "save_none"; a
field whose metadata has "save": False is not written (LR's loss history)
and loads as its default. Loading converts each value by the field's type
hint (arrays load as float64, a null or bare number in an array field is
rejected, and a model casts its integer arrays), and a malformed file is a
ValueError naming the bad field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ScalingParams
from .evaluation import algorithm_adapter

FORMAT_NAME = "ecobench-model"
FORMAT_VERSION = 1


def _converters(hint):
    """(decode, encode) between a JSON value and a value of type `hint`; an
    encode of None means the value is written as it is."""
    if hint is np.ndarray:
        return _decode_array, np.ndarray.tolist
    if dataclasses.is_dataclass(hint):
        return functools.partial(_decode, hint), _encode
    if typing.get_origin(hint) is tuple:
        decode, encode = _converters(typing.get_args(hint)[0])
        return (lambda value: tuple(decode(v) for v in value),
                list if encode is None else lambda value: [encode(v) for v in value])
    return hint, None


def _decode_array(value) -> np.ndarray:
    """A float64 array from a nested list; null or a bare number is no array."""
    array = np.array(value, dtype=np.float64)
    if array.ndim == 0:
        got = "null" if value is None else type(value).__name__
        raise ValueError(f"expected an array, got {got}")
    return array


@functools.cache
def _plan(cls, **overrides) -> tuple:
    """(name, omitted while None, may be None, decode, encode) per saved field
    of `cls`, built once per class; `overrides` replaces some type hints."""
    hints = {**typing.get_type_hints(cls), **overrides}
    plan = []
    for f in dataclasses.fields(cls):
        if not f.metadata.get("save", True):
            continue
        hint = hints[f.name]
        optional = type(None) in typing.get_args(hint)
        if optional:  # X | None
            hint = next(a for a in typing.get_args(hint) if a is not type(None))
        omit = f.default is None and not f.metadata.get("save_none", False)
        plan.append((f.name, omit, optional, *_converters(hint)))
    return tuple(plan)


def _encode(value, plan=None):
    """JSON-ready record of a dataclass instance."""
    record = {}
    for name, omit, _, _, encode in plan or _plan(type(value)):
        field_value = getattr(value, name)
        if field_value is None:
            if not omit:
                record[name] = None
        else:
            record[name] = field_value if encode is None else encode(field_value)
    return record


def _decode(cls, record, plan=None):
    """A `cls` instance from its saved record. Nested dataclasses cost one
    Python frame per level, as in `_encode`, so any tree that saves loads."""
    if not isinstance(record, dict):
        raise TypeError(f"expected an object, got {type(record).__name__}")
    kwargs = {}
    for name, omit, optional, decode, _ in plan or _plan(cls):
        if name not in record:
            if omit:
                continue
            raise ValueError(f"{name}: missing")
        value = record[name]
        try:
            kwargs[name] = None if value is None and optional else decode(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return cls(**kwargs)


@dataclass(frozen=True)
class ModelBundle:
    algorithm: str
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    scaling: ScalingParams
    model: object  # an instance of the algorithm adapter's model_class

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def predict(self, raw_features) -> np.ndarray:
        """Class indices for raw (unscaled) feature rows."""
        raw = np.atleast_2d(np.asarray(raw_features, dtype=np.float64))
        if raw.shape[1] != self.n_features:
            raise ValueError(
                f"model expects {self.n_features} feature columns, got {raw.shape[1]}"
            )
        scaled = self.scaling.apply(raw)
        return algorithm_adapter(self.algorithm).predict(self.model, scaled)


def save_model(path, algorithm: str, model, scaling: ScalingParams,
               feature_names, class_names) -> None:
    bundle = ModelBundle(algorithm, tuple(feature_names), tuple(class_names), scaling, model)
    plan = _plan(ModelBundle, model=type(model))
    document = {"format": FORMAT_NAME, "version": FORMAT_VERSION, **_encode(bundle, plan)}
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def load_model(path) -> ModelBundle:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    record = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(record, dict) or record.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if record.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {record.get('version')!r}")
    try:
        model_class = algorithm_adapter(record.get("algorithm")).model_class
        return _decode(ModelBundle, record, _plan(ModelBundle, model=model_class))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
