"""Save and load fitted models as self-describing JSON bundles.

A bundle records the algorithm, the training schema (feature and class
names), the standardization parameters, and the model itself, so a saved
model can score new feature files exactly as the in-process one would.

One codec writes every model from its dataclass fields, in field order: an
array becomes a nested list, a tuple a list, a nested dataclass an object
and None null. A field whose metadata has "save": False is not written
(LR's loss history) and loads as its default; every other field must be
present. Loading converts each value by the field's type hint (arrays load
as float64 and a null or bare number in an array field is rejected; a float
must be finite, an int whole), and a malformed file is a ValueError naming
the bad field.

Format 2 saves a tree, and a forest, as flat per-node lists (`feature`,
`threshold`, `left`, `value`, and a forest's `roots`). Format 1 nested each
tree node in its parent: a format-1 DT or RF file is refused and must be
fitted again, while every other model reads the same in both formats.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ScalingParams
from .evaluation import algorithm_adapter
from .trees import DecisionTreeModel, ForestModel

FORMAT_NAME = "ecobench-model"
FORMAT_VERSION = 2


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
    return {float: _decode_float, int: _decode_int}.get(hint, hint), None


def _decode_float(value) -> float:
    """A finite float from a JSON number."""
    if not math.isfinite(number := float(value)):
        raise ValueError(f"expected a finite number, got {number}")
    return number


def _decode_int(value) -> int:
    """An int from a JSON whole number (3 or 3.0, not 3.5, true or "3")."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _decode_array(value) -> np.ndarray:
    """A float64 array from a nested list; null or a bare number is no array."""
    array = np.array(value, dtype=np.float64)
    if array.ndim == 0:
        got = "null" if value is None else type(value).__name__
        raise ValueError(f"expected an array, got {got}")
    return array


@functools.cache
def _plan(cls, **overrides) -> tuple:
    """(name, may be None, decode, encode) per saved field of `cls`, built
    once per class; `overrides` replaces some type hints."""
    hints = {**typing.get_type_hints(cls), **overrides}
    plan = []
    for f in dataclasses.fields(cls):
        if not f.metadata.get("save", True):
            continue
        hint = hints[f.name]
        optional = type(None) in typing.get_args(hint)
        if optional:  # X | None
            hint = next(a for a in typing.get_args(hint) if a is not type(None))
        plan.append((f.name, optional, *_converters(hint)))
    return tuple(plan)


def _encode(value, plan=None):
    """JSON-ready record of a dataclass instance."""
    record = {}
    for name, _, _, encode in plan or _plan(type(value)):
        field_value = getattr(value, name)
        if field_value is not None and encode is not None:
            field_value = encode(field_value)
        record[name] = field_value
    return record


def _decode(cls, record, plan=None):
    """A `cls` instance from its saved record."""
    if not isinstance(record, dict):
        raise TypeError(f"expected an object, got {type(record).__name__}")
    kwargs = {}
    for name, optional, decode, _ in plan or _plan(cls):
        if name not in record:
            raise ValueError(f"{name}: missing")
        value = record[name]
        try:
            kwargs[name] = None if value is None and optional else decode(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return cls(**kwargs)


def _number_lines(values: list, indent: str) -> str | None:
    """The items of `values`, a list of finite ints and floats or of equal
    rows of them, as `json.dumps(..., indent=2)` writes them inside the
    list's brackets at nesting `indent`, joined from `repr`s; None for any
    other list."""
    line = ",\n" + indent
    kinds = set(map(type, values))
    if kinds <= {int, float}:
        text = line.join(map(repr, values))
    elif (kinds == {list} and values[0] and len(set(map(len, values))) == 1
          and set(map(type, itertools.chain.from_iterable(values))) <= {int, float}):
        deeper = indent + "  "
        row = "[\n" + deeper + (",\n" + deeper).join(["%r"] * len(values[0])) + "\n" + indent + "]"
        text = line.join([row % tuple(items) for items in values])
    else:
        return None
    # the repr of a non-finite float is nan, inf or -inf, where JSON writes
    # NaN or Infinity; no finite number's repr holds an n
    return None if "n" in text else indent + text


def _indented_json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` of a value at nesting `indent`, byte for
    byte. With an indent, `json` runs its pure-Python encoder; the model
    arrays, lists of numbers or of their rows, are written here from joined
    `repr`s instead, and everything else, down to its numbers, by `json`."""
    inner = indent + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        return "{\n" + ",\n".join(f"{inner}{json.dumps(key)}: {_indented_json(item, inner)}"
                                   for key, item in value.items()) + "\n" + indent + "}"
    if type(value) is list and value:
        text = _number_lines(value, inner) or ",\n".join(
            inner + _indented_json(item, inner) for item in value)
        return "[\n" + text + "\n" + indent + "]"
    # no string JSON writes holds a raw newline, so this indents every line
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


@dataclass(frozen=True)
class ModelBundle:
    algorithm: str
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    scaling: ScalingParams
    model: object  # an instance of the algorithm adapter's model_class

    def __post_init__(self):
        n_classes, n_features = self.model.n_classes, self.model.n_features
        if len(self.class_names) != n_classes:
            raise ValueError(f"class_names: expected one name per model class ({n_classes}), "
                             f"got {len(self.class_names)}")
        width = self.scaling.means.shape[0]
        if not len(self.feature_names) == width == n_features:
            raise ValueError(f"feature_names: got {len(self.feature_names)} names for "
                             f"{width} scaling columns and {n_features} model features")

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
    Path(path).write_text(_indented_json(document) + "\n", encoding="utf-8")


def load_model(path) -> ModelBundle:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(record, dict) or record.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    version = record.get("version")
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported version {version!r}")
    try:
        model_class = algorithm_adapter(record.get("algorithm")).model_class
        if version == 1 and model_class in (DecisionTreeModel, ForestModel):
            raise ValueError(f"a version 1 {record['algorithm']} model no longer loads; "
                             "fit it again")
        return _decode(ModelBundle, record, _plan(ModelBundle, model=model_class))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
