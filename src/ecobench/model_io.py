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
tree node in its parent; its files still load, converted here to the flat
layout, and every other model reads the same in both formats.
"""

from __future__ import annotations

import dataclasses
import functools
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


def _format_1_tree(record) -> dict:
    """The format-2 record of a format-1 tree, whose `root` object nests
    every node: a split holds `feature_index`, `threshold`, `left` and
    `right`, a leaf `class_index` and `class_distribution`. Nodes get the
    grower's ids (the root 0, a split's children the next two free ids, in
    pre-order), and the walk keeps its own stack, so any depth converts."""
    if not isinstance(record, dict):
        raise TypeError(f"expected an object, got {type(record).__name__}")
    if "root" not in record:
        raise ValueError("root: missing")
    nodes, left, stack = [record["root"]], [-1], [0]
    while stack:
        i = stack.pop()
        node = nodes[i]
        if not isinstance(node, dict):
            raise TypeError(f"root: expected an object, got {type(node).__name__}")
        if node.get("class_index") is None:
            if any(node.get(key) is None for key in ("feature_index", "threshold", "left",
                                                     "right")):
                raise ValueError(
                    "root: internal nodes need a feature, a threshold and two children")
            left[i] = len(nodes)
            nodes += [node["left"], node["right"]]
            left += [-1, -1]
            stack += [left[i] + 1, left[i]]
    leaves = [i for i, child in enumerate(left) if child == -1]
    try:
        distribution = np.array([nodes[i].get("class_distribution") for i in leaves],
                                dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"root: class_distribution: {exc}") from None
    if distribution.ndim != 2:
        raise ValueError("root: class_distribution: expected one vector per leaf")
    if (np.isfinite(distribution).all()
            and [nodes[i]["class_index"] for i in leaves] != distribution.argmax(axis=1).tolist()):
        raise ValueError("root: class_index: not the largest class_distribution entry")
    value = np.zeros((len(nodes), distribution.shape[1]))
    value[leaves] = distribution
    flat = {key: item for key, item in record.items() if key != "root"}
    flat.update(
        feature=[-1 if i == -1 else node["feature_index"] for node, i in zip(nodes, left)],
        threshold=[0.0 if i == -1 else node["threshold"] for node, i in zip(nodes, left)],
        left=left,
        value=value,
    )
    return flat


def _format_1_forest(record) -> dict:
    """The format-2 record of a format-1 forest: its list of tree records
    becomes one node table, tree after tree."""
    if not isinstance(record, dict):
        raise TypeError(f"expected an object, got {type(record).__name__}")
    trees = record.get("trees")
    if not isinstance(trees, list) or not trees:
        raise ValueError("trees: expected a nonempty list of trees")
    try:
        flat = [_format_1_tree(tree) for tree in trees]
        roots = np.cumsum([0] + [len(tree["left"]) for tree in flat[:-1]])
        left = [np.array(tree["left"]) for tree in flat]
        value = np.concatenate([tree["value"] for tree in flat])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trees: {exc}") from None
    forest = {key: item for key, item in record.items() if key != "trees"}
    forest.update(
        max_depth=flat[0].get("max_depth"),
        min_samples_split=flat[0].get("min_samples_split"),
        roots=roots,
        feature=[f for tree in flat for f in tree["feature"]],
        threshold=[t for tree in flat for t in tree["threshold"]],
        left=np.concatenate([np.where(ids == -1, -1, ids + r) for ids, r in zip(left, roots)]),
        value=value,
    )
    return forest


# Readers of the format-1 tree and forest records, in place of the model class
_FORMAT_1_MODELS = {
    DecisionTreeModel: lambda record: _decode(DecisionTreeModel, _format_1_tree(record)),
    ForestModel: lambda record: _decode(ForestModel, _format_1_forest(record)),
}


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
        if version == 1:
            model_class = _FORMAT_1_MODELS.get(model_class, model_class)
        return _decode(ModelBundle, record, _plan(ModelBundle, model=model_class))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
