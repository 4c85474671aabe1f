"""Model bundles: JSON round trips must preserve predictions exactly."""

import dataclasses
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecobench import (
    SyntheticSpec,
    generate_ecological,
    load_csv,
    load_model,
    save_model,
    standardize,
)
from ecobench.cli import entry
from ecobench.evaluation import algorithm_adapter, derive_seed, make_algorithm
from ecobench.model_io import FORMAT_NAME, FORMAT_VERSION

_CASES = {
    "DT": {},
    "RF": {"n_trees": 8},
    "ANN": {"epochs": 40},
    "SVM": {},
    "LDA": {},
    "KNN": {"k": 1},
    "LR": {"max_iter": 150},
    "NB": {},
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_round_trip_preserves_predictions(tmp_path, name):
    ds = generate_ecological(SyntheticSpec(seed=6))
    train, scaling = standardize(ds)
    spec = make_algorithm(name, **_CASES[name])
    adapter = algorithm_adapter(spec.name)
    model = adapter.fit(train, derive_seed(1, name, "fit"), spec.param_dict())
    path = tmp_path / f"{name}.json"
    save_model(path, spec.name, model, scaling, ds.feature_names, ds.class_names)

    bundle = load_model(path)
    assert bundle.algorithm == spec.name
    assert bundle.feature_names == ds.feature_names
    assert bundle.class_names == ds.class_names
    assert np.allclose(bundle.scaling.means, scaling.means)

    rng = np.random.default_rng(7)
    queries = np.vstack([ds.features, rng.normal(10.0, 6.0, size=(20, 8))])
    direct = adapter.predict(model, scaling.apply(queries))
    assert np.array_equal(bundle.predict(queries), direct)


def test_bundle_rejects_wrong_feature_width(tmp_path):
    ds = generate_ecological(SyntheticSpec(seed=8))
    train, scaling = standardize(ds)
    adapter = algorithm_adapter("NB")
    model = adapter.fit(train, 0, {})
    path = tmp_path / "nb.json"
    save_model(path, "NB", model, scaling, ds.feature_names, ds.class_names)
    bundle = load_model(path)
    with pytest.raises(ValueError, match="expects 8 feature columns"):
        bundle.predict(np.zeros((2, 5)))


def test_load_model_validates_format(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "missing.json")
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(ValueError, match=f"not a {FORMAT_NAME} file"):
        load_model(alien)
    stale = tmp_path / "stale.json"
    stale.write_text(
        json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION + 1}),
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="unsupported version"):
        load_model(stale)


def test_logistic_round_trip_drops_training_history(tmp_path):
    ds = generate_ecological(SyntheticSpec(seed=9))
    train, scaling = standardize(ds)
    adapter = algorithm_adapter("LR")
    model = adapter.fit(train, 0, {"max_iter": 50})
    assert len(model.loss_history) > 0
    path = tmp_path / "lr.json"
    save_model(path, "LR", model, scaling, ds.feature_names, ds.class_names)
    loaded = load_model(path).model
    assert loaded.loss_history == ()
    assert loaded.iterations == model.iterations
    assert loaded.final_loss == model.final_loss
    assert np.array_equal(loaded.weights, model.weights)


def _fit_case(name, seed=6):
    ds = generate_ecological(SyntheticSpec(seed=seed))
    train, scaling = standardize(ds)
    spec = make_algorithm(name, **_CASES[name])
    model = algorithm_adapter(spec.name).fit(train, derive_seed(1, name, "fit"), spec.param_dict())
    return ds, scaling, model


def _assert_identical(got, expected, where="model"):
    """Same type and value all the way down; arrays equal byte for byte."""
    assert type(got) is type(expected), where
    if isinstance(expected, np.ndarray):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), where
        assert got.tobytes() == expected.tobytes(), where
    elif isinstance(expected, tuple):
        assert len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            _assert_identical(g, e, f"{where}[{i}]")
    elif dataclasses.is_dataclass(expected):
        for f in dataclasses.fields(expected):
            if f.name != "loss_history":
                _assert_identical(getattr(got, f.name), getattr(expected, f.name),
                                  f"{where}.{f.name}")
    else:
        assert got == expected, where


@pytest.mark.parametrize("name", sorted(_CASES))
def test_round_trip_restores_every_field_exactly(tmp_path, name):
    ds, scaling, model = _fit_case(name)
    path = tmp_path / f"{name}.json"
    save_model(path, name, model, scaling, ds.feature_names, ds.class_names)
    loaded = load_model(path)
    _assert_identical(loaded.model, model)
    _assert_identical(loaded.scaling, scaling, "scaling")
    if name == "LR":
        assert loaded.model.loss_history == ()


def test_svm_without_support_vectors_round_trips(tmp_path):
    ds = generate_ecological(SyntheticSpec(seed=6))
    train, scaling = standardize(ds)
    model = algorithm_adapter("SVM").fit(train, 0, {"cost": 1e-9})
    assert all(m.n_support == 0 for m in model.machines)
    path = tmp_path / "svm.json"
    save_model(path, "SVM", model, scaling, ds.feature_names, ds.class_names)
    bundle = load_model(path)
    direct = algorithm_adapter("SVM").predict(model, scaling.apply(ds.features))
    assert np.array_equal(bundle.predict(ds.features), direct)


def _no_k(record):
    del record["model"]["k"]


def _non_object(record):
    record["model"] = [1, 2, 3]


def _no_model(record):
    del record["model"]


def _dropped_threshold(record):
    del record["model"]["threshold"][0]


def _child_out_of_range(record):
    record["model"]["left"][0] = len(record["model"]["left"])


def _child_in_next_tree(record):
    record["model"]["left"][0] = record["model"]["roots"][1]


def _roots_out_of_order(record):
    roots = record["model"]["roots"]
    roots[1], roots[2] = roots[2], roots[1]


def _text_weights(record):
    record["model"]["weights"] = "zeros"


def _null_bias(record):
    record["model"]["machines"][1]["bias"] = None


def _unknown_algorithm(record):
    record["algorithm"] = "XX"


def _null_priors(record):
    record["model"]["priors"] = None


def _number_priors(record):
    record["model"]["priors"] = 0.5


def _set(path, value):
    """A damage that writes `value` at the key and index path under the record."""
    def damage(record):
        *parents, last = path
        for key in parents:
            record = record[key]
        record[last] = value
    return damage


def _internal_value_nan(record):
    first_split = next(i for i, child in enumerate(record["model"]["left"]) if child != -1)
    record["model"]["value"][first_split][0] = float("nan")


def _drop_class_name(record):
    del record["class_names"][-1]


def _extra_class_name(record):
    record["class_names"].append("extra")


def _drop_feature_name(record):
    del record["feature_names"][-1]


def _drop_scaling_column(record):
    del record["scaling"]["means"][-1], record["scaling"]["std_devs"][-1]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, damage, message", [
    ("KNN", _no_k, "model: k: missing"),
    ("KNN", _non_object, "model: expected an object, got list"),
    ("NB", _no_model, "model: missing"),
    ("RF", _dropped_threshold, "model: threshold: expected shape ("),
    ("RF", _child_out_of_range, "model: left: node 0's children "),
    ("DT", _child_out_of_range, "model: left: node 0's children "),
    ("RF", _child_in_next_tree, "model: left: node 0's children "),
    ("RF", _roots_out_of_order, "model: roots: expected increasing node ids from 0"),
    ("LR", _text_weights, "model: weights: could not convert string to float"),
    ("SVM", _null_bias, "model: machines: bias: float() argument"),
    ("LDA", _unknown_algorithm, "unknown algorithm 'XX'"),
    ("NB", _null_priors, "model: priors: expected an array, got null"),
    ("NB", _number_priors, "model: priors: expected an array, got float"),
    ("NB", _set(("model", "means", 0, 0), _NAN), "model: means contains NaN or infinite values"),
    ("LDA", _set(("model", "class_means", 1, 2), _INF),
     "model: class_means contains NaN or infinite values"),
    ("LR", _set(("model", "weights", 0, 0), _NAN),
     "model: weights contains NaN or infinite values"),
    ("KNN", _set(("model", "features", 3, 1), -_INF),
     "model: features contains NaN or infinite values"),
    ("SVM", _set(("model", "machines", 0, "support_vectors", 0, 0), _NAN),
     "model: machines: support_vectors contains NaN or infinite values"),
    ("NB", _set(("scaling", "means", 0), _NAN), "scaling: means contains NaN or infinite values"),
    ("RF", _set(("model", "importance", 0), _NAN),
     "model: importance contains NaN or infinite values"),
    ("DT", _internal_value_nan, "model: value contains NaN or infinite values"),
    ("KNN", _set(("model", "labels", 0), 0.5), "model: labels: expected whole numbers"),
    ("SVM", _set(("model", "machines", 1, "bias"), _NAN),
     "model: machines: bias: expected a finite number, got nan"),
    ("SVM", _set(("model", "kernel", "gamma"), _INF),
     "model: kernel: gamma: expected a finite number, got inf"),
    ("SVM", _set(("model", "cost"), _INF), "model: cost: expected a finite number, got inf"),
    ("KNN", _set(("model", "k"), 3.7), "model: k: expected a whole number, got 3.7"),
    ("KNN", _set(("model", "n_classes"), 2.5),
     "model: n_classes: expected a whole number, got 2.5"),
    ("KNN", lambda record: record["model"].update(labels=[7] * len(record["model"]["labels"])),
     "model: labels: expected class indices in [0, 3)"),
    ("SVM", _set(("model", "class_pairs", 0), [0, 9]), "model: class_pairs: expected each pair"),
    # the class and feature axes of LDA and NB records must agree with each other
    ("NB", lambda record: record["model"].update(variances=record["model"]["variances"][:2]),
     "model: variances: expected shape (3, 8), got (2, 8)"),
    ("NB", lambda record: record["model"].update(
        variance_floor=record["model"]["variance_floor"][:3]),
     "model: variance_floor: expected shape (8,), got (3,)"),
    ("NB", lambda record: record["model"].update(priors=[0.5, 0.5]),
     "model: priors: expected shape (3,), got (2,)"),
    ("NB", lambda record: record["model"].update(means=record["model"]["means"][0]),
     "model: means: expected a (classes, features) matrix, got shape (8,)"),
    ("LDA", lambda record: record["model"].update(
        discriminant_axes=[axis[:3] for axis in record["model"]["discriminant_axes"]]),
     "model: discriminant_axes: expected at most 2 axes of 8 coefficients, got shape (2, 3)"),
    ("LDA", lambda record: record["model"]["discriminant_axes"].append(
        record["model"]["discriminant_axes"][0]),
     "model: discriminant_axes: expected at most 2 axes of 8 coefficients, got shape (3, 8)"),
    ("LDA", lambda record: record["model"].update(
        pooled_covariance=[row[:7] for row in record["model"]["pooled_covariance"][:7]]),
     "model: pooled_covariance: expected shape (8, 8), got (7, 7)"),
    ("LDA", lambda record: record["model"].update(priors=[0.25] * 4),
     "model: priors: expected shape (3,), got (4,)"),
    ("SVM", _set(("model", "class_pairs", 2), [0, 1]), "model: class_pairs: expected each pair"),
    *((name, _drop_class_name, "class_names: expected one name per model class (3), got 2")
      for name in sorted(_CASES)),
    ("RF", _extra_class_name, "class_names: expected one name per model class (3), got 4"),
    ("NB", _extra_class_name, "class_names: expected one name per model class (3), got 4"),
    ("ANN", _drop_feature_name,
     "feature_names: got 7 names for 8 scaling columns and 8 model features"),
    ("KNN", _drop_feature_name,
     "feature_names: got 7 names for 8 scaling columns and 8 model features"),
    ("LR", _drop_scaling_column,
     "feature_names: got 8 names for 7 scaling columns and 8 model features"),
])
def test_malformed_bundle_is_a_value_error_naming_the_field(tmp_path, name, damage, message):
    ds, scaling, model = _fit_case(name)
    path = tmp_path / f"{name}.json"
    save_model(path, name, model, scaling, ds.feature_names, ds.class_names)
    record = json.loads(path.read_text(encoding="utf-8"))
    damage(record)
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_model(path)


def _arrays(value, where):
    """(field path, array) of every ndarray inside a dataclass instance."""
    if isinstance(value, np.ndarray):
        yield where, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{where}[{i}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name), f"{where}.{f.name}")


@pytest.mark.parametrize("name", sorted(_CASES))
def test_every_array_of_a_loaded_bundle_is_read_only(tmp_path, name):
    ds, scaling, model = _fit_case(name)
    path = tmp_path / f"{name}.json"
    save_model(path, name, model, scaling, ds.feature_names, ds.class_names)
    arrays = dict(_arrays(load_model(path), "bundle"))
    assert "bundle.scaling.means" in arrays and "bundle.scaling.std_devs" in arrays
    assert [where for where, array in arrays.items() if array.flags.writeable] == []


# Bundles written by `ecobench fit`, with their predictions:
#   ecobench gen-data --out train.csv --n-per-class 4 --seed 3
#   ecobench gen-data --out rows.csv --n-per-class 5 --seed 4
#   ecobench fit --data train.csv --seed 5 --algorithm ALG [--params P] --out NAME.json
#   ecobench predict --model NAME.json --data rows.csv --out NAME.labels
# with P n_trees=3 for RF, epochs=50 for ANN, max_iter=200 for LR and
# kernel=linear for SVM-linear: every algorithm at format version 1 in
# data/v1, the tree models at format version 2 in data/v2.
_DATA = Path(__file__).parent / "data"


def _load_and_predict(directory, name):
    bundle = load_model(_DATA / directory / f"{name}.json")
    rows = load_csv(_DATA / "v1" / "rows.csv", "sediment")
    labels = [bundle.class_names[i] for i in bundle.predict(rows.features)]
    expected = (_DATA / directory / f"{name}.labels").read_text(encoding="utf-8").split()
    assert labels == expected
    return bundle


def _resave(bundle, path):
    save_model(path, bundle.algorithm, bundle.model, bundle.scaling,
               bundle.feature_names, bundle.class_names)
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name", ["DT", "RF", "ANN", "SVM", "SVM-linear", "LDA", "KNN", "LR", "NB"]
)
def test_format_1_bundles_load_predict_and_resave_unchanged(tmp_path, name):
    bundle = _load_and_predict("v1", name)
    again = _resave(bundle, tmp_path / "again.json")
    assert again["version"] == FORMAT_VERSION == 2
    if name in ("DT", "RF"):
        # a tree is saved flat now; the flat file reloads to the same model
        reloaded = load_model(tmp_path / "again.json")
        _assert_identical(reloaded.model, bundle.model)
        assert np.array_equal(reloaded.predict(load_csv(_DATA / "v1" / "rows.csv", "sediment")
                                               .features),
                              bundle.predict(load_csv(_DATA / "v1" / "rows.csv", "sediment")
                                             .features))
    else:
        original = json.loads((_DATA / "v1" / f"{name}.json").read_text(encoding="utf-8"))
        assert {**again, "version": 1} == original


@pytest.mark.parametrize("name", ["DT", "RF"])
def test_format_2_tree_bundles_load_predict_and_resave_unchanged(tmp_path, name):
    bundle = _load_and_predict("v2", name)
    original = json.loads((_DATA / "v2" / f"{name}.json").read_text(encoding="utf-8"))
    assert _resave(bundle, tmp_path / "again.json") == original
    # the same trees as their format-1 files, to the bit
    _assert_identical(bundle.model, load_model(_DATA / "v1" / f"{name}.json").model)


def test_format_1_tree_with_a_wrong_leaf_class_is_rejected(tmp_path):
    record = json.loads((_DATA / "v1" / "DT.json").read_text(encoding="utf-8"))
    leaf = record["model"]["root"]["left"]
    assert leaf["class_distribution"] == [0.0, 1.0, 0.0]
    leaf["class_index"] = 0
    path = tmp_path / "DT.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: model: root: class_index: not the largest class_distribution entry")):
        load_model(path)


# The checked-in bundle of each of the eight algorithms: the tree models in
# format 2, the others in format 1, whose records format 2 keeps as they are.
_SAVED = {name: "v2" if name in ("DT", "RF") else "v1" for name in sorted(_CASES)}


def _damage_sites(record, loaded, path=()):
    """(path, kind) of each place in a saved record one damage can go: a
    number of a whole-number field ("whole") or of a float field ("float"),
    read from the loaded value, and a nonempty list ("list")."""
    if isinstance(record, list) and record:
        yield path, "list"
        for i, item in enumerate(record):
            yield from _damage_sites(item, loaded[i], path + (i,))
    elif isinstance(record, dict):
        for key, item in record.items():
            yield from _damage_sites(item, getattr(loaded, key), path + (key,))
    elif isinstance(record, (int, float)) and not isinstance(record, bool):
        yield path, "whole" if isinstance(loaded, (int, np.integer)) else "float"


@functools.cache
def _saved_bundle(name):
    """The bundle's text, its damage sites in the model and scaling records
    and the two name lists, and the labels it predicts for rows.csv."""
    path = _DATA / _SAVED[name] / f"{name}.json"
    text = path.read_text(encoding="utf-8")
    record, bundle = json.loads(text), load_model(path)
    sites = [(("feature_names",), "names"), (("class_names",), "names")]
    for field in ("model", "scaling"):
        sites += _damage_sites(record[field], getattr(bundle, field), (field,))
    labels = (_DATA / _SAVED[name] / f"{name}.labels").read_text(encoding="utf-8")
    return text, tuple(sites), labels


# Per kind of site, the damages drawn: a non-finite number anywhere; a
# fraction, a negative or an out-of-range value (an id or a count past any
# table) in a whole-number field; a list one entry short or nested once more;
# a name list one name short or long.
_DAMAGES = {
    "float": (math.nan, math.inf),
    "whole": (math.nan, math.inf, 2.5, -1, 10**6, 2**63),
    "list": ("short", "nested"),
    "names": ("short", "long"),
}


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_bundle_predicts_its_labels_or_names_the_file(tmp_path, capsys, data):
    # an exception that escapes `entry`, RuntimeWarnings included, is a traceback
    name = data.draw(st.sampled_from(sorted(_SAVED)), label="bundle")
    text, sites, labels = _saved_bundle(name)
    # a field first, so that each field, however few its numbers, is damaged often
    field = data.draw(st.sampled_from(sorted({path[:2] for path, _ in sites})), label="field")
    path, kind = data.draw(st.sampled_from([site for site in sites if site[0][:2] == field]),
                           label="site")
    damage = data.draw(st.sampled_from(_DAMAGES[kind]), label="damage")
    record = json.loads(text)
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if damage == "short":
        parent[path[-1]] = value[:-1]
    elif damage == "nested":
        parent[path[-1]] = [value]
    elif damage == "long":
        parent[path[-1]] = value + ["extra"]
    else:
        parent[path[-1]] = damage
    model_path = tmp_path / "damaged.json"
    model_path.write_text(json.dumps(record), encoding="utf-8")
    capsys.readouterr()
    code = entry(["predict", "--model", str(model_path), "--data", str(_DATA / "v1" / "rows.csv")])
    out, err = capsys.readouterr()
    if code == 0:
        assert out == labels
    else:
        assert code == 1 and out == ""
        assert err.startswith(f"error: {model_path}: ") and err.count("\n") == 1
