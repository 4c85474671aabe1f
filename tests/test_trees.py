"""Impurity functions, single decision trees, and bagged forests."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecobench import (
    Dataset,
    conditional_entropy,
    entropy,
    fit_decision_tree,
    fit_random_forest,
    forest_error_trace,
    forest_votes,
    gini_impurity,
    information_gain,
    predict_forest,
    predict_tree,
)
from ecobench import trees
from ecobench.trees import DecisionTreeModel, _best_splits, _impurity_of_proportions


def _names(p):
    return tuple(f"f{j}" for j in range(p))


def _blob_dataset(seed, n_per=20, p=4, c=3, gap=6.0):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(gap * j, 1.0, size=(n_per, p)) for j in range(c)]
    labels = np.repeat(np.arange(c), n_per)
    return Dataset(np.vstack(blocks), labels, _names(p), tuple("XYZWV"[:c]))


def test_entropy_known_values():
    assert entropy([5, 5]) == 1.0
    assert entropy([7, 0]) == 0.0
    assert entropy([1, 1, 1, 1]) == 2.0
    assert entropy([2] * 8) == 3.0
    assert entropy([9, 5]) == pytest.approx(0.9402859586706311)


def test_entropy_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        entropy([3, -1])
    with pytest.raises(ValueError, match="all-zero"):
        entropy([0, 0])
    with pytest.raises(ValueError, match="nonempty"):
        entropy([])


def test_gini_known_values():
    assert gini_impurity([5, 5]) == 0.5
    assert gini_impurity([4, 0]) == 0.0
    assert gini_impurity([1, 1, 1, 1]) == 0.75
    with pytest.raises(ValueError, match="all-zero"):
        gini_impurity([0, 0])


def test_entropy_and_gini_are_the_split_pass_impurity_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        counts = rng.integers(0, 50, size=rng.integers(1, 12)).astype(np.float64)
        counts[rng.integers(counts.size)] += 1.0  # a positive total
        p = counts / counts.sum()
        for impurity, criterion in ((entropy, "entropy"), (gini_impurity, "gini")):
            got, expected = impurity(counts), _impurity_of_proportions(p, criterion)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), counts


def test_conditional_entropy_is_weighted_mean():
    parts = ([3, 0], [1, 2])
    expected = (3 / 6) * 0.0 + (3 / 6) * entropy([1, 2])
    assert conditional_entropy(parts) == pytest.approx(expected)
    with pytest.raises(ValueError, match="at least one part"):
        conditional_entropy([])


def test_information_gain_manual_case():
    parent = [4, 2]
    partition = ([3, 0], [1, 2])
    expected = entropy(parent) - conditional_entropy(partition)
    assert information_gain(parent, partition) == pytest.approx(expected)


def test_information_gain_requires_exact_partition():
    with pytest.raises(ValueError, match="sum exactly"):
        information_gain([4, 2], ([3, 0], [1, 1]))


def test_information_gain_nonnegative_over_random_partitions():
    rng = np.random.default_rng(31)
    for _ in range(300):
        c = int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=int(rng.integers(2, 120)))
        mask = rng.random(labels.size) < rng.random()
        left = np.bincount(labels[mask], minlength=c)
        right = np.bincount(labels[~mask], minlength=c)
        parent = left + right
        if parent.sum() == 0:
            continue
        assert information_gain(parent, (left, right)) >= -1e-12


def test_tree_reproduces_consistent_data_exactly():
    ds = _blob_dataset(41, gap=1.0)
    model = fit_decision_tree(ds)
    predicted = [predict_tree(model, x) for x in ds.features]
    assert np.array_equal(predicted, ds.labels)


def test_tree_handles_zero_gain_root_split():
    # both features have zero gain at the root, yet the data is consistent
    features = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    ds = Dataset(features, labels, ("a", "b"), ("even", "odd"))
    model = fit_decision_tree(ds)
    assert [predict_tree(model, x) for x in features] == [0, 1, 1, 0]


def test_tree_leaf_majority_on_contradictory_rows():
    ds = Dataset([[1.0], [1.0], [1.0]], [1, 0, 1], ("a",), ("X", "Y"))
    model = fit_decision_tree(ds)
    assert model.root.is_leaf
    assert predict_tree(model, [1.0]) == 1
    tie = Dataset([[2.0], [2.0]], [1, 0], ("a",), ("X", "Y"))
    assert predict_tree(fit_decision_tree(tie), [2.0]) == 0


def test_tree_threshold_is_midpoint_and_ties_go_left():
    ds = Dataset([[1.0], [3.0]], [0, 1], ("a",), ("X", "Y"))
    model = fit_decision_tree(ds)
    assert model.root.threshold == 2.0
    assert predict_tree(model, [2.0]) == 0
    assert predict_tree(model, [2.0001]) == 1


_EPS = np.finfo(float).eps

# Fits a DT (both criteria, and depth 1), a forest of full-sample trees and a
# bagged forest on the 3-row column in argv[1] (labels 0, 1, 0), with every
# warning an error; prints each DT's thresholds in pre-order and the labels.
_GROW_IN_CHILD = """
import json, sys
import numpy as np
from ecobench import Dataset, fit_decision_tree, fit_random_forest, predict_forest, predict_tree

column = np.array(json.loads(sys.argv[1]))[:, None]
ds = Dataset(column, [0, 1, 0], ("x",), ("A", "B"))

def thresholds(node):
    return [] if node.is_leaf else [node.threshold, *thresholds(node.left), *thresholds(node.right)]

out = {}
for criterion in ("entropy", "gini"):
    tree = fit_decision_tree(ds, criterion=criterion)
    out[criterion] = [thresholds(tree.root), predict_tree(tree, column).tolist()]
out["depth1"] = predict_tree(fit_decision_tree(ds, max_depth=1), column).tolist()
out["full"] = predict_forest(fit_random_forest(ds, n_trees=7, bootstrap=False), column).tolist()
out["bagged"] = predict_forest(fit_random_forest(ds, n_trees=50, seed=3), column).tolist()
print(json.dumps(out))
"""


@pytest.mark.parametrize(
    "column",
    [(1.0, 1.0 + _EPS, 1.0 + 2 * _EPS), (1e308, 1.5e308, 1.7e308), (-1e308, -1.5e308, -1.7e308)],
    ids=["adjacent-doubles", "midpoint-overflows", "midpoint-overflows-below"],
)
def test_grower_terminates_when_the_midpoint_is_not_between_the_values(column):
    # the midpoint of 1+eps and 1+2eps rounds onto 1+2eps, and that of 1e308
    # and 1.5e308 overflows; either would send every row left and grow the
    # same node forever, so the fit runs in a child process under a time limit
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _GROW_IN_CHILD, json.dumps(column)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    for criterion in ("entropy", "gini"):
        # each cut falls back to its lower value: the root's, then its right child's
        assert out[criterion] == [sorted(column)[:2], [0, 1, 0]]
    assert out["depth1"] == [0, 0, 0]
    assert out["full"] == [0, 1, 0]
    assert len(out["bagged"]) == 3


def _stump(**arrays):
    """A one-split tree over 2 features and 2 classes, with some arrays replaced."""
    table = dict(feature=[1, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                 value=[[0.0, 0.0], [1.0, 0.0], [0.25, 0.75]])
    table.update(arrays)
    return DecisionTreeModel(n_features=2, n_classes=2, criterion="gini", max_depth=None,
                             min_samples_split=2, **table)


def test_leaf_rejects_a_non_finite_distribution():
    for distribution in ([np.nan, np.nan], [np.inf, 0.0], [1.5, np.nan], [np.inf, -np.inf],
                         [0.5, 0.6]):
        with pytest.raises(ValueError, match="value: leaf 2's class distribution is not finite "
                                             "or does not sum to 1"):
            _stump(value=[[0.0, 0.0], [1.0, 0.0], distribution])
    leaf = _stump().root.right
    assert leaf.is_leaf and leaf.class_index == 1
    assert leaf.class_distribution.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("arrays, message", [
    ({"threshold": [0.5, 0.0]}, "threshold: expected shape (3,) for 3 nodes, got (2,)"),
    ({"value": [[0.0, 0.0], [1.0, 0.0]]}, "value: expected shape (3, 2) for 3 nodes, got (2, 2)"),
    ({"left": []}, "left: expected one entry per node and at least one node"),
    ({"left": [2, -1, -1]}, "left: node 0's children 2 and 3 are not later nodes of its tree"),
    ({"left": [0, -1, -1]}, "left: node 0's children 0 and 1 are not later nodes of its tree"),
    ({"left": [-2, -1, -1]}, "left: node 0's children -2 and -1 are not later nodes of its tree"),
    ({"left": [1.5, -1, -1]}, "left: expected whole numbers"),
    ({"feature": [2, -1, -1]}, "feature: node 0 splits on feature 2 of 2"),
    ({"feature": [-1, -1, -1]}, "feature: node 0 splits on feature -1 of 2"),
    ({"threshold": [np.nan, 0.0, 0.0]}, "threshold: node 0 has a non-finite threshold"),
    ({"threshold": [-np.inf, 0.0, 0.0]}, "threshold: node 0 has a non-finite threshold"),
    ({"threshold": [0.5, np.nan, 0.0]}, "threshold contains NaN or infinite values"),
])
def test_tree_model_rejects_a_node_table_the_sweep_cannot_route(arrays, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _stump(**arrays)


def test_root_view_reads_the_node_arrays():
    model = fit_decision_tree(_blob_dataset(5, gap=1.0))
    seen, stack = [], [model.root]
    while stack:
        node = stack.pop()
        seen.append(node.index)
        i = node.index
        if node.is_leaf:
            assert model.left[i] == -1 and node.left is None and node.right is None
            assert node.feature_index is None and node.threshold is None
            assert node.class_index == int(np.argmax(model.value[i]))
            assert node.class_distribution.tobytes() == model.value[i].tobytes()
        else:
            assert (node.left.index, node.right.index) == (model.left[i], model.left[i] + 1)
            assert node.feature_index == model.feature[i] and node.class_index is None
            assert node.threshold == model.threshold[i] and node.class_distribution is None
            stack += [node.right, node.left]
    assert sorted(seen) == list(range(model.left.size))
    assert not model.value.flags.writeable and not model.left.flags.writeable


def test_tree_split_tie_breaks_prefer_low_feature_then_low_threshold():
    ds = Dataset([[0.0, 0.0], [1.0, 1.0]], [0, 1], ("a", "b"), ("X", "Y"))
    assert fit_decision_tree(ds).root.feature_index == 0
    ds = Dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], ("a",), ("X", "Y"))
    # gains tie at thresholds 0.5 and 2.5; the lower one must win
    assert fit_decision_tree(ds).root.threshold == 0.5


def _impurity_of_rows_loop(counts, criterion):
    """Row impurities as the per-feature split loop computed them."""
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    if criterion == "entropy":
        terms = np.zeros_like(p)
        mask = p > 0
        terms[mask] = p[mask] * np.log2(p[mask])
        return -terms.sum(axis=1)
    return 1.0 - (p * p).sum(axis=1)


def _best_split_loop(features, onehot, candidates, criterion):
    """Reference split search: one candidate feature per Python iteration."""
    n = onehot.shape[0]
    total_counts = onehot.sum(axis=0)
    parent = float(_impurity_of_rows_loop(total_counts[None, :], criterion)[0])
    best = None
    for f in candidates:
        values = features[:, f]
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        boundaries = np.flatnonzero(ordered[1:] > ordered[:-1])
        if boundaries.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        left_counts = cum[boundaries]
        right_counts = total_counts[None, :] - left_counts
        n_left = left_counts.sum(axis=1)
        n_right = n - n_left
        children = (
            n_left * _impurity_of_rows_loop(left_counts, criterion)
            + n_right * _impurity_of_rows_loop(right_counts, criterion)
        ) / n
        decreases = parent - children
        i = int(np.argmax(decreases))
        if best is None or decreases[i] > best[0]:
            lower, upper = ordered[boundaries[i]], ordered[boundaries[i] + 1]
            with np.errstate(over="ignore"):
                middle = (lower + upper) / 2.0
            # the midpoint, or the lower value where it rounds onto the upper
            # one or overflows
            threshold = float(middle if middle < upper and np.isfinite(middle) else lower)
            best = (float(decreases[i]), int(f), threshold)
    return best


def _split_tables(rng):
    """(features, labels, n_classes) for every class count of the generator:
    continuous and few-level columns, constant and duplicated columns, n = 2."""
    for c in range(2, 11):
        for trial in range(8):
            n = int(rng.integers(3, 45))
            p = int(rng.integers(1, 7))
            if trial % 2:
                features = rng.integers(0, int(rng.integers(2, 5)), size=(n, p)).astype(float)
            else:
                features = rng.normal(size=(n, p))
            if trial % 4 == 1 and p > 1:
                features[:, -1] = features[:, 0]
            if trial % 4 == 3:
                features[:, rng.random(p) < 0.5] = 2.5
            yield features, rng.integers(0, c, size=n), c
        yield np.full((6, 3), 1.0), rng.integers(0, c, size=6), c
        yield np.array([[0.0, 4.0], [1.0, 4.0]]), np.array([0, c - 1]), c
        yield np.array([[3.0], [3.0]]), np.array([0, c - 1]), c


def _sequential_class_sum_differs(onehot):
    """Whether some prefix's Gini class sum rounds differently added left to right."""
    cum = np.cumsum(onehot, axis=0)
    squares = (cum / cum.sum(axis=1, keepdims=True)) ** 2
    sequential = np.zeros(squares.shape[0])
    for j in range(squares.shape[1]):
        sequential = sequential + squares[:, j]
    return bool(np.any(sequential != squares.sum(axis=1)))


def test_best_split_is_bit_identical_to_per_feature_loop():
    rng = np.random.default_rng(2024)
    compared = nones = feature_ties = reorder_sensitive = 0
    for features, labels, c in _split_tables(rng):
        onehot = np.eye(c)[labels]
        p = features.shape[1]
        subsets = [np.sort(rng.choice(p, int(rng.integers(1, p + 1)), replace=False))]
        for candidates in [range(p)] + subsets:
            for criterion in ("gini", "entropy"):
                expected = _best_split_loop(features, onehot, candidates, criterion)
                block = _best_splits(
                    features[:, list(candidates)].T[None], labels[None], onehot.sum(axis=0)[None],
                    criterion,
                )
                decrease, f, threshold = (value[0] for value in block[:3])
                got = None if decrease == -np.inf else (decrease, candidates[f], threshold)
                compared += 1
                if expected is None:
                    assert got is None
                    nones += 1
                    continue
                decrease, feature, threshold = got
                assert feature == expected[1]
                assert np.float64(decrease).tobytes() == np.float64(expected[0]).tobytes()
                assert np.float64(threshold).tobytes() == np.float64(expected[2]).tobytes()
                feature_ties += any(
                    g > feature and np.array_equal(features[:, g], features[:, feature])
                    for g in candidates
                )
        reorder_sensitive += c >= 8 and _sequential_class_sum_differs(onehot)
    assert compared > 300 and nones > 0 and feature_ties > 0 and reorder_sensitive > 0


class _PerNodeGrower:
    """Reference grower: one node of one tree per iteration, in pre-order from an
    explicit stack, splitting with the per-feature loop; a split's children
    take the next two free node ids. `events` counts the nodes that widened
    their drawn candidates and the impure nodes left as leaves because no
    column had two distinct values."""

    def __init__(self, features, labels, n_classes, criterion, max_depth,
                 min_samples_split, m_try=None, rng=None, events=None):
        self.features = features
        self.labels = labels
        self.n_classes = n_classes
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.m_try = m_try
        self.rng = rng
        self.events = events if events is not None else {}
        self.n_total = labels.size
        self.n_features = features.shape[1]
        self.importance = np.zeros(self.n_features)

    def grow(self):
        """The tree's (feature, threshold, left, value) node arrays."""
        feature, threshold, left, value = [-1], [0.0], [-1], [np.zeros(self.n_classes)]
        stack = [(np.arange(self.n_total), 0, 0)]
        while stack:
            indices, depth, i = stack.pop()
            split = self._split(indices, depth)
            if isinstance(split, np.ndarray):
                value[i] = split
                continue
            feature[i], threshold[i], go_left = split
            left[i] = len(left)
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            value += [np.zeros(self.n_classes)] * 2
            stack.append((indices[~go_left], depth + 1, left[i] + 1))
            stack.append((indices[go_left], depth + 1, left[i]))
        return np.array(feature), np.array(threshold), np.array(left), np.array(value)

    def _split(self, indices, depth):
        """The leaf class distribution, or (feature, threshold, go-left mask)."""
        labels = self.labels[indices]
        n = indices.size
        counts = np.bincount(labels, minlength=self.n_classes).astype(np.float64)
        if (
            counts.max() == n
            or (self.max_depth is not None and depth >= self.max_depth)
            or n < self.min_samples_split
        ):
            return counts / n
        features = self.features[indices]
        onehot = np.eye(self.n_classes)[labels]
        every = range(self.n_features)
        if self.m_try is not None and self.m_try < self.n_features:
            candidates = np.sort(self.rng.choice(self.n_features, self.m_try, replace=False))
            best = _best_split_loop(features, onehot, candidates, self.criterion)
            if best is None:
                self.events["widened"] = self.events.get("widened", 0) + 1
                best = _best_split_loop(features, onehot, every, self.criterion)
        else:
            best = _best_split_loop(features, onehot, every, self.criterion)
        if best is None:
            self.events["impure_leaves"] = self.events.get("impure_leaves", 0) + 1
            return counts / n
        decrease, feature, threshold = best
        self.events["negative"] = self.events.get("negative", 0) + (decrease < 0)
        go_left = features[:, feature] <= threshold
        self.events["at_threshold"] = self.events.get("at_threshold", 0) + bool(
            np.any(features[go_left, feature] == threshold)
        )
        self.importance[feature] += (n / self.n_total) * max(decrease, 0.0)
        return feature, threshold, go_left


def _per_node_forest(ds, n_trees, m_try, seed, bootstrap=True, max_depth=None,
                     min_samples_split=2, events=None):
    """Node arrays of each tree and the importance of `fit_random_forest`,
    one tree after another."""
    children = np.random.SeedSequence(seed).spawn(n_trees)
    grown, importance = [], np.zeros(ds.n_features)
    for child in children:
        rng = np.random.default_rng(child)
        n = ds.n_samples
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        grower = _PerNodeGrower(ds.features[rows], ds.labels[rows], ds.n_classes, "gini",
                                max_depth, min_samples_split, m_try=m_try, rng=rng, events=events)
        grown.append(grower.grow())
        importance += grower.importance
    return grown, np.maximum(importance / n_trees, 0.0)


def _assert_same_nodes(model, expected):
    """Node for node: the model's arrays equal the reference's, floats byte for byte."""
    feature, threshold, left, value = expected
    assert model.feature.dtype == model.left.dtype == np.int64
    assert model.threshold.dtype == model.value.dtype == np.float64
    assert np.array_equal(model.left, left)
    split = left != -1
    assert np.array_equal(model.feature[split], feature[split])
    assert np.all(model.feature[~split] == -1)
    assert model.threshold.tobytes() == threshold.tobytes()
    assert model.value.tobytes() == value.tobytes()


def _growth_tables(rng, sizes=(2, 3, 5, 12, 30, 64, 200)):
    """Datasets with continuous, few-level, constant and duplicated columns,
    and rows that repeat with different labels, at each size; then a column of
    two adjacent doubles, whose midpoint rounds onto the lower one, and a
    table whose second Gini split keeps its parent's class mix (a decrease
    that rounds below zero) after a first split on the same feature."""
    for n in sizes:
        for trial in range(3):
            p = int(rng.integers(1, 7))
            c = int(rng.integers(2, 6))
            if trial == 0:
                x = rng.normal(size=(n, p))
            else:
                x = rng.integers(0, int(rng.integers(2, 5)), size=(n, p)).astype(float)
            if trial == 2 and p > 1:
                x[:, rng.random(p) < 0.5] = 1.5
                x[:, -1] = x[:, 0]
            y = rng.integers(0, c, size=n)
            y[: min(2, n)] = [0, c - 1][: min(2, n)]
            yield Dataset(x, y, _names(p), tuple(f"c{j}" for j in range(c)))
    adjacent = 1.0 + (np.arange(12.0) % 2)[:, None] * np.finfo(float).eps
    yield Dataset(adjacent, np.arange(12) % 3 == 0, _names(1), ("A", "B"))
    x = np.repeat([0.0, 1.0, 2.0], [9, 15, 10])[:, None]
    yield Dataset(x, np.r_[np.arange(24) % 3, np.zeros(10, int)], _names(1), ("A", "B", "C"))


def test_lockstep_tree_matches_per_node_grower():
    events = {}
    rng = np.random.default_rng(7)
    tables = list(_growth_tables(rng)) + [_blob_dataset(3, n_per=300, p=3, gap=1.0)]
    for ds in tables:
        for criterion in ("entropy", "gini"):
            for max_depth, min_samples_split in ((None, 2), (3, 5)):
                model = fit_decision_tree(ds, max_depth=max_depth, criterion=criterion,
                                          min_samples_split=min_samples_split)
                grower = _PerNodeGrower(ds.features, ds.labels, ds.n_classes, criterion,
                                        max_depth, min_samples_split, events=events)
                _assert_same_nodes(model, grower.grow())
    assert tables[-1].n_samples == 900
    assert events["impure_leaves"] > 0 and events["at_threshold"] > 0


@pytest.mark.parametrize("settings", [
    {},
    {"m_try": "p"},
    {"bootstrap": False, "m_try": 1},
    {"max_depth": 2},
    {"min_samples_split": 6},
])
def test_lockstep_forest_matches_per_tree_grower(settings):
    events = {}
    rng = np.random.default_rng(11)
    tables = list(_growth_tables(rng)) + [_blob_dataset(5, n_per=300, p=5, gap=1.0)]
    for seed, ds in enumerate(tables):
        kwargs = dict(settings)
        if kwargs.get("m_try") == "p":
            kwargs["m_try"] = ds.n_features
        n_trees = 3 if ds.n_samples > 200 else 7
        model = fit_random_forest(ds, n_trees=n_trees, seed=seed, **kwargs)
        kwargs.pop("m_try", None)
        grown, importance = _per_node_forest(ds, n_trees, model.m_try, seed, events=events,
                                             **kwargs)
        for tree, expected in zip(model.trees, grown):
            _assert_same_nodes(tree, expected)
        assert model.importance.tobytes() == importance.tobytes()
    if "m_try" not in settings:
        assert events["widened"] > 0
    if settings.get("bootstrap") is False:
        assert events["negative"] > 0


def test_lockstep_forest_in_many_blocks_matches_per_tree_grower(monkeypatch):
    blocks = []
    best_splits = trees._best_splits

    def recording(columns, labels, totals, criterion):
        # each block pads its nodes to under twice their own row counts
        assert columns.shape[2] < 2 * totals.sum(axis=1).min()
        blocks.append(columns.shape)
        return best_splits(columns, labels, totals, criterion)

    monkeypatch.setattr(trees, "_best_splits", recording)
    ds = _blob_dataset(9, n_per=25, p=6, gap=1.5)
    grown, importance = _per_node_forest(ds, 40, 2, 4)
    for budget in (1, 600, trees.SPLIT_BLOCK_FLOATS):
        monkeypatch.setattr(trees, "SPLIT_BLOCK_FLOATS", budget)
        blocks.clear()
        model = fit_random_forest(ds, n_trees=40, m_try=2, seed=4)
        for tree, expected in zip(model.trees, grown):
            _assert_same_nodes(tree, expected)
        assert model.importance.tobytes() == importance.tobytes()
        widest = max(nodes for nodes, _, _ in blocks)
        if budget == 1:
            assert widest == 1
        else:
            assert widest > 1 and all(
                nodes * 2 * k * (width - 1) * ds.n_classes <= budget
                for nodes, k, width in blocks if nodes > 1
            )


_SUBSET_SHAPES = [(2, 1), (8, 1), (8, 2), (8, 3), (8, 7), (10001, 200), (10001, 201),
                  (20000, 401)]


@pytest.mark.parametrize("block_raws", [2, trees.STREAM_BLOCK_RAWS])
@pytest.mark.parametrize("n", [1, 2, 3, 29, 30, 675])
def test_tree_streams_replay_numpy_integers_and_choice(monkeypatch, block_raws, n):
    # (10001, 200) is the largest Floyd draw numpy makes, (10001, 201) and
    # (20000, 401) shuffle the tail of range(p); a 2-raw block is refilled
    # within almost every draw
    monkeypatch.setattr(trees, "STREAM_BLOCK_RAWS", block_raws)
    for seed in (0, 1, 2):
        streams = trees._TreeStreams(seed, 3)
        generators = [np.random.default_rng(child)
                      for child in np.random.SeedSequence(seed).spawn(3)]
        samples = streams.bootstrap(n)
        for t, rng in enumerate(generators):
            assert np.array_equal(samples[t], rng.integers(0, n, size=n))
        for p, m in _SUBSET_SHAPES + _SUBSET_SHAPES[:5]:
            subsets = streams.subsets(np.arange(3), p, m)
            for t, rng in enumerate(generators):
                assert np.array_equal(subsets[t], np.sort(rng.choice(p, m, replace=False)))


@pytest.mark.parametrize("block_raws", [2, trees.STREAM_BLOCK_RAWS])
@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1, 2**128 + 5])
def test_tree_streams_compute_numpy_spawned_pcg64_words(monkeypatch, block_raws, seed):
    # 2**128 + 5 has five 32-bit entropy words, one past SeedSequence's pool
    monkeypatch.setattr(trees, "STREAM_BLOCK_RAWS", block_raws)
    for n_trees in (1, 3, 500, 2000):
        children = np.random.SeedSequence(seed).spawn(n_trees)
        streams = trees._TreeStreams(seed, n_trees)
        # a bound of 2**32 rejects no word and draws the word itself
        words = streams._draws(np.arange(n_trees), np.full(10, 2**32))
        raws = np.array([np.random.PCG64(child).random_raw(5) for child in children])
        assert np.array_equal(words, np.stack((raws & 0xFFFFFFFF, raws >> 32), axis=2)
                              .reshape(n_trees, 10).astype(np.int64))
        # then a bootstrap of 75 rows reads on from word 10
        samples = streams.bootstrap(75)
        for t in (0, n_trees // 2, n_trees - 1):
            rng = np.random.default_rng(children[t])
            rng.integers(0, 2**32, size=10)
            assert np.array_equal(samples[t], rng.integers(0, 75, size=75))


def test_forest_seed_is_a_nonnegative_integer():
    ds = _blob_dataset(5, n_per=5)
    with pytest.raises(ValueError, match="nonnegative"):
        fit_random_forest(ds, n_trees=2, seed=-1)
    for seed in (1.0, 2.5, "3", None, [1, 2], np.float64(4.0)):
        with pytest.raises(TypeError):
            fit_random_forest(ds, n_trees=2, seed=seed)
    # every word of a large seed counts, as in numpy's SeedSequence, and a
    # numpy integer is its value
    for seed in (2**64 + 3, 2**128 + 3, np.uint64(3)):
        model = fit_random_forest(ds, n_trees=4, seed=seed)
        grown, importance = _per_node_forest(ds, 4, model.m_try, int(seed))
        for tree, expected in zip(model.trees, grown):
            _assert_same_nodes(tree, expected)
        assert model.importance.tobytes() == importance.tobytes()


# PCG64's 128-bit state multiplier: a state s steps to s * M + inc, whose
# output is the new state itself when it is below 2**64
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state_before(target):
    """A PCG64 state whose next raw output is `target` (< 2**64)."""
    state = np.random.PCG64(0).state
    inc = state["state"]["inc"]
    state["state"]["state"] = (target - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    return state


def test_tree_streams_redraw_a_rejected_word():
    # a low half of 0 scales to 0 mod 2**32, under the rejection threshold
    # (2**32 - b) % b of every bound b below that is not a power of 2
    state = _pcg64_state_before(0x9E3779B9 << 32)
    check = np.random.PCG64()
    check.state = state
    assert int(check.random_raw()) == 0x9E3779B9 << 32

    def fresh():
        streams = trees._TreeStreams(0, 1)
        pcg = state["state"]
        streams.state[:, 0] = pcg["state"] >> 64, pcg["state"] & (2**64 - 1)
        streams.inc[:, 0] = pcg["inc"] >> 64, pcg["inc"] & (2**64 - 1)
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state
        return streams, rng

    one = np.arange(1)
    streams, rng = fresh()
    assert np.array_equal(streams._draws(one, np.full(4, 7))[0], rng.integers(0, 7, size=4))
    streams, rng = fresh()
    assert np.array_equal(streams.subsets(one, 8, 3)[0], np.sort(rng.choice(8, 3, replace=False)))
    # the bootstrap redraws its row, and the next subset reads on from there
    streams, rng = fresh()
    assert np.array_equal(streams.bootstrap(7)[0], rng.integers(0, 7, size=7))
    assert np.array_equal(streams.subsets(one, 8, 3)[0], np.sort(rng.choice(8, 3, replace=False)))


@pytest.mark.parametrize("seed, at", [(3176, 58), (1489, 1980), (2843, 725)])
def test_forest_bootstrap_skips_a_rejected_word(seed, at):
    n = 2000
    child = np.random.SeedSequence(seed).spawn(1)[0]
    raws = np.random.PCG64(child).random_raw(n // 2)
    scaled = np.stack((raws & 0xFFFFFFFF, raws >> 32), axis=1).ravel() * np.uint64(n)
    rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < (2**32 - n) % n)
    assert rejected.tolist() == [at]
    expected = np.random.default_rng(child).integers(0, n, size=n)
    assert not np.array_equal((scaled >> 32).astype(np.int64), expected)
    assert np.array_equal(trees._TreeStreams(seed, 1).bootstrap(n)[0], expected)
    ds = _blob_dataset(5, n_per=1000, p=3, c=2, gap=1.0)
    model = fit_random_forest(ds, n_trees=1, seed=seed, max_depth=2)
    grown, importance = _per_node_forest(ds, 1, model.m_try, seed, max_depth=2)
    _assert_same_nodes(model.trees[0], grown[0])
    assert model.importance.tobytes() == importance.tobytes()


def test_forest_fit_makes_no_numpy_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit_random_forest made a numpy seed sequence, bit generator "
                             "or Generator")

    ds = _blob_dataset(3, n_per=10, p=5, gap=1.0)
    for name in ("default_rng", "Generator", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    model = fit_random_forest(ds, n_trees=20, seed=9)
    assert model.n_trees == 20


def test_first_trees_of_a_forest_equal_a_smaller_forest():
    ds = _blob_dataset(21, n_per=15, p=5, gap=1.0)
    small = fit_random_forest(ds, n_trees=4, seed=8)
    large = fit_random_forest(ds, n_trees=13, seed=8)
    for a, b in zip(small.trees, large.trees[:4]):
        _assert_same_nodes(a, (b.feature, b.threshold, b.left, b.value))


def test_tree_depth_and_split_size_limits():
    ds = _blob_dataset(43)
    stump = fit_decision_tree(ds, max_depth=0)
    assert stump.root.is_leaf
    capped = fit_decision_tree(ds, max_depth=1)
    assert not capped.root.is_leaf
    assert capped.root.left.is_leaf and capped.root.right.is_leaf
    blocked = fit_decision_tree(ds, min_samples_split=ds.n_samples + 1)
    assert blocked.root.is_leaf


def test_tree_gini_criterion_also_fits_exactly():
    ds = _blob_dataset(47, gap=1.5)
    model = fit_decision_tree(ds, criterion="gini")
    assert all(predict_tree(model, x) == y for x, y in zip(ds.features, ds.labels))


def test_tree_fit_validation():
    ds = _blob_dataset(53)
    with pytest.raises(ValueError, match="criterion"):
        fit_decision_tree(ds, criterion="variance")
    with pytest.raises(ValueError, match="max_depth"):
        fit_decision_tree(ds, max_depth=-1)
    with pytest.raises(ValueError, match="min_samples_split"):
        fit_decision_tree(ds, min_samples_split=1)
    model = fit_decision_tree(ds)
    with pytest.raises(ValueError, match="expected 4 feature values"):
        predict_tree(model, [1.0, 2.0])
    with pytest.raises(ValueError, match="expected 4 feature values, got 3"):
        predict_tree(model, np.zeros((5, 3)))
    forest = fit_random_forest(ds, n_trees=2)
    with pytest.raises(ValueError, match="expected 4 feature values, got 5"):
        predict_forest(forest, np.zeros((2, 5)))


def test_forest_prediction_is_the_vote_mode():
    ds = _blob_dataset(59, gap=2.0)
    model = fit_random_forest(ds, n_trees=15, seed=3)
    rng = np.random.default_rng(61)
    for x in rng.normal(3.0, 4.0, size=(25, ds.n_features)):
        votes = forest_votes(model, x)
        assert votes.sum() == model.n_trees
        per_tree = [predict_tree(tree, x) for tree in model.trees]
        expected = np.argmax(np.bincount(per_tree, minlength=ds.n_classes))
        assert predict_forest(model, x) == expected


def _oracle_leaf(root, x, equal_hits):
    """Reference walk of one row from the root; counts rows landing exactly on a threshold."""
    node = root
    while not node.is_leaf:
        equal_hits[0] += x[node.feature_index] == node.threshold
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node.class_index


def _probe_rows(models, p, rng):
    """Random rows, rows set exactly to node thresholds, and rows with NaN cells."""
    thresholds = [[] for _ in range(p)]
    stack = [tree.root for tree in models]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            thresholds[node.feature_index].append(node.threshold)
            stack += (node.left, node.right)
    plain = rng.normal(0.0, 4.0, size=(40, p))
    exact = plain.copy()
    for f in range(p):
        if thresholds[f]:
            exact[:, f] = rng.choice(thresholds[f], size=exact.shape[0])
    holes = plain.copy()
    holes[rng.random(holes.shape) < 0.3] = np.nan
    return np.vstack([plain, exact, holes])


def test_batch_tree_labels_equal_per_row_walk():
    rng = np.random.default_rng(7)
    hits = [0]
    for seed in range(4):
        ds = _blob_dataset(200 + seed, gap=1.5)
        for criterion in ("entropy", "gini"):
            model = fit_decision_tree(ds, criterion=criterion)
            rows = _probe_rows([model], ds.n_features, rng)
            expected = [_oracle_leaf(model.root, x, hits) for x in rows]
            labels = predict_tree(model, rows)
            assert labels.shape == (rows.shape[0],)
            assert labels.tolist() == expected
            assert predict_tree(model, rows[:1]).tolist() == expected[:1]
            assert [predict_tree(model, x) for x in rows] == expected
    assert hits[0] > 0


def test_batch_forest_labels_equal_per_row_vote():
    rng = np.random.default_rng(11)
    hits, ties = [0], 0
    for seed in range(3):
        ds = _blob_dataset(300 + seed, gap=1.0)
        model = fit_random_forest(ds, n_trees=8, seed=seed)
        rows = _probe_rows(model.trees, ds.n_features, rng)
        expected_votes, expected = [], []
        for x in rows:
            votes = np.zeros(ds.n_classes, dtype=np.int64)
            for tree in model.trees:
                votes[_oracle_leaf(tree.root, x, hits)] += 1
            top = [c for c in range(ds.n_classes) if votes[c] == votes.max()]
            ties += len(top) > 1
            expected_votes.append(votes)
            expected.append(top[0])
        assert np.array_equal(forest_votes(model, rows), expected_votes)
        assert predict_forest(model, rows).tolist() == expected
        assert predict_forest(model, rows[:1]).tolist() == expected[:1]
        assert [predict_forest(model, x) for x in rows] == expected
    assert hits[0] > 0 and ties > 0


def test_forest_seed_determinism():
    ds = _blob_dataset(67, gap=1.0)
    a = fit_random_forest(ds, n_trees=20, seed=11)
    b = fit_random_forest(ds, n_trees=20, seed=11)
    c = fit_random_forest(ds, n_trees=20, seed=12)
    assert np.array_equal(a.importance, b.importance)
    grid = np.random.default_rng(71).normal(size=(30, ds.n_features))
    assert all(predict_forest(a, x) == predict_forest(b, x) for x in grid)
    assert not np.array_equal(a.importance, c.importance)


def test_forest_defaults_and_m_try():
    ds = _blob_dataset(73, n_per=5, p=9)
    model = fit_random_forest(ds, n_trees=3)
    assert model.n_trees == 3
    assert model.m_try == 3
    wide = fit_random_forest(ds, n_trees=2, m_try=9)
    assert wide.m_try == 9


def test_forest_importance_ignores_constant_feature():
    rng = np.random.default_rng(79)
    labels = np.repeat([0, 1], 20)
    informative = rng.normal(size=(40, 2)) + 4.0 * labels[:, None]
    features = np.column_stack([informative, np.full(40, 5.0)])
    ds = Dataset(features, labels, ("a", "b", "const"), ("X", "Y"))
    model = fit_random_forest(ds, n_trees=20, seed=1, m_try=2)
    assert np.all(model.importance >= 0.0)
    assert model.importance[2] == 0.0
    assert model.importance[:2].sum() > 0.0


def test_forest_without_bootstrap_fits_training_data():
    ds = _blob_dataset(83, gap=1.5)
    model = fit_random_forest(ds, n_trees=10, seed=5, bootstrap=False)
    assert all(predict_forest(model, x) == y for x, y in zip(ds.features, ds.labels))


def test_forest_error_trace_format():
    ds = _blob_dataset(89, n_per=8, gap=2.0)
    hold = _blob_dataset(97, n_per=4, gap=2.0)
    model = fit_random_forest(ds, n_trees=6, seed=2)
    text = forest_error_trace(model, ds, hold)
    lines = text.strip().splitlines()
    assert lines[0] == "n_trees,resubstitution_error,holdout_error"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1"
    for line in lines[1:]:
        _, resub, held = line.split(",")
        assert 0.0 <= float(resub) <= 1.0
        assert 0.0 <= float(held) <= 1.0
    resub_only = forest_error_trace(model, ds)
    assert resub_only.strip().splitlines()[0] == "n_trees,resubstitution_error"


def _assert_error_trace_matches_oracle(model, ds, hold):
    """`forest_error_trace` equals a per-row, tree-by-tree vote tally."""

    def staged(data):
        tallies = np.zeros((data.n_samples, model.n_classes), dtype=np.int64)
        errors = []
        for tree in model.trees:
            for i, x in enumerate(data.features):
                tallies[i, _oracle_leaf(tree.root, x, [0])] += 1
            errors.append(float(np.mean(np.argmax(tallies, axis=1) != data.labels)))
        return errors

    resub, held = staged(ds), staged(hold)
    with_holdout = "n_trees,resubstitution_error,holdout_error\r\n" + "".join(
        f"{t + 1},{resub[t]:.10g},{held[t]:.10g}\r\n" for t in range(model.n_trees)
    )
    resub_only = "n_trees,resubstitution_error\r\n" + "".join(
        f"{t + 1},{resub[t]:.10g}\r\n" for t in range(model.n_trees)
    )
    assert forest_error_trace(model, ds, hold) == with_holdout
    assert forest_error_trace(model, ds) == resub_only


def test_forest_error_trace_matches_per_row_oracle():
    ds = _blob_dataset(103, n_per=10, gap=1.0)
    hold = _blob_dataset(107, n_per=6, gap=1.0)
    _assert_error_trace_matches_oracle(fit_random_forest(ds, n_trees=9, seed=4), ds, hold)


def test_forest_validation():
    ds = _blob_dataset(101)
    with pytest.raises(ValueError, match="n_trees"):
        fit_random_forest(ds, n_trees=0)
    with pytest.raises(ValueError, match="m_try"):
        fit_random_forest(ds, n_trees=2, m_try=0)
    with pytest.raises(ValueError, match="m_try"):
        fit_random_forest(ds, n_trees=2, m_try=ds.n_features + 1)
    with pytest.raises(ValueError, match="max_depth"):
        fit_random_forest(ds, n_trees=2, max_depth=-1)
    with pytest.raises(ValueError, match="min_samples_split"):
        fit_random_forest(ds, n_trees=2, min_samples_split=1)


# Adversarial tables for the oracle suite: per column, normal draws, a few
# levels, adjacent doubles (1, 1+eps, 1+2eps), huge values whose midpoints
# overflow, a constant, or a copy of the previous column; 2 to 12 classes, the
# first few of them with one row each.
_COLUMN_KINDS = ("normal", "levels", "adjacent", "huge", "constant", "duplicate")
_ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _adversarial_tables(draw):
    c = draw(st.integers(2, 12))
    n = draw(st.integers(2, 24))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "normal":
            column = rng.normal(size=n)
        elif kind == "levels":
            column = rng.integers(0, 3, size=n).astype(float)
        elif kind == "adjacent":
            column = 1.0 + rng.integers(0, 3, size=n) * _EPS
        elif kind == "huge":
            column = rng.choice([1e308, 1.5e308, 1.7e308, -1e308, -1.5e308], size=n)
        elif kind == "constant":
            column = np.full(n, 2.5)
        else:
            column = columns[-1].copy() if columns else np.full(n, -1.0)
        columns.append(column)
    singles = draw(st.integers(0, min(c, n) - 1))
    labels = np.r_[np.arange(singles), rng.integers(singles, c, size=n - singles)]
    return Dataset(np.column_stack(columns), rng.permutation(labels), _names(len(kinds)),
                   tuple(f"c{j}" for j in range(c)))


@_ORACLE_SETTINGS
@given(_adversarial_tables(), st.sampled_from(["entropy", "gini"]),
       st.sampled_from([None, 1, 3]), st.integers(0, 2**32 - 1))
def test_flat_tree_matches_per_node_grower_on_adversarial_tables(ds, criterion, max_depth, seed):
    model = fit_decision_tree(ds, max_depth=max_depth, criterion=criterion)
    grower = _PerNodeGrower(ds.features, ds.labels, ds.n_classes, criterion, max_depth, 2)
    _assert_same_nodes(model, grower.grow())
    rows = _probe_rows([model], ds.n_features, np.random.default_rng(seed))
    assert predict_tree(model, rows).tolist() == [_oracle_leaf(model.root, x, [0]) for x in rows]


@_ORACLE_SETTINGS
@given(_adversarial_tables(), st.integers(1, 7), st.integers(0, 2**16),
       st.sampled_from([None, 2]), st.booleans())
def test_flat_forest_matches_per_tree_grower_on_adversarial_tables(ds, n_trees, seed, max_depth,
                                                                    bootstrap):
    model = fit_random_forest(ds, n_trees=n_trees, seed=seed, max_depth=max_depth,
                              bootstrap=bootstrap)
    grown, importance = _per_node_forest(ds, n_trees, model.m_try, seed, bootstrap=bootstrap,
                                         max_depth=max_depth)
    for tree, expected in zip(model.trees, grown):
        _assert_same_nodes(tree, expected)
    assert model.importance.tobytes() == importance.tobytes()
    rows = _probe_rows(model.trees, ds.n_features, np.random.default_rng(seed))
    votes = np.zeros((rows.shape[0], ds.n_classes), dtype=np.int64)
    for i, x in enumerate(rows):
        for tree in model.trees:
            votes[i, _oracle_leaf(tree.root, x, [0])] += 1
    assert np.array_equal(forest_votes(model, rows), votes)
    finite = rows[np.isfinite(rows).all(axis=1)]
    hold = Dataset(finite, np.arange(finite.shape[0]) % ds.n_classes, ds.feature_names,
                   ds.class_names)
    _assert_error_trace_matches_oracle(model, ds, hold)
