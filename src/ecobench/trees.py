"""Decision trees grown on impurity reduction, plus bagged random forests.

Single trees split on information gain (entropy, bits); forest trees split on
Gini impurity and report per-feature importance as the mean decrease in node
impurity across the ensemble.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, as_rows, top_class


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a class-count vector; 0*log(0) counts as 0."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError(f"class_counts must be a nonempty vector, got shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("class counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("entropy of all-zero counts is undefined")
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum(p_i^2) of a class-count vector."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError(f"class_counts must be a nonempty vector, got shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("class counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("Gini impurity of all-zero counts is undefined")
    p = counts / total
    return float(1.0 - (p * p).sum())


def conditional_entropy(partition) -> float:
    """Size-weighted mean entropy of the parts of a partition."""
    parts = [np.asarray(part, dtype=np.float64) for part in partition]
    if not parts:
        raise ValueError("partition must contain at least one part")
    sizes = np.array([part.sum() for part in parts])
    total = sizes.sum()
    if total <= 0:
        raise ValueError("every partition part is empty")
    acc = 0.0
    for part, size in zip(parts, sizes):
        if size > 0:
            acc += (size / total) * entropy(part)
    return float(acc)


def information_gain(parent, partition) -> float:
    """Entropy reduction from splitting `parent` counts into `partition`."""
    parent = np.asarray(parent, dtype=np.float64)
    merged = np.zeros_like(parent)
    for part in partition:
        merged = merged + np.asarray(part, dtype=np.float64)
    if merged.shape != parent.shape or not np.array_equal(merged, parent):
        raise ValueError("partition parts must sum exactly to the parent counts")
    return entropy(parent) - conditional_entropy(partition)


@dataclass(frozen=True)
class TreeNode:
    """Internal split node (feature/threshold/children) or leaf (class/distribution)."""

    feature_index: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    class_index: int | None = None
    class_distribution: np.ndarray | None = None

    def __post_init__(self):
        if self.class_index is not None:
            dist = np.asarray(self.class_distribution, dtype=np.float64)
            object.__setattr__(self, "class_distribution", dist)
            if abs(dist.sum() - 1.0) > 1e-12:
                raise ValueError("leaf class distribution must sum to 1")
            dist.flags.writeable = False
        elif (self.feature_index is None or self.threshold is None
              or self.left is None or self.right is None):
            raise ValueError("internal nodes need a feature, a threshold and two children")

    @property
    def is_leaf(self) -> bool:
        return self.class_index is not None


@dataclass(frozen=True)
class DecisionTreeModel:
    root: TreeNode
    n_features: int
    n_classes: int
    criterion: str
    max_depth: int | None
    min_samples_split: int


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[DecisionTreeModel, ...]
    n_trees: int
    m_try: int
    seed: int
    importance: np.ndarray
    n_features: int
    n_classes: int

    def __post_init__(self):
        imp = np.asarray(self.importance, dtype=np.float64)
        object.__setattr__(self, "importance", imp)
        object.__setattr__(self, "trees", tuple(self.trees))
        if len(self.trees) != self.n_trees or self.n_trees < 1:
            raise ValueError("forest must hold exactly n_trees fitted trees")
        if imp.shape != (self.n_features,) or np.any(imp < 0):
            raise ValueError("importance must be one nonnegative entry per feature")
        imp.flags.writeable = False


def _impurity_of_proportions(p: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of each class-proportion vector along the last axis of `p`.

    `p` is C-contiguous with classes last, so every class sum is reduced in
    numpy's one fixed (pairwise) order whatever the leading axes are.
    """
    if criterion == "entropy":
        terms = np.zeros_like(p)
        mask = p > 0
        terms[mask] = p[mask] * np.log2(p[mask])
        return -terms.sum(axis=-1)
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    raise ValueError(f"unknown criterion {criterion!r}")


def _best_split(features, onehot, candidates, criterion):
    """Best (decrease, feature, threshold) over midpoint splits, or None.

    Every candidate column is presorted and scored in one array pass: both
    children of every boundary between distinct sorted values at once.
    Ties favor the lowest feature index, then the lowest threshold (the
    first maximum of the feature-major decrease matrix).
    """
    n, n_classes = onehot.shape
    columns = features[:, candidates].T
    ordered = np.sort(columns, axis=1, kind="stable")
    is_boundary = ordered[:, 1:] > ordered[:, :-1]
    if not is_boundary.any():
        return None
    order = np.argsort(columns, axis=1, kind="stable")
    total_counts = onehot.sum(axis=0)
    parent = _impurity_of_proportions(total_counts / n, criterion)
    # counts[0] / counts[1]: class counts left / right of the cut after each
    # sorted position; sizes holds their exact row totals
    counts = np.empty((2, columns.shape[0], n - 1, n_classes))
    np.cumsum(onehot[order[:, :-1]], axis=1, out=counts[0])
    np.subtract(total_counts, counts[0], out=counts[1])
    n_left = np.arange(1.0, n)
    sizes = np.stack([n_left, n - n_left])[:, None, :, None]
    impurity = _impurity_of_proportions(counts / sizes, criterion)
    children = (n_left * impurity[0] + (n - n_left) * impurity[1]) / n
    decreases = np.where(is_boundary, parent - children, -np.inf)
    f, i = divmod(int(decreases.argmax()), n - 1)
    threshold = float((ordered[f, i] + ordered[f, i + 1]) / 2.0)
    return float(decreases[f, i]), int(candidates[f]), threshold


class _TreeBuilder:
    """Stack-based grower shared by single trees and forest members."""

    def __init__(self, features, labels, n_classes, criterion, max_depth,
                 min_samples_split, m_try=None, rng=None):
        self.features = features
        self.labels = labels
        self.n_classes = n_classes
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.m_try = m_try
        self.rng = rng
        self.n_total = labels.size
        self.n_features = features.shape[1]
        self.importance = np.zeros(self.n_features)
        self.onehot_of = np.eye(n_classes)

    def grow(self) -> TreeNode:
        """Split nodes in pre-order, left subtree before right, from an explicit
        stack, so a deep tree needs no recursion and the rng draws and importance
        sums happen in a fixed order; then build the frozen nodes bottom-up."""
        preorder = []
        stack = [(np.arange(self.n_total), 0)]
        while stack:
            indices, depth = stack.pop()
            split = self._split(indices, depth)
            if isinstance(split, TreeNode):
                preorder.append(split)
                continue
            feature, threshold, go_left = split
            preorder.append((feature, threshold))
            stack.append((indices[~go_left], depth + 1))
            stack.append((indices[go_left], depth + 1))
        # in reversed pre-order both subtrees of a split are built before it,
        # its left child on top of the stack
        built = []
        for entry in reversed(preorder):
            if not isinstance(entry, TreeNode):
                left = built.pop()
                right = built.pop()
                entry = TreeNode(feature_index=entry[0], threshold=entry[1], left=left, right=right)
            built.append(entry)
        return built.pop()

    def _leaf(self, counts, n) -> TreeNode:
        return TreeNode(class_index=int(np.argmax(counts)), class_distribution=counts / n)

    def _split(self, indices, depth):
        """A leaf for these rows, or their best (feature, threshold, go-left mask)."""
        labels = self.labels[indices]
        n = indices.size
        counts = np.bincount(labels, minlength=self.n_classes).astype(np.float64)
        if (
            counts.max() == n
            or (self.max_depth is not None and depth >= self.max_depth)
            or n < self.min_samples_split
        ):
            return self._leaf(counts, n)

        features = self.features[indices]
        onehot = self.onehot_of[labels]
        if self.m_try is not None and self.m_try < self.n_features:
            candidates = np.sort(self.rng.choice(self.n_features, self.m_try, replace=False))
            best = _best_split(features, onehot, candidates, self.criterion)
            if best is None:
                # subset had only constant columns here; widen so a splittable
                # impure node never turns into a leaf
                best = _best_split(features, onehot, range(self.n_features), self.criterion)
        else:
            best = _best_split(features, onehot, range(self.n_features), self.criterion)
        if best is None:
            return self._leaf(counts, n)

        decrease, feature, threshold = best
        self.importance[feature] += (n / self.n_total) * max(decrease, 0.0)
        return feature, threshold, features[:, feature] <= threshold


def fit_decision_tree(
    ds: Dataset,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    criterion: str = "entropy",
) -> DecisionTreeModel:
    """Grow a binary-split tree greedily; impure nodes split until no distinct
    feature values remain, so consistent data is always fit exactly."""
    if ds.n_samples < 1:
        raise ValueError("cannot fit a tree on an empty dataset")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if min_samples_split < 2:
        raise ValueError(f"min_samples_split must be at least 2, got {min_samples_split}")
    if criterion not in ("entropy", "gini"):
        raise ValueError(f"criterion must be 'entropy' or 'gini', got {criterion!r}")
    builder = _TreeBuilder(
        ds.features, ds.labels, ds.n_classes, criterion, max_depth, min_samples_split
    )
    return DecisionTreeModel(
        root=builder.grow(),
        n_features=ds.n_features,
        n_classes=ds.n_classes,
        criterion=criterion,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
    )


def _route(root: TreeNode, rows: np.ndarray) -> np.ndarray:
    """Leaf class of every row of an (m, p) matrix: each node splits its whole
    block of rows at once; values equal to a threshold go left, NaN goes right."""
    labels = np.empty(rows.shape[0], dtype=np.int64)
    stack = [(root, np.arange(rows.shape[0]))]
    while stack:
        node, at = stack.pop()
        if node.is_leaf:
            labels[at] = node.class_index
            continue
        go_left = rows[at, node.feature_index] <= node.threshold
        for child, block in ((node.left, at[go_left]), (node.right, at[~go_left])):
            if block.size:
                stack.append((child, block))
    return labels


def predict_tree(model: DecisionTreeModel, x):
    """Class index of one row (an int), or of each row of an (m, p) matrix (an
    (m,) array); values equal to a threshold go left, NaN goes right."""
    rows, single = as_rows(x, model.n_features)
    labels = _route(model.root, rows)
    return int(labels[0]) if single else labels


def fit_random_forest(
    ds: Dataset,
    n_trees: int = 500,
    m_try: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
    max_depth: int | None = None,
    min_samples_split: int = 2,
) -> ForestModel:
    """Bag Gini trees on bootstrap resamples, a fresh m_try-feature subset per split.

    Per-tree randomness comes from independent children of one seed sequence,
    so results do not depend on build order. `bootstrap=False` is a test hook
    that trains every tree on the full sample.
    """
    if ds.n_samples < 1:
        raise ValueError("cannot fit a forest on an empty dataset")
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    p = ds.n_features
    if m_try is None:
        m_try = max(1, int(np.sqrt(p)))
    if not 1 <= m_try <= p:
        raise ValueError(f"m_try must be in [1, {p}], got {m_try}")

    n = ds.n_samples
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    importance = np.zeros(p)
    for t in range(n_trees):
        rng = np.random.default_rng(children[t])
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        builder = _TreeBuilder(
            ds.features[rows],
            ds.labels[rows],
            ds.n_classes,
            "gini",
            max_depth,
            min_samples_split,
            m_try=m_try,
            rng=rng,
        )
        root = builder.grow()
        importance += builder.importance
        trees.append(
            DecisionTreeModel(
                root=root,
                n_features=p,
                n_classes=ds.n_classes,
                criterion="gini",
                max_depth=max_depth,
                min_samples_split=min_samples_split,
            )
        )
    importance = np.maximum(importance / n_trees, 0.0)
    return ForestModel(
        trees=tuple(trees),
        n_trees=n_trees,
        m_try=m_try,
        seed=seed,
        importance=importance,
        n_features=p,
        n_classes=ds.n_classes,
    )


def _staged_votes(model: ForestModel, rows: np.ndarray):
    """The (m, n_classes) vote tally after each tree in turn, updated in place."""
    votes = np.zeros((rows.shape[0], model.n_classes), dtype=np.int64)
    at = np.arange(rows.shape[0])
    for tree in model.trees:
        votes[at, _route(tree.root, rows)] += 1
        yield votes


def forest_votes(model: ForestModel, x) -> np.ndarray:
    """Per-class vote counts over the forest's trees: (n_classes,) for one row,
    (m, n_classes) for an (m, p) matrix."""
    rows, single = as_rows(x, model.n_features)
    for votes in _staged_votes(model, rows):
        pass
    return votes[0] if single else votes


def predict_forest(model: ForestModel, x):
    """Majority vote over the trees, for one row (an int) or each row of an
    (m, p) matrix (an (m,) array); ties go to the lowest class index."""
    return top_class(forest_votes(model, x))


def forest_error_trace(model: ForestModel, train: Dataset, holdout: Dataset | None = None) -> str:
    """CSV of ensemble error rate versus tree count (majority vote over the
    first t trees): resubstitution error on `train`, plus holdout error when a
    held-out dataset is supplied."""

    def staged_errors(ds: Dataset) -> np.ndarray:
        rows, _ = as_rows(ds.features, model.n_features)
        return np.array([
            float(np.mean(np.argmax(votes, axis=1) != ds.labels))
            for votes in _staged_votes(model, rows)
        ])

    resub = staged_errors(train)
    held = staged_errors(holdout) if holdout is not None else None
    out = io.StringIO()
    writer = csv.writer(out)
    header = ["n_trees", "resubstitution_error"] + (
        ["holdout_error"] if held is not None else []
    )
    writer.writerow(header)
    for t in range(model.n_trees):
        row = [t + 1, f"{resub[t]:.10g}"]
        if held is not None:
            row.append(f"{held[t]:.10g}")
        writer.writerow(row)
    return out.getvalue()
