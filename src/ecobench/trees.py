"""Decision trees grown on impurity reduction, plus bagged random forests.

Single trees split on information gain (entropy, bits); forest trees split on
Gini impurity and report per-feature importance as the mean decrease in node
impurity across the ensemble. A forest's trees grow together: each step scores
the next split of every unfinished tree in one batched array pass, and every
tree comes out as it would grown alone.
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
            # a NaN or infinite entry makes the sum non-finite, which fails too;
            # Python floats add inf and -inf to nan without a numpy warning
            if not abs(sum(dist.ravel().tolist()) - 1.0) <= 1e-12:
                raise ValueError("leaf class distribution must be finite and sum to 1")
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


# Floats in the largest array of one batched split pass, the (2, nodes,
# candidates, cuts, classes) child class counts; a block of nodes stays under
# it unless one node alone is larger.
SPLIT_BLOCK_FLOATS = 1 << 14


def _best_splits(columns, onehot, totals, criterion):
    """Best midpoint split of every node of a block, in one array pass.

    `columns` (B, k, N) holds each node's k candidate columns, +inf past the
    node's own rows; `onehot` (B, N, C) holds its one-hot labels (rows past its
    own are never counted) and `totals` (B, C) its class counts. Each column is
    presorted and both children of every boundary between distinct sorted
    values are scored at once. Returns per node the decrease, the candidate's
    position and the threshold; the decrease is -inf where no boundary exists.
    Ties favor the lowest candidate position, then the lowest threshold (the
    first maximum of the node's candidate-major decrease matrix).
    """
    n_nodes, k, width = columns.shape
    n = totals.sum(axis=1)
    ordered = np.sort(columns, axis=2, kind="stable")
    cuts = np.arange(width - 1)
    is_boundary = (ordered[:, :, 1:] > ordered[:, :, :-1]) & (cuts < (n - 1)[:, None])[:, None, :]
    order = np.argsort(columns, axis=2, kind="stable")
    parent = _impurity_of_proportions(totals / n[:, None], criterion)
    # counts[0] / counts[1]: class counts left / right of the cut after each
    # sorted position, then their proportions; every child size is exact
    counts = np.empty((2, n_nodes, k, width - 1, totals.shape[1]))
    np.cumsum(onehot[np.arange(n_nodes)[:, None, None], order[:, :, :-1]], axis=2, out=counts[0])
    np.subtract(totals[:, None, None, :], counts[0], out=counts[1])
    n_left = cuts + 1.0
    n_right = np.maximum(n[:, None] - n_left, 1.0)  # clamped only past the node's rows
    counts[0] /= n_left[:, None]
    counts[1] /= n_right[:, None, :, None]
    impurity = _impurity_of_proportions(counts, criterion)
    children = (n_left * impurity[0] + n_right[:, None, :] * impurity[1]) / n[:, None, None]
    decreases = np.where(is_boundary, parent[:, None, None] - children, -np.inf)
    best = decreases.reshape(n_nodes, -1).argmax(axis=1)
    f, i = np.divmod(best, width - 1)
    at = np.arange(n_nodes)
    lower, upper = ordered[at, f, i], ordered[at, f, i + 1]
    with np.errstate(over="ignore"):
        middle = (lower + upper) / 2.0
    # a midpoint that rounds onto the upper value (adjacent doubles) or
    # overflows would send every row left; the lower value splits them
    return decreases[at, f, i], f, np.where((middle < upper) & np.isfinite(middle), middle, lower)


class _LockstepGrower:
    """Grows the trees of a forest (or one tree) together, one split per tree per step.

    A node that passes the leaf tests waits on its tree's explicit stack, and a
    tree splits those nodes in pre-order, left subtree before right, so a deep
    tree needs no recursion and its rng draws and importance sums come in the
    order of a tree grown alone. A node is a contiguous range of its tree's row
    of `samples`, which its split reorders in place to left rows, then right
    rows; a stack entry holds the node's id, range, depth and class counts.
    """

    def __init__(self, features, labels, samples, n_classes, criterion, max_depth,
                 min_samples_split, m_try=None, rngs=None):
        self.features = features
        self.labels = labels
        n_trees, self.n_total = samples.shape
        self.samples = samples
        self.n_classes = n_classes
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.m_try = m_try
        self.rngs = rngs
        self.onehot_of = np.eye(n_classes)
        self.importance = np.zeros((n_trees, features.shape[1]))
        # per tree, node id -> leaf TreeNode, or (feature, threshold, left id, right id)
        self.nodes = [[None] for _ in range(n_trees)]
        self.stacks = [[] for _ in range(n_trees)]
        self.roots = [None] * n_trees

    def grow(self):
        """Every tree's root and the (trees, features) importance matrix.

        A step pops the top node of every unfinished tree's stack, draws each
        node's candidates from its own tree's rng and scores all of them in
        batched split passes. Nodes whose drawn columns are all constant are
        scored again over every feature, so a splittable impure node never
        turns into a leaf.
        """
        n_trees, n_features = self.importance.shape
        trees = np.arange(n_trees)
        counts = np.bincount(
            (trees[:, None] * self.n_classes + self.labels[self.samples]).ravel(),
            minlength=n_trees * self.n_classes,
        ).reshape(n_trees, self.n_classes).astype(np.float64)
        zeros = np.zeros(n_trees, dtype=np.int64)
        self._place(trees, zeros, zeros, np.full(n_trees, self.n_total), zeros, counts)
        active = self._unfinished(range(n_trees))
        draws = self.m_try is not None and self.m_try < n_features
        while active:
            ids, start, end, depth, counts = zip(*(self.stacks[t].pop() for t in active))
            tree, ids, start, end, depth = map(np.array, (active, ids, start, end, depth))
            counts = np.array(counts)
            size = end - start
            step = (tree, start, size, counts)
            # per popped node: decrease (-inf until a split is found), feature,
            # threshold, left child's row count and left child's class counts
            best = (np.full(tree.size, -np.inf), np.zeros(tree.size, dtype=np.int64),
                    np.zeros(tree.size), np.zeros(tree.size, dtype=np.int64), np.zeros_like(counts))
            decrease, feature, threshold, n_left, left_counts = best
            nodes = np.arange(tree.size)
            if draws:
                candidates = np.array([
                    self.rngs[t].choice(n_features, self.m_try, replace=False) for t in active
                ])
                candidates.sort(axis=1)
                self._score(nodes, candidates, step, best)
                nodes = np.nonzero(decrease == -np.inf)[0]
            if nodes.size:
                self._score(nodes, np.repeat(np.arange(n_features)[None, :], nodes.size, axis=0),
                            step, best)

            found = decrease > -np.inf
            self._leaves(tree[~found], ids[~found], counts[~found], size[~found])
            split = np.nonzero(found)[0]
            left_ids = []
            for t, i, n, dec, f, thr in zip(
                tree[split].tolist(), ids[split].tolist(), size[split].tolist(),
                decrease[split].tolist(), feature[split].tolist(), threshold[split].tolist(),
            ):
                self.importance[t, f] += (n / self.n_total) * max(dec, 0.0)
                nodes_of_tree = self.nodes[t]
                left = len(nodes_of_tree)
                nodes_of_tree[i] = (f, thr, left, left + 1)
                nodes_of_tree += [None, None]
                left_ids.append(left)
            # every right child is stacked before its left sibling, which ends on top
            tree, start, end, depth = tree[split], start[split], end[split], depth[split] + 1
            middle = start + n_left[split]
            left_ids = np.array(left_ids, dtype=np.int64)
            self._place(
                np.concatenate([tree, tree]),
                np.concatenate([left_ids + 1, left_ids]),
                np.concatenate([middle, start]),
                np.concatenate([end, middle]),
                np.concatenate([depth, depth]),
                np.concatenate([counts[split] - left_counts[split], left_counts[split]]),
            )
            active = self._unfinished(active)
        return self.roots, self.importance

    def _place(self, tree, ids, start, end, depth, counts):
        """Turn the nodes that fail a split test into leaves; stack the others."""
        size = end - start
        leaf = (counts.max(axis=1) == size) | (size < self.min_samples_split)
        if self.max_depth is not None:
            leaf |= depth >= self.max_depth
        self._leaves(tree[leaf], ids[leaf], counts[leaf], size[leaf])
        keep = ~leaf
        for t, *entry in zip(tree[keep].tolist(), ids[keep].tolist(), start[keep].tolist(),
                             end[keep].tolist(), depth[keep].tolist(), counts[keep].tolist()):
            self.stacks[t].append(entry)

    def _leaves(self, tree, ids, counts, size):
        """Leaf nodes, each of the majority class (ties to the lowest index)."""
        classes = counts.argmax(axis=1).tolist()
        distributions = counts / size[:, None]
        for t, i, c, distribution in zip(tree.tolist(), ids.tolist(), classes, distributions):
            self.nodes[t][i] = TreeNode(class_index=c, class_distribution=distribution)

    def _unfinished(self, trees):
        """The trees with nodes left to split; the others are assembled."""
        active = []
        for t in trees:
            if self.stacks[t]:
                active.append(t)
            else:
                self.roots[t] = _assemble(self.nodes[t])
                self.nodes[t] = None
        return active

    def _score(self, nodes, candidates, step, best):
        """Score each of `nodes` (step positions) over its row of `candidates`,
        write the found splits into `best` and reorder their rows. Nodes go in
        blocks of about equal size, each padded only to its own largest node."""
        tree, start, size, counts = step
        order = np.argsort(size[nodes], kind="stable")
        nodes, candidates = nodes[order], candidates[order]
        widths = size[nodes]
        # size classes (2^(e-1), 2^e]: a block pads each node to under twice its rows
        size_class = np.frexp(widths - 1.0)[1]
        bounds = (np.nonzero(size_class[1:] != size_class[:-1])[0] + 1).tolist()
        for lo, hi in zip([0] + bounds, bounds + [nodes.size]):
            width = int(widths[hi - 1])
            per_node = 2 * candidates.shape[1] * (width - 1) * self.n_classes
            per_block = max(1, SPLIT_BLOCK_FLOATS // per_node)
            for first in range(lo, hi, per_block):
                block = slice(first, min(first + per_block, hi))
                b, drawn = nodes[block], candidates[block]
                cut = np.arange(width)
                own = cut < size[b, None]
                pos = start[b, None] + cut * own  # padding repeats the node's first row
                rows = self.samples[tree[b, None], pos]
                columns = self.features[rows[:, None, :], drawn[:, :, None]]
                np.copyto(columns, np.inf, where=~own[:, None, :])
                onehot = self.onehot_of[self.labels[rows]]
                decrease, f, threshold = _best_splits(columns, onehot, counts[b], self.criterion)
                at = np.arange(b.size)
                # a node without a boundary has one value per column, so its
                # rows all fall on one side and keep their order
                go_left = columns[at, f] <= threshold[:, None]
                reordered = rows[at[:, None], np.argsort(~go_left, axis=1, kind="stable")]
                # padding writes the node's new first row over itself
                self.samples[tree[b, None], pos] = np.where(own, reordered, reordered[:, :1])
                best[0][b] = decrease
                best[1][b] = drawn[at, f]
                best[2][b] = threshold
                best[3][b] = go_left.sum(axis=1)
                best[4][b] = (go_left[:, None, :] @ onehot)[:, 0]  # exact: sums of 0s and 1s


def _assemble(nodes) -> TreeNode:
    """The frozen root of a tree from its nodes by id. A child's id is larger
    than its parent's, so building in reverse id order needs no recursion."""
    for i in range(len(nodes) - 1, -1, -1):
        if not isinstance(nodes[i], TreeNode):
            feature, threshold, left, right = nodes[i]
            nodes[i] = TreeNode(feature_index=feature, threshold=threshold,
                                left=nodes[left], right=nodes[right])
    return nodes[0]


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
    (root,), _ = _LockstepGrower(
        ds.features, ds.labels, np.arange(ds.n_samples)[None, :], ds.n_classes, criterion,
        max_depth, min_samples_split,
    ).grow()
    return DecisionTreeModel(
        root=root,
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
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_trees)]
    if bootstrap:
        samples = np.array([rng.integers(0, n, size=n) for rng in rngs])
    else:
        samples = np.tile(np.arange(n), (n_trees, 1))
    roots, per_tree = _LockstepGrower(
        ds.features, ds.labels, samples, ds.n_classes, "gini", max_depth, min_samples_split,
        m_try=m_try, rngs=rngs,
    ).grow()
    trees = [
        DecisionTreeModel(
            root=root,
            n_features=p,
            n_classes=ds.n_classes,
            criterion="gini",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
        )
        for root in roots
    ]
    importance = np.zeros(p)
    for row in per_tree:  # summed in tree order, one tree at a time
        importance += row
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
