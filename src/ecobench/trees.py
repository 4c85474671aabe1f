"""Decision trees grown on impurity reduction, plus bagged random forests.

Single trees split on information gain (entropy, bits); forest trees split on
Gini impurity and report per-feature importance as the mean decrease in node
impurity across the ensemble. A forest's trees grow together: each step scores
the next split of every unfinished tree in one batched array pass, and every
tree comes out as it would grown alone. A tree is flat node arrays and a
forest one such table; prediction moves every (tree, row) pair one level down
per array step.
"""

from __future__ import annotations

import csv
import functools
import io
import operator
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, as_rows, freeze_arrays, top_class


def _proportions(class_counts) -> np.ndarray:
    """Class proportions of a nonempty, nonnegative count vector whose total is positive."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError(f"class_counts must be a nonempty vector, got shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("class counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("impurity of all-zero counts is undefined")
    return counts / total


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a class-count vector; 0*log(0) counts as 0."""
    return float(_impurity_of_proportions(_proportions(class_counts), "entropy"))


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum(p_i^2) of a class-count vector."""
    return float(_impurity_of_proportions(_proportions(class_counts), "gini"))


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


def _checked_nodes(model, roots: np.ndarray) -> None:
    """Freeze `model`'s node arrays in place and reject any table the level
    sweep could not route: arrays of unequal length, a child id outside its
    tree or not above its parent's (so every walk moves down and ends), a
    split feature out of range, a non-finite split threshold, or a leaf class
    distribution that is not finite or does not sum to 1. `roots` holds the
    first node id of each tree; a tree's nodes run up to the next root."""
    freeze_arrays(model, np.int64, "left", "feature")
    left, feature = model.left, model.feature
    threshold = np.asarray(model.threshold, dtype=np.float64)
    value = np.asarray(model.value, dtype=np.float64)
    if left.ndim != 1 or left.shape[0] < 1:
        raise ValueError(f"left: expected one entry per node and at least one node, "
                         f"got shape {left.shape}")
    n = left.shape[0]
    if roots[-1] >= n:
        raise ValueError(f"roots: tree {roots.size - 1} starts past the last node")
    for name, array, shape in (("feature", feature, (n,)), ("threshold", threshold, (n,)),
                               ("value", value, (n, model.n_classes))):
        if array.shape != shape:
            raise ValueError(f"{name}: expected shape {shape} for {n} nodes, got {array.shape}")
    split = np.flatnonzero(left != -1)
    children = left[split]
    if roots.size > 1:
        ends = np.append(roots[1:], n)
        end = ends[np.searchsorted(roots, split, side="right") - 1]
    else:
        end = n
    bad = (children <= split) | (children + 1 >= end)
    if bad.any():
        at = split[bad.argmax()]
        raise ValueError(f"left: node {at}'s children {left[at]} and {left[at] + 1} are not "
                         "later nodes of its tree")
    used = feature[split]
    bad = (used < 0) | (used >= model.n_features)
    if bad.any():
        at = split[bad.argmax()]
        raise ValueError(f"feature: node {at} splits on feature {feature[at]} "
                         f"of {model.n_features}")
    bad = ~np.isfinite(threshold[split])
    if bad.any():
        raise ValueError(f"threshold: node {split[bad.argmax()]} has a non-finite threshold")
    leaves = left == -1
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN sums fail the test
        bad = ~(np.abs(value[leaves].sum(axis=1) - 1.0) <= 1e-12)
    if bad.any():
        at = np.flatnonzero(leaves)[bad.argmax()]
        raise ValueError(f"value: leaf {at}'s class distribution is not finite "
                         "or does not sum to 1")
    freeze_arrays(model, np.float64, "threshold", "value")


class NodeView:
    """One node of a tree model, read from its `left` array: whether it is a
    leaf, and an internal node's two children. Holds only the model and the
    node id. Node contents are read from the arrays; the view is kept only for
    the benchmark's tracer, which counts nodes by walking
    `DecisionTreeModel.root`, until it counts them from `left.size`."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: "DecisionTreeModel", index: int):
        self.tree = tree
        self.index = index

    @property
    def is_leaf(self) -> bool:
        return bool(self.tree.left[self.index] == -1)

    @property
    def left(self) -> "NodeView | None":
        return None if self.is_leaf else NodeView(self.tree, int(self.tree.left[self.index]))

    @property
    def right(self) -> "NodeView | None":
        return None if self.is_leaf else NodeView(self.tree, int(self.tree.left[self.index]) + 1)


@dataclass(frozen=True)
class DecisionTreeModel:
    """A fitted tree as flat node arrays, the struct-of-arrays layout of
    scikit-learn's `Tree`. Node 0 is the root. An internal node sends a row
    whose `feature` value is at most its `threshold` to child `left` and any
    other row, NaN included, to child `left + 1`; both ids are larger than
    its own. A leaf has `left` and `feature` -1, threshold 0 and its class
    distribution in its row of `value`; an internal node's row is zeros."""

    n_features: int
    n_classes: int
    criterion: str
    max_depth: int | None
    min_samples_split: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        _checked_nodes(self, np.zeros(1, dtype=np.int64))

    @property
    def root(self) -> NodeView:
        return NodeView(self, 0)

    @functools.cached_property
    def _sweep(self):
        return _sweep_table(np.zeros(1, dtype=np.int64), self)


@dataclass(frozen=True)
class ForestModel:
    """A fitted forest as one node table: tree t's nodes are ids `roots[t]`
    up to the next root, numbered and laid out as in `DecisionTreeModel` with
    every id offset by its tree's root."""

    n_trees: int
    m_try: int
    seed: int
    importance: np.ndarray
    n_features: int
    n_classes: int
    max_depth: int | None
    min_samples_split: int
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, np.float64, "importance")
        freeze_arrays(self, np.int64, "roots")
        roots = self.roots
        if self.importance.shape != (self.n_features,) or np.any(self.importance < 0):
            raise ValueError("importance must be one nonnegative entry per feature")
        if self.n_trees < 1 or roots.shape != (self.n_trees,):
            raise ValueError("roots: the forest must hold exactly n_trees >= 1 trees")
        if roots[0] != 0 or np.any(roots[1:] <= roots[:-1]):
            raise ValueError("roots: expected increasing node ids from 0")
        _checked_nodes(self, roots)

    @functools.cached_property
    def trees(self) -> tuple[DecisionTreeModel, ...]:
        """Each tree as its own model, node ids counted from its root."""
        ends = np.append(self.roots[1:], self.left.shape[0]).tolist()
        return tuple(
            DecisionTreeModel(
                n_features=self.n_features,
                n_classes=self.n_classes,
                criterion="gini",
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                feature=self.feature[root:end],
                threshold=self.threshold[root:end],
                left=np.where(self.left[root:end] == -1, -1, self.left[root:end] - root),
                value=self.value[root:end],
            )
            for root, end in zip(self.roots.tolist(), ends)
        )

    @functools.cached_property
    def _sweep(self):
        return _sweep_table(self.roots, self)


def _class_sums(terms: np.ndarray) -> np.ndarray:
    """`terms.sum(axis=-1)` to the last bit, for C-contiguous `terms`. numpy
    adds fewer than 8 terms of a row left to right, so for fewer than 8
    classes whole class columns are added in that order, which saves numpy's
    per-row reduction call; from 8 on numpy sums pairwise, so it sums."""
    if terms.shape[-1] >= 8:
        return terms.sum(axis=-1)
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return total


def _impurity_of_proportions(p: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of each class-proportion vector along the last axis of `p`.

    `p` is C-contiguous with classes last, so every class sum is reduced in
    numpy's one fixed order whatever the leading axes are.
    """
    if criterion == "entropy":
        # p * log2(p), and 0 where p is 0 (log2(1) is exactly 0)
        return -_class_sums(p * np.log2(np.where(p > 0, p, 1.0)))
    if criterion == "gini":
        return 1.0 - _class_sums(p * p)
    raise ValueError(f"unknown criterion {criterion!r}")


# Floats in the largest array of one batched split pass, the (2, nodes,
# candidates, cuts, classes) child class counts; a block of nodes stays under
# it unless one node alone is larger.
SPLIT_BLOCK_FLOATS = 1 << 14


def _best_splits(columns, labels, totals, criterion):
    """Best midpoint split of every node of a block, in one array pass.

    `columns` (B, k, N) holds each node's k candidate columns, NaN past the
    node's own rows; `labels` (B, N) holds the class of each of its rows (rows
    past its own are never counted) and `totals` (B, C) its class counts. Each
    column is presorted and both children of every boundary between distinct
    sorted values are scored at once. Returns per node the decrease, the
    candidate's position, the threshold, the left child's row and class
    counts, and the node's row positions sorted by the chosen column (left
    child's rows first, padding last); the decrease is -inf where no boundary
    exists. Ties favor the lowest candidate position, then the lowest
    threshold (the first maximum of the node's candidate-major decrease
    matrix).
    """
    n_nodes, k, width = columns.shape
    n = totals.sum(axis=1)
    # NaN padding sorts last and is never greater or smaller than a value
    order = np.argsort(columns, axis=2, kind="stable")
    ordered = np.take_along_axis(columns, order, axis=2)
    is_boundary = ordered[:, :, 1:] > ordered[:, :, :-1]
    at = np.arange(n_nodes)
    # class counts of the rows up to each sorted position (exact integers);
    # at a node's last row they are its totals, whose impurity is the parent's
    left = np.eye(totals.shape[1])[labels[at[:, None, None], order]].cumsum(axis=2)
    # proportions[0] / [1]: class proportions left / right of the cut after
    # each position; every child size is exact
    proportions = np.empty((2, n_nodes, k, width, totals.shape[1]))
    n_left = np.arange(1.0, width + 1.0)
    n_right = np.maximum(n[:, None] - n_left, 1.0)  # clamped only past the node's rows
    np.divide(left, n_left[:, None], out=proportions[0])
    np.subtract(totals[:, None, None, :], left, out=proportions[1])
    proportions[1] /= n_right[:, None, :, None]
    impurity = _impurity_of_proportions(proportions, criterion)
    parent = impurity[0, at, 0, n.astype(np.int64) - 1]
    children = (n_left[:-1] * impurity[0, :, :, :-1]
                + n_right[:, None, :-1] * impurity[1, :, :, :-1]) / n[:, None, None]
    decreases = np.where(is_boundary, parent[:, None, None] - children, -np.inf)
    best = decreases.reshape(n_nodes, -1).argmax(axis=1)
    f, i = np.divmod(best, width - 1)
    lower, upper = ordered[at, f, i], ordered[at, f, i + 1]
    middle = (lower + upper) / 2.0
    # a midpoint that rounds onto the upper value (adjacent doubles) or
    # overflows (the grower ignores that overflow) would send every row left;
    # the lower value splits them
    threshold = np.where((middle < upper) & np.isfinite(middle), middle, lower)
    return decreases[at, f, i], f, threshold, i + 1, left[at, f, i], order[at, f]


# Raw 64-bit outputs each tree's stream buffers at a time; a tree that has
# read them all computes as many more.
STREAM_BLOCK_RAWS = 32
_LOW_WORD = 0xFFFFFFFF

# numpy's SeedSequence: its pool of 4 32-bit words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64 steps its 128-bit state s to s * M + inc (mod 2**128)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, hash_const):
    """SeedSequence's hash of one 32-bit word (an int, or every word of a
    uint32 array), and the hash constant that follows `hash_const`."""
    hash_next = hash_const * _MULT_A & _LOW_WORD
    value = (value ^ hash_const) * hash_next & _LOW_WORD
    return value ^ value >> 16, hash_next


def _mix(x, y):
    """SeedSequence's mix of pool word `x` with hashed word `y`."""
    value = ((_MIX_MULT_L * x & _LOW_WORD) - (_MIX_MULT_R * y & _LOW_WORD)) & _LOW_WORD
    return value ^ value >> 16


def _spawned_seeds(seed, n):
    """`np.random.SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64)`
    for every child i, as four (n,) uint64 arrays, the first two the PCG64
    seed's high and low words, the last two its stream's.

    A child's entropy is the seed's 32-bit words, least significant first,
    padded with zeros to the pool size, then its spawn key i. Everything
    before i is hashed once, as ints; i and the state words go through the
    same hashes as uint32 arrays, one per child."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    words = [seed >> shift & _LOW_WORD for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    hash_const, pool = _INIT_A, []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    key = np.arange(n, dtype=np.uint32)
    for dst in range(_POOL_SIZE):
        value, hash_const = _hashmix(key, hash_const)
        pool[dst] = _mix(pool[dst], value)
    # generate_state reads the pool round and round, hashing each word with
    # the next constant of a second sequence; two words make one uint64
    hash_const, state = _INIT_B, []
    for w in range(8):
        value = pool[w % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _LOW_WORD
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    return [state[w] | state[w + 1] << 32 for w in range(0, 8, 2)]


def _mul_high(x, y):
    """The high 64 bits of each 128-bit product x * y of uint64 arrays, from
    32-bit limbs."""
    x_low, x_high, y_low, y_high = x & _LOW_WORD, x >> 32, y & _LOW_WORD, y >> 32
    cross, cross_too = x_low * y_high, x_high * y_low
    carry = (x_low * y_low >> 32) + (cross & _LOW_WORD) + (cross_too & _LOW_WORD)
    return x_high * y_high + (cross >> 32) + (cross_too >> 32) + (carry >> 32)


def _mul128(a_high, a_low, b_high, b_low):
    """a * b mod 2**128 of 128-bit numbers held as uint64 (high, low) arrays."""
    return _mul_high(a_low, b_low) + a_high * b_low + a_low * b_high, a_low * b_low


def _add128(a_high, a_low, b_high, b_low):
    """a + b mod 2**128 of 128-bit numbers held as uint64 (high, low) arrays."""
    low = a_low + b_low
    return a_high + b_high + (low < a_low), low


def _as_words(numbers):
    """128-bit ints as a (2, len) uint64 array of their high and low words."""
    return np.array([[x >> 64 for x in numbers], [x % 2**64 for x in numbers]], dtype=np.uint64)


class _TreeStreams:
    """The random streams of a forest's trees, computed for all trees per array pass.

    Tree t's stream is what `np.random.default_rng(children[t])` reads for a
    bound of at most 2**32, where `children = SeedSequence(seed).spawn(n)`:
    the raw 64-bit outputs of `PCG64(children[t])`, each split into its low
    32-bit word, then its high one. numpy draws an integer below such a bound
    b by Lemire's method: a word u gives (u * b) >> 32, unless
    (u * b) mod 2**32 < (2**32 - b) mod b, which rejects u and reads the next
    word; b = 1 reads nothing. `bootstrap` and `subsets` replay
    `integers(0, n, size=n)` and `choice(p, m, replace=False)` on these
    rules, and the tests pin both against numpy's own methods.

    No numpy generator is made. SeedSequence's spawn is its multiply-xorshift
    hash of the seed words and each child's spawn key, computed for all
    children at once (`_spawned_seeds`). PCG64 (O'Neill, HMC-CS-2014-0905) is
    a 128-bit LCG, s -> s * M + inc, whose output is the XSL-RR permutation
    of the new state: the high and low halves xored, rotated right by the top
    6 bits. An LCG jumps j steps at once, s_j = M^j s + (M^(j-1) + ... + 1)
    inc, so a refill computes the next STREAM_BLOCK_RAWS states of every
    tree it serves in one pass of 128-bit products on uint64 arrays.
    """

    def __init__(self, seed, n_trees):
        # (M^j, M^(j-1) + ... + 1) for j = 1 .. STREAM_BLOCK_RAWS
        powers, totals = [_PCG64_MULTIPLIER], [1]
        for _ in range(1, STREAM_BLOCK_RAWS):
            powers.append(powers[-1] * _PCG64_MULTIPLIER % 2**128)
            totals.append((totals[-1] * _PCG64_MULTIPLIER + 1) % 2**128)
        self.jumps = (_as_words(powers), _as_words(totals))
        # PCG64's seeding: inc = 2 * seq + 1, a step from state 0 (to inc),
        # the seed added, a step
        seed_high, seed_low, seq_high, seq_low = _spawned_seeds(seed, n_trees)
        self.inc = np.stack((seq_high << 1 | seq_low >> 63, seq_low << 1 | 1))
        self.state = np.stack(self._steps(np.stack(_add128(*self.inc, seed_high, seed_low)),
                                          self.inc, *(jump[:, 0] for jump in self.jumps)))
        # word w of a tree's buffer is the low (w even) or high (w odd) half
        # of its raw w // 2; `word` is each tree's next word, and every buffer
        # starts read to its end
        self.raws = np.zeros((n_trees, STREAM_BLOCK_RAWS), dtype=np.uint64)
        self.word = np.full(n_trees, 2 * STREAM_BLOCK_RAWS)

    @staticmethod
    def _steps(state, inc, power, total):
        """The states `power`/`total` jump ahead of (high, low) `state`:
        state * power + inc * total, mod 2**128."""
        return _add128(*_mul128(*state, *power), *_mul128(*inc, *total))

    def bootstrap(self, n):
        """Each tree's `integers(0, n, size=n)` as a (trees, n) array."""
        trees = np.arange(self.word.size)
        if n < 2:
            return np.zeros((trees.size, n), dtype=np.int64)
        return self._draws(trees, np.full(n, n))

    def subsets(self, trees, p, m):
        """The next `np.sort(choice(p, m, replace=False))` of each of `trees`,
        as a (trees, m) array, for m < p."""
        if p > 10000 and m > p // 50:
            # numpy shuffles the tail of range(p): position i, from p - 1
            # down, swaps with a draw below i + 1; the last m positions are
            # the subset
            last = max(p - m, 1)
            draws = self._draws(trees, np.arange(p, last, -1))
            chosen = np.empty((trees.size, m), dtype=np.int64)
            for r, row in enumerate(draws.tolist()):
                moved = {}
                for i, j in zip(range(p - 1, last - 1, -1), row):
                    moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
                chosen[r] = [moved.get(i, i) for i in range(p - m, p)]
        else:
            # Floyd's algorithm: for j from p - m up, a draw below j + 1, or j
            # where that value is already in; then the draws of numpy's
            # shuffle of the m values, whose order the sort discards
            draws = self._draws(trees, np.r_[np.arange(p - m + 1, p + 1), np.arange(m, 1, -1)])
            chosen = draws[:, :m]
            for k in range(1, m):
                chosen[(chosen[:, :k] == chosen[:, k:k + 1]).any(axis=1), k] = p - m + k
        return np.sort(chosen, axis=1)

    def _draws(self, trees, bounds):
        """A draw below each of `bounds` (all at least 2) in turn from each of
        `trees`' streams, as a (trees, bounds) array. Every tree reads one
        word per bound, in blocks that fit a buffer; a tree with a rejected
        word in a block draws that block again word by word."""
        out = np.empty((trees.size, bounds.size), dtype=np.int64)
        step = 2 * STREAM_BLOCK_RAWS - 1  # a buffer holds at least this many unread words
        for first in range(0, bounds.size, step):
            columns = slice(first, first + step)
            bound = bounds[columns].astype(np.uint64)
            self._reserve(trees, bound.size)
            at = self.word[trees, None] + np.arange(bound.size)
            raw = self.raws[trees[:, None], at >> 1]
            scaled = np.where(at & 1, raw >> 32, raw & _LOW_WORD) * bound
            out[:, columns] = scaled >> 32
            rejected = ((scaled & _LOW_WORD) < (2**32 - bound) % bound).any(axis=1)
            self.word[trees[~rejected]] += bound.size
            for r in np.flatnonzero(rejected).tolist():
                out[r, columns] = [self._draw(int(trees[r]), b) for b in bound.tolist()]
        return out

    def _draw(self, t, bound):
        """One draw below `bound` (at least 2) from tree t's stream, word by word."""
        while True:
            self._reserve(np.array([t]), 1)
            w = int(self.word[t])
            raw = int(self.raws[t, w >> 1])
            scaled = (raw >> 32 if w & 1 else raw & _LOW_WORD) * bound
            self.word[t] += 1
            if scaled & _LOW_WORD >= (2**32 - bound) % bound:
                return scaled >> 32

    def _reserve(self, trees, k):
        """Move each of `trees` with fewer than k < 2 * STREAM_BLOCK_RAWS
        unread words to the front of its buffer and fill the rest with its
        next raws, all such trees in one pass."""
        refill = trees[self.word[trees] > 2 * STREAM_BLOCK_RAWS - k]
        if not refill.size:
            return
        read = self.word[refill] >> 1  # whole raws read, at least 1
        # the next STREAM_BLOCK_RAWS states of each tree, then their outputs
        high, low = self._steps(self.state[:, refill, None], self.inc[:, refill, None],
                                *self.jumps)
        at = np.arange(refill.size)
        self.state[:, refill] = high[at, read - 1], low[at, read - 1]
        # XSL-RR: the halves xored, rotated right by the state's top 6 bits
        mixed, turn = high ^ low, high >> 58
        outputs = mixed >> turn | mixed << (64 - turn & 63)
        both = np.concatenate((self.raws[refill], outputs), axis=1)
        self.raws[refill] = both[at[:, None], read[:, None] + np.arange(STREAM_BLOCK_RAWS)]
        self.word[refill] &= 1


class _LockstepGrower:
    """Grows the trees of a forest (or one tree) together, one split per tree per step.

    A node that passes the leaf tests waits on its tree's stack, and a tree
    splits those nodes in pre-order, left subtree before right, so a deep tree
    needs no recursion and its rng draws and importance sums come in the order
    of a tree grown alone. A node is a contiguous range of its tree's row of
    `samples`, which its split reorders in place to left rows, then right
    rows. Nodes get growth ids in the order they are made, every tree's root
    first, and the children of a split get two consecutive ids. The stacks
    are one (trees, slots) array of growth ids with one stack pointer per tree.
    """

    def __init__(self, features, labels, samples, n_classes, criterion, max_depth,
                 min_samples_split, m_try=None, streams=None):
        self.features = features
        self.labels = labels
        n_trees, self.n_total = samples.shape
        self.samples = samples
        self.n_classes = n_classes
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.m_try = m_try
        self.streams = streams
        self.importance = np.zeros((n_trees, features.shape[1]))
        # per growth id: (tree, first row in `samples`, row count, depth), the
        # class counts and, once split, the feature, threshold and left child
        self.nodes = np.zeros((0, 4), dtype=np.int64)
        self.counts = np.zeros((0, n_classes))
        self.feature = np.zeros(0, dtype=np.int64)
        self.threshold = np.zeros(0)
        self.left = np.zeros(0, dtype=np.int64)
        self.n_nodes = 0
        self.splits = []  # (growth ids, decreases) of each step's splits
        # a stack holds disjoint nodes of at least 2 rows, n_total // 2 at most
        self.stack = np.empty((n_trees, self.n_total // 2 + 1), dtype=np.int64)
        self.top = np.zeros(n_trees, dtype=np.int64)

    def grow(self):
        """The grown forest as one node table, tree after tree, each tree's
        nodes in the order they were made: (roots, feature, threshold, left,
        value), plus the (trees, features) importance matrix.

        A step pops the top node of every unfinished tree's stack, draws each
        node's candidates from its own tree's stream and scores all of them in
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
        roots = np.zeros((n_trees, 4), dtype=np.int64)
        roots[:, 0], roots[:, 2] = trees, self.n_total
        _, inner = self._add_nodes(roots, counts)
        self._push(trees[inner], trees[inner])
        draws = self.m_try is not None and self.m_try < n_features
        every = np.tile(np.arange(n_features), (n_trees, 1))
        # a midpoint of two huge values overflows to inf, which no split keeps
        with np.errstate(over="ignore"):
            while (tree := np.nonzero(self.top)[0]).size:
                self._step(tree, draws, every)
        if self.splits:
            # each tree's splits in the order it made them, one per step
            ids, decrease = map(np.concatenate, zip(*self.splits))
            np.add.at(self.importance, (self.nodes[ids, 0], self.feature[ids]),
                      (self.nodes[ids, 2] / self.n_total) * np.maximum(decrease, 0.0))
        n = self.n_nodes
        order = np.argsort(self.nodes[:n, 0], kind="stable")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        left = self.left[order]
        split = left != -1
        left[split] = position[left[split]]
        leaf = ~split
        value = np.zeros((n, self.n_classes))
        value[leaf] = self.counts[order][leaf] / self.nodes[order, 2][leaf, None]
        return (position[:n_trees], self.feature[order], self.threshold[order], left, value,
                self.importance)

    def _step(self, tree, draws, every):
        """Pop the top node of each of `tree`'s stacks and split it or leave it a leaf."""
        self.top[tree] -= 1
        ids = self.stack[tree, self.top[tree]]
        node, counts = self.nodes[ids], self.counts[ids]
        if draws:
            candidates = self.streams.subsets(tree, every.shape[1], self.m_try)
            best = self._score(node, counts, candidates)
            again = np.nonzero(best[0] == -np.inf)[0]
            if again.size:
                widened = self._score(node[again], counts[again], every[:again.size])
                for array, part in zip(best, widened):
                    array[again] = part
        else:
            best = self._score(node, counts, every[:tree.size])
        decrease, feature, threshold, n_left, left_counts = best

        split = np.nonzero(decrease > -np.inf)[0]
        if not split.size:
            return
        ids, node, counts, feature, n_left, left_counts = (
            ids[split], node[split], counts[split], feature[split], n_left[split],
            left_counts[split])
        tree = node[:, 0]
        self.splits.append((ids, decrease[split]))
        self.feature[ids], self.threshold[ids] = feature, threshold[split]
        # the children of split j get growth ids first + 2j (left) and
        # first + 2j + 1 (right); the right one's rows follow the left's
        children = np.repeat(node, 2, axis=0)
        children[0::2, 2] = n_left
        children[1::2, 1] += n_left
        children[1::2, 2] -= n_left
        children[:, 3] += 1
        child_counts = np.repeat(left_counts, 2, axis=0)
        child_counts[1::2] = counts - left_counts
        first, inner = self._add_nodes(children, child_counts)
        left = first + 2 * np.arange(split.size)
        self.left[ids] = left
        # a right child is stacked before its left sibling, which ends on top
        self._push(tree[inner[1::2]], left[inner[1::2]] + 1)
        self._push(tree[inner[0::2]], left[inner[0::2]])

    def _add_nodes(self, nodes, counts):
        """Growth ids `first`, `first + 1`, ... for the given new nodes, and
        whether each is to be split (it fails every leaf test)."""
        first = self.n_nodes
        self.n_nodes += nodes.shape[0]
        if self.n_nodes > self.left.shape[0]:
            for name in ("nodes", "counts", "feature", "threshold", "left"):
                old = getattr(self, name)
                new = np.zeros((2 * self.n_nodes,) + old.shape[1:], dtype=old.dtype)
                new[:first] = old[:first]
                setattr(self, name, new)
        new = slice(first, self.n_nodes)
        self.nodes[new], self.counts[new] = nodes, counts
        self.feature[new] = self.left[new] = -1
        size = nodes[:, 2]
        leaf = (counts.max(axis=1) == size) | (size < self.min_samples_split)
        if self.max_depth is not None:
            leaf |= nodes[:, 3] >= self.max_depth
        return first, ~leaf

    def _push(self, tree, ids):
        """Stack each of `ids` on its tree's stack; a tree appears at most once."""
        self.stack[tree, self.top[tree]] = ids
        self.top[tree] += 1

    def _score(self, node, counts, candidates):
        """Best split of each node (rows of the node table) over its row of
        `candidates`, with its rows reordered left child's first: per node the
        decrease (-inf where no column has two values), feature, threshold,
        left child's row count and class counts. Nodes go in blocks of about
        equal size, each padded only to its own largest node."""
        if node.shape[0] == 1:
            return self._score_block(node, counts, candidates, int(node[0, 2]))
        found = (np.empty(node.shape[0]), np.empty(node.shape[0], dtype=np.int64),
                 np.empty(node.shape[0]), np.empty(node.shape[0], dtype=np.int64),
                 np.empty_like(counts))
        for b, width in self._blocks(node[:, 2], candidates.shape[1]):
            for array, part in zip(found, self._score_block(node[b], counts[b], candidates[b],
                                                             width)):
                array[b] = part
        return found

    def _score_block(self, node, counts, drawn, width):
        """`_score` for one block of nodes padded to `width` rows."""
        tree, start, size = node[:, 0], node[:, 1], node[:, 2]
        padded = node.shape[0] > 1
        if padded:
            cut = np.arange(width)
            own = cut < size[:, None]
            pos = start[:, None] + cut * own  # padding repeats the node's first row
            rows = self.samples[tree[:, None], pos]
        else:  # one node: its rows are one slice
            t, s = int(tree[0]), int(start[0])
            rows = self.samples[t, s:s + width][None, :]
        columns = self.features[rows[:, None, :], drawn[:, :, None]]
        if padded:
            np.copyto(columns, np.nan, where=~own[:, None, :])
        decrease, f, threshold, n_left, left_counts, sorted_rows = _best_splits(
            columns, self.labels[rows], counts, self.criterion)
        # a node without a boundary has one value per column, so its rows keep
        # their order
        at = np.arange(node.shape[0])
        reordered = rows[at[:, None], sorted_rows]
        if padded:
            # padding writes the node's new first row over itself
            self.samples[tree[:, None], pos] = np.where(own, reordered, reordered[:, :1])
        else:
            self.samples[t, s:s + width] = reordered[0]
        return decrease, drawn[at, f], threshold, n_left, left_counts

    def _blocks(self, size, k):
        """(node positions, padded width) of each block of nodes scored
        together. Sorted by size, nodes fall in size classes (2^(e-1), 2^e],
        so a block pads each node to under twice its rows, and a block holds
        at most SPLIT_BLOCK_FLOATS child class counts unless one node alone
        is larger."""
        nodes = np.argsort(size, kind="stable")
        widths = size[nodes]
        size_class = np.frexp(widths - 1.0)[1]
        bounds = (np.nonzero(size_class[1:] != size_class[:-1])[0] + 1).tolist()
        for lo, hi in zip([0] + bounds, bounds + [nodes.size]):
            per_node = 2 * k * (int(widths[hi - 1]) - 1) * self.n_classes
            per_block = max(1, SPLIT_BLOCK_FLOATS // per_node)
            for first in range(lo, hi, per_block):
                last = min(first + per_block, hi)
                yield nodes[first:last], int(widths[last - 1])


def _check_leaf_rules(max_depth, min_samples_split) -> None:
    """Reject a negative depth cap or a split size below 2."""
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if min_samples_split < 2:
        raise ValueError(f"min_samples_split must be at least 2, got {min_samples_split}")


def fit_decision_tree(
    ds: Dataset,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    criterion: str = "entropy",
) -> DecisionTreeModel:
    """Grow a binary-split tree greedily; impure nodes split until no distinct
    feature values remain, so consistent data is always fit exactly."""
    _check_leaf_rules(max_depth, min_samples_split)
    if criterion not in ("entropy", "gini"):
        raise ValueError(f"criterion must be 'entropy' or 'gini', got {criterion!r}")
    _, feature, threshold, left, value, _ = _LockstepGrower(
        ds.features, ds.labels, np.arange(ds.n_samples)[None, :], ds.n_classes, criterion,
        max_depth, min_samples_split,
    ).grow()
    return DecisionTreeModel(
        n_features=ds.n_features,
        n_classes=ds.n_classes,
        criterion=criterion,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        feature=feature,
        threshold=threshold,
        left=left,
        value=value,
    )


# (tree, row) pairs routed together by one level sweep; rows go in blocks of
# about this many pairs (65 rows through a 500-tree forest), the fastest of
# 2^13 to 2^17 for 3000 rows through the default forest on 30 rows
SWEEP_BLOCK_PAIRS = 1 << 15


def _sweep_table(roots, model) -> tuple:
    """What one level of the sweep reads per node: the column to read, the
    threshold, the left child and the leaf class. A leaf reads a padding
    column of zeros against +inf and its left child is itself, so a pair that
    reached its leaf stays there. The trees go deepest first, with the number
    of trees still deeper than each level and each tree's place in that order,
    so a level steps only the trees that have nodes below it."""
    leaf = model.left == -1
    depth = np.zeros(leaf.size, dtype=np.int64)
    level, d = roots[~leaf[roots]], 0
    while level.size:
        d += 1
        children = np.concatenate([model.left[level], model.left[level] + 1])
        depth[children] = d
        level = children[~leaf[children]]
    tree_depth = np.maximum.reduceat(depth, roots)
    order = np.argsort(-tree_depth, kind="stable")
    deeper = (tree_depth[:, None] > np.arange(tree_depth.max())).sum(axis=0)
    return (
        roots[order],
        np.where(leaf, model.n_features, model.feature),
        np.where(leaf, np.inf, model.threshold),
        np.where(leaf, np.arange(leaf.size), model.left),
        model.value.argmax(axis=1),
        deeper.tolist(),
        np.argsort(order),
    )


def _leaf_classes(sweep, rows: np.ndarray):
    """Leaf class of every (tree, row) pair, as (first row, (trees, b) classes)
    for each block of b rows. Every pair takes one step per level of its
    tree: values at or below a threshold go left, others go right, NaN as
    +inf."""
    roots, column, threshold, left, leaf_class, deeper, place = sweep
    m, p = rows.shape
    block = max(1, SWEEP_BLOCK_PAIRS // roots.size)
    for first in range(0, m, block):
        b = min(block, m - first)
        padded = np.zeros((b, p + 1))
        padded[:, :p] = rows[first:first + b]
        np.copyto(padded, np.inf, where=np.isnan(padded))
        cells = padded.ravel()
        row_start = np.arange(b) * (p + 1)
        node = np.repeat(roots[:, None], b, axis=1)
        for k in deeper:
            step = node[:k]
            step[...] = left[step] + (cells[row_start + column[step]] > threshold[step])
        yield first, leaf_class[node[place]]


def predict_tree(model: DecisionTreeModel, x):
    """Class index of one row (an int), or of each row of an (m, p) matrix (an
    (m,) array); values equal to a threshold go left, NaN goes right."""
    rows, single = as_rows(x, model.n_features)
    labels = np.empty(rows.shape[0], dtype=np.int64)
    for first, classes in _leaf_classes(model._sweep, rows):
        labels[first:first + classes.shape[1]] = classes[0]
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
    so results do not depend on build order; `seed` is a nonnegative integer
    (ValueError if negative, TypeError if not an integer). `bootstrap=False`
    is a test hook that trains every tree on the full sample.
    """
    _check_leaf_rules(max_depth, min_samples_split)
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    p = ds.n_features
    if m_try is None:
        m_try = max(1, int(np.sqrt(p)))
    if not 1 <= m_try <= p:
        raise ValueError(f"m_try must be in [1, {p}], got {m_try}")

    n = ds.n_samples
    streams = _TreeStreams(seed, n_trees)
    if bootstrap:
        samples = streams.bootstrap(n)
    else:
        samples = np.tile(np.arange(n), (n_trees, 1))
    roots, feature, threshold, left, value, per_tree = _LockstepGrower(
        ds.features, ds.labels, samples, ds.n_classes, "gini", max_depth, min_samples_split,
        m_try=m_try, streams=streams,
    ).grow()
    importance = np.zeros(p)
    for row in per_tree:  # summed in tree order, one tree at a time
        importance += row
    importance = np.maximum(importance / n_trees, 0.0)
    return ForestModel(
        n_trees=n_trees,
        m_try=m_try,
        seed=seed,
        importance=importance,
        n_features=p,
        n_classes=ds.n_classes,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        roots=roots,
        feature=feature,
        threshold=threshold,
        left=left,
        value=value,
    )


def forest_votes(model: ForestModel, x) -> np.ndarray:
    """Per-class vote counts over the forest's trees: (n_classes,) for one row,
    (m, n_classes) for an (m, p) matrix."""
    rows, single = as_rows(x, model.n_features)
    c = model.n_classes
    votes = np.empty((rows.shape[0], c), dtype=np.int64)
    for first, classes in _leaf_classes(model._sweep, rows):
        b = classes.shape[1]
        votes[first:first + b] = np.bincount(
            (np.arange(b) * c + classes).ravel(), minlength=b * c).reshape(b, c)
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
        wrong = np.zeros(model.n_trees, dtype=np.int64)
        for first, classes in _leaf_classes(model._sweep, rows):
            # votes of each row after each tree in turn, ties to the lowest class
            staged = np.cumsum(classes[:, :, None] == np.arange(model.n_classes), axis=0)
            labels = ds.labels[first:first + classes.shape[1]]
            wrong += (staged.argmax(axis=2) != labels).sum(axis=1)
        return wrong / ds.n_samples

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
