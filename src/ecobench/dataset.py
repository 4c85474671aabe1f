"""Labeled tabular datasets: CSV I/O, validation, scaling, splitting, synthesis."""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ECO_FEATURE_NAMES = ("a", "b", "c", "d", "e", "depth", "pollution", "temperature")
ECO_LABEL_COLUMN = "sediment"

# The synthetic sediment classes
_CLASS_NAME_POOL = ("C", "G", "S")

# Per-class feature profiles (rows: class C, G, S; columns: ECO_FEATURE_NAMES).
# Species a-e are mean counts; depth in meters, pollution an index, temperature in deg C.
_DEFAULT_CLASS_MEANS = (
    (10.0, 7.0, 5.0, 3.0, 2.0, 28.0, 6.0, 3.4),
    (6.0, 11.0, 4.0, 7.0, 3.0, 14.0, 2.8, 4.6),
    (8.0, 9.0, 6.0, 5.0, 2.0, 21.0, 4.4, 4.0),
)
_DEFAULT_SPREADS = (2.0, 2.0, 2.0, 2.0, 2.0, 4.0, 1.1, 0.5)


def as_rows(x, n_features: int) -> tuple[np.ndarray, bool]:
    """(m, p) float matrix from one row or an (m, p) matrix, and whether x was
    one row. Every model's predictor takes either and answers in kind: an int
    (or one score vector) for a row, an (m,) label array for a matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim < 2
    rows = x.reshape(1, -1) if single else x
    if rows.ndim != 2 or rows.shape[1] != n_features:
        raise ValueError(f"expected {n_features} feature values, got {rows.shape[-1]}")
    return rows, single


def top_class(scores):
    """Highest-scoring class of a (c,) vector (an int) or of each row of an
    (m, c) matrix (an (m,) array); ties go to the lowest class index."""
    labels = np.argmax(scores, axis=-1)
    return int(labels) if scores.ndim == 1 else labels


def _frozen_array(value, dtype, name) -> np.ndarray:
    """A read-only `dtype` array of `value`, copied only where the dtype changes."""
    array = np.asarray(value)
    if array.dtype.kind not in "biu":
        array = np.asarray(array, dtype=np.float64)
        if not np.isfinite(array).all():
            raise ValueError(f"{name} contains NaN or infinite values")
        if dtype == np.int64 and not (
                (np.abs(array) < 2.0**53) & (array == np.trunc(array))).all():
            raise ValueError(f"{name}: expected whole numbers")
    array = np.asarray(array, dtype=dtype)
    array.flags.writeable = False
    return array


def freeze_arrays(record, dtype, *names) -> None:
    """Set each named array field of the frozen dataclass instance `record`
    to a read-only `dtype` array (float64 or int64) of its value, copied only
    where the dtype changes; a field holding a tuple of arrays gets a tuple
    of such arrays. Values that are not integers must be finite, and whole numbers in
    an int64 field (a saved file's arrays load as float64); a ValueError
    names the field otherwise."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, tuple) and all(isinstance(v, np.ndarray) for v in value):
            value = tuple(_frozen_array(v, dtype, name) for v in value)
        else:
            value = _frozen_array(value, dtype, name)
        object.__setattr__(record, name, value)


@dataclass(frozen=True)
class Dataset:
    """Immutable n x p feature matrix with integer class labels and names."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        freeze_arrays(self, np.float64, "features")
        freeze_arrays(self, np.int64, "labels")
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        features, labels = self.features, self.labels
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError(f"features must be a nonempty 2-D matrix, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels must be a vector of length {features.shape[0]}, got shape {labels.shape}"
            )
        if len(self.feature_names) != features.shape[1]:
            raise ValueError("feature_names length must match the number of feature columns")
        if len(self.class_names) < 2:
            raise ValueError("at least 2 class names are required")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise ValueError("labels contain indices outside the class_names range")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def subset(self, indices) -> "Dataset":
        """New Dataset holding the given rows (names unchanged)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names, self.class_names)


def shared_shape(datasets) -> tuple[int, int]:
    """The (features, classes) counts that all of `datasets` share; a
    ValueError if they differ."""
    shape = (datasets[0].n_features, datasets[0].n_classes)
    if any((ds.n_features, ds.n_classes) != shape for ds in datasets):
        raise ValueError("stacked datasets must share their feature and class counts")
    return shape


def stack_datasets(datasets) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(k, n, p) features and (k, n) labels of k datasets of one feature and
    class count (`shared_shape`), the input of a stacked fit, and each
    dataset's row count. A dataset shorter than the longest is padded with
    zero rows of label 0; a stacked fit keeps them out of its sums
    (`padding`, `own_row_sums`)."""
    p = shared_shape(datasets)[0]
    counts = [ds.n_samples for ds in datasets]
    n = max(counts)
    features = np.zeros((len(datasets), n, p))
    labels = np.zeros((len(datasets), n), dtype=np.int64)
    for i, ds in enumerate(datasets):
        features[i, : counts[i]] = ds.features
        labels[i, : counts[i]] = ds.labels
    return features, labels, counts


def padding(counts, n: int):
    """For stack members of `counts` rows, sorted longest first, in a stack
    of `n` rows: the (k, n, 1) mask of the padding rows and the (start, stop,
    rows) run of members of each row count; (None, None) when no member is
    padded."""
    if min(counts) == n:
        return None, None
    groups = []
    for start, rows in enumerate(counts):
        if groups and groups[-1][2] == rows:
            groups[-1] = (groups[-1][0], start + 1, rows)
        else:
            groups.append((start, start + 1, rows))
    return (np.arange(n) >= np.array(counts)[:, None])[:, :, None], groups


def own_row_sums(values: np.ndarray, groups) -> np.ndarray:
    """Per step and stack member, the sum of that member's own rows of the
    (s, k, n, ...) `values` of s steps, as an (s, k) array, for the
    row-count runs `groups` of `padding`: one sum per run over a view of its
    members' real rows, so each adds its terms in the order a lone member's
    sum at one step would, and padding rows, which would change numpy's
    pairwise grouping, stay out. With no padding, one sum."""
    s, k = values.shape[:2]
    if groups is None:
        return values.reshape(s, k, -1).sum(axis=2)
    return np.concatenate([values[:, start:stop, :n].reshape(s, stop - start, -1).sum(axis=2)
                           for start, stop, n in groups], axis=1)


# gradient steps `descend_stacked` takes between two stop tests (`first_stops`)
BLOCK_STEPS = 32


def first_stops(losses: np.ndarray, prev: np.ndarray, tolerance: float, capped: bool):
    """Per stack member, the first step of a block of gradient steps at which
    its fit stops, or s where it runs on, from the (s, k) `losses` of the
    block's s steps and the (k,) losses of the steps before them (inf before
    a fit's first step). A fit stops at a non-finite loss, where its loss
    settles (a nonnegative improvement below `tolerance`) and, when `capped`,
    at the block's last step. Steps after a member's stop are thrown away."""
    before = np.concatenate([prev[None], losses[:-1]])
    gain = before - losses
    stop = ~np.isfinite(losses) | ((0.0 <= gain) & (gain < tolerance))
    stop[-1] |= capped
    return np.where(stop.any(axis=0), stop.argmax(axis=0), len(losses)).tolist()


# a diverging fit's overflow ends it as a non-finite loss, without a warning
@np.errstate(over="ignore", invalid="ignore")
def descend_stacked(datasets, starts, prepare, step, score, learning_rate: float,
                    max_steps: int, tolerance: float):
    """Full-batch gradient descent on each of several datasets of one feature
    and class count, of any row counts, in one loop: the fit of logistic
    regression and of the network. Returns, per dataset in order, its losses
    at steps 0 to its stop and its weights at that step, a tuple of arrays
    like its `starts` entry.

    The datasets are stacked longest first (`stack_datasets`), and so are
    their start weights. The weights of one step are one flat vector, laid
    out array by array: every member's first array, then every member's
    second, and so on, each a contiguous (k, ...) view of it. A stack of one
    steps on its dataset's own 2-D rows and its own 2-D weight views, whose
    products cost less per call.

    `prepare(features, labels, counts, grads)` is called once per call with
    the stack's rows and the views of one flat gradient vector laid out like
    the weights; it returns the step's workspace, with every buffer a step
    needs, and the trailing shape of one row's loss terms. Step i calls
    `step(weights, workspace, terms)`, which writes the loss terms of the
    weights into `terms` and their gradients into `grads`, and every
    intermediate into the workspace, allocating nothing: each buffer is
    overwritten by the next step. The next weights are then w -
    learning_rate * gradient, in two operations on the flat vectors.

    Steps run in blocks of `BLOCK_STEPS`, in one weight buffer and one loss
    terms buffer allocated once per call. At a block's end `score(terms,
    workspace)` turns the (s, k, n, ...) terms of its s steps into (s, k)
    losses, and `first_stops` finds where each member stops: at a non-finite
    loss, a settled one (a nonnegative improvement below `tolerance`) or
    step `max_steps`. A member's weights at its stop are copied out of the
    buffer, which the next block overwrites. A member that stops keeps its
    place in the stack, and the steps it takes after its stop are thrown
    away; the loop ends once every member has stopped. No member's steps
    change another's bits.
    """
    order = sorted(range(len(datasets)), key=lambda j: -datasets[j].n_samples)
    features, labels, counts = stack_datasets([datasets[j] for j in order])
    k = len(order)
    shapes = [(k,) + w.shape for w in starts[order[0]]]
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()

    def arrays(vector):
        """The (k, ...) weight arrays of a flat vector, as views of it."""
        return [vector[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]

    own = 0 if k == 1 else slice(None)  # a lone fit steps on 2-D views
    steps = min(BLOCK_STEPS, max_steps + 1)
    # row i holds the weights of a block's step i, and row s those after it
    block = np.empty((steps + 1, bounds[-1]))
    block[0] = np.concatenate([np.stack(arrs).ravel()
                               for arrs in zip(*(starts[j] for j in order))])
    grad = np.empty(bounds[-1])
    inputs, tail = prepare(features[own], labels[own], counts,
                           tuple(g[own] for g in arrays(grad)))
    terms = np.empty((steps,) + labels.shape + tail)
    rows = [(flat, tuple(w[own] for w in arrays(flat))) for flat in block]
    histories = [[] for _ in order]
    prev = np.full(k, math.inf)  # no settling test before the first step
    results = [None] * len(datasets)
    running, start = list(range(k)), 0
    while running:
        s = min(steps, max_steps + 1 - start)
        for (flat, weights), (nxt, _), term in zip(rows[:s], rows[1:], terms[:s, own]):
            step(weights, inputs, term)
            grad *= learning_rate
            np.subtract(flat, grad, out=nxt)
        losses = score(terms[:s], inputs)
        stops = first_stops(losses, prev, tolerance, start + s > max_steps)
        for pos in running:
            histories[pos] += losses[: stops[pos] + 1, pos].tolist()
            if stops[pos] < s:
                results[order[pos]] = histories[pos], tuple(
                    w[pos].copy() for w in arrays(block[stops[pos]]))
        running = [pos for pos in running if stops[pos] == s]
        block[0] = block[s]
        prev, start = losses[-1], start + s
    return results


@dataclass(frozen=True)
class ScalingParams:
    """Per-column means and sample standard deviations used for standardization."""

    means: np.ndarray
    std_devs: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, np.float64, "means", "std_devs")
        if self.means.shape != self.std_devs.shape or self.means.ndim != 1:
            raise ValueError("means and std_devs must be 1-D arrays of equal length")
        if np.any(self.std_devs < 0):
            raise ValueError("std_devs must be nonnegative")

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Standardize columns; zero-variance columns map to all zeros."""
        x = np.asarray(features, dtype=np.float64)
        safe = np.where(self.std_devs > 0, self.std_devs, 1.0)
        out = (x - self.means) / safe
        out[:, self.std_devs == 0] = 0.0
        return out

    def invert(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        return x * self.std_devs + self.means


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint index lists covering 0..n-1 with sizes differing by at most one."""

    folds: tuple[np.ndarray, ...]

    def __post_init__(self):
        freeze_arrays(self, np.int64, "folds")
        folds = self.folds
        if not folds:
            raise ValueError("a fold plan needs at least one fold")
        all_idx = np.concatenate(folds)
        n = all_idx.size
        if not np.array_equal(np.sort(all_idx), np.arange(n)):
            raise ValueError("folds must be disjoint and cover every index exactly once")
        sizes = [f.size for f in folds]
        if max(sizes) - min(sizes) > 1:
            raise ValueError("fold sizes must differ by at most 1")

    @property
    def n_samples(self) -> int:
        return sum(f.size for f in self.folds)

    @property
    def k(self) -> int:
        return len(self.folds)

    def train_indices(self, fold_index: int) -> np.ndarray:
        """All indices outside the given fold, in ascending order."""
        others = [f for i, f in enumerate(self.folds) if i != fold_index]
        return np.sort(np.concatenate(others))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic seabed-style dataset.

    The generated table always has the 8 feature columns in ECO_FEATURE_NAMES:
    five species counts (a-e, nonnegative integers), depth (m, positive),
    a pollution index (positive) and temperature (deg C). The three sediment
    classes C, G and S are fixed, each drawn from its own profile.
    `separation` scales each class profile's offset from the across-class
    center, in place, so values > 1 pull the classes apart and values < 1
    blend them.
    """

    n_per_class: int = 10
    separation: float = 1.0
    seed: int = 42


def parse_feature_cell(cell: str, row: int, column: str) -> float:
    """A finite float from one CSV feature cell; a ValueError names the
    1-based row and the column of a non-numeric or non-finite cell."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(
            f"row {row}, column {column!r}: non-numeric value {cell.strip()!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"row {row}, column {column!r}: non-finite value {cell.strip()!r}")
    return value


def parse_feature_rows(rows, header, positions) -> np.ndarray:
    """The (len(rows), len(positions)) float matrix of the cells at
    `positions` of CSV `rows`. A row whose cell count differs from the
    header's, or a non-numeric or non-finite cell, is a ValueError naming the
    first bad row (and column), scanning rows in order and each row's length
    before its cells."""
    if all(len(row) == len(header) for row in rows):
        # one flat pass over the cells, row by row; itemgetter of a single
        # position returns the cell itself, not a tuple
        if len(positions) == 1:
            cells = map(operator.itemgetter(positions[0]), rows)
        else:
            cells = itertools.chain.from_iterable(map(operator.itemgetter(*positions), rows))
        try:
            values = np.fromiter(map(float, cells), dtype=np.float64,
                                 count=len(rows) * len(positions))
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all():
            return values.reshape(len(rows), len(positions))
    # cell by cell, which stops at the first bad row or cell
    out = np.empty((len(rows), len(positions)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {r + 1}: expected {len(header)} cells, found {len(row)}")
        for j, i in enumerate(positions):
            out[r, j] = parse_feature_cell(row[i], r + 1, header[i])
    return out


def read_csv_table(path, kind: str) -> tuple[list[str], list[list[str]]]:
    """The stripped header cells and the data rows of a headered UTF-8 CSV,
    with or without a byte-order mark.

    A missing file is a FileNotFoundError naming the `kind` of file; a file
    that is not UTF-8, that the csv module cannot parse or that has no header
    row is a ValueError beginning with its path.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    return [h.strip() for h in header], rows


def load_csv(path, label_column: str) -> Dataset:
    """Read a headered CSV, taking `label_column` as the class and the rest as features.

    Labels are encoded by first appearance in file order; row order is preserved.
    """
    header, rows = read_csv_table(path, "dataset")
    if header.count(label_column) == 0:
        raise ValueError(f"label column {label_column!r} not in header {header}")
    if header.count(label_column) > 1:
        raise ValueError(f"label column {label_column!r} appears more than once in the header")
    label_pos = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_pos)
    if not feature_names:
        raise ValueError("no feature columns besides the label column")
    if not rows:
        raise ValueError(f"{path}: no data rows")

    features = parse_feature_rows(rows, header, [i for i in range(len(header)) if i != label_pos])
    names = [row[label_pos].strip() for row in rows]
    class_names = list(dict.fromkeys(names))  # in order of first appearance
    code = {name: c for c, name in enumerate(class_names)}
    labels = np.array([code[name] for name in names], dtype=np.int64)
    if len(class_names) < 2:
        raise ValueError(f"need at least 2 distinct classes, found {class_names}")
    return Dataset(features, labels, feature_names, tuple(class_names))


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write the dataset as UTF-8 CSV with features at 17 significant digits."""
    if label_column in ds.feature_names:
        raise ValueError(f"label column name {label_column!r} collides with a feature name")
    # csv.writer quotes the header, and each class name as a row's last
    # cell; "%.17g" cells never need quoting
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([*ds.feature_names, label_column])
    header = buffer.getvalue()
    names = []
    for name in ds.class_names:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(["", name])
        names.append(buffer.getvalue()[1:-2])  # without the comma before it and the "\r\n"
    row = ",".join(["%.17g"] * ds.n_features) + ",%s\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(row % (*values, names[label])
                      for values, label in zip(ds.features.tolist(), ds.labels.tolist()))


def standardize(ds: Dataset) -> tuple[Dataset, ScalingParams]:
    """Center each column and divide by its sample std; constant columns become zeros."""
    if ds.n_samples < 2:
        raise ValueError("standardize needs at least 2 rows")
    means = ds.features.mean(axis=0)
    stds = ds.features.std(axis=0, ddof=1)
    params = ScalingParams(means, stds)
    scaled = params.apply(ds.features)
    return Dataset(scaled, ds.labels, ds.feature_names, ds.class_names), params


def train_test_split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; train size is floor(train_fraction * n), at least 1."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = ds.n_samples
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = max(1, int(math.floor(train_fraction * n)))
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    if test_idx.size == 0:
        raise ValueError(
            f"split with fraction {train_fraction} would leave an empty side for n={n}"
        )
    return ds.subset(train_idx), ds.subset(test_idx)


def k_fold(ds: Dataset, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle partitioned into k folds with sizes differing by at most 1."""
    n = ds.n_samples
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    folds = tuple(np.sort(part) for part in np.array_split(perm, k))
    return FoldPlan(folds)


def generate_ecological(spec: SyntheticSpec) -> Dataset:
    """Synthesize a seabed-style table from seeded class-conditional normal draws."""
    if spec.n_per_class <= 0:
        raise ValueError(f"n_per_class must be positive, got {spec.n_per_class}")
    seed = operator.index(spec.seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    means = np.array(_DEFAULT_CLASS_MEANS, dtype=np.float64)
    center = means.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        means = center + spec.separation * (means - center)
    if not np.isfinite(means).all():
        raise ValueError(f"separation must keep the class means finite, got {spec.separation}")

    rng = np.random.default_rng(seed)
    blocks = []
    for mean in means:
        draw = rng.normal(mean, _DEFAULT_SPREADS, size=(spec.n_per_class, means.shape[1]))
        draw[:, :5] = np.maximum(np.rint(draw[:, :5]), 0.0)  # species counts
        draw[:, 5] = np.maximum(draw[:, 5], 0.1)  # depth stays positive
        draw[:, 6] = np.maximum(draw[:, 6], 0.01)  # pollution index stays positive
        blocks.append(draw)
    features = np.vstack(blocks)
    labels = np.repeat(np.arange(len(means), dtype=np.int64), spec.n_per_class)
    return Dataset(features, labels, ECO_FEATURE_NAMES, _CLASS_NAME_POOL)
