"""Margin and instance classifiers: soft-margin kernel SVM trained by pairwise
dual coordinate optimization, and brute-force k-nearest neighbors."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, as_rows, freeze_arrays

KKT_TOLERANCE = 1e-3
SUPPORT_THRESHOLD = 1e-8
# Most floats in one block of k-NN query-to-training differences
KNN_BLOCK_FLOATS = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """Inner-product rule: plain dot product, or a radial basis of width 1/gamma."""

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"kernel kind must be 'linear' or 'rbf', got {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise ValueError(f"rbf kernel needs a finite gamma > 0, got {self.gamma}")
        elif self.gamma is not None:
            raise ValueError("linear kernel takes no gamma")

    @property
    def display_name(self) -> str:
        return "radial" if self.kind == "rbf" else "linear"


def default_gamma(p: int) -> float:
    """Reciprocal of the feature count, the radial kernel's default width."""
    if p < 1:
        raise ValueError(f"feature count must be at least 1, got {p}")
    return 1.0 / p


def kernel_eval(spec: KernelSpec, x, y) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise ValueError(f"kernel inputs differ in dimension: {x.size} vs {y.size}")
    if spec.kind == "linear":
        return float(x @ y)
    diff = x - y
    return float(np.exp(-spec.gamma * (diff @ diff)))


def kernel_matrix(spec: KernelSpec, a, b) -> np.ndarray:
    """All pairwise kernel values between the rows of two matrices."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"kernel inputs differ in dimension: {a.shape[1]} vs {b.shape[1]}")
    if spec.kind == "linear":
        return a @ b.T
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-spec.gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class SvmBinaryModel:
    """Dual expansion of a two-class soft-margin machine.

    `dual_weights` holds alpha_i * y_i for the support vectors only, with
    y = +1 for class 0 and -1 for class 1 of the training dataset.
    """

    support_vectors: np.ndarray
    dual_weights: np.ndarray
    bias: float
    cost: float
    kernel: KernelSpec
    converged: bool
    kkt_residual: float
    iterations: int

    def __post_init__(self):
        if np.shape(self.support_vectors) == (0,):
            # a saved machine without support vectors keeps no width
            object.__setattr__(self, "support_vectors", np.zeros((0, 0)))
        freeze_arrays(self, np.float64, "support_vectors", "dual_weights")
        sv, dw = self.support_vectors, self.dual_weights
        if sv.ndim != 2 or dw.shape != (sv.shape[0],):
            raise ValueError("support_vectors and dual_weights must align row for row")
        if np.any(np.abs(dw) > self.cost * (1 + 1e-12)):
            raise ValueError("dual weights must satisfy |alpha_i| <= cost")

    @property
    def n_support(self) -> int:
        return self.support_vectors.shape[0]


def fit_svm_binary(
    ds2: Dataset,
    cost: float = 1.0,
    kernel: KernelSpec | None = None,
    tol: float = KKT_TOLERANCE,
    max_iter: int | None = None,
) -> SvmBinaryModel:
    """Solve the soft-margin dual by repeated closed-form updates of the
    maximally violating pair, until the violation drops below `tol`.

    Class 0 maps to +1 and class 1 to -1. Hitting the iteration cap returns a
    model flagged `converged=False` instead of raising.
    """
    for name, value in (("cost", cost), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a finite number > 0, got {value}")
    labels = ds2.labels
    present = np.unique(labels)
    if present.size != 2 or ds2.n_classes != 2:
        raise ValueError(
            f"binary fit needs exactly 2 classes present, found labels {present.tolist()}"
        )
    x = ds2.features
    n = ds2.n_samples
    if kernel is None:
        kernel = KernelSpec("rbf", default_gamma(ds2.n_features))
    if max_iter is None:
        max_iter = int(1e4) * n

    y = np.where(labels == 0, 1.0, -1.0)
    positive = y > 0
    k = kernel_matrix(kernel, x, x)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0

    def working_set():
        """-y * grad and the masks of the rows whose y * alpha may still rise
        ("up") or fall ("low") inside the box [0, cost]."""
        return (-y * grad, np.where(positive, alpha < cost, alpha > 0),
                np.where(positive, alpha > 0, alpha < cost))

    iterations = 0
    while iterations < max_iter:
        neg_yg, up, low = working_set()
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
        j = int(np.argmin(np.where(low, neg_yg, np.inf)))
        violation = neg_yg[i] - neg_yg[j]
        if violation < tol:
            break
        curvature = max(k[i, i] + k[j, j] - 2.0 * k[i, j], 1e-12)
        step = violation / curvature
        step_i_max = cost - alpha[i] if positive[i] else alpha[i]
        step_j_max = alpha[j] if positive[j] else cost - alpha[j]
        step = min(step, step_i_max, step_j_max)
        # land exactly on a box face when the step is clipped there
        if step == step_i_max:
            alpha[i] = cost if positive[i] else 0.0
        else:
            alpha[i] += y[i] * step
        if step == step_j_max:
            alpha[j] = 0.0 if positive[j] else cost
        else:
            alpha[j] -= y[j] * step
        grad += y * step * (k[:, i] - k[:, j])
        iterations += 1

    # fresh gradient for the bias and the reported residual
    grad = y * (k @ (alpha * y)) - 1.0
    neg_yg, up, low = working_set()
    m_up = float(np.max(neg_yg[up])) if up.any() else float(np.max(neg_yg))
    m_low = float(np.min(neg_yg[low])) if low.any() else float(np.min(neg_yg))
    residual = max(m_up - m_low, 0.0)

    free = (alpha > SUPPORT_THRESHOLD) & (alpha < cost - SUPPORT_THRESHOLD)
    if free.any():
        bias = float(np.mean(neg_yg[free]))
    else:
        bias = (m_up + m_low) / 2.0

    keep = alpha > SUPPORT_THRESHOLD
    return SvmBinaryModel(
        support_vectors=x[keep],
        dual_weights=(alpha * y)[keep],
        bias=bias,
        cost=cost,
        kernel=kernel,
        converged=residual < tol,
        kkt_residual=residual,
        iterations=iterations,
    )


def svm_decision_value(model: SvmBinaryModel, x):
    """Dual expansion sum(alpha_i y_i k(sv_i, x)) + bias of each row; a machine
    without support vectors answers its bias to rows of any width."""
    if not model.n_support:
        x = np.asarray(x)
        return model.bias if x.ndim < 2 else np.full(x.shape[0], float(model.bias))
    rows, single = as_rows(x, model.support_vectors.shape[1])
    values = kernel_matrix(model.kernel, model.support_vectors, rows)
    decisions = model.dual_weights @ values + model.bias
    return float(decisions[0]) if single else decisions


@dataclass(frozen=True)
class SvmMulticlassModel:
    """One binary machine per unordered class pair, votes decide."""

    machines: tuple[SvmBinaryModel, ...]
    class_pairs: tuple[tuple[int, int], ...]
    n_classes: int
    n_features: int
    cost: float
    kernel: KernelSpec
    class_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "class_pairs", tuple(tuple(p) for p in self.class_pairs))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        # the machine count bounds the class count before any pair is listed
        n_pairs = math.comb(max(self.n_classes, 0), 2)
        if len(self.machines) != n_pairs:
            raise ValueError(f"need exactly {n_pairs} pairwise machines")
        pairs = tuple(itertools.combinations(range(self.n_classes), 2))
        if self.class_pairs != pairs:
            raise ValueError(f"class_pairs: expected each pair (a, b) with "
                             f"0 <= a < b < {self.n_classes} once, in order")

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.machines)


def fit_svm_multiclass(
    ds: Dataset,
    cost: float = 1.0,
    kernel: KernelSpec | None = None,
    tol: float = KKT_TOLERANCE,
) -> SvmMulticlassModel:
    """Train one machine per class pair on just that pair's rows."""
    if kernel is None:
        kernel = KernelSpec("rbf", default_gamma(ds.n_features))
    machines = []
    pairs = []
    for a in range(ds.n_classes):
        for b in range(a + 1, ds.n_classes):
            rows = np.flatnonzero((ds.labels == a) | (ds.labels == b))
            pair_ds = Dataset(
                ds.features[rows],
                np.where(ds.labels[rows] == a, 0, 1),
                ds.feature_names,
                (ds.class_names[a], ds.class_names[b]),
            )
            machines.append(fit_svm_binary(pair_ds, cost=cost, kernel=kernel, tol=tol))
            pairs.append((a, b))
    return SvmMulticlassModel(
        machines=tuple(machines),
        class_pairs=tuple(pairs),
        n_classes=ds.n_classes,
        n_features=ds.n_features,
        cost=cost,
        kernel=kernel,
        class_names=ds.class_names,
    )


@np.errstate(over="ignore", invalid="ignore")
def predict_svm(model: SvmMulticlassModel, x):
    """Most pairwise wins; ties fall to summed decision magnitudes, added in
    machine order, then to the lowest class index. A ValueError when a
    decision value is not finite (the kernel overflows on rows far out)."""
    rows, single = as_rows(x, model.n_features)
    at = np.arange(rows.shape[0])
    wins = np.zeros((rows.shape[0], model.n_classes))
    magnitude = np.zeros((rows.shape[0], model.n_classes))
    for machine, (a, b) in zip(model.machines, model.class_pairs):
        value = svm_decision_value(machine, rows)
        if not np.isfinite(value).all():
            raise ValueError(f"decision values of the {model.class_names[a]}/"
                             f"{model.class_names[b]} machine are not finite: "
                             f"the kernel overflows on these rows")
        winner = np.where(value >= 0, a, b)
        wins[at, winner] += 1
        magnitude[at, winner] += np.abs(value)
    # the largest magnitude among the classes with the most wins; argmax keeps the first
    most = wins == wins.max(axis=1, keepdims=True)
    best = np.argmax(np.where(most, magnitude, -np.inf), axis=1)
    return int(best[0]) if single else best


def describe_svm(model: SvmMulticlassModel) -> str:
    """Parameter summary of a fitted multiclass machine, one field per line.

    Support vectors are counted both summed over the pairwise machines (a row
    used by two machines counts twice) and as distinct training rows.
    """
    summed = sum(m.n_support for m in model.machines)
    distinct = {tuple(sv) for m in model.machines for sv in m.support_vectors}
    gamma = "" if model.kernel.gamma is None else f"{model.kernel.gamma:g}"
    lines = [
        "SVM-Type: C-classification",
        f"SVM-Kernel: {model.kernel.display_name}",
        f"Cost: {model.cost:g}",
    ]
    if gamma:
        lines.append(f"Gamma: {gamma}")
    lines += [
        f"Number of Support Vectors: {summed} ({len(distinct)} distinct rows)",
        f"Number of Classes: {model.n_classes}",
        "Levels: " + " ".join(model.class_names),
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class KnnModel:
    """The training set verbatim plus the neighbor count; nothing is fit."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    n_classes: int

    def __post_init__(self):
        freeze_arrays(self, np.float64, "features")
        freeze_arrays(self, np.int64, "labels")
        n = self.features.shape[0]
        if self.features.ndim != 2 or self.labels.shape != (n,):
            raise ValueError("features must be (n, p) with one label per row")
        if not 1 <= self.k <= n:
            raise ValueError(f"k must be in [1, {n}], got {self.k}")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(f"labels: expected class indices in [0, {self.n_classes})")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def fit_knn(ds: Dataset, k: int = 3) -> KnnModel:
    return KnnModel(features=ds.features, labels=ds.labels, k=k, n_classes=ds.n_classes)


def knn_predict(model: KnnModel, x):
    """Mode of the k nearest training labels by Euclidean distance; distance
    ties prefer the lower training index, label ties the lower class index.
    Rows go in blocks of at most KNN_BLOCK_FLOATS differences."""
    n, p = model.features.shape
    rows, single = as_rows(x, p)
    labels = np.empty(rows.shape[0], dtype=np.int64)
    step = max(1, KNN_BLOCK_FLOATS // max(n * p, 1))
    classes = np.arange(model.n_classes)
    for start in range(0, rows.shape[0], step):
        diff = model.features - rows[start:start + step, None, :]
        order = np.argsort((diff * diff).sum(axis=2), axis=1, kind="stable")
        nearest = model.labels[order[:, : model.k]]
        votes = (nearest[:, :, None] == classes).sum(axis=1)
        labels[start:start + step] = np.argmax(votes, axis=1)
    return int(labels[0]) if single else labels
