"""Linear and probabilistic classifiers: Fisher discriminant analysis,
multinomial logistic regression, and Gaussian naive Bayes."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    Dataset,
    as_rows,
    descend_stacked,
    freeze_arrays,
    own_row_sums,
    padding,
    top_class,
)

LDA_REGULARIZATION_EPSILON = 1e-8


def _class_feature_shape(means: np.ndarray, name: str) -> tuple[int, int]:
    """(classes, features) of a model's class-by-feature matrix `means`."""
    if means.ndim != 2:
        raise ValueError(f"{name}: expected a (classes, features) matrix, got shape "
                         f"{means.shape}")
    return means.shape


def _check_shapes(record, **shapes) -> None:
    """A ValueError naming the first array field of `record` whose shape is
    not the one given for it."""
    for name, shape in shapes.items():
        got = getattr(record, name).shape
        if got != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {got}")


@dataclass(frozen=True)
class LdaModel:
    """Equal-covariance Gaussian discriminant with Fisher projection axes.

    `pooled_covariance` is stored with its diagonal regularization applied;
    every axis beta satisfies beta' C beta = 1 under that matrix. A fitted
    axis's largest-magnitude coefficient is positive (the first one on ties).
    """

    class_means: np.ndarray
    pooled_covariance: np.ndarray
    priors: np.ndarray
    discriminant_axes: np.ndarray
    regularization_epsilon: float

    def __post_init__(self):
        freeze_arrays(self, np.float64, "class_means", "pooled_covariance", "priors",
                      "discriminant_axes")
        c, p = _class_feature_shape(self.class_means, "class_means")
        _check_shapes(self, pooled_covariance=(p, p), priors=(c,))
        axes = self.discriminant_axes.shape
        if len(axes) != 2 or axes[1] != p or axes[0] > min(c - 1, p):
            raise ValueError(f"discriminant_axes: expected at most {min(c - 1, p)} axes of "
                             f"{p} coefficients, got shape {axes}")
        if abs(self.priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")
        if not np.allclose(self.pooled_covariance, self.pooled_covariance.T):
            raise ValueError("pooled covariance must be symmetric")

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def n_features(self) -> int:
        return self.class_means.shape[1]


def fit_lda(ds: Dataset) -> LdaModel:
    """Class means, frequency priors, pooled within-class covariance and
    discriminant axes ordered by decreasing between/within separation."""
    n, p, c = ds.n_samples, ds.n_features, ds.n_classes
    if n <= c:
        raise ValueError(f"need more samples than classes, got n={n}, c={c}")
    counts = ds.class_counts()
    if counts.min() < 2:
        lacking = ds.class_names[int(np.argmin(counts))]
        raise ValueError(f"every class needs at least 2 samples, class {lacking!r} has "
                         f"{int(counts.min())}")

    means = np.empty((c, p))
    pooled = np.zeros((p, p))
    for j in range(c):
        rows = ds.features[ds.labels == j]
        means[j] = rows.mean(axis=0)
        centered = rows - means[j]
        pooled += centered.T @ centered
    pooled /= n
    if not np.all(np.isfinite(pooled)):
        raise ValueError("pooled covariance is not finite")
    ridge = LDA_REGULARIZATION_EPSILON * np.trace(pooled) / p
    if ridge <= 0:
        raise ValueError("pooled covariance has zero trace; features are all constant")
    pooled = pooled + ridge * np.eye(p)
    pooled = (pooled + pooled.T) / 2.0

    priors = counts / n
    overall = priors @ means
    between = np.zeros((p, p))
    for j in range(c):
        diff = means[j] - overall
        between += priors[j] * np.outer(diff, diff)

    # The generalized problem B v = lambda C v in the steps LAPACK's sygvd
    # takes: C = L L', the ordinary eigenproblem of L^-1 B L^-T, and v = L^-T u,
    # which gives v' C v = 1. A C that is not positive definite raises
    # np.linalg.LinAlgError, a ValueError.
    chol = np.linalg.cholesky(pooled)
    whitened = np.linalg.solve(chol, np.linalg.solve(chol, between).T)
    _, vectors = np.linalg.eigh(whitened)
    axes = np.linalg.solve(chol.T, vectors[:, ::-1][:, : min(c - 1, p)]).T
    # pinned signs: each axis's largest-magnitude coefficient is positive
    peaks = axes[np.arange(axes.shape[0]), np.argmax(np.abs(axes), axis=1)]
    axes *= np.sign(peaks)[:, None]

    return LdaModel(
        class_means=means,
        pooled_covariance=pooled,
        priors=priors,
        discriminant_axes=axes,
        regularization_epsilon=LDA_REGULARIZATION_EPSILON,
    )


def _direction(model: LdaModel, direction) -> np.ndarray:
    """`direction` as a float vector: a ValueError unless it is nonzero and
    holds one entry per feature of `model`."""
    beta = np.asarray(direction, dtype=np.float64).reshape(-1)
    if beta.size != model.n_features:
        raise ValueError(f"expected {model.n_features} direction entries, got {beta.size}")
    if not np.any(beta != 0):
        raise ValueError("direction must be nonzero")
    return beta


def _mean_difference(model: LdaModel, class_i: int, class_j: int) -> np.ndarray:
    """Class i's mean less class j's: a ValueError unless both index a class."""
    c = model.n_classes
    if not (0 <= class_i < c and 0 <= class_j < c):
        raise ValueError(f"class indices must be in [0, {c})")
    return model.class_means[class_i] - model.class_means[class_j]


def lda_score(model: LdaModel, direction, class_i: int, class_j: int) -> float:
    """Separation of two classes along a direction: squared projected mean
    difference over projected pooled variance; invariant to direction scale."""
    beta = _direction(model, direction)
    diff = _mean_difference(model, class_i, class_j)
    return float((beta @ diff) ** 2 / (beta @ model.pooled_covariance @ beta))


def fisher_score(model: LdaModel, direction) -> float:
    """All-class separation ratio (between-class over within-class projected
    variance); the first discriminant axis maximizes this quantity."""
    beta = _direction(model, direction)
    overall = model.priors @ model.class_means
    projected = (model.class_means - overall) @ beta
    between = float((model.priors * projected**2).sum())
    return between / float(beta @ model.pooled_covariance @ beta)


def mahalanobis_sq(model: LdaModel, class_i: int, class_j: int) -> float:
    """Squared Mahalanobis distance between two class means under the pooled
    covariance metric."""
    diff = _mean_difference(model, class_i, class_j)
    return float(diff @ np.linalg.solve(model.pooled_covariance, diff))


def predict_lda(model: LdaModel, x):
    """Largest Gaussian discriminant score wins; ties go to the lowest index."""
    rows, single = as_rows(x, model.n_features)
    weights = np.linalg.solve(model.pooled_covariance, model.class_means.T)
    scores = rows @ weights - 0.5 * np.sum(model.class_means.T * weights, axis=0) + np.log(
        model.priors
    )
    return top_class(scores[0] if single else scores)


def discriminant_table(model: LdaModel, feature_names) -> str:
    """CSV of axis coefficients, one row per feature, columns LD1, LD2, ..."""
    names = tuple(feature_names)
    if len(names) != model.n_features:
        raise ValueError("feature_names length must match the model's feature count")
    out = io.StringIO()
    writer = csv.writer(out)
    n_axes = model.discriminant_axes.shape[0]
    writer.writerow(["feature"] + [f"LD{i + 1}" for i in range(n_axes)])
    for f, name in enumerate(names):
        writer.writerow([name] + [f"{model.discriminant_axes[i, f]:.10g}" for i in range(n_axes)])
    return out.getvalue()


@dataclass(frozen=True)
class LogisticModel:
    """Softmax linear model; weight row j holds [intercept, coefficients] for
    class j and the last class row is pinned to zero."""

    weights: np.ndarray
    iterations: int
    final_loss: float
    loss_history: tuple[float, ...] = field(default=(), metadata={"save": False})

    def __post_init__(self):
        freeze_arrays(self, np.float64, "weights")
        object.__setattr__(self, "loss_history", tuple(self.loss_history))
        if self.weights.ndim != 2 or self.weights.shape[0] < 2:
            raise ValueError("weights must be a (c, p+1) matrix with c >= 2")
        if np.any(self.weights[-1] != 0):
            raise ValueError("the last class's weight row must be pinned to zero")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1] - 1


def _softmax_work(scores: np.ndarray) -> tuple:
    """The buffers `_softmax_rows` works in for `scores`: its class columns,
    and the row max and row sum, each with its (..., 1) view."""
    peak, total = np.empty(scores.shape[:-1]), np.empty(scores.shape[:-1])
    return (tuple(scores[..., j] for j in range(scores.shape[-1])),
            peak, peak[..., None], total, total[..., None])


def _softmax_rows(scores: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Softmax over the last axis (at least two wide), computed in place in
    `scores`, which it returns, through the buffers `work` of
    `_softmax_work(scores)`. Chains of `np.maximum` and `np.add` over the
    class columns cost less than `max` and `sum` on short rows and give
    their bits: a max is exact in any order, and numpy sums a last axis
    shorter than 8 from left to right (pairwise from 8 on, so `sum` stays
    there)."""
    cols, peak, peak_col, total, total_col = work or _softmax_work(scores)
    np.maximum(cols[0], cols[1], out=peak)
    for col in cols[2:]:
        np.maximum(peak, col, out=peak)
    scores -= peak_col
    np.exp(scores, out=scores)
    if len(cols) < 8:
        np.add(cols[0], cols[1], out=total)
        for col in cols[2:]:
            np.add(total, col, out=total)
    else:
        scores.sum(axis=-1, out=total)
    scores /= total_col
    return scores


def _logistic_descent(features, labels, counts, grads):
    """The `dataset.descend_stacked` step of logistic regression for a stack
    of (k, n, p) features and (k, n) labels whose members have `counts`
    rows, sorted longest first, or for one train's (n, p) features and (n,)
    labels, writing the gradient into `grads[0]`, shaped like the weights,
    (k, c, p+1) or (c, p+1). Its buffers are built once; it returns:

    - `step(weights, picks)`, which writes each row's true-class probability
      at `weights[0]` into `picks`, shaped like the labels, and the gradient,
      whose pinned last rows are 0; a padding row adds exact zeros;
    - `score(picks)`, the (s, k) mean cross-entropies of the (s, k, n) picks
      of s steps;
    - the trailing shape of one row's picks, ().
    """
    (grad,) = grads
    pad, groups = padding(counts, labels.shape[-1])
    n_classes = grad.shape[-2]
    design = np.concatenate([np.ones(labels.shape + (1,)), features], axis=-1)  # [1 | X]
    if pad is not None:
        np.copyto(design, 0.0, where=pad)
    picked = np.arange(labels.size).reshape(labels.shape) * n_classes + labels
    onehot = np.zeros(labels.shape + (n_classes,))
    np.put(onehot, picked, 1.0)
    divisor = np.array(counts, dtype=np.float64).reshape(labels.shape[:-1] + (1, 1))
    # class scores, then probabilities, then their errors
    scores = np.empty(onehot.shape)
    scores_t, softmax, pinned = scores.swapaxes(-1, -2), _softmax_work(scores), grad[..., -1, :]

    def step(weights, picks):
        np.matmul(design, weights[0].swapaxes(-1, -2), out=scores)
        _softmax_rows(scores, softmax)
        scores.take(picked, out=picks, mode="clip")
        np.subtract(scores, onehot, out=scores)
        if pad is not None:
            # copyto, not a 0/1 product: a padding row's scores are NaN where
            # a weight is infinite, and NaN * 0 is NaN
            np.copyto(scores, 0.0, where=pad)
        # both sides are at least two wide (c >= 2 classes, p + 1 >= 2
        # columns), so numpy runs this as a BLAS matrix product, which adds
        # each entry's terms in row order: trailing zero rows change no bit
        # (fit_mlp_stacked has the one-wide case)
        np.matmul(scores_t, design, out=grad)
        np.divide(grad, divisor, out=grad)
        pinned.fill(0.0)

    def score(picks):
        # a row sum over n then one division is bit for bit `np.mean` of that row
        return -(own_row_sums(np.log(picks + 1e-300), groups) / divisor.reshape(-1))

    return step, score, ()


def logistic_loss_and_gradient(weights, features, labels):
    """Mean cross-entropy and its gradient; the pinned last row's gradient is 0."""
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    grad = np.empty(w.shape)
    step, score, _ = _logistic_descent(np.asarray(features, dtype=np.float64), y, [y.size],
                                       (grad,))
    picks = np.empty(y.shape)
    step((w,), picks)
    return float(score(picks.reshape(1, 1, -1))[0, 0]), grad


def fit_logistic(
    ds: Dataset,
    learning_rate: float = 0.1,
    max_iter: int = 5000,
    tolerance: float = 1e-8,
) -> LogisticModel:
    """Full-batch gradient descent from zero weights; stops when the loss
    settles (nonnegative improvement below tolerance) or at max_iter.

    Expects standardized features; the benchmark harness standardizes.
    """
    (result,) = fit_logistic_stacked((ds,), learning_rate, max_iter, tolerance)
    if isinstance(result, ValueError):
        raise result
    return result


def fit_logistic_stacked(
    datasets,
    learning_rate: float = 0.1,
    max_iter: int = 5000,
    tolerance: float = 1e-8,
) -> tuple[LogisticModel | ValueError, ...]:
    """`fit_logistic` on each of several datasets of one feature and class
    count, of any row counts, in one `dataset.descend_stacked` loop, with
    each model bit for bit the one `fit_logistic` gives it alone. Returns,
    per dataset in order, its model or the ValueError its own fit raises.
    """
    results = []
    for ds in datasets:
        if ds.n_samples < ds.n_classes:
            results.append(ValueError(
                f"need at least as many samples as classes, got n={ds.n_samples}"))
        elif not (0 < learning_rate < math.inf and max_iter >= 0 and 0 <= tolerance < math.inf):
            results.append(ValueError("learning_rate must be finite and positive, max_iter "
                                      "nonnegative, tolerance finite and nonnegative"))
        else:
            results.append(None)
    live = [j for j, result in enumerate(results) if result is None]
    if not live:
        return tuple(results)
    c, p = datasets[live[0]].n_classes, datasets[live[0]].n_features
    fits = descend_stacked([datasets[j] for j in live], [(np.zeros((c, p + 1)),)] * len(live),
                           _logistic_descent, learning_rate, max_iter, tolerance)
    for j, (losses, (w,)) in zip(live, fits):
        it = len(losses) - 1
        if not math.isfinite(losses[-1]):
            results[j] = ValueError(f"training loss became non-finite at iteration {it}")
        else:
            # the capped iteration's loss is the final loss, not history
            results[j] = LogisticModel(w, it, losses[-1], losses[: it + (it < max_iter)])
    return tuple(results)


# a score past the float range is a ValueError below; one that only pushes a
# class's shifted score past it gives that class probability 0, as it should
@np.errstate(over="ignore", invalid="ignore")
def predict_logistic_proba(model: LogisticModel, x) -> np.ndarray:
    """Class probabilities of each row; they sum to 1. A ValueError when a
    row's class scores overflow (weights of a fit with a huge step)."""
    rows, single = as_rows(x, model.n_features)
    probs = _softmax_rows(np.hstack([np.ones((rows.shape[0], 1)), rows]) @ model.weights.T)
    if np.isnan(probs).any():
        raise ValueError("class scores are not finite: the weights overflow on these rows")
    probs /= probs.sum(axis=1, keepdims=True)
    return probs[0] if single else probs


def predict_logistic(model: LogisticModel, x):
    return top_class(predict_logistic_proba(model, x))


@dataclass(frozen=True)
class NaiveBayesModel:
    """Frequency priors plus one Gaussian per (class, feature) pair."""

    priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    variance_floor: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, np.float64, "priors", "means", "variances", "variance_floor")
        c, p = _class_feature_shape(self.means, "means")
        _check_shapes(self, priors=(c,), variances=(c, p), variance_floor=(p,))
        if abs(self.priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("all variances must be positive after flooring")

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def fit_naive_bayes(ds: Dataset) -> NaiveBayesModel:
    """Per-class feature Gaussians; variances floored relative to each
    feature's overall variance so no class-conditional density degenerates."""
    counts = ds.class_counts()
    if counts.min() < 1:
        missing = ds.class_names[int(np.argmin(counts))]
        raise ValueError(f"class {missing!r} has no samples")
    c, p = ds.n_classes, ds.n_features
    floor = 1e-9 * (ds.features.var(axis=0) + 1e-12)
    means = np.empty((c, p))
    variances = np.empty((c, p))
    for j in range(c):
        rows = ds.features[ds.labels == j]
        means[j] = rows.mean(axis=0)
        variances[j] = np.maximum(rows.var(axis=0), floor)
    return NaiveBayesModel(
        priors=counts / ds.n_samples, means=means, variances=variances, variance_floor=floor
    )


def nb_posterior(model: NaiveBayesModel, x) -> np.ndarray:
    """Normalized class posteriors, accumulated in log space for stability."""
    rows, single = as_rows(x, model.n_features)
    log_like = -0.5 * (
        np.log(2.0 * np.pi * model.variances)
        + (rows[:, None, :] - model.means) ** 2 / model.variances
    ).sum(axis=2)
    log_post = np.log(model.priors) + log_like
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    post /= post.sum(axis=1, keepdims=True)
    return post[0] if single else post


def predict_nb(model: NaiveBayesModel, x):
    """Highest posterior wins; ties go to the lowest class index."""
    return top_class(nb_posterior(model, x))
