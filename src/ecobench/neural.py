"""Single-hidden-layer feed-forward classifier trained by backpropagation.

Hidden units apply the logistic sigmoid; outputs are linear, one per class,
fit to one-hot targets by full-batch gradient descent on squared error.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Dataset,
    as_rows,
    descend_stacked,
    freeze_arrays,
    own_row_sums,
    padding,
    shared_shape,
    top_class,
)


@dataclass(frozen=True)
class MlpModel:
    input_to_hidden: np.ndarray
    hidden_bias: np.ndarray
    hidden_to_output: np.ndarray
    output_bias: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, np.float64, "input_to_hidden", "hidden_bias", "hidden_to_output",
                      "output_bias")
        p, q = self.input_to_hidden.shape
        c = self.output_bias.shape[0]
        if self.hidden_bias.shape != (q,) or self.hidden_to_output.shape != (q, c):
            raise ValueError("weight shapes are inconsistent")

    @property
    def n_features(self) -> int:
        return self.input_to_hidden.shape[0]

    @property
    def n_classes(self) -> int:
        return self.output_bias.shape[0]


@dataclass(frozen=True)
class TrainTrace:
    """Summed squared error after each weight update."""

    sse: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sse", tuple(float(v) for v in self.sse))

    @property
    def steps(self) -> int:
        return len(self.sse)

    @property
    def final_sse(self) -> float:
        return self.sse[-1] if self.sse else float("nan")


def sigmoid(x):
    """Logistic function 1/(1+e^-x), saturating without overflow: with
    e = exp(-|x|) it is 1/(1+e) for x >= 0 and e/(1+e) below."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def _layers(x, w1, b1, w2, b2, pad=None):
    """(hidden, outputs) of the network on rows `x`: sigmoid hidden units,
    then their linear read-out. Works alike on (n, p) rows with 2-D weights
    and on (k, n, p) stacks with (k, ...) weights; the hidden units of the
    stack's padding rows `pad` (a `dataset.padding` mask) are zeros."""
    hidden = x @ w1
    hidden += b1
    hidden = sigmoid(hidden)
    if pad is not None:
        # copyto, not a 0/1 product: with an infinite input weight a padding
        # row's hidden unit is NaN (0 * inf), and NaN * 0 is NaN
        np.copyto(hidden, 0.0, where=pad)
    outputs = hidden @ w2
    outputs += b2
    return hidden, outputs


def _backprop(xt, hidden, d_out, w2t):
    """Gradients of half the summed squared error in the order (input_to_hidden,
    hidden_bias, hidden_to_output, output_bias), from the transposed inputs
    `xt`, the hidden units and the output errors `d_out` of a `_layers` pass
    and the transposed read-out weights `w2t`; biases keep their row axis.
    Zero padding rows of `hidden` and `d_out` add exact zeros."""
    d_hidden = d_out @ w2t
    d_hidden *= hidden
    d_hidden *= 1.0 - hidden
    return (xt @ d_hidden, d_hidden.sum(axis=-2, keepdims=True),
            hidden.swapaxes(-1, -2) @ d_out, d_out.sum(axis=-2, keepdims=True))


def forward(model: MlpModel, x) -> np.ndarray:
    """Network outputs: linear read-out of sigmoid hidden units."""
    rows, single = as_rows(x, model.n_features)
    _, outputs = _layers(rows, model.input_to_hidden, model.hidden_bias,
                         model.hidden_to_output, model.output_bias)
    return outputs[0] if single else outputs


def mlp_loss(model: MlpModel, features, targets) -> float:
    """Half the summed squared output error over a batch."""
    _, outputs = _layers(np.asarray(features, dtype=np.float64), model.input_to_hidden,
                         model.hidden_bias, model.hidden_to_output, model.output_bias)
    return float(0.5 * ((outputs - np.asarray(targets, dtype=np.float64)) ** 2).sum())


def mlp_gradients(model: MlpModel, features, targets):
    """Backpropagated gradients of `mlp_loss` in the order
    (input_to_hidden, hidden_bias, hidden_to_output, output_bias)."""
    x = np.asarray(features, dtype=np.float64)
    hidden, outputs = _layers(x, model.input_to_hidden, model.hidden_bias,
                              model.hidden_to_output, model.output_bias)
    g_in_w, g_in_b, g_out_w, g_out_b = _backprop(
        x.T, hidden, outputs - np.asarray(targets, dtype=np.float64), model.hidden_to_output.T)
    return g_in_w, g_in_b[0], g_out_w, g_out_b[0]


def fit_mlp(
    ds: Dataset,
    q: int = 5,
    epochs: int = 2000,
    learning_rate: float = 0.01,
    seed: int = 0,
    init_scale: float = 0.5,
) -> tuple[MlpModel, TrainTrace]:
    """Train on one-hot targets; weights start uniform in [-init_scale,
    +init_scale]. Stops at the epoch cap or once an epoch's nonnegative SSE
    improvement falls below 1e-10; worsening epochs keep training."""
    (result,) = fit_mlp_stacked((ds,), (seed,), q, epochs, learning_rate, init_scale)
    if isinstance(result, ValueError):
        raise result
    return result


def _mlp_inputs(x, labels, counts, n_classes):
    """The weight-independent inputs of `_mlp_step` for stacked or one
    train's rows and labels: the rows, their transpose, the one-hot targets
    and `dataset.padding`; and the shape of the squared output errors."""
    targets = np.zeros(labels.shape + (n_classes,))
    np.put_along_axis(targets, labels[..., None], 1.0, axis=-1)
    pad, groups = padding(counts, labels.shape[-1])
    return (x, x.swapaxes(-1, -2), targets, pad, groups), targets.shape


def _mlp_step(weights, inputs, squares):
    """One epoch's array work: one forward pass scores the weights, writing
    their squared output errors into `squares`, and feeds their gradients."""
    x, xt, targets, pad, _ = inputs
    w1, b1, w2, b2 = weights
    hidden, d_out = _layers(x, w1, b1, w2, b2, pad)
    d_out -= targets
    if pad is not None:
        np.copyto(d_out, 0.0, where=pad)
    np.square(d_out, out=squares)
    return _backprop(xt, hidden, d_out, w2.swapaxes(-1, -2))


def fit_mlp_stacked(
    datasets,
    seeds,
    q: int = 5,
    epochs: int = 2000,
    learning_rate: float = 0.01,
    init_scale: float = 0.5,
) -> tuple[tuple[MlpModel, TrainTrace] | ValueError, ...]:
    """`fit_mlp` on each of several datasets of one feature and class count,
    of any row counts, in one `dataset.descend_stacked` loop; `seeds` holds
    each one's seed. Every network starts from the weights its own seed
    draws, and its weights and trace are bit for bit the ones `fit_mlp`
    gives it alone. Returns, per dataset in order, its (model, trace) or the
    ValueError its own fit raises.
    """
    if q < 1 or epochs < 0 or learning_rate < 0 or init_scale < 0:
        return tuple(ValueError("q must be >= 1; epochs, learning_rate, init_scale nonnegative")
                     for _ in datasets)
    p, c = shared_shape(datasets)
    counts = [ds.n_samples for ds in datasets]
    if min(p, q) == 1 and len(set(counts)) > 1:
        # with one input or one hidden unit a gradient product has a side one
        # wide, which numpy hands to BLAS gemv, and a bias sum is over a single
        # column, which numpy adds pairwise: neither adds padding zeros
        # exactly, so such stacks hold one row count each
        results = [None] * len(datasets)
        for size in dict.fromkeys(counts):
            group = [j for j, n in enumerate(counts) if n == size]
            fitted = fit_mlp_stacked([datasets[j] for j in group], [seeds[j] for j in group],
                                     q, epochs, learning_rate, init_scale)
            for j, result in zip(group, fitted):
                results[j] = result
        return tuple(results)
    starts = {}
    for seed in dict.fromkeys(seeds):
        rng = np.random.default_rng(seed)
        starts[seed] = tuple(rng.uniform(-init_scale, init_scale, size=shape)
                             for shape in ((p, q), (1, q), (q, c), (1, c)))
    results = []
    for sses, (w1, b1, w2, b2) in descend_stacked(
            datasets, [starts[seed] for seed in seeds],
            lambda x, labels, counts: _mlp_inputs(x, labels, counts, c), _mlp_step,
            lambda squares, inputs: own_row_sums(squares, inputs[-1]),
            learning_rate, epochs, 1e-10):
        if not math.isfinite(sses[-1]):
            results.append(ValueError(
                f"training loss became non-finite at epoch {len(sses) - 1}"))
            continue
        try:
            model = MlpModel(input_to_hidden=w1, hidden_bias=b1[0],
                             hidden_to_output=w2, output_bias=b2[0])
        except ValueError as exc:
            results.append(exc)
        else:
            # epoch 0 scores the start weights, which no trace holds
            results.append((model, TrainTrace(sse=tuple(sses[1:]))))
    return tuple(results)


def predict_mlp(model: MlpModel, x):
    """Largest output wins; ties go to the lowest class index."""
    return top_class(forward(model, x))


def trace_csv(trace: TrainTrace) -> str:
    """Two-column CSV of the training curve: epoch, sse."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["epoch", "sse"])
    for epoch, sse in enumerate(trace.sse, start=1):
        writer.writerow([epoch, f"{sse:.10g}"])
    return out.getvalue()
