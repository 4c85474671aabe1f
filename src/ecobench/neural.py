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


def _sigmoid_in_place(h, e, den, mask):
    """h <- sigmoid(h) through the buffers `e` and `den` (floats) and `mask`
    (bools) of h's shape: with e = exp(-|h|) it is 1/(1+e) where h >= 0 and
    e/(1+e) below, bit for bit `np.where(h >= 0, 1.0, e) / (1.0 + e)`."""
    np.abs(h, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(h, 0.0, out=mask)
    np.add(1.0, e, out=den)
    np.copyto(e, 1.0, where=mask)
    np.divide(e, den, out=h)


def sigmoid(x):
    """Logistic function 1/(1+e^-x), saturating without overflow: with
    e = exp(-|x|) it is 1/(1+e) for x >= 0 and e/(1+e) below."""
    out = np.array(x, dtype=np.float64)
    _sigmoid_in_place(out, np.empty_like(out), np.empty_like(out), np.empty(out.shape, bool))
    return out if out.ndim else float(out)


def _network(x, grads, pad=None):
    """The passes of the network over rows `x`, (n, p) with 2-D weights or a
    (k, n, p) stack with (k, ...) weights whose padding rows the
    `dataset.padding` mask `pad` marks, in buffers built once:

    - `layers(weights)` returns the (hidden, outputs) of the weights
      (input_to_hidden, hidden_bias, hidden_to_output, output_bias): sigmoid
      hidden units, then their linear read-out. Padding rows' hidden units
      are zeros.
    - `backprop(w2)` returns `grads`, arrays shaped like the weights, biases
      as rows, into which it writes the gradients of half the summed squared
      error, from the read-out weights `w2` and the hidden units of the last
      `layers` pass, whose outputs now hold the output errors. Zero padding
      rows of the hidden units and errors add exact zeros.

    Each pass overwrites the arrays the last one returned."""
    q, c = grads[1].shape[-1], grads[3].shape[-1]
    xt = x.swapaxes(-1, -2)
    hidden = np.empty(x.shape[:-1] + (q,))
    hidden_t = hidden.swapaxes(-1, -2)
    e, den = np.empty_like(hidden), np.empty_like(hidden)  # `_sigmoid_in_place` buffers
    mask = np.empty(hidden.shape, bool)
    outputs = np.empty(x.shape[:-1] + (c,))  # the outputs, then their errors
    d_hidden, slope = np.empty_like(hidden), np.empty_like(hidden)
    g_w1, g_b1, g_w2, g_b2 = grads

    def layers(weights):
        w1, b1, w2, b2 = weights
        np.matmul(x, w1, out=hidden)
        np.add(hidden, b1, out=hidden)
        _sigmoid_in_place(hidden, e, den, mask)
        if pad is not None:
            # copyto, not a 0/1 product: with an infinite input weight a
            # padding row's hidden unit is NaN (0 * inf), and NaN * 0 is NaN
            np.copyto(hidden, 0.0, where=pad)
        np.matmul(hidden, w2, out=outputs)
        np.add(outputs, b2, out=outputs)
        return hidden, outputs

    def backprop(w2):
        np.matmul(outputs, w2.swapaxes(-1, -2), out=d_hidden)
        np.multiply(d_hidden, hidden, out=d_hidden)
        np.subtract(1.0, hidden, out=slope)
        np.multiply(d_hidden, slope, out=d_hidden)
        np.matmul(xt, d_hidden, out=g_w1)
        np.add.reduce(d_hidden, axis=-2, keepdims=True, out=g_b1)
        np.matmul(hidden_t, outputs, out=g_w2)
        np.add.reduce(outputs, axis=-2, keepdims=True, out=g_b2)
        return grads

    return layers, backprop


def _model_pass(model: MlpModel, x):
    """A `_network` pass of `model` over rows `x`: its weights, biases as
    rows, the outputs, and the pass's `backprop`, with gradient buffers of
    its own."""
    weights = (model.input_to_hidden, model.hidden_bias[None], model.hidden_to_output,
               model.output_bias[None])
    layers, backprop = _network(x, tuple(np.empty(w.shape) for w in weights))
    return weights, layers(weights)[1], backprop


def forward(model: MlpModel, x) -> np.ndarray:
    """Network outputs: linear read-out of sigmoid hidden units."""
    rows, single = as_rows(x, model.n_features)
    outputs = _model_pass(model, rows)[1]
    return outputs[0] if single else outputs


def mlp_loss(model: MlpModel, features, targets) -> float:
    """Half the summed squared output error over a batch."""
    outputs = _model_pass(model, np.asarray(features, dtype=np.float64))[1]
    return float(0.5 * ((outputs - np.asarray(targets, dtype=np.float64)) ** 2).sum())


def mlp_gradients(model: MlpModel, features, targets):
    """Backpropagated gradients of `mlp_loss` in the order
    (input_to_hidden, hidden_bias, hidden_to_output, output_bias)."""
    weights, d_out, backprop = _model_pass(model, np.asarray(features, dtype=np.float64))
    d_out -= np.asarray(targets, dtype=np.float64)
    g_in_w, g_in_b, g_out_w, g_out_b = backprop(weights[2])
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


def _mlp_descent(x, labels, counts, grads):
    """The `dataset.descend_stacked` step of the network for a stack's or one
    train's rows and labels, writing the gradients into `grads`: `step(weights,
    squares)`, whose one forward pass writes the squared output errors of the
    weights into `squares` and feeds their gradients; `score(squares)`, each
    member's sum of them; and the shape of one row's squares, (c,)."""
    n_classes = grads[3].shape[-1]
    targets = np.zeros(labels.shape + (n_classes,))
    np.put_along_axis(targets, labels[..., None], 1.0, axis=-1)
    pad, groups = padding(counts, labels.shape[-1])
    layers, backprop = _network(x, grads, pad)

    def step(weights, squares):
        _, d_out = layers(weights)
        np.subtract(d_out, targets, out=d_out)
        if pad is not None:
            np.copyto(d_out, 0.0, where=pad)
        np.square(d_out, out=squares)
        backprop(weights[2])

    return step, lambda squares: own_row_sums(squares, groups), (n_classes,)


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
    if q < 1 or epochs < 0 or not (0 <= learning_rate < math.inf and 0 <= init_scale < math.inf):
        return tuple(ValueError("q must be >= 1; epochs nonnegative; learning_rate and "
                                "init_scale finite and nonnegative") for _ in datasets)
    p, c = shared_shape(datasets)
    counts = [ds.n_samples for ds in datasets]
    if min(p, q, *counts) == 1 and len(set(counts)) > 1:
        # with one input, one hidden unit or one row a product has a side one
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
    for sses, (w1, b1, w2, b2) in descend_stacked(datasets, [starts[seed] for seed in seeds],
                                                   _mlp_descent, learning_rate, epochs, 1e-10):
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
