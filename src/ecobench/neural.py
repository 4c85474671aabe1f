"""Single-hidden-layer feed-forward classifier trained by backpropagation.

Hidden units apply the logistic sigmoid; outputs are linear, one per class,
fit to one-hot targets by full-batch gradient descent on squared error.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class _MlpWork(NamedTuple):
    """The arrays of one network pass and backprop over rows `x`, (n, p) or
    a (k, n, p) stack, built once per fit by `_mlp_work`: the inputs and the
    buffers each pass overwrites."""

    x: np.ndarray
    xt: np.ndarray  # x's transposed view
    pad: np.ndarray | None  # `dataset.padding` mask of the stack's padding rows
    targets: np.ndarray | None  # one-hot targets of a fit
    groups: list | None  # `dataset.padding` row-count runs of a fit
    hidden: np.ndarray
    hidden_t: np.ndarray  # its transposed view
    e: np.ndarray  # `_sigmoid_in_place` buffers
    den: np.ndarray
    mask: np.ndarray
    outputs: np.ndarray  # the outputs, then their errors
    d_hidden: np.ndarray
    slope: np.ndarray  # 1 - hidden
    grads: tuple  # the gradients, in the order of the weights


def _mlp_work(x, grads, pad=None, targets=None, groups=None) -> _MlpWork:
    """The `_layers` and `_backprop` workspace for rows `x`, writing the
    gradients into `grads`, arrays shaped like the weights (input_to_hidden,
    hidden_bias, hidden_to_output, output_bias), biases as rows."""
    q, c = grads[1].shape[-1], grads[3].shape[-1]
    hidden = np.empty(x.shape[:-1] + (q,))
    return _MlpWork(x, x.swapaxes(-1, -2), pad, targets, groups, hidden,
                    hidden.swapaxes(-1, -2), np.empty_like(hidden), np.empty_like(hidden),
                    np.empty(hidden.shape, bool), np.empty(x.shape[:-1] + (c,)),
                    np.empty_like(hidden), np.empty_like(hidden), grads)


def _layers(weights, work):
    """(hidden, outputs) of the network with `weights` (input_to_hidden,
    hidden_bias, hidden_to_output, output_bias) on the rows of `work`:
    sigmoid hidden units, then their linear read-out, written into
    `work.hidden` and `work.outputs`. Works alike on (n, p) rows with 2-D
    weights and on (k, n, p) stacks with (k, ...) weights; the hidden units
    of the stack's padding rows are zeros."""
    w1, b1, w2, b2 = weights
    hidden, outputs = work.hidden, work.outputs
    np.matmul(work.x, w1, out=hidden)
    hidden += b1
    _sigmoid_in_place(hidden, work.e, work.den, work.mask)
    if work.pad is not None:
        # copyto, not a 0/1 product: with an infinite input weight a padding
        # row's hidden unit is NaN (0 * inf), and NaN * 0 is NaN
        np.copyto(hidden, 0.0, where=work.pad)
    np.matmul(hidden, w2, out=outputs)
    outputs += b2
    return hidden, outputs


def _backprop(w2, work):
    """Gradients of half the summed squared error in the order (input_to_hidden,
    hidden_bias, hidden_to_output, output_bias), written into `work.grads`,
    which it returns, from the read-out weights `w2` and the hidden units of
    a `_layers` pass in `work` whose outputs now hold the output errors;
    biases keep their row axis. Zero padding rows of the hidden units and
    errors add exact zeros."""
    d_hidden, d_out, hidden = work.d_hidden, work.outputs, work.hidden
    g_w1, g_b1, g_w2, g_b2 = work.grads
    np.matmul(d_out, w2.swapaxes(-1, -2), out=d_hidden)
    d_hidden *= hidden
    np.subtract(1.0, hidden, out=work.slope)
    d_hidden *= work.slope
    np.matmul(work.xt, d_hidden, out=g_w1)
    np.add.reduce(d_hidden, axis=-2, keepdims=True, out=g_b1)
    np.matmul(work.hidden_t, d_out, out=g_w2)
    np.add.reduce(d_out, axis=-2, keepdims=True, out=g_b2)
    return work.grads


def _model_pass(model: MlpModel, x):
    """A `_layers` pass of `model` over rows `x`: its weights, biases as
    rows, and the pass's workspace, with gradient buffers of its own."""
    weights = (model.input_to_hidden, model.hidden_bias[None], model.hidden_to_output,
               model.output_bias[None])
    work = _mlp_work(x, tuple(np.empty(w.shape) for w in weights))
    _layers(weights, work)
    return weights, work


def forward(model: MlpModel, x) -> np.ndarray:
    """Network outputs: linear read-out of sigmoid hidden units."""
    rows, single = as_rows(x, model.n_features)
    outputs = _model_pass(model, rows)[1].outputs
    return outputs[0] if single else outputs


def mlp_loss(model: MlpModel, features, targets) -> float:
    """Half the summed squared output error over a batch."""
    outputs = _model_pass(model, np.asarray(features, dtype=np.float64))[1].outputs
    return float(0.5 * ((outputs - np.asarray(targets, dtype=np.float64)) ** 2).sum())


def mlp_gradients(model: MlpModel, features, targets):
    """Backpropagated gradients of `mlp_loss` in the order
    (input_to_hidden, hidden_bias, hidden_to_output, output_bias)."""
    weights, work = _model_pass(model, np.asarray(features, dtype=np.float64))
    d_out = work.outputs
    d_out -= np.asarray(targets, dtype=np.float64)
    g_in_w, g_in_b, g_out_w, g_out_b = _backprop(weights[2], work)
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


def _mlp_inputs(x, labels, counts, grads):
    """The `_mlp_step` workspace for stacked or one train's rows and labels,
    with the gradient buffers `grads`, and the shape of one row's squared
    output errors."""
    n_classes = grads[3].shape[-1]
    targets = np.zeros(labels.shape + (n_classes,))
    np.put_along_axis(targets, labels[..., None], 1.0, axis=-1)
    pad, groups = padding(counts, labels.shape[-1])
    return _mlp_work(x, grads, pad, targets, groups), (n_classes,)


def _mlp_step(weights, work, squares):
    """One epoch's array work: one forward pass scores the weights, writing
    their squared output errors into `squares`, and feeds their gradients,
    written into `work.grads`."""
    _, d_out = _layers(weights, work)
    d_out -= work.targets
    if work.pad is not None:
        np.copyto(d_out, 0.0, where=work.pad)
    np.square(d_out, out=squares)
    _backprop(weights[2], work)


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
    for sses, (w1, b1, w2, b2) in descend_stacked(
            datasets, [starts[seed] for seed in seeds],
            _mlp_inputs, _mlp_step, lambda squares, work: own_row_sums(squares, work.groups),
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
