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
    BLOCK_STEPS,
    Dataset,
    as_rows,
    first_stops,
    freeze_arrays,
    own_row_sums,
    padding,
    stack_datasets,
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


# a diverging fit's overflow ends it as the typed non-finite-loss error, without a warning
@np.errstate(over="ignore", invalid="ignore")
def fit_mlp_stacked(
    datasets,
    seeds,
    q: int = 5,
    epochs: int = 2000,
    learning_rate: float = 0.01,
    init_scale: float = 0.5,
) -> tuple[tuple[MlpModel, TrainTrace] | ValueError, ...]:
    """`fit_mlp` on each of several datasets of one feature and class count,
    of any row counts, in one loop; `seeds` holds each one's seed.

    Every network starts from the weights its own seed draws. The datasets
    are stacked as (k, n, p) arrays, the shorter ones padded with zero rows,
    so each epoch is a few batched products for all of them. The loop runs
    in blocks of `dataset.BLOCK_STEPS` epochs: an epoch only writes its
    weights and squared output errors into buffers allocated once per block,
    and the SSEs, traces and stop tests of the whole block follow at its end
    (`dataset.first_stops`). A network leaves the stack at the end of the
    block in which its own SSE settles or turns non-finite; the epochs it
    took after that are thrown away, and its weights and trace are bit for
    bit the ones `fit_mlp` gives it alone. Returns, per dataset in order, its
    (model, trace) or the ValueError its own fit raises.
    """
    if q < 1 or epochs < 0 or learning_rate < 0 or init_scale < 0:
        return tuple(ValueError("q must be >= 1; epochs, learning_rate, init_scale nonnegative")
                     for _ in datasets)
    # longest first, so that the members of one row count are one slice of the stack
    live = sorted(range(len(datasets)), key=lambda j: -datasets[j].n_samples)
    x, labels, counts = stack_datasets([datasets[j] for j in live])
    (k, n, p), c = x.shape, datasets[0].n_classes
    if min(p, q) == 1 and counts[-1] < n:
        # with one input or one hidden unit a gradient product has a side one
        # wide, which numpy hands to BLAS gemv, and a bias sum is over a single
        # column, which numpy adds pairwise: neither adds padding zeros
        # exactly, so such stacks hold one row count each
        results = [None] * k
        for size in dict.fromkeys(counts):
            group = [j for j in live if datasets[j].n_samples == size]
            fitted = fit_mlp_stacked([datasets[j] for j in group], [seeds[j] for j in group],
                                     q, epochs, learning_rate, init_scale)
            for j, result in zip(group, fitted):
                results[j] = result
        return tuple(results)
    results = [None] * k
    starts = {}
    for seed in dict.fromkeys(seeds[j] for j in live):
        rng = np.random.default_rng(seed)
        starts[seed] = (
            rng.uniform(-init_scale, init_scale, size=(p, q)),
            rng.uniform(-init_scale, init_scale, size=(1, q)),
            rng.uniform(-init_scale, init_scale, size=(q, c)),
            rng.uniform(-init_scale, init_scale, size=(1, c)),
        )
    targets = np.zeros((k, n, c))
    np.put_along_axis(targets, labels[:, :, None], 1.0, axis=2)
    if k == 1:  # one network trains on 2-D arrays, whose products cost less per call
        weights, x, targets = starts[seeds[0]], x[0], targets[0]
    else:
        weights = [np.stack(arrs) for arrs in zip(*(starts[seeds[j]] for j in live))]
    xt = x.swapaxes(-1, -2)
    pad, groups = padding(counts, n)
    prev = np.full(k, math.inf)  # no improvement test before the first update
    traces = [[] for _ in live]
    start = 0
    while True:
        steps = min(BLOCK_STEPS, epochs + 1 - start)
        blocks = [np.empty((steps + 1,) + w.shape) for w in weights]
        for block, w in zip(blocks, weights):
            block[0] = w
        squares = np.empty((steps,) + targets.shape)
        for i in range(steps):
            # one forward pass scores the last update and feeds the next
            w1, b1, w2, b2 = (block[i] for block in blocks)
            hidden, d_out = _layers(x, w1, b1, w2, b2, pad)
            d_out -= targets
            if pad is not None:
                np.copyto(d_out, 0.0, where=pad)
            np.square(d_out, out=squares[i])
            for block, grad in zip(blocks, _backprop(xt, hidden, d_out, w2.swapaxes(-1, -2))):
                grad *= learning_rate
                np.subtract(block[i], grad, out=block[i + 1])
        sses = own_row_sums(squares.reshape(steps, -1, n, c), groups)
        stops = first_stops(sses, prev, 1e-10, start + steps > epochs)
        keep = []
        # epoch 0 scores the start weights, which no trace holds
        for pos, (j, trace) in enumerate(zip(stops, sses[start == 0:].T.tolist())):
            if j == steps:
                traces[pos] += trace
                keep.append(pos)
                continue
            if not math.isfinite(sses[j, pos]):
                results[live[pos]] = ValueError(
                    f"training loss became non-finite at epoch {start + j}")
                continue
            traces[pos] += trace[: j + (start > 0)]
            w1, b1, w2, b2 = (block[j].reshape((-1,) + block.shape[-2:])[pos].copy()
                              for block in blocks)
            try:
                model = MlpModel(input_to_hidden=w1, hidden_bias=b1[0],
                                 hidden_to_output=w2, output_bias=b2[0])
            except ValueError as exc:
                results[live[pos]] = exc
            else:
                results[live[pos]] = model, TrainTrace(sse=tuple(traces[pos]))
        if not keep:
            return tuple(results)
        weights, prev, start = [block[-1] for block in blocks], sses[-1], start + steps
        if len(keep) < len(live):
            live = [live[pos] for pos in keep]
            traces = [traces[pos] for pos in keep]
            counts = [counts[pos] for pos in keep]
            weights, prev, x, targets = ([w[keep] for w in weights], prev[keep], x[keep],
                                         targets[keep])
            xt = x.swapaxes(-1, -2)
            pad, groups = padding(counts, n)


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
