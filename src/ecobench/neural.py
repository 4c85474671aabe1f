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

from .dataset import Dataset, as_rows, freeze_arrays, stack_datasets, top_class


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


def _layers(x, w1, b1, w2, b2):
    """(hidden, outputs) of the network on rows `x`: sigmoid hidden units,
    then their linear read-out. Works alike on (n, p) rows with 2-D weights
    and on (k, n, p) stacks with (k, ...) weights."""
    hidden = x @ w1
    hidden += b1
    hidden = sigmoid(hidden)
    outputs = hidden @ w2
    outputs += b2
    return hidden, outputs


def _backprop(x, hidden, d_out, w2):
    """Gradients of half the summed squared error in the order (input_to_hidden,
    hidden_bias, hidden_to_output, output_bias), from the inputs, the hidden
    units and the output errors `d_out` of a `_layers` pass; biases keep their
    row axis."""
    d_hidden = d_out @ w2.swapaxes(-1, -2)
    d_hidden *= hidden
    d_hidden *= 1.0 - hidden
    return (x.swapaxes(-1, -2) @ d_hidden, d_hidden.sum(axis=-2, keepdims=True),
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
        x, hidden, outputs - np.asarray(targets, dtype=np.float64), model.hidden_to_output)
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
    (result,) = fit_mlp_stacked((ds,), q, epochs, learning_rate, seed, init_scale)
    if isinstance(result, ValueError):
        raise result
    return result


# a diverging fit's overflow ends it as the typed non-finite-loss error, without a warning
@np.errstate(over="ignore", invalid="ignore")
def fit_mlp_stacked(
    datasets,
    q: int = 5,
    epochs: int = 2000,
    learning_rate: float = 0.01,
    seed: int = 0,
    init_scale: float = 0.5,
) -> tuple[tuple[MlpModel, TrainTrace] | ValueError, ...]:
    """`fit_mlp` on each of several datasets of one shape, in one loop.

    Every network starts from the same seeded weights. The datasets are
    stacked as (k, n, p) arrays, so each epoch is a few batched products for
    all of them. A network leaves the stack when its own SSE settles or turns
    non-finite, and its weights and trace are bit for bit the ones `fit_mlp`
    gives it alone. Returns, per dataset in order, its (model, trace) or the
    ValueError its own fit raises.
    """
    if q < 1 or epochs < 0 or learning_rate < 0 or init_scale < 0:
        return tuple(ValueError("q must be >= 1; epochs, learning_rate, init_scale nonnegative")
                     for _ in datasets)
    x, labels = stack_datasets(datasets)
    (k, n, p), c = x.shape, datasets[0].n_classes
    results, live = [None] * k, list(range(k))
    rng = np.random.default_rng(seed)
    start = (
        rng.uniform(-init_scale, init_scale, size=(p, q)),
        rng.uniform(-init_scale, init_scale, size=(1, q)),
        rng.uniform(-init_scale, init_scale, size=(q, c)),
        rng.uniform(-init_scale, init_scale, size=(1, c)),
    )
    targets = np.zeros((k, n, c))
    np.put_along_axis(targets, labels[:, :, None], 1.0, axis=2)
    if k == 1:  # one network trains on 2-D arrays, whose products cost less per call
        (w1, b1, w2, b2), x, targets = start, x[0], targets[0]
    else:
        w1, b1, w2, b2 = (np.repeat(arr[None], k, axis=0) for arr in start)
    prev = [math.inf] * k  # no improvement test before the first update
    traces = [[] for _ in live]
    for epoch in range(epochs + 1):
        # one forward pass scores the last update and feeds the next
        hidden, d_out = _layers(x, w1, b1, w2, b2)
        d_out -= targets
        sses = (d_out ** 2).reshape(-1, n * c).sum(axis=1).tolist()
        # stop tests on Python floats: array-valued tests cost more than the
        # arithmetic at one network and a few dozen rows
        keep = []
        for pos, sse in enumerate(sses):
            if not math.isfinite(sse):
                results[live[pos]] = ValueError(
                    f"training loss became non-finite at epoch {epoch}")
                continue
            if epoch:
                traces[pos].append(sse)
            if epoch < epochs and not 0.0 <= prev[pos] - sse < 1e-10:
                keep.append(pos)
                continue
            try:
                model = MlpModel(input_to_hidden=w1.reshape(-1, p, q)[pos],
                                 hidden_bias=b1.reshape(-1, q)[pos],
                                 hidden_to_output=w2.reshape(-1, q, c)[pos],
                                 output_bias=b2.reshape(-1, c)[pos])
            except ValueError as exc:
                results[live[pos]] = exc
            else:
                results[live[pos]] = model, TrainTrace(sse=tuple(traces[pos]))
        if len(keep) < len(live):
            if not keep:
                break
            live = [live[pos] for pos in keep]
            traces = [traces[pos] for pos in keep]
            sses = [sses[pos] for pos in keep]
            w1, b1, w2, b2, x, targets, hidden, d_out = (
                arr[keep] for arr in (w1, b1, w2, b2, x, targets, hidden, d_out))
        prev = sses
        g_in_w, g_in_b, g_out_w, g_out_b = _backprop(x, hidden, d_out, w2)
        w2 -= learning_rate * g_out_w
        b2 -= learning_rate * g_out_b
        w1 -= learning_rate * g_in_w
        b1 -= learning_rate * g_in_b
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
