"""Feed-forward network: forward pass, backpropagation, training loop."""

import numpy as np
import pytest

from ecobench import (
    Dataset,
    MlpModel,
    fit_mlp,
    forward,
    mlp_gradients,
    mlp_loss,
    predict_mlp,
    sigmoid,
    standardize,
    trace_csv,
)
from ecobench.neural import _sigmoid_in_place


def _blob_dataset(seed, n_per=15, p=3, c=3, gap=4.0):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(gap * j, 1.0, size=(n_per, p)) for j in range(c)]
    labels = np.repeat(np.arange(c), n_per)
    ds = Dataset(
        np.vstack(blocks), labels, tuple(f"f{j}" for j in range(p)), tuple("XYZ"[:c])
    )
    return standardize(ds)[0]


def _random_model(seed, p=3, q=4, c=2):
    rng = np.random.default_rng(seed)
    return MlpModel(
        input_to_hidden=rng.normal(scale=0.7, size=(p, q)),
        hidden_bias=rng.normal(scale=0.7, size=q),
        hidden_to_output=rng.normal(scale=0.7, size=(q, c)),
        output_bias=rng.normal(scale=0.7, size=c),
    )


def test_sigmoid_values_and_saturation():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    x = np.linspace(-20, 20, 11)
    assert np.allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-12)
    assert isinstance(sigmoid(0.3), float)
    assert sigmoid(np.zeros((2, 3))).shape == (2, 3)


def _sigmoid_two_branch(x):
    """Reference sigmoid: each sign's branch evaluated on its own masked elements."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def _same_bits(got, expected):
    """Equal bit patterns, except that NaN only has to map to NaN."""
    got, expected = np.asarray(got, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    nan = np.isnan(expected)
    return (
        got.shape == expected.shape
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == expected[~nan].tobytes()
    )


def test_sigmoid_is_bit_identical_to_two_branch_form():
    edges = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 1000.0, -1000.0,
             5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(37)
    batches = [
        np.array(edges),
        rng.normal(size=500),
        rng.normal(scale=50.0, size=(40, 7)),
        rng.uniform(-800.0, 800.0, size=(3, 5, 11)),
        np.empty(0),
    ]
    for x in batches:
        assert _same_bits(sigmoid(x), _sigmoid_two_branch(x))
        # the step's path: in place, in buffers that hold a previous pass's values
        h = x.copy()
        e, den, mask = np.full(x.shape, np.nan), np.full(x.shape, -1.0), np.ones(x.shape, bool)
        _sigmoid_in_place(h, e, den, mask)
        assert _same_bits(h, _sigmoid_two_branch(x))
    for value in edges + list(rng.normal(scale=30.0, size=20)):
        got = sigmoid(value)
        assert type(got) is float
        assert _same_bits(got, _sigmoid_two_branch(value))
    assert type(sigmoid(np.float64(2.0))) is float
    assert sigmoid(np.array(-0.0)) == 0.5


def test_forward_matches_manual_computation():
    model = MlpModel(
        input_to_hidden=np.array([[1.0, 0.0], [0.0, -1.0]]),
        hidden_bias=np.array([0.5, 0.0]),
        hidden_to_output=np.array([[2.0], [1.0]]),
        output_bias=np.array([-0.25]),
    )
    x = np.array([0.3, 0.8])
    hidden = sigmoid(np.array([0.3 + 0.5, -0.8]))
    expected = 2.0 * hidden[0] + 1.0 * hidden[1] - 0.25
    assert forward(model, x) == pytest.approx([expected])


def test_mlp_loss_is_half_summed_squared_error():
    model = _random_model(1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 3))
    t = rng.normal(size=(6, 2))
    outputs = np.vstack([forward(model, row) for row in x])
    assert mlp_loss(model, x, t) == pytest.approx(0.5 * ((outputs - t) ** 2).sum())


def test_mlp_gradients_match_finite_differences():
    model = _random_model(3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 3))
    t = rng.normal(size=(8, 2))
    analytic = mlp_gradients(model, x, t)
    names = ("input_to_hidden", "hidden_bias", "hidden_to_output", "output_bias")
    step = 1e-6
    for name, grad in zip(names, analytic):
        base = getattr(model, name)
        numeric = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = {n: getattr(model, n).copy() for n in names}
            minus = {n: getattr(model, n).copy() for n in names}
            plus[name][idx] += step
            minus[name][idx] -= step
            up = mlp_loss(MlpModel(**plus), x, t)
            down = mlp_loss(MlpModel(**minus), x, t)
            numeric[idx] = (up - down) / (2 * step)
        assert np.allclose(grad, numeric, atol=1e-6)


def test_fit_reduces_error_and_classifies_blobs():
    ds = _blob_dataset(5)
    model, trace = fit_mlp(ds, q=6, epochs=1500, learning_rate=0.02, seed=1)
    assert trace.sse[-1] < trace.sse[0]
    assert trace.final_sse == trace.sse[-1]
    assert trace.steps <= 1500
    predicted = [predict_mlp(model, x) for x in ds.features]
    assert np.mean(np.array(predicted) == ds.labels) >= 0.95


def test_fit_stops_once_improvement_vanishes():
    ds = Dataset([[0.0], [1.0]], [0, 1], ("a",), ("X", "Y"))
    _, trace = fit_mlp(ds, q=2, epochs=200000, learning_rate=0.5, seed=0)
    assert trace.steps < 200000


def _fit_mlp_two_passes(ds, q, epochs, learning_rate, seed, init_scale=0.5):
    """Reference training loop: every epoch runs its own forward pass, then a
    second one to score the updated weights."""
    p, c, n = ds.n_features, ds.n_classes, ds.n_samples
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-init_scale, init_scale, size=(p, q))
    b1 = rng.uniform(-init_scale, init_scale, size=q)
    w2 = rng.uniform(-init_scale, init_scale, size=(q, c))
    b2 = rng.uniform(-init_scale, init_scale, size=c)
    x = ds.features
    targets = np.zeros((n, c))
    targets[np.arange(n), ds.labels] = 1.0

    def sse_of(w1_, b1_, w2_, b2_):
        hidden = _sigmoid_two_branch(x @ w1_ + b1_)
        return float((((hidden @ w2_ + b2_) - targets) ** 2).sum())

    prev = sse_of(w1, b1, w2, b2)
    trace = []
    for epoch in range(epochs):
        hidden = _sigmoid_two_branch(x @ w1 + b1)
        d_out = (hidden @ w2 + b2) - targets
        d_hidden = (d_out @ w2.T) * hidden * (1.0 - hidden)
        w2 = w2 - learning_rate * (hidden.T @ d_out)
        b2 = b2 - learning_rate * d_out.sum(axis=0)
        w1 = w1 - learning_rate * (x.T @ d_hidden)
        b1 = b1 - learning_rate * d_hidden.sum(axis=0)
        sse = sse_of(w1, b1, w2, b2)
        if not np.isfinite(sse):
            raise ValueError(f"training loss became non-finite at epoch {epoch + 1}")
        trace.append(sse)
        if 0.0 <= prev - sse < 1e-10:
            break
        prev = sse
    return (w1, b1, w2, b2), trace


@pytest.mark.parametrize(
    "ds, q, epochs, learning_rate, stops_early",
    [
        (_blob_dataset(5), 4, 300, 0.02, False),
        (Dataset([[0.0], [1.0]], [0, 1], ("a",), ("X", "Y")), 2, 200000, 0.5, True),
    ],
    ids=["runs-to-cap", "stops-early"],
)
def test_fit_equals_two_forward_passes_per_epoch(ds, q, epochs, learning_rate, stops_early):
    model, trace = fit_mlp(ds, q=q, epochs=epochs, learning_rate=learning_rate, seed=3)
    weights, sse = _fit_mlp_two_passes(ds, q, epochs, learning_rate, seed=3)
    assert (trace.steps < epochs) == stops_early
    assert trace.steps == len(sse)
    assert np.array(trace.sse).tobytes() == np.array(sse).tobytes()
    fitted = (model.input_to_hidden, model.hidden_bias, model.hidden_to_output,
              model.output_bias)
    for got, expected in zip(fitted, weights):
        assert got.tobytes() == expected.tobytes()


def test_fit_divergence_epoch_equals_two_forward_passes_per_epoch():
    ds = _blob_dataset(8)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as expected:
            _fit_mlp_two_passes(ds, 5, 500, 1e6, seed=0)
        with pytest.raises(ValueError) as got:
            fit_mlp(ds, q=5, epochs=500, learning_rate=1e6, seed=0)
    assert "non-finite at epoch" in str(got.value)
    assert str(got.value) == str(expected.value)


def test_fit_seed_determinism():
    ds = _blob_dataset(6)
    m1, t1 = fit_mlp(ds, q=3, epochs=50, seed=9)
    m2, t2 = fit_mlp(ds, q=3, epochs=50, seed=9)
    m3, _ = fit_mlp(ds, q=3, epochs=50, seed=10)
    assert np.array_equal(m1.input_to_hidden, m2.input_to_hidden)
    assert t1.sse == t2.sse
    assert not np.array_equal(m1.input_to_hidden, m3.input_to_hidden)


def test_initial_weights_follow_documented_draw_order():
    ds = _blob_dataset(7, n_per=5)
    p, q, c = ds.n_features, 4, ds.n_classes
    model, trace = fit_mlp(ds, q=q, epochs=0, seed=123, init_scale=0.25)
    assert trace.steps == 0
    rng = np.random.default_rng(123)
    assert np.array_equal(model.input_to_hidden, rng.uniform(-0.25, 0.25, size=(p, q)))
    assert np.array_equal(model.hidden_bias, rng.uniform(-0.25, 0.25, size=q))
    assert np.array_equal(model.hidden_to_output, rng.uniform(-0.25, 0.25, size=(q, c)))
    assert np.array_equal(model.output_bias, rng.uniform(-0.25, 0.25, size=c))
    assert np.all(np.abs(model.input_to_hidden) <= 0.25)
    # one epoch is one full-batch step down the backpropagated gradient
    stepped, _ = fit_mlp(ds, q=q, epochs=1, learning_rate=0.05, seed=123, init_scale=0.25)
    targets = np.eye(c)[ds.labels]
    names = ("input_to_hidden", "hidden_bias", "hidden_to_output", "output_bias")
    for name, grad in zip(names, mlp_gradients(model, ds.features, targets)):
        expected = getattr(model, name) - 0.05 * grad
        assert getattr(stepped, name).tobytes() == expected.tobytes(), name


def test_fit_raises_on_divergence():
    ds = _blob_dataset(8)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        fit_mlp(ds, q=5, epochs=500, learning_rate=1e6, seed=0)


def test_predict_tie_goes_to_lowest_index():
    model = MlpModel(
        input_to_hidden=np.zeros((2, 3)),
        hidden_bias=np.zeros(3),
        hidden_to_output=np.zeros((3, 4)),
        output_bias=np.zeros(4),
    )
    assert predict_mlp(model, [1.0, -1.0]) == 0


def test_trace_csv_rows():
    ds = _blob_dataset(9, n_per=5)
    _, trace = fit_mlp(ds, q=2, epochs=12, seed=3)
    lines = trace_csv(trace).strip().splitlines()
    assert lines[0] == "epoch,sse"
    assert len(lines) == trace.steps + 1
    assert lines[1].split(",")[0] == "1"
    assert float(lines[1].split(",")[1]) == pytest.approx(trace.sse[0], rel=1e-9)


def test_fit_validation():
    ds = _blob_dataset(10, n_per=4)
    with pytest.raises(ValueError, match="q must be"):
        fit_mlp(ds, q=0)
    with pytest.raises(ValueError, match="nonnegative"):
        fit_mlp(ds, learning_rate=-0.1)
    model = _random_model(11)
    with pytest.raises(ValueError, match="expected 3 feature values"):
        forward(model, [1.0])


def _forward_one(model, x):
    """The one-row forward pass the matrix form replaced."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    hidden = sigmoid(model.hidden_bias + x @ model.input_to_hidden)
    return model.output_bias + hidden @ model.hidden_to_output


def test_matrix_forward_and_predict_equal_stacked_one_row_oracle():
    rng = np.random.default_rng(71)
    for seed, c in ((72, 2), (73, 3), (74, 5)):
        model = _random_model(seed, p=3, q=4, c=c)
        rows = rng.normal(0.0, 4.0, size=(400, 3))
        outputs = np.vstack([_forward_one(model, x) for x in rows])
        assert np.allclose(forward(model, rows), outputs, rtol=1e-12, atol=1e-12)
        assert np.array_equal(predict_mlp(model, rows), outputs.argmax(axis=1))
    ds = _blob_dataset(75)
    model, _ = fit_mlp(ds, q=3, epochs=200, seed=2)
    expected = [int(np.argmax(_forward_one(model, x))) for x in ds.features]
    assert predict_mlp(model, ds.features).tolist() == expected


def test_matrix_predict_breaks_all_equal_outputs_to_class_zero():
    model = MlpModel(
        input_to_hidden=np.random.default_rng(76).normal(size=(2, 3)),
        hidden_bias=np.zeros(3),
        hidden_to_output=np.zeros((3, 4)),
        output_bias=np.full(4, 0.25),
    )
    rows = np.random.default_rng(77).normal(size=(30, 2))
    outputs = np.vstack([_forward_one(model, x) for x in rows])
    assert np.all(outputs == outputs[:, :1])  # every class ties on every row
    assert np.array_equal(predict_mlp(model, rows), np.zeros(30))


def test_one_row_gives_python_int_and_wrong_width_raises():
    model = _random_model(78)
    assert type(predict_mlp(model, [0.1, 0.2, 0.3])) is int
    assert forward(model, [0.1, 0.2, 0.3]).shape == (2,)
    assert forward(model, np.zeros((5, 3))).shape == (5, 2)
    assert predict_mlp(model, np.zeros((1, 3))).shape == (1,)
    with pytest.raises(ValueError, match="expected 3 feature values, got 2"):
        predict_mlp(model, np.zeros((4, 2)))
