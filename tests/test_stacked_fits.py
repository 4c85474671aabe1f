"""Stacked fits of Process III's folds: LR and ANN fit every training fold of
one size in a single loop, and each fold must come out exactly as its own fit.

The oracles are per-fold calls (`fit_logistic`, `fit_mlp`, and a cell run
fold by fold) and the single-fit loops written with plain 2-D products, so no
test assumes that a batched product adds in the order of a 2-D one.
"""

import contextlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecobench import (
    ALGORITHM_ORDER,
    Dataset,
    LogisticModel,
    MlpModel,
    ProcessKind,
    confusion_matrix,
    fit_logistic,
    fit_mlp,
    k_fold,
    macro_aggregate,
    make_algorithm,
    measures,
    run_process,
    sigmoid,
    TrainTrace,
    standardize,
)
from ecobench.evaluation import CELL_ERRORS, AlgorithmAdapter, algorithm_adapter
from ecobench.linear_prob import fit_logistic_stacked
from ecobench.neural import fit_mlp_stacked

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _table(seed, n, p, c):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, p)) * 3.0, rng.integers(0, c, size=n),
                   tuple(f"f{j}" for j in range(p)), tuple("ABCDE"[:c]))


def _trains(ds, k, seed):
    """Standardized training sets of a k-fold plan, as Process III builds them."""
    plan = k_fold(ds, k, seed)
    return [standardize(ds.subset(plan.train_indices(i)))[0] for i in range(k)]


def _stacked(fit_stacked, trains, **params):
    """Per train, in order, its result from one stacked call per row count."""
    results = [None] * len(trains)
    for size in {train.n_samples for train in trains}:
        group = [i for i, train in enumerate(trains) if train.n_samples == size]
        with _quiet():
            fitted = fit_stacked(tuple(trains[i] for i in group), **params)
        for i, result in zip(group, fitted):
            results[i] = result
    return results


@contextlib.contextmanager
def _quiet():
    """Diverging fits overflow on purpose; keep numpy's warnings out of the log."""
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _outcome(call):
    """A fit's result with every float as bytes, or its error message."""
    try:
        with _quiet():
            result = call()
    except ValueError as exc:
        return ("error", str(exc))
    return _bytes(result)


def _bytes(result):
    if isinstance(result, ValueError):
        return ("error", str(result))
    if isinstance(result, tuple):  # (MlpModel, TrainTrace)
        model, trace = result
        return (model.input_to_hidden.tobytes(), model.hidden_bias.tobytes(),
                model.hidden_to_output.tobytes(), model.output_bias.tobytes(),
                np.array(trace.sse).tobytes(), trace.steps)
    return (result.weights.tobytes(), result.iterations,
            np.float64(result.final_loss).tobytes(), np.array(result.loss_history).tobytes())


def _fit_logistic_2d(ds, learning_rate, max_iter, tolerance):
    """The single-fit descent loop in 2-D products."""
    if ds.n_samples < ds.n_classes:
        raise ValueError(f"need at least as many samples as classes, got n={ds.n_samples}")
    n, c = ds.n_samples, ds.n_classes
    design = np.hstack([np.ones((n, 1)), ds.features])
    picked = (np.arange(n), ds.labels)
    onehot = np.zeros((n, c))
    onehot[picked] = 1.0

    def kernel(w):
        scores = design @ w.T
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        grad = (probs - onehot).T @ design / n
        grad[-1] = 0.0
        return float(-np.mean(np.log(probs[picked] + 1e-300))), grad

    w = np.zeros((c, ds.n_features + 1))
    history, prev, iterations = [], None, 0
    for it in range(max_iter):
        loss, grad = kernel(w)
        if not np.isfinite(loss):
            raise ValueError(f"training loss became non-finite at iteration {it}")
        history.append(loss)
        if prev is not None and 0.0 <= prev - loss < tolerance:
            break
        w = w - learning_rate * grad
        prev = loss
        iterations = it + 1

    loss = kernel(w)[0]
    if not np.isfinite(loss):
        raise ValueError(f"training loss became non-finite at iteration {iterations}")
    return LogisticModel(w, iterations, loss, history)


def _fit_mlp_2d(ds, q, epochs, learning_rate, seed, init_scale):
    """The single-fit training loop in 2-D products."""
    p, c, n = ds.n_features, ds.n_classes, ds.n_samples
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-init_scale, init_scale, size=(p, q))
    b1 = rng.uniform(-init_scale, init_scale, size=q)
    w2 = rng.uniform(-init_scale, init_scale, size=(q, c))
    b2 = rng.uniform(-init_scale, init_scale, size=c)
    x = ds.features
    targets = np.zeros((n, c))
    targets[np.arange(n), ds.labels] = 1.0
    hidden = sigmoid(x @ w1 + b1)
    d_out = hidden @ w2 + b2 - targets
    prev = float((d_out ** 2).sum())
    if not np.isfinite(prev):
        raise ValueError("training loss became non-finite at epoch 0")
    trace = []
    for epoch in range(epochs):
        d_hidden = (d_out @ w2.T) * hidden * (1.0 - hidden)
        w2 = w2 - learning_rate * (hidden.T @ d_out)
        b2 = b2 - learning_rate * d_out.sum(axis=0)
        w1 = w1 - learning_rate * (x.T @ d_hidden)
        b1 = b1 - learning_rate * d_hidden.sum(axis=0)
        hidden = sigmoid(x @ w1 + b1)
        d_out = hidden @ w2 + b2 - targets
        sse = float((d_out ** 2).sum())
        if not np.isfinite(sse):
            raise ValueError(f"training loss became non-finite at epoch {epoch + 1}")
        trace.append(sse)
        if 0.0 <= prev - sse < 1e-10:
            break
        prev = sse
    model = MlpModel(input_to_hidden=w1, hidden_bias=b1, hidden_to_output=w2, output_bias=b2)
    return model, TrainTrace(trace)


def _per_fold_row(ds, spec, kind, seed):
    """A Process III cell run one fold after another (standardize, fit,
    predict), as (aggregates, measures, error)."""
    adapter = algorithm_adapter(spec.name)
    try:
        plan = k_fold(ds, kind.folds, seed)
        actual, predicted = [], []
        for i, fold in enumerate(plan.folds):
            train, scaling = standardize(ds.subset(plan.train_indices(i)))
            model = adapter.fit(train, seed, spec.param_dict())
            actual.append(ds.labels[fold])
            predicted.append(adapter.predict(model, scaling.apply(ds.features[fold])))
        cm = confusion_matrix(np.concatenate(actual), np.concatenate(predicted), ds.n_classes)
        agg = macro_aggregate(cm)
        return repr((agg, measures(agg), None))
    except CELL_ERRORS as exc:
        return repr((None, None, str(exc)))


def _row(ds, spec, k, seed):
    with _quiet():
        row = run_process(ds, spec, ProcessKind("III", folds=k), seed=seed)
        expected = _per_fold_row(ds, spec, ProcessKind("III", folds=k), seed)
    assert repr((row.aggregates, row.measures, row.error)) == expected
    return row


@st.composite
def _fold_tables(draw):
    """A table, a fold count and a seed; n is often not a multiple of k, so
    the training folds come in two sizes."""
    k = draw(st.integers(2, 5))
    c = draw(st.integers(2, 4))
    n = draw(st.integers(2 * k, 31))
    seed = draw(st.integers(0, 2**32 - 1))
    return _table(seed, n, draw(st.integers(1, 4)), c), k, seed


@PROPERTY
@given(
    _fold_tables(),
    st.sampled_from([0.1, 1.0, 1.5e308]),
    st.integers(0, 200),
    st.sampled_from([0.0, 1e-4, 1e-3]),
)
def test_stacked_logistic_equals_per_fold_fits(table, learning_rate, max_iter, tolerance):
    ds, k, seed = table
    params = dict(learning_rate=learning_rate, max_iter=max_iter, tolerance=tolerance)
    trains = _trains(ds, k, seed)
    stacked = _stacked(fit_logistic_stacked, trains, **params)
    for train, result in zip(trains, stacked):
        assert _bytes(result) == _outcome(lambda: fit_logistic(train, **params))
        assert _bytes(result) == _outcome(lambda: _fit_logistic_2d(train, **params))
    _row(ds, make_algorithm("LR", **params), k, seed)


@PROPERTY
@given(
    _fold_tables(),
    st.integers(1, 4),
    st.integers(0, 400),
    st.sampled_from([0.01, 0.3, 0.9]),
    st.sampled_from([0.5, 2.0]),
)
def test_stacked_mlp_equals_per_fold_fits(table, q, epochs, learning_rate, init_scale):
    ds, k, seed = table
    params = dict(q=q, epochs=epochs, learning_rate=learning_rate, init_scale=init_scale)
    trains = _trains(ds, k, seed)
    stacked = _stacked(fit_mlp_stacked, trains, seed=seed, **params)
    for train, result in zip(trains, stacked):
        assert _bytes(result) == _outcome(lambda: fit_mlp(train, seed=seed, **params))
        assert _bytes(result) == _outcome(lambda: _fit_mlp_2d(train, seed=seed, **params))
    _row(ds, make_algorithm("ANN", **params), k, seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(_fold_tables())
def test_every_process_iii_row_equals_a_fold_by_fold_run(table):
    ds, k, seed = table
    light = {"RF": {"n_trees": 5}, "ANN": {"epochs": 50}, "LR": {"max_iter": 50}}
    for name in ALGORITHM_ORDER:
        _row(ds, make_algorithm(name, **light.get(name, {})), k, seed)


def _stops(results):
    """Per fold, its iteration or epoch count, or the number its error names."""
    out = []
    for result in results:
        if isinstance(result, ValueError):
            out.append(f"failed at {re.findall(r'[0-9]+', str(result))[-1]}")
        else:
            out.append(result[1].steps if isinstance(result, tuple) else result.iterations)
    return out


@pytest.mark.parametrize(
    "seed, params, stops, error",
    [
        (0, dict(learning_rate=1.0, max_iter=3000, tolerance=1e-3), [62, 46, 45, 44], None),
        # folds 0-2 share one stack; fold 2 fails first, fold 0's error is the row's
        (2, dict(learning_rate=1.5e308, max_iter=200, tolerance=0.0),
         ["failed at 39", "failed at 73", "failed at 29", 200],
         "training loss became non-finite at iteration 39"),
        # the capped iteration tests its loss like every earlier one: fold 0
        # fails at the cap, where folds 1 and 3 stop
        (2, dict(learning_rate=1.5e308, max_iter=39, tolerance=0.0),
         ["failed at 39", 39, "failed at 29", 39],
         "training loss became non-finite at iteration 39"),
    ],
    ids=["uneven-stops", "later-fold-fails-first", "fails-at-the-cap"],
)
def test_logistic_folds_leave_the_stack_at_their_own_iteration(seed, params, stops, error):
    ds = _table(seed, 31, 4, 4)
    trains = _trains(ds, 4, seed)
    assert [t.n_samples for t in trains] == [23, 23, 23, 24]
    stacked = _stacked(fit_logistic_stacked, trains, **params)
    assert _stops(stacked) == stops
    for train, result in zip(trains, stacked):
        assert _bytes(result) == _outcome(lambda: _fit_logistic_2d(train, **params))
    assert _row(ds, make_algorithm("LR", **params), 4, seed).error == error


@pytest.mark.parametrize(
    "seed, n, p, k, params, stops, error",
    [
        (0, 6, 2, 3, dict(q=2, epochs=4000, learning_rate=0.3), [599, 1627, 4000], None),
        # folds 0-2 share one stack, where fold 1 fails first; fold 3, alone in
        # its stack, fails earlier still; fold 0's error is the row's
        (0, 31, 4, 4, dict(q=3, epochs=400, learning_rate=0.9),
         ["failed at 106", "failed at 102", "failed at 107", "failed at 98"],
         "training loss became non-finite at epoch 106"),
    ],
    ids=["uneven-stops", "later-fold-fails-first"],
)
def test_mlp_folds_leave_the_stack_at_their_own_epoch(seed, n, p, k, params, stops, error):
    ds = _table(seed, n, p, 2 if n < 10 else 4)
    trains = _trains(ds, k, seed)
    stacked = _stacked(fit_mlp_stacked, trains, seed=seed, **params)
    assert _stops(stacked) == stops
    for train, result in zip(trains, stacked):
        assert _bytes(result) == _outcome(lambda: _fit_mlp_2d(train, seed=seed, init_scale=0.5,
                                                               **params))
    assert _row(ds, make_algorithm("ANN", **params), k, seed).error == error


def test_fold_validation_fails_in_fold_order():
    # 7 rows in 3 folds train on 4, 5 and 5 rows; 5 classes need 5 rows
    ds = _table(3, 7, 2, 5)
    trains = _trains(ds, 3, 3)
    assert [t.n_samples for t in trains] == [4, 5, 5]
    row = _row(ds, make_algorithm("LR"), 3, 3)
    assert row.error == "need at least as many samples as classes, got n=4"
    results = fit_logistic_stacked((trains[0], trains[0]), learning_rate=-1.0)
    assert [str(r) for r in results] == [
        "need at least as many samples as classes, got n=4"] * 2


def test_stacks_must_share_one_shape():
    trains = _trains(_table(1, 7, 2, 2), 3, 1)
    with pytest.raises(ValueError, match="share"):
        fit_logistic_stacked(tuple(trains))
    with pytest.raises(ValueError, match="share"):
        fit_mlp_stacked(tuple(trains))


def test_fold_fits_run_when_their_results_are_asked_for():
    # per-fold fits run one at a time, so a cell never holds every fold's
    # forest at once; a stacked fit runs once per row count, at the first ask
    trains = _trains(_table(5, 31, 2, 2), 4, 5)
    calls = []
    one_at_a_time = AlgorithmAdapter(
        "X", object, lambda train, seed, p: calls.append(train) or len(calls), None, ())
    results = one_at_a_time.fit_folds(trains, 0, {})
    assert calls == []
    assert next(results) == 1 and len(calls) == 1
    assert list(results) == [2, 3, 4]
    stacked = AlgorithmAdapter(
        "X", object, None, None, (),
        lambda group, seed, p: calls.append(group) or [len(t.labels) for t in group])
    calls.clear()
    results = stacked.fit_folds(trains, 0, {})
    assert next(results) == 23
    assert [len(group) for group in calls] == [3, 1]
    assert list(results) == [23, 23, 24]
