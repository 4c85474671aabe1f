"""Stacked fits: LR and ANN fit the training sets of every process, of any row
counts, in a single zero-padded loop, and each must come out exactly as its
own fit.

The oracles are per-fold calls (`fit_logistic`, `fit_mlp`, and a cell run
fold by fold), the single-fit loops written with plain 2-D products, so no
test assumes that a batched product adds in the order of a 2-D one, and the
stacked loops that score and test every step before the next, so no test
assumes that a block of steps stops where a single step would.
"""

import contextlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecobench import (
    ALGORITHM_ORDER,
    Dataset,
    LogisticModel,
    MlpModel,
    ProcessKind,
    SyntheticSpec,
    confusion_matrix,
    derive_seed,
    fit_logistic,
    fit_mlp,
    generate_ecological,
    k_fold,
    macro_aggregate,
    make_algorithm,
    measures,
    run_benchmark,
    run_process,
    sigmoid,
    TrainTrace,
    standardize,
    train_test_split,
)
from ecobench import cli, dataset, evaluation, linear_prob, neural
from ecobench.dataset import BLOCK_STEPS, padding, stack_datasets
from ecobench.evaluation import CELL_ERRORS, AlgorithmAdapter, algorithm_adapter
from ecobench.linear_prob import _logistic_descent, fit_logistic_stacked
from ecobench.neural import _network, fit_mlp_stacked

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _table(seed, n, p, c, scale=3.0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, p)) * scale, rng.integers(0, c, size=n),
                   tuple(f"f{j}" for j in range(p)), tuple("ABCDE"[:c]))


def _trains(ds, k, seed):
    """Standardized training sets of a k-fold plan, as Process III builds them."""
    plan = k_fold(ds, k, seed)
    return [standardize(ds.subset(plan.train_indices(i)))[0] for i in range(k)]


def _stacked(fit_stacked, trains, **params):
    """Per train, in order, its result from one stacked call."""
    with _quiet():
        return fit_stacked(tuple(trains), **params)


@contextlib.contextmanager
def _quiet():
    """Diverging fits overflow on purpose; keep numpy's warnings out of the log."""
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@contextlib.contextmanager
def _block_steps(steps):
    """Run the stacked fits in blocks of `steps` gradient steps."""
    saved = dataset.BLOCK_STEPS
    dataset.BLOCK_STEPS = steps
    try:
        yield
    finally:
        dataset.BLOCK_STEPS = saved


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


def _per_fold_row(ds, spec, kind, split_seed, seed=None):
    """A Process III cell run one fold after another (standardize, fit,
    predict), as (aggregates, measures, error); `seed` defaults to the split
    seed."""
    adapter = algorithm_adapter(spec.name)
    seed = split_seed if seed is None else seed
    try:
        plan = k_fold(ds, kind.folds, split_seed)
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
    stacked = _stacked(fit_mlp_stacked, trains, seeds=[seed] * k, **params)
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


# Each case also runs in blocks of sizes that put its stops at the end of a
# block, at the start of the next and inside one, besides the fits' own size.
@pytest.mark.parametrize(
    "seed, params, stops, error, block_sizes",
    [
        (0, dict(learning_rate=1.0, max_iter=3000, tolerance=1e-3), [62, 46, 45, 44], None,
         [1, 44, 45, 46, 62, 63]),
        # fold 2 fails first, fold 0's error is the row's
        (2, dict(learning_rate=1.5e308, max_iter=200, tolerance=0.0),
         ["failed at 39", "failed at 73", "failed at 29", 200],
         "training loss became non-finite at iteration 39", [29, 30, 39, 40, 200]),
        # the capped iteration tests its loss like every earlier one: fold 0
        # fails at the cap, where folds 1 and 3 stop
        (2, dict(learning_rate=1.5e308, max_iter=39, tolerance=0.0),
         ["failed at 39", 39, "failed at 29", 39],
         "training loss became non-finite at iteration 39", [29, 30, 39, 40]),
    ],
    ids=["uneven-stops", "later-fold-fails-first", "fails-at-the-cap"],
)
def test_logistic_folds_leave_the_stack_at_their_own_iteration(seed, params, stops, error,
                                                               block_sizes):
    ds = _table(seed, 31, 4, 4)
    trains = _trains(ds, 4, seed)
    assert [t.n_samples for t in trains] == [23, 23, 23, 24]
    expected = [_outcome(lambda: _fit_logistic_2d(train, **params)) for train in trains]
    for steps in block_sizes + [BLOCK_STEPS]:
        with _block_steps(steps):
            stacked = _stacked(fit_logistic_stacked, trains, **params)
        assert _stops(stacked) == stops
        assert [_bytes(result) for result in stacked] == expected
    assert _row(ds, make_algorithm("LR", **params), 4, seed).error == error


@pytest.mark.parametrize(
    "seed, n, p, k, params, stops, error, block_sizes",
    [
        (0, 6, 2, 3, dict(q=2, epochs=4000, learning_rate=0.3), [599, 1627, 4000], None,
         [599, 600, 1627, 1628]),
        # fold 3 fails first, then fold 1; fold 0's error is the row's
        (0, 31, 4, 4, dict(q=3, epochs=400, learning_rate=0.9),
         ["failed at 106", "failed at 102", "failed at 107", "failed at 98"],
         "training loss became non-finite at epoch 106", [1, 98, 99, 106]),
    ],
    ids=["uneven-stops", "later-fold-fails-first"],
)
def test_mlp_folds_leave_the_stack_at_their_own_epoch(seed, n, p, k, params, stops, error,
                                                      block_sizes):
    ds = _table(seed, n, p, 2 if n < 10 else 4)
    trains = _trains(ds, k, seed)
    expected = [_outcome(lambda: _fit_mlp_2d(train, seed=seed, init_scale=0.5, **params))
                for train in trains]
    for steps in block_sizes + [BLOCK_STEPS]:
        with _block_steps(steps):
            stacked = _stacked(fit_mlp_stacked, trains, seeds=[seed] * k, **params)
        assert _stops(stacked) == stops
        assert [_bytes(result) for result in stacked] == expected
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
    # row counts may differ; feature and class counts may not
    for other in (_table(1, 7, 3, 2), _table(1, 7, 2, 3)):
        with pytest.raises(ValueError, match="share"):
            fit_logistic_stacked((_table(1, 7, 2, 2), other))
        with pytest.raises(ValueError, match="share"):
            fit_mlp_stacked((_table(1, 7, 2, 2), other), (0, 0))


def test_fold_fits_run_when_their_results_are_asked_for():
    # per-train fits run one at a time, each with its own seed, so a cell
    # never holds every fold's forest at once; a stacked fit runs once, for
    # every row count, at the first ask
    trains = _trains(_table(5, 31, 2, 2), 4, 5)
    calls = []
    one_at_a_time = AlgorithmAdapter(
        "X", object, lambda train, seed, p: calls.append(train) or seed, None, ())
    results = one_at_a_time.fit_folds(trains, [7, 8, 9, 10], {})
    assert calls == []
    assert next(results) == 7 and len(calls) == 1
    assert list(results) == [8, 9, 10]
    stacked = AlgorithmAdapter(
        "X", object, None, None, (),
        lambda group, seeds, p: calls.append((group, seeds)) or [len(t.labels) for t in group])
    calls.clear()
    results = stacked.fit_folds(trains, [7, 8, 9, 10], {})
    assert next(results) == 23
    assert [(len(group), seeds) for group, seeds in calls] == [(4, (7, 8, 9, 10))]
    assert list(results) == [23, 23, 24]
    # a lone train takes the stacked fit too
    calls.clear()
    assert list(stacked.fit_folds(trains[3:], [10], {})) == [24]
    assert [(len(group), seeds) for group, seeds in calls] == [(1, (10,))]


# Ragged stacks: the training sets of every process, of any row counts, in one
# zero-padded loop.

def _grid_trains(ds, master_seed, folds):
    """The standardized training sets of Processes I, II and III in the
    order `run_benchmark` stacks them, and each one's ANN cell seed."""
    trains, seeds = [], []
    for kind in (ProcessKind("I"), ProcessKind("II"), ProcessKind("III", folds=folds)):
        split_seed = derive_seed(master_seed, "split", kind.name)
        if kind.name == "I":
            raw = [ds]
        elif kind.name == "II":
            raw = [train_test_split(ds, kind.train_fraction, split_seed)[0]]
        else:
            plan = k_fold(ds, folds, split_seed)
            raw = [ds.subset(plan.train_indices(i)) for i in range(folds)]
        trains += [standardize(train)[0] for train in raw]
        seeds += [derive_seed(master_seed, "ANN", kind.name)] * len(raw)
    return trains, seeds


@pytest.mark.parametrize("n_per_class, folds, sizes", [
    (10, 3, [30, 22, 20, 20, 20]),
    (10, 4, [30, 22, 22, 22, 23, 23]),
])
def test_grid_trains_of_every_process_fit_in_one_stack(n_per_class, folds, sizes):
    ds = generate_ecological(SyntheticSpec(n_per_class=n_per_class, seed=42))
    trains, seeds = _grid_trains(ds, 42, folds)
    assert [t.n_samples for t in trains] == sizes
    for train, result in zip(trains, _stacked(fit_logistic_stacked, trains)):
        assert _bytes(result) == _outcome(lambda: fit_logistic(train))
    for train, seed, result in zip(trains, seeds, _stacked(fit_mlp_stacked, trains, seeds=seeds)):
        assert _bytes(result) == _outcome(lambda: fit_mlp(train, seed=seed))


@st.composite
def _ragged_tables(draw):
    """Tables of one feature and class count and of any row counts from 1 to
    40, each drawn from its own seed."""
    p, c = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(counts),
                          max_size=len(counts)))
    return [_table(seed, n, p, c) for seed, n in zip(seeds, counts)]


@PROPERTY
@given(
    _ragged_tables(),
    st.sampled_from([0.1, 1.0, 1.5e308]),
    st.integers(0, 200),
    st.sampled_from([0.0, 1e-4, 1e-3]),
)
def test_ragged_logistic_stack_equals_lone_fits(tables, learning_rate, max_iter, tolerance):
    params = dict(learning_rate=learning_rate, max_iter=max_iter, tolerance=tolerance)
    for table, result in zip(tables, _stacked(fit_logistic_stacked, tables, **params)):
        assert _bytes(result) == _outcome(lambda: fit_logistic(table, **params))
        assert _bytes(result) == _outcome(lambda: _fit_logistic_2d(table, **params))


@PROPERTY
@given(
    _ragged_tables(),
    st.lists(st.integers(0, 3), min_size=5, max_size=5),
    st.integers(1, 4),
    st.integers(0, 300),
    st.sampled_from([0.01, 0.3, 0.9]),
    st.sampled_from([0.5, 2.0]),
)
def test_ragged_mlp_stack_equals_lone_fits(tables, seeds, q, epochs, learning_rate, init_scale):
    # a few seeds for up to five tables, so some share their start weights
    params = dict(q=q, epochs=epochs, learning_rate=learning_rate, init_scale=init_scale)
    seeds = seeds[: len(tables)]
    stacked = _stacked(fit_mlp_stacked, tables, seeds=seeds, **params)
    for table, seed, result in zip(tables, seeds, stacked):
        assert _bytes(result) == _outcome(lambda: fit_mlp(table, seed=seed, **params))
        assert _bytes(result) == _outcome(lambda: _fit_mlp_2d(table, seed=seed, **params))


def _uneven_logistic_stack():
    """Tables of 6, 40, 25 and 9 rows at feature scales 3, 1, 0.3 and 10, and
    settings under which member 3 diverges at iteration 2, members 0 and 1
    settle at 4 and 28, and member 2 runs to the cap of 300."""
    tables = [_table(20 + i, n, 2, 2, scale)
              for i, (n, scale) in enumerate(zip((6, 40, 25, 9), (3.0, 1.0, 0.3, 10.0)))]
    return tables, dict(learning_rate=1e307, max_iter=300, tolerance=1e-3)


def _uneven_mlp_stack():
    """Three 4-row folds (two settle, one runs to the cap) and a 40-row and a
    15-row table that diverge, with each one's seed (fold 1 has its own) and
    the shared settings."""
    tables = _trains(_table(0, 6, 2, 2), 3, 0) + [_table(0, 40, 2, 2, 1.0),
                                                  _table(5, 15, 2, 2, 0.5)]
    return tables, [0, 5, 0, 1, 2], dict(q=2, epochs=4000, learning_rate=0.3)


def _weight_arrays(results):
    """Every weight array of the models among fit results."""
    arrays = []
    for result in results:
        if isinstance(result, LogisticModel):
            arrays.append(result.weights)
        elif isinstance(result, tuple):
            model = result[0]
            arrays += [model.input_to_hidden, model.hidden_bias, model.hidden_to_output,
                       model.output_bias]
    return arrays


def test_fitted_models_share_no_memory_with_each_other_or_a_later_fit():
    # the descent loop steps in buffers it reuses from block to block and
    # keeps while it runs; every model must own its weights
    lr_tables, lr_params = _uneven_logistic_stack()
    mlp_tables, seeds, mlp_params = _uneven_mlp_stack()
    results = []
    with _block_steps(4):
        for _ in range(2):
            results += _stacked(fit_logistic_stacked, lr_tables, **lr_params)
            results += _stacked(fit_mlp_stacked, mlp_tables, seeds=seeds, **mlp_params)
            results += [fit_logistic(lr_tables[0], **lr_params),
                        fit_mlp(mlp_tables[0], seed=seeds[0], **mlp_params)]
    arrays = _weight_arrays(results)
    assert len(arrays) == 2 * (3 + 4 * 3 + 1 + 4)
    for i, array in enumerate(arrays):
        assert not any(np.shares_memory(array, other) for other in arrays[i + 1:])
        # members hold disjoint parts of the loop's buffers, so a view of
        # them would share no memory with another model: each array's memory
        # must be its own
        assert (array if array.base is None else array.base).nbytes == array.nbytes


def test_ragged_logistic_members_leave_at_their_own_iteration():
    # each member stops with the bits of its own fit
    tables, params = _uneven_logistic_stack()
    expected = [_outcome(lambda: _fit_logistic_2d(table, **params)) for table in tables]
    for steps in (2, 3, 4, 5, 28, 29, BLOCK_STEPS):
        with _block_steps(steps):
            stacked = _stacked(fit_logistic_stacked, tables, **params)
        assert _stops(stacked) == [4, 28, 300, "failed at 2"]
        assert [_bytes(result) for result in stacked] == expected


def test_ragged_mlp_members_leave_at_their_own_epoch_with_their_own_seed():
    tables, seeds, params = _uneven_mlp_stack()
    expected = [_outcome(lambda: _fit_mlp_2d(table, seed=seed, init_scale=0.5, **params))
                for table, seed in zip(tables, seeds)]
    for steps in (121, 122, 401, 402, BLOCK_STEPS):
        with _block_steps(steps):
            stacked = _stacked(fit_mlp_stacked, tables, seeds=seeds, **params)
        assert _stops(stacked) == [599, 401, 4000, "failed at 121", "failed at 282"]
        assert [_bytes(result) for result in stacked] == expected


def _count_prepares(monkeypatch, module):
    """Per `descend_stacked` call that `module` makes, the number of times
    the loop calls its `prepare`."""
    calls = []

    def spy(datasets, starts, prepare, *args):
        calls.append(0)

        def counted(*stack):
            calls[-1] += 1
            return prepare(*stack)
        return dataset.descend_stacked(datasets, starts, counted, *args)
    monkeypatch.setattr(module, "descend_stacked", spy)
    return calls


def test_a_stack_is_prepared_once_while_its_members_stop_in_different_blocks(monkeypatch):
    # a member that stops keeps its place, so the stack is laid out once
    logistic_calls = _count_prepares(monkeypatch, linear_prob)
    tables, params = _uneven_logistic_stack()
    with _block_steps(4):
        assert _stops(_stacked(fit_logistic_stacked, tables, **params)) == [
            4, 28, 300, "failed at 2"]
    assert logistic_calls == [1]
    mlp_calls = _count_prepares(monkeypatch, neural)
    tables, seeds, params = _uneven_mlp_stack()
    assert _stops(_stacked(fit_mlp_stacked, tables, seeds=seeds, **params)) == [
        599, 401, 4000, "failed at 121", "failed at 282"]
    assert mlp_calls == [1]


@pytest.mark.parametrize("counts", [(9, 1), (9, 1, 1)], ids=["one-row", "two-one-row"])
def test_one_row_mlp_members_get_their_lone_fit_bits(counts):
    # a one-row product is one wide, which numpy hands to BLAS gemv, so a
    # one-row member does not share a stack with longer members
    params = dict(q=3, epochs=300, learning_rate=0.3, init_scale=0.5)
    seeds = list(range(len(counts)))
    for seed in range(30):
        tables = [_table(seed + 1000 * i, n, 3, 3) for i, n in enumerate(counts)]
        stacked = _stacked(fit_mlp_stacked, tables, seeds=seeds, **params)
        for table, fit_seed, result in zip(tables, seeds, stacked):
            assert _bytes(result) == _outcome(lambda: fit_mlp(table, seed=fit_seed, **params))
            assert _bytes(result) == _outcome(
                lambda: _fit_mlp_2d(table, seed=fit_seed, **params))


def _buffers(*arrays):
    """Gradient buffers shaped like the weight arrays `arrays`."""
    return tuple(np.empty(a.shape) for a in arrays)


def _kernel_tables():
    """Three tables of 30, 22 and 9 rows, longest first, as a stack is sorted."""
    return [_table(seed, n, 3, 3) for seed, n in ((1, 30), (2, 22), (3, 9))]


def _logistic_at(w, features, labels, counts):
    """Per member mean cross-entropy and the gradient at the weights `w`:
    one `_logistic_descent` step, scored."""
    grad = np.empty(w.shape)
    step, score, _ = _logistic_descent(features, labels, counts, (grad,))
    picks = np.empty(labels.shape)
    step((w,), picks)
    return score(picks[None])[0], grad


def test_logistic_kernel_padding_keeps_an_infinite_intercept_to_its_member():
    # a -inf intercept leaves member 1's loss finite, but its zero padding
    # rows score 0 * -inf = NaN; the NaN must reach neither member 1's
    # gradient nor its neighbours'
    tables = _kernel_tables()
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 3, 4))
    w[:, -1] = 0.0
    w[1, 0, 0] = -np.inf
    features, labels, counts = stack_datasets(tables)
    design = np.concatenate([np.ones(labels.shape + (1,)), features], axis=2)
    np.copyto(design, 0.0, where=padding(counts, labels.shape[1])[0])
    with _quiet():
        assert np.isnan(design[1] @ w[1].T).any()
        losses, grad = _logistic_at(w, features, labels, counts)
    for i, table in enumerate(tables):
        with _quiet():
            (loss,), lone_grad = _logistic_at(w[i][None], table.features[None],
                                              table.labels[None], [table.n_samples])
        assert np.isfinite(loss) and np.isfinite(lone_grad).all()
        assert np.float64(losses[i]).tobytes() == np.float64(loss).tobytes()
        assert grad[i].tobytes() == lone_grad[0].tobytes()


def test_mlp_kernel_padding_keeps_an_infinite_input_weight_to_its_member():
    # an infinite input weight saturates member 1's real hidden units, but
    # its zero padding rows give 0 * inf = NaN; the NaN must reach neither
    # member 1's outputs and gradients nor its neighbours'
    tables = _kernel_tables()
    rng = np.random.default_rng(0)
    w1, b1 = rng.normal(size=(3, 3, 4)), rng.normal(size=(3, 1, 4))
    w2, b2 = rng.normal(size=(3, 4, 3)), rng.normal(size=(3, 1, 3))
    w1[1, 0, 2] = np.inf
    x, labels, counts = stack_datasets(tables)
    targets = np.zeros((3, 30, 3))
    np.put_along_axis(targets, labels[:, :, None], 1.0, axis=2)
    pad = np.arange(30)[None, :, None] >= np.array(counts)[:, None, None]
    with _quiet():
        layers, backprop = _network(x, _buffers(w1, b1, w2, b2), pad)
        hidden, d_out = layers((w1, b1, w2, b2))
        d_out -= targets
        np.copyto(d_out, 0.0, where=pad)
        grads = backprop(w2)
    for i, table in enumerate(tables):
        n = table.n_samples
        weights = (w1[i], b1[i], w2[i], b2[i])
        with _quiet():
            lone_layers, lone_backprop = _network(table.features, _buffers(*weights))
            lone_hidden, lone_d_out = lone_layers(weights)
            lone_d_out -= targets[i, :n]
            lone_grads = lone_backprop(w2[i])
        assert np.isfinite(lone_d_out).all()
        assert hidden[i, :n].tobytes() == lone_hidden.tobytes()
        assert d_out[i, :n].tobytes() == lone_d_out.tobytes()
        assert (d_out[i, n:] == 0).all() and (hidden[i, n:] == 0).all()
        for got, want in zip(grads, lone_grads):
            assert np.isfinite(want).all()
            assert got[i].tobytes() == want.tobytes()


def _light(name):
    """Cell settings that keep a grid quick: RF is not stacked, and LR and
    ANN run to their caps on these tables at any cap."""
    return make_algorithm(name, **{"RF": {"n_trees": 10}, "LR": {"max_iter": 800},
                                   "ANN": {"epochs": 400}}.get(name, {}))


def _cell(row):
    return repr((row.algorithm, row.process, row.aggregates, row.measures, row.error, row.seed))


@pytest.mark.parametrize("master_seed", [0, 7, 42])
@pytest.mark.parametrize("folds", [3, 4])
@pytest.mark.parametrize("n_per_class", [10, 11])
def test_run_benchmark_rows_equal_cell_by_cell_runs(master_seed, folds, n_per_class):
    ds = generate_ecological(SyntheticSpec(n_per_class=n_per_class, seed=master_seed))
    algorithms = [_light(name) for name in ALGORITHM_ORDER]
    kinds = (ProcessKind("I"), ProcessKind("II"), ProcessKind("III", folds=folds))
    report = run_benchmark(ds, algorithms, kinds, master_seed=master_seed)
    expected = [
        run_process(ds, spec, kind, seed=derive_seed(master_seed, spec.name, kind.name),
                    split_seed=derive_seed(master_seed, "split", kind.name))
        for kind in kinds for spec in algorithms
    ]
    assert [_cell(row) for row in report.rows] == [_cell(row) for row in expected]
    assert all(row.ok for row in report.rows)


def test_run_benchmark_keeps_each_cells_error_rule():
    # one row at 1e160 makes every train that holds it unscalable (its
    # variance overflows): Process I, and every Process III fold but the one
    # that tests on it. Pairs after an unscalable train are not fit, and a
    # cell reports the error a pair-by-pair run meets first.
    ds = _table(4, 12, 2, 3)
    features = ds.features.copy()
    features[5, 0] = 1e160
    ds = Dataset(features, ds.labels, ds.feature_names, ds.class_names)
    algorithms = [_light(name) for name in ("DT", "ANN", "LR")]
    kinds = (ProcessKind("I"), ProcessKind("II"), ProcessKind("III", folds=4))
    with _quiet():
        report = run_benchmark(ds, algorithms, kinds, master_seed=3)
        for kind in kinds:
            split_seed = derive_seed(3, "split", kind.name)
            for spec in algorithms:
                seed = derive_seed(3, spec.name, kind.name)
                row = report.get(spec.name, kind.name)
                assert _cell(row) == _cell(run_process(ds, spec, kind, seed, split_seed))
                if kind.name == "III":
                    assert repr((row.aggregates, row.measures, row.error)) == \
                        _per_fold_row(ds, spec, kind, split_seed, seed)
    assert {row.process for row in report.rows if not row.ok} >= {"I", "III"}


def test_default_bench_runs_one_loop_per_stacked_algorithm(tmp_path, monkeypatch):
    # the stacked fits run in forked workers, so each call is logged to a file
    log = tmp_path / "calls.txt"
    log.touch()

    def spy(fn, name):
        def call(*args, **kw):
            with open(log, "a", encoding="utf-8") as calls:
                calls.write(name + "\n")
            return fn(*args, **kw)
        return call

    for name in ("fit_logistic_stacked", "fit_mlp_stacked", "fit_logistic", "fit_mlp"):
        monkeypatch.setattr(evaluation, name, spy(getattr(evaluation, name), name))
    assert cli.entry(["bench", "--synthetic", "--out", str(tmp_path / "r.json")]) == 0
    calls = log.read_text(encoding="utf-8").split()
    assert sorted(calls) == ["fit_logistic_stacked", "fit_mlp_stacked"]


# Blocks: the stacked loops take their steps in blocks and test for stops once
# per block; the oracles below test every step before taking the next.

def _per_step_logistic(datasets, learning_rate=0.1, max_iter=5000, tolerance=1e-8):
    """`fit_logistic_stacked` one iteration at a time: each iteration's loss
    is summed per member and tested on Python floats before the next step.
    Expects valid settings and at least as many rows as classes."""
    live = sorted(range(len(datasets)), key=lambda j: -datasets[j].n_samples)
    features, labels, counts = stack_datasets([datasets[j] for j in live])
    c, p = datasets[0].n_classes, features.shape[2]

    def descent(features, labels, counts):
        grad = np.empty((len(counts), c, p + 1))
        return _logistic_descent(features, labels, counts, (grad,))[0], grad

    w = np.zeros((len(live), c, p + 1))
    step, grad = descent(features, labels, counts)
    results = [None] * len(datasets)
    histories = [[] for _ in live]
    prev = [math.inf] * len(live)
    for it in range(max_iter + 1):
        picks = np.empty(labels.shape)
        step((w,), picks)
        losses = [-(float(np.log(picks[pos, :n] + 1e-300).sum()) / n)
                  for pos, n in enumerate(counts)]
        keep = []
        for pos, loss in enumerate(losses):
            if not math.isfinite(loss):
                results[live[pos]] = ValueError(
                    f"training loss became non-finite at iteration {it}")
                continue
            if it < max_iter:
                histories[pos].append(loss)
                if not 0.0 <= prev[pos] - loss < tolerance:
                    keep.append(pos)
                    continue
            results[live[pos]] = LogisticModel(w[pos], it, loss, histories[pos])
        if not keep:
            break
        live = [live[pos] for pos in keep]
        histories = [histories[pos] for pos in keep]
        losses = [losses[pos] for pos in keep]
        counts = [counts[pos] for pos in keep]
        w, features, labels = w[keep], features[keep], labels[keep]
        w = w - learning_rate * grad[keep]
        step, grad = descent(features, labels, counts)
        prev = losses
    return results


def _per_step_mlp(datasets, seeds, q=5, epochs=2000, learning_rate=0.01, init_scale=0.5):
    """`fit_mlp_stacked` one epoch at a time: each epoch's SSE is summed per
    member and tested on Python floats before the next update. Expects valid
    settings."""
    live = sorted(range(len(datasets)), key=lambda j: -datasets[j].n_samples)
    x, labels, counts = stack_datasets([datasets[j] for j in live])
    (k, n, p), c = x.shape, datasets[0].n_classes
    results = [None] * k
    if min(p, q, counts[-1]) == 1 and counts[-1] < n:  # one row count per stack, as fit_mlp_stacked
        for size in dict.fromkeys(counts):
            group = [j for j in live if datasets[j].n_samples == size]
            fitted = _per_step_mlp([datasets[j] for j in group], [seeds[j] for j in group],
                                   q, epochs, learning_rate, init_scale)
            for j, result in zip(group, fitted):
                results[j] = result
        return results
    starts = []
    for j in live:
        rng = np.random.default_rng(seeds[j])
        starts.append([rng.uniform(-init_scale, init_scale, size=shape)
                       for shape in ((p, q), (1, q), (q, c), (1, c))])
    targets = np.zeros((k, n, c))
    np.put_along_axis(targets, labels[:, :, None], 1.0, axis=2)
    if k == 1:
        (w1, b1, w2, b2), x, targets = starts[0], x[0], targets[0]
    else:
        w1, b1, w2, b2 = (np.stack(arrs) for arrs in zip(*starts))
    pad = padding(counts, n)[0]
    prev = [math.inf] * k
    traces = [[] for _ in live]
    for epoch in range(epochs + 1):
        layers, backprop = _network(x, _buffers(w1, b1, w2, b2), pad)
        hidden, d_out = layers((w1, b1, w2, b2))
        d_out -= targets
        if pad is not None:
            np.copyto(d_out, 0.0, where=pad)
        rows = d_out.reshape(-1, n, c)
        sses = [float((rows[pos, :m] ** 2).sum()) for pos, m in enumerate(counts)]
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
        if not keep:
            break
        if len(keep) < len(live):
            live = [live[pos] for pos in keep]
            traces = [traces[pos] for pos in keep]
            sses = [sses[pos] for pos in keep]
            counts = [counts[pos] for pos in keep]
            w1, b1, w2, b2, x, targets, hidden, d_out = (
                arr[keep] for arr in (w1, b1, w2, b2, x, targets, hidden, d_out))
            pad = padding(counts, n)[0]
            layers, backprop = _network(x, _buffers(w1, b1, w2, b2), pad)
            # backprop reads the last pass's hidden units and errors: run one
            # pass on the kept weights, then put the kept members' back
            for buffer, kept in zip(layers((w1, b1, w2, b2)), (hidden, d_out)):
                buffer[...] = kept
        prev = sses
        grads = backprop(w2)
        w1, b1, w2, b2 = (w - learning_rate * g for w, g in zip((w1, b1, w2, b2), grads))
    return results


def _block_caps(steps):
    """Step caps on either side of the first and second block edges."""
    return [0, 1, steps - 1, steps, steps + 1, 2 * steps + 3]


@PROPERTY
@given(
    _ragged_tables(),
    st.sampled_from([1, 3, 4, BLOCK_STEPS]),
    st.integers(0, 5),
    st.sampled_from([0.1, 1.0, 1.5e308]),
    st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
)
def test_logistic_blocks_equal_the_per_step_loop(tables, steps, cap, learning_rate, tolerance):
    tables = [t for t in tables if t.n_samples >= t.n_classes]
    assume(tables)
    params = dict(learning_rate=learning_rate, max_iter=_block_caps(steps)[cap],
                  tolerance=tolerance)
    with _block_steps(steps):
        stacked = _stacked(fit_logistic_stacked, tables, **params)
    with _quiet():
        expected = _per_step_logistic(tables, **params)
    assert [_bytes(r) for r in stacked] == [_bytes(r) for r in expected]


@PROPERTY
@given(
    _ragged_tables(),
    st.lists(st.integers(0, 3), min_size=5, max_size=5),
    st.sampled_from([1, 3, 4, BLOCK_STEPS]),
    st.integers(0, 5),
    st.integers(1, 4),
    st.sampled_from([0.01, 0.3, 0.9, 30.0]),
)
def test_mlp_blocks_equal_the_per_step_loop(tables, seeds, steps, cap, q, learning_rate):
    seeds = seeds[: len(tables)]
    params = dict(q=q, epochs=_block_caps(steps)[cap], learning_rate=learning_rate)
    with _block_steps(steps):
        stacked = _stacked(fit_mlp_stacked, tables, seeds=seeds, **params)
    with _quiet():
        expected = _per_step_mlp(tables, seeds, **params)
    assert [_bytes(r) for r in stacked] == [_bytes(r) for r in expected]


@pytest.mark.parametrize("steps", [4, BLOCK_STEPS])
@pytest.mark.parametrize("offset", [None, -1, 0, 1],
                         ids=["first-test", "block-end", "next-block-start", "next-block-second"])
def test_logistic_settles_on_either_side_of_a_block_edge(steps, offset):
    # with a step so small that each improvement is smaller than the last, a
    # tolerance between two improvements settles the fit at a chosen
    # iteration: 1 (the first with a settling test) or one around the end of
    # the first block
    table = _table(11, 30, 3, 3)
    params = dict(learning_rate=0.05, max_iter=2 * steps + 3)
    history = _per_step_logistic([table], tolerance=0.0, **params)[0].loss_history
    gains = -np.diff(history)  # gains[i - 1] is iteration i's improvement
    assert (np.diff(gains) < 0).all()
    target = 1 if offset is None else steps + offset
    params["tolerance"] = 1.0 if target == 1 else (gains[target - 1] + gains[target - 2]) / 2
    with _block_steps(steps):
        (result,) = _stacked(fit_logistic_stacked, [table], **params)
    assert result.iterations == target
    assert _bytes(result) == _bytes(_per_step_logistic([table], **params)[0])
    assert _bytes(result) == _outcome(lambda: _fit_logistic_2d(table, **params))

