"""Benchmark harness: process protocols, seeding, and report assembly."""

import dataclasses
import math
import os
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecobench import (
    ALGORITHM_ORDER,
    PROCESS_CV,
    PROCESS_HOLDOUT,
    PROCESS_ORDER,
    PROCESS_RESUBSTITUTION,
    AlgorithmSpec,
    BenchmarkReport,
    BinaryAggregates,
    Dataset,
    MeasureSet,
    ProcessKind,
    ReportRow,
    SyntheticSpec,
    confusion_matrix,
    derive_seed,
    fit_naive_bayes,
    generate_ecological,
    k_fold,
    macro_aggregate,
    make_algorithm,
    measures,
    parse_algorithms,
    parse_processes,
    predict_nb,
    rank_algorithms,
    run_benchmark,
    run_process,
    standardize,
)
from ecobench import evaluation


def _eco(seed=42, **kwargs):
    return generate_ecological(SyntheticSpec(seed=seed, **kwargs))


def test_parse_algorithms_returns_canonical_order():
    specs = parse_algorithms("nb, dt ,lda")
    assert tuple(s.name for s in specs) == ("DT", "LDA", "NB")
    with pytest.raises(ValueError, match="drawn from"):
        parse_algorithms("dt,xx")
    with pytest.raises(ValueError, match="drawn from"):
        parse_algorithms("  ")


@pytest.mark.parametrize("name, params, names", [
    ("ANN", {"init_scale": math.inf}, "init_scale"),
    ("ANN", {"init_scale": math.nan}, "init_scale"),
    ("SVM", {"cost": math.nan}, "cost"),
    ("SVM", {"cost": math.inf}, "cost"),
    ("SVM", {"gamma": math.nan}, "gamma"),
    ("SVM", {"gamma": math.inf}, "gamma"),
    ("SVM", {"tol": math.nan}, "tol"),
    ("SVM", {"tol": 0.0}, "tol"),
    ("SVM", {"tol": -1.0}, "tol"),
])
def test_a_non_finite_or_nonpositive_setting_gives_error_rows(name, params, names):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_benchmark(_eco(), algorithms=(make_algorithm(name, **params),),
                               master_seed=42)
    assert caught == []
    assert len(report.rows) == len(PROCESS_ORDER)
    for row in report.rows:
        assert not row.ok and names in row.error


def test_parse_processes_returns_table_order():
    kinds = parse_processes("III,I", train_fraction=0.8, folds=5)
    assert tuple(k.name for k in kinds) == ("I", "III")
    assert all(k.train_fraction == 0.8 and k.folds == 5 for k in kinds)
    with pytest.raises(ValueError, match="drawn from"):
        parse_processes("IV")


def test_process_kind_validation():
    with pytest.raises(ValueError, match="process"):
        ProcessKind("X")
    with pytest.raises(ValueError, match="train_fraction"):
        ProcessKind("I", train_fraction=1.5)
    with pytest.raises(ValueError, match="folds"):
        ProcessKind("III", folds=1)
    assert PROCESS_ORDER == ("I", "II", "III")


def test_make_algorithm_normalizes_and_validates():
    spec = make_algorithm("knn", k=1)
    assert spec.name == "KNN"
    assert spec.param_dict() == {"k": 1}
    with pytest.raises(ValueError, match="unknown algorithm"):
        make_algorithm("boost")
    with pytest.raises(ValueError, match="does not take parameter"):
        make_algorithm("lda", k=3)
    with pytest.raises(ValueError, match="does not take parameter"):
        make_algorithm("dt", bogus=1)


def test_make_algorithm_checks_each_param_type():
    # an int serves where a float is expected, None only where the type allows it
    assert make_algorithm("svm", cost=1, gamma=None).param_dict() == {"cost": 1, "gamma": None}
    assert make_algorithm("dt", max_depth=None, criterion="gini").param_dict()["max_depth"] is None
    for name, params, message in [
        ("knn", {"k": True}, "KNN parameter 'k' takes int, got True"),
        ("knn", {"k": 3.0}, "KNN parameter 'k' takes int, got 3.0"),
        ("knn", {"k": None}, "KNN parameter 'k' takes int, got None"),
        ("dt", {"max_depth": 1.5}, "DT parameter 'max_depth' takes int or None, got 1.5"),
        ("svm", {"cost": "abc"}, "SVM parameter 'cost' takes float, got 'abc'"),
        ("lr", {"tolerance": False}, "LR parameter 'tolerance' takes float, got False"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            make_algorithm(name, **params)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(42, "DT", "I") == derive_seed(42, "DT", "I")
    assert derive_seed(42, "DT", "I") != derive_seed(42, "DT", "II")
    assert derive_seed(42, "DT", "I") != derive_seed(43, "DT", "I")
    assert 0 <= derive_seed(7, "x") < 2**64


def test_resubstitution_memorizes_with_one_neighbor():
    row = run_process(_eco(), make_algorithm("KNN", k=1), PROCESS_RESUBSTITUTION, seed=5)
    assert row.ok
    assert row.measures.accuracy == 1.0
    assert row.process == "I"


def test_holdout_rows_are_split_seed_deterministic():
    ds = _eco()
    spec = make_algorithm("NB")
    a = run_process(ds, spec, PROCESS_HOLDOUT, seed=1, split_seed=99)
    b = run_process(ds, spec, PROCESS_HOLDOUT, seed=2, split_seed=99)
    assert a.aggregates == b.aggregates
    assert a.measures == b.measures


def test_cv_row_matches_manual_pooling():
    ds = _eco()
    seed = 17
    row = run_process(ds, make_algorithm("NB"), PROCESS_CV, seed=seed)
    assert row.ok

    plan = k_fold(ds, 3, seed)
    actual, predicted = [], []
    for i, fold in enumerate(plan.folds):
        train, scaling = standardize(ds.subset(plan.train_indices(i)))
        model = fit_naive_bayes(train)
        actual.append(ds.labels[fold])
        predicted.extend(
            predict_nb(model, x) for x in scaling.apply(ds.features[fold])
        )
    cm = confusion_matrix(np.concatenate(actual), predicted, ds.n_classes)
    assert cm.total == ds.n_samples
    expected = measures(macro_aggregate(cm))
    assert row.measures.accuracy == pytest.approx(expected.accuracy, abs=1e-15)
    assert row.measures.f_score == pytest.approx(expected.f_score, abs=1e-15)


def test_failing_cell_becomes_error_row():
    spec = AlgorithmSpec("DT", params=(("min_samples_split", 1),))
    row = run_process(_eco(), spec, PROCESS_RESUBSTITUTION, seed=3)
    assert not row.ok
    assert row.measures is None
    assert "min_samples_split" in row.error


def test_deep_tree_cell_is_an_ok_row():
    # alternating labels on one feature grow a 1499-deep chain of splits
    n = 1500
    ds = Dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2, ("x",), ("A", "B"))
    row = run_process(ds, make_algorithm("DT"), PROCESS_RESUBSTITUTION, seed=1)
    assert row.ok, row.error
    assert row.measures.accuracy == 1.0


def test_run_benchmark_layout_and_summary():
    ds = _eco()
    report = run_benchmark(
        ds,
        algorithms=parse_algorithms("LDA,KNN,NB"),
        processes=parse_processes("I,II"),
        master_seed=7,
        source="unit-test",
    )
    assert len(report.rows) == 6
    assert [(r.algorithm, r.process) for r in report.rows] == [
        ("LDA", "I"), ("KNN", "I"), ("NB", "I"),
        ("LDA", "II"), ("KNN", "II"), ("NB", "II"),
    ]
    for row in report.rows:
        assert row.seed == derive_seed(7, row.algorithm, row.process)
    summary = report.dataset_summary
    assert summary["source"] == "unit-test"
    assert summary["n_samples"] == 30
    assert summary["n_features"] == 8
    assert summary["n_classes"] == 3
    assert summary["class_counts"] == {"C": 10, "G": 10, "S": 10}
    assert report.get("KNN", "II").algorithm == "KNN"
    with pytest.raises(KeyError):
        report.get("KNN", "III")


def test_run_benchmark_cells_are_independent():
    ds = _eco()
    full = run_benchmark(ds, master_seed=11)
    solo = run_benchmark(
        ds, algorithms=parse_algorithms("RF,LDA"), master_seed=11
    )
    for name in ("RF", "LDA"):
        for process in PROCESS_ORDER:
            assert full.get(name, process).measures == solo.get(name, process).measures


def test_run_benchmark_default_grid_is_complete():
    report = run_benchmark(_eco(), master_seed=42)
    assert len(report.rows) == 24
    assert [r.algorithm for r in report.rows[:8]] == list(ALGORITHM_ORDER)
    assert all(row.ok for row in report.rows)


def test_run_benchmark_rejects_empty_selection():
    with pytest.raises(ValueError, match="at least one"):
        run_benchmark(_eco(), algorithms=())


def _fake_row(name, process, accuracy, f_score):
    agg = BinaryAggregates(tp=0.25, fp=0.25, tn=0.25, fn=0.25)
    ms = MeasureSet(recall=0.5, precision=0.5, accuracy=accuracy, f_score=f_score)
    return ReportRow(name, process, agg, ms, wall_ms=0.0, seed=0)


@st.composite
def _adversarial_tables(draw):
    """Small tables of 2-12 classes, each class present and some only once,
    whose random columns come with duplicated, constant, 1e150-scale,
    1e-300-scale and two-adjacent-doubles columns."""
    c = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(c), rng.integers(0, c, size=draw(st.integers(0, 12)))])
    base = rng.normal(size=(labels.size, draw(st.integers(1, 3))))
    columns = [base]
    for kind in draw(st.lists(st.sampled_from(["dup", "const", "huge", "tiny", "adjacent"]),
                              max_size=4)):
        column = base[:, :1]
        if kind == "dup":
            columns.append(column)
        elif kind == "const":
            columns.append(np.full_like(column, draw(st.sampled_from([0.0, 7.5, -1e150]))))
        elif kind == "huge":
            columns.append(column * 1e150)
        elif kind == "tiny":
            columns.append(column * 1e-300)
        else:
            columns.append(np.where(column < 0, 1.0, np.nextafter(1.0, 2.0)))
    x = np.hstack(columns)
    return Dataset(x, labels, tuple(f"f{j}" for j in range(x.shape[1])),
                   tuple(f"c{j}" for j in range(c)))


@settings(derandomize=True, database=None, deadline=10_000, max_examples=60)
@given(_adversarial_tables(), st.integers(2, 4), st.integers(0, 2**16))
def test_adversarial_tables_give_ok_or_error_rows(ds, folds, master_seed):
    # every algorithm with short caps, LR and ANN also at steps that overflow
    # within their first block; an escaping RuntimeWarning fails the test
    light = {"RF": {"n_trees": 3}, "LR": {"max_iter": 40}, "ANN": {"epochs": 40}}
    algorithms = [make_algorithm(name, **light.get(name, {})) for name in ALGORITHM_ORDER]
    algorithms += [make_algorithm("LR", max_iter=40, learning_rate=1.5e308),
                   make_algorithm("ANN", epochs=40, learning_rate=100.0)]
    kinds = (PROCESS_RESUBSTITUTION, PROCESS_HOLDOUT, ProcessKind("III", folds=folds))
    report = run_benchmark(ds, algorithms, kinds, master_seed=master_seed)
    assert len(report.rows) == len(algorithms) * len(kinds)
    for row in report.rows:
        if row.ok:
            assert 0.0 <= row.measures.accuracy <= 1.0
        else:
            assert row.measures is None and row.error


def test_rank_algorithms_orders_by_accuracy_then_f_then_name():
    report = BenchmarkReport(
        master_seed=0,
        dataset_summary={},
        rows=(
            _fake_row("DT", "I", 0.90, 0.90),
            _fake_row("RF", "I", 0.95, 0.80),
            _fake_row("ANN", "I", 0.90, 0.95),
            ReportRow("SVM", "I", None, None, 0.0, 0, error="boom"),
            _fake_row("NB", "I", 0.90, 0.90),
        ),
    )
    assert rank_algorithms(report, "I") == ["RF", "ANN", "DT", "NB"]
    with pytest.raises(ValueError, match="no rows"):
        rank_algorithms(report, "III")


# What scaling every feature column by its own power of two, 2^k for k in
# [-20, 20], must keep for each algorithm. The scaling is exact and
# `standardize` divides it out exactly (means, sample deviations and the
# centred, divided values all carry the same 2^k), so each algorithm fits and
# predicts on the same standardized bits as before.
_SCALED_COLUMN_RELATIONS = {
    "DT": "the same splits and thresholds, so the same labels",
    "RF": "the same bootstrap rows, candidate subsets and splits per tree, so the same votes",
    "ANN": "the same initial weights and descent steps, so the same output scores",
    "SVM": "the same kernel matrix (gamma 1/p), SMO path and pairwise votes",
    "LDA": "the same class means, pooled covariance and discriminant scores",
    "KNN": "the same distances, neighbour order and votes",
    "LR": "the same descent steps, so the same class scores",
    "NB": "the same per-class means, variances and log posteriors",
}


def _process_labels(ds, master_seed):
    """Per algorithm, per process, the predicted labels of each test set in
    turn (or the error that stops the cell), seeded as `run_benchmark` seeds
    them and fit through the same `fit_folds` call."""
    light = {"RF": {"n_trees": 4}, "LR": {"max_iter": 40}, "ANN": {"epochs": 40}}
    kinds = (PROCESS_RESUBSTITUTION, PROCESS_HOLDOUT, PROCESS_CV)
    prepared = [(kind, evaluation._process_pairs(ds, kind,
                                                 derive_seed(master_seed, "split", kind.name)))
                for kind in kinds]
    out = {}
    for name in ALGORITHM_ORDER:
        spec = make_algorithm(name, **light.get(name, {}))
        trains, seeds, tests = [], [], []
        for kind, (ready, stop) in prepared:
            assert stop is None
            for (train, scaling), test in ready:
                trains.append(train)
                seeds.append(derive_seed(master_seed, name, kind.name))
                tests.append(scaling.apply(test.features))
        adapter = evaluation.algorithm_adapter(name)
        fitted = adapter.fit_folds(trains, seeds, spec.param_dict())
        out[name] = [repr(model) if isinstance(model, Exception)
                     else adapter.predict(model, features).tolist()
                     for model, features in zip(fitted, tests)]
    return out


@st.composite
def _scaled_tables(draw):
    """A small table of 2 or 3 classes with at least 3 rows each, and a power
    of two per column."""
    c = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.repeat(np.arange(c), 3),
                             rng.integers(0, c, size=draw(st.integers(0, 9)))])
    p = draw(st.integers(1, 4))
    x = rng.normal(size=(labels.size, p)) * 10.0 ** rng.integers(-3, 4, size=p) + labels[:, None]
    ds = Dataset(x, labels, tuple(f"f{j}" for j in range(p)), tuple(f"c{j}" for j in range(c)))
    powers = draw(st.lists(st.integers(-20, 20), min_size=p, max_size=p))
    return ds, 2.0 ** np.array(powers)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(_scaled_tables(), st.integers(0, 2**16))
def test_scaling_columns_by_powers_of_two_keeps_every_label(table, master_seed):
    ds, scale = table
    scaled = Dataset(ds.features * scale, ds.labels, ds.feature_names, ds.class_names)
    assert np.array_equal(scaled.features / scale, ds.features)  # the scaling is exact
    before, after = _process_labels(ds, master_seed), _process_labels(scaled, master_seed)
    assert set(before) == set(_SCALED_COLUMN_RELATIONS)
    for name in ALGORITHM_ORDER:
        assert after[name] == before[name], (name, _SCALED_COLUMN_RELATIONS[name])


def test_renaming_classes_in_the_same_order_keeps_every_row():
    ds = _eco()
    assert ds.class_names == ("C", "G", "S")
    renamed = Dataset(ds.features, ds.labels, ds.feature_names, ("x", "y", "z"))
    before, after = run_benchmark(ds, master_seed=42), run_benchmark(renamed, master_seed=42)
    assert len(before.rows) == 24
    # every row but its timing: measures, aggregates and errors alike
    assert ([dataclasses.replace(row, wall_ms=0.0) for row in after.rows]
            == [dataclasses.replace(row, wall_ms=0.0) for row in before.rows])
    assert after.dataset_summary == {**before.dataset_summary,
                                     "class_counts": {"x": 10, "y": 10, "z": 10}}


# The stacked fits (LR, ANN) of `run_benchmark` run in forked workers.

def _timeless(report):
    """Every row but its timing, as text, so that bits (and NaNs) compare."""
    return [repr(dataclasses.replace(row, wall_ms=0.0)) for row in report.rows]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # neither running nor a zombie
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("master_seed", [0, 7, 42])
@pytest.mark.parametrize("processes", ["I,II,III", "III", "I,II"])
def test_reports_without_fork_equal_forked_reports(monkeypatch, master_seed, processes):
    ds = _eco(master_seed)
    algorithms = (
        *parse_algorithms("DT,KNN,NB"),
        make_algorithm("ANN", epochs=300),
        make_algorithm("LR", max_iter=400),
        make_algorithm("ANN", learning_rate=1e3, epochs=50),  # diverges: error rows
        make_algorithm("LR", learning_rate=1e308, max_iter=1),  # as does this
    )
    kinds = parse_processes(processes)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked = run_benchmark(ds, algorithms, kinds, master_seed=master_seed)
    assert len(forks) == 4  # one worker per stacked algorithm
    monkeypatch.delattr(os, "fork")
    alone = run_benchmark(ds, algorithms, kinds, master_seed=master_seed)
    assert _timeless(forked) == _timeless(alone)
    assert [row.ok for row in forked.rows].count(False) == 2 * len(kinds)
    assert all(row.wall_ms > 0.0 for row in forked.rows)
    _assert_no_child_left()


def test_a_workers_exception_reaches_the_caller_unchanged(monkeypatch):
    def fit(*args, **kwargs):
        raise TypeError("a fault in the stacked fit")

    monkeypatch.setattr(evaluation, "fit_logistic_stacked", fit)
    with pytest.raises(TypeError, match=r"^a fault in the stacked fit$") as caught:
        run_benchmark(_eco(), master_seed=42)
    assert type(caught.value) is TypeError
    _assert_no_child_left()


def test_a_worker_that_dies_without_its_models_is_a_runtime_error(monkeypatch):
    monkeypatch.setattr(evaluation, "fit_mlp_stacked", lambda *args, **kwargs: os._exit(3))
    with pytest.raises(RuntimeError, match=r"^the ANN fit worker exited with status 3 "
                                           r"without sending its models$"):
        run_benchmark(_eco(), master_seed=42)
    _assert_no_child_left()  # the LR worker, still fitting, is killed and reaped


def test_a_fault_in_the_parents_cells_reaps_the_running_workers(monkeypatch):
    def fit(*args, **kwargs):
        raise TypeError("a fault in the tree fit")

    monkeypatch.setattr(evaluation, "fit_decision_tree", fit)
    with pytest.raises(TypeError, match="a fault in the tree fit"):
        run_benchmark(_eco(), master_seed=42)  # DT runs first, while LR and ANN fit
    _assert_no_child_left()


def test_a_stacked_cells_wall_ms_is_the_workers_fit_time_not_the_wait(monkeypatch):
    fit_tree, fit_stacked = evaluation.fit_decision_tree, evaluation.fit_logistic_stacked

    def slow(fit, seconds):
        def call(*args, **kwargs):
            time.sleep(seconds)
            return fit(*args, **kwargs)
        return call

    # the parent's DT cell outlasts the worker's LR fit, so LR's result is
    # there when the parent asks for it: its wait is near 0, its fit 0.3 s
    monkeypatch.setattr(evaluation, "fit_decision_tree", slow(fit_tree, 0.6))
    monkeypatch.setattr(evaluation, "fit_logistic_stacked", slow(fit_stacked, 0.3))
    report = run_benchmark(_eco(), parse_algorithms("DT,LR"), parse_processes("I"))
    assert report.get("DT", "I").wall_ms >= 600.0
    assert report.get("LR", "I").wall_ms >= 300.0
    _assert_no_child_left()
