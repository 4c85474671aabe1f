"""Benchmark harness: runs each classifier under resubstitution, holdout and
k-fold cross-validation, and assembles a comparison report.

Every (algorithm, process) cell is seeded from the master seed and the cell's
own identity, so removing one cell never changes another's numbers, while the
split or fold plan for one process is shared by all algorithms.
"""

from __future__ import annotations

import hashlib
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, k_fold, standardize, train_test_split
from .linear_prob import (
    LdaModel,
    LogisticModel,
    NaiveBayesModel,
    fit_lda,
    fit_logistic,
    fit_logistic_stacked,
    fit_naive_bayes,
    predict_lda,
    predict_logistic,
    predict_nb,
)
from .margin_instance import (
    KernelSpec,
    KnnModel,
    SvmMulticlassModel,
    default_gamma,
    fit_knn,
    fit_svm_multiclass,
    knn_predict,
    predict_svm,
)
from .metrics import BinaryAggregates, MeasureSet, confusion_matrix, macro_aggregate, measures
from .neural import MlpModel, fit_mlp, fit_mlp_stacked, predict_mlp
from .trees import (
    DecisionTreeModel,
    ForestModel,
    fit_decision_tree,
    fit_random_forest,
    predict_forest,
    predict_tree,
)

ALGORITHM_ORDER = ("DT", "RF", "ANN", "SVM", "LDA", "KNN", "LR", "NB")
PROCESS_ORDER = ("I", "II", "III")


@dataclass(frozen=True)
class ProcessKind:
    """One evaluation protocol: I resubstitution, II holdout, III k-fold CV."""

    name: str
    train_fraction: float = 0.75
    folds: int = 3

    def __post_init__(self):
        if self.name not in PROCESS_ORDER:
            raise ValueError(f"process must be one of {PROCESS_ORDER}, got {self.name!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")


PROCESS_RESUBSTITUTION = ProcessKind("I")
PROCESS_HOLDOUT = ProcessKind("II")
PROCESS_CV = ProcessKind("III")


def parse_processes(text: str, train_fraction: float = 0.75, folds: int = 3):
    """Comma list like 'I,III' to ProcessKind tuple, keeping table order."""
    wanted = {part.strip().upper() for part in text.split(",") if part.strip()}
    unknown = wanted - set(PROCESS_ORDER)
    if unknown or not wanted:
        raise ValueError(f"processes must be drawn from {','.join(PROCESS_ORDER)}, got {text!r}")
    return tuple(
        ProcessKind(name, train_fraction=train_fraction, folds=folds)
        for name in PROCESS_ORDER
        if name in wanted
    )


@dataclass(frozen=True)
class AlgorithmSpec:
    """Canonical algorithm id plus hyperparameter overrides."""

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.name not in _REGISTRY:
            raise ValueError(
                f"unknown algorithm {self.name!r}; choose from {', '.join(ALGORITHM_ORDER)}"
            )
        object.__setattr__(self, "params", tuple((str(k), v) for k, v in self.params))
        allowed = _REGISTRY[self.name].param_types
        for key, value in self.params:
            if key not in allowed:
                raise ValueError(f"{self.name} does not take parameter {key!r}; allowed: "
                                 f"{', '.join(allowed) or '(none)'}")
            types = typing.get_args(allowed[key]) or (allowed[key],)
            # no parameter takes a bool, and an int serves where a float is expected
            if isinstance(value, bool) or not (
                    isinstance(value, types) or float in types and isinstance(value, int)):
                names = " or ".join("None" if t is type(None) else t.__name__ for t in types)
                raise ValueError(f"{self.name} parameter {key!r} takes {names}, got {value!r}")

    def param_dict(self) -> dict:
        return dict(self.params)


def make_algorithm(name: str, **params) -> AlgorithmSpec:
    return AlgorithmSpec(name=name.strip().upper(), params=tuple(sorted(params.items())))


def parse_algorithms(text: str):
    """Comma list like 'lda,nb' to AlgorithmSpec tuple in canonical order."""
    wanted = {part.strip().upper() for part in text.split(",") if part.strip()}
    unknown = wanted - set(ALGORITHM_ORDER)
    if unknown or not wanted:
        raise ValueError(
            f"algorithms must be drawn from {','.join(ALGORITHM_ORDER)}, got {text!r}"
        )
    return tuple(AlgorithmSpec(name) for name in ALGORITHM_ORDER if name in wanted)


def _fit_svm(train: Dataset, seed: int, params: dict):
    params = dict(params)
    kind = params.pop("kernel", "rbf")
    gamma = params.pop("gamma", None)
    if kind == "rbf" and gamma is None:
        gamma = default_gamma(train.n_features)
    return fit_svm_multiclass(train, kernel=KernelSpec(kind, gamma), **params)


# The errors a cell reports as an error row; anything else is a fault in the program.
CELL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError, RecursionError)


@dataclass(frozen=True)
class AlgorithmAdapter:
    name: str
    model_class: type  # the dataclass `fit` returns, which model_io saves and loads
    fit: object
    predict_rows: object  # the module's predictor: one row -> int, (m, p) matrix -> (m,) labels
    param_types: dict  # hyperparameter name -> the type its value must have, e.g. int | None
    # (trains, seeds, params) -> per train its model or ValueError, for trains
    # of one feature and class count fit in one loop; None fits one train at
    # a time with `fit`
    fit_stacked: object = None

    def predict(self, model, features: np.ndarray) -> np.ndarray:
        return self.predict_rows(model, np.atleast_2d(features))

    def fit_folds(self, trains, seeds, params: dict):
        """Per training set, in order, the model `fit` gives it with its seed
        from `seeds` or the error it raises. A stacked fit takes every train,
        of any row count and however many, in one call when the first result
        is asked for; otherwise each train is fit only when its result is
        asked for, so a caller that scores each train's model before asking
        for the next never holds every model (a forest each, for RF) at once."""
        if self.fit_stacked is None:
            for train, seed in zip(trains, seeds):
                try:
                    yield self.fit(train, seed, params)
                except CELL_ERRORS as exc:
                    yield exc
            return
        yield from self.fit_stacked(tuple(trains), tuple(seeds), params)


_REGISTRY = {
    "DT": AlgorithmAdapter(
        "DT",
        DecisionTreeModel,
        lambda train, seed, p: fit_decision_tree(train, **p),
        predict_tree,
        {"max_depth": int | None, "min_samples_split": int, "criterion": str},
    ),
    "RF": AlgorithmAdapter(
        "RF",
        ForestModel,
        lambda train, seed, p: fit_random_forest(train, seed=seed, **p),
        predict_forest,
        {"n_trees": int, "m_try": int | None, "max_depth": int | None, "min_samples_split": int},
    ),
    "ANN": AlgorithmAdapter(
        "ANN",
        MlpModel,
        lambda train, seed, p: fit_mlp(train, seed=seed, **p)[0],
        predict_mlp,
        {"q": int, "epochs": int, "learning_rate": float, "init_scale": float},
        lambda trains, seeds, p: [
            r if isinstance(r, ValueError) else r[0]
            for r in fit_mlp_stacked(trains, seeds, **p)
        ],
    ),
    "SVM": AlgorithmAdapter(
        "SVM",
        SvmMulticlassModel,
        _fit_svm,
        predict_svm,
        {"cost": float, "tol": float, "kernel": str, "gamma": float | None},
    ),
    "LDA": AlgorithmAdapter(
        "LDA",
        LdaModel,
        lambda train, seed, p: fit_lda(train),
        predict_lda,
        {},
    ),
    "KNN": AlgorithmAdapter(
        "KNN",
        KnnModel,
        lambda train, seed, p: fit_knn(train, **p),
        knn_predict,
        {"k": int},
    ),
    "LR": AlgorithmAdapter(
        "LR",
        LogisticModel,
        lambda train, seed, p: fit_logistic(train, **p),
        predict_logistic,
        {"learning_rate": float, "max_iter": int, "tolerance": float},
        lambda trains, seeds, p: fit_logistic_stacked(trains, **p),
    ),
    "NB": AlgorithmAdapter(
        "NB",
        NaiveBayesModel,
        lambda train, seed, p: fit_naive_bayes(train),
        predict_nb,
        {},
    ),
}


def algorithm_adapter(name: str) -> AlgorithmAdapter:
    if name not in _REGISTRY:
        raise ValueError(f"unknown algorithm {name!r}")
    return _REGISTRY[name]


def derive_seed(master_seed: int, *parts: str) -> int:
    """Stable 64-bit seed from the master seed and identity strings."""
    text = "|".join([str(int(master_seed)), *parts])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class ReportRow:
    algorithm: str
    process: str
    aggregates: BinaryAggregates | None
    measures: MeasureSet | None
    wall_ms: float
    seed: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BenchmarkReport:
    master_seed: int
    dataset_summary: dict
    rows: tuple[ReportRow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def get(self, algorithm: str, process: str) -> ReportRow:
        for row in self.rows:
            if row.algorithm == algorithm and row.process == process:
                return row
        raise KeyError(f"no row for ({algorithm}, {process})")


def _process_pairs(ds: Dataset, kind: ProcessKind, split_seed: int):
    """One process's (train, test) pairs, each train as its `standardize`
    result, up to the first train that cannot be standardized, and the error
    that stops the process there (None if every pair is ready). I tests on its
    training rows, II on a held-out split, III on each fold; scaling is fit
    on train rows only."""
    try:
        if kind.name == "I":
            pairs = [(ds, ds)]
        elif kind.name == "II":
            pairs = [train_test_split(ds, kind.train_fraction, split_seed)]
        else:
            plan = k_fold(ds, kind.folds, split_seed)
            pairs = [(ds.subset(plan.train_indices(i)), ds.subset(fold))
                     for i, fold in enumerate(plan.folds)]
    except CELL_ERRORS as exc:
        return [], exc
    ready = []
    for train, test in pairs:
        try:
            ready.append((standardize(train), test))
        except CELL_ERRORS as exc:
            return ready, exc
    return ready, None


def _run_cells(ds: Dataset, algorithm: AlgorithmSpec, cells) -> list[ReportRow]:
    """One algorithm's rows for `cells`, a list of (kind, seed, `_process_pairs`
    result). The trains of every cell go through one `fit_folds` call, each
    with its cell's seed, and each pair is scored as its model arrives. A
    cell's error is the one a pair-by-pair run (standardize, fit, predict)
    meets first; pairs after one that cannot be standardized are never fit,
    and those after a failed pair are fit but not scored. Failures come back
    as error rows, so a sweep can continue.

    A cell's `wall_ms` is the time of its own pairs and score; the time of a
    stacked fit, which fits every cell's trains at once, is shared among the
    cells by their number of trains.
    """
    adapter = algorithm_adapter(algorithm.name)
    trains = [train for _, _, (ready, _) in cells for (train, _), _ in ready]
    seeds = [seed for _, seed, (ready, _) in cells for _ in ready]
    fitted = adapter.fit_folds(trains, seeds, algorithm.param_dict())
    outcomes, stacked_s = [], 0.0
    for kind, seed, (ready, stop) in cells:
        start, fit_s = time.perf_counter(), 0.0
        error, actual, predicted = None, [], []
        for (_, scaling), test in ready:
            model = None  # let go of the last model (a forest, for RF) before the next fit
            tick = time.perf_counter()
            model = next(fitted)
            fit_s += time.perf_counter() - tick
            if error is not None:
                continue
            if isinstance(model, CELL_ERRORS):
                error = model
                continue
            try:
                predicted.append(adapter.predict(model, scaling.apply(test.features)))
            except CELL_ERRORS as exc:
                error = exc
                continue
            actual.append(test.labels)
        result, error = None, error or stop
        if error is None:
            try:
                agg = macro_aggregate(confusion_matrix(
                    np.concatenate(actual), np.concatenate(predicted), ds.n_classes))
                result = agg, measures(agg)
            except CELL_ERRORS as exc:
                error = exc
        own_s = time.perf_counter() - start
        if adapter.fit_stacked is not None:
            own_s -= fit_s
            stacked_s += fit_s
        outcomes.append((kind, seed, result, error, own_s, len(ready)))
    per_train_s = stacked_s / max(len(trains), 1)
    rows = []
    for kind, seed, result, error, own_s, n_trains in outcomes:
        wall_ms = (own_s + per_train_s * n_trains) * 1000.0
        if result is None:
            rows.append(ReportRow(algorithm.name, kind.name, None, None, wall_ms, seed,
                                  error=str(error)))
        else:
            rows.append(ReportRow(algorithm.name, kind.name, *result, wall_ms, seed))
    return rows


def run_process(
    ds: Dataset,
    algorithm: AlgorithmSpec,
    kind: ProcessKind,
    seed: int,
    split_seed: int | None = None,
) -> ReportRow:
    """Evaluate one algorithm under one process; failures come back as an
    error row rather than an exception so a sweep can continue."""
    split_seed = seed if split_seed is None else split_seed
    (row,) = _run_cells(ds, algorithm, [(kind, seed, _process_pairs(ds, kind, split_seed))])
    return row


def run_benchmark(
    ds: Dataset,
    algorithms=None,
    processes=None,
    master_seed: int = 42,
    source: str = "memory",
) -> BenchmarkReport:
    """All (algorithm, process) cells, process-major, independently seeded.

    Each process's pairs are split and standardized once for all algorithms,
    and each algorithm fits the trains of every process in one `fit_folds`
    call, so LR and ANN run one gradient loop per grid.
    """
    if algorithms is None:
        algorithms = tuple(AlgorithmSpec(name) for name in ALGORITHM_ORDER)
    if processes is None:
        processes = (PROCESS_RESUBSTITUTION, PROCESS_HOLDOUT, PROCESS_CV)
    algorithms = tuple(algorithms)
    processes = tuple(processes)
    if not algorithms or not processes:
        raise ValueError("need at least one algorithm and one process")
    prepared = [(kind, _process_pairs(ds, kind, derive_seed(master_seed, "split", kind.name)))
                for kind in processes]
    by_algorithm = [
        _run_cells(ds, algorithm, [(kind, derive_seed(master_seed, algorithm.name, kind.name),
                                    pairs) for kind, pairs in prepared])
        for algorithm in algorithms
    ]
    rows = [row for process_rows in zip(*by_algorithm) for row in process_rows]
    counts = ds.class_counts()
    summary = {
        "source": source,
        "n_samples": ds.n_samples,
        "n_features": ds.n_features,
        "n_classes": ds.n_classes,
        "class_counts": {name: int(counts[i]) for i, name in enumerate(ds.class_names)},
    }
    return BenchmarkReport(master_seed=master_seed, dataset_summary=summary, rows=tuple(rows))


def rank_algorithms(report: BenchmarkReport, process: str) -> list[str]:
    """Algorithm names by descending accuracy; ties by F-score, then name."""
    rows = [r for r in report.rows if r.process == process]
    if not rows:
        raise ValueError(f"report has no rows for process {process!r}")
    scored = [r for r in rows if r.ok]
    scored.sort(key=lambda r: (-r.measures.accuracy, -r.measures.f_score, r.algorithm))
    return [r.algorithm for r in scored]
