"""Spans and work counts around calls into ecobench, recorded from outside the program.

`traced(tracer)` replaces public functions where the program looks them up (a
module global read at call time, or a class attribute) with wrappers that
record a span per call, and puts the originals back on exit. Spans stay in
memory; `layer_metrics` turns one pass's spans into per-layer self times.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ecobench import cli, dataset, evaluation, model_io

# Algorithm code -> the module that implements it.
LAYER_OF = {
    "DT": "trees", "RF": "trees", "ANN": "neural",
    "SVM": "margin_instance", "KNN": "margin_instance",
    "LDA": "linear_prob", "LR": "linear_prob", "NB": "linear_prob",
}

# Timing metrics a traced pass reports; any the pass never enters read 0.
TIMING_METRICS = (
    "trees.fit_s.DT", "trees.fit_s.RF", "trees.predict_s.DT", "trees.predict_s.RF",
    "neural.fit_s", "neural.predict_s",
    "margin_instance.fit_s.SVM", "margin_instance.fit_s.KNN",
    "margin_instance.predict_s.SVM", "margin_instance.predict_s.KNN",
    "linear_prob.fit_s.LDA", "linear_prob.fit_s.LR", "linear_prob.fit_s.NB",
    "linear_prob.predict_s.LDA", "linear_prob.predict_s.LR", "linear_prob.predict_s.NB",
    "model_io.save_s", "model_io.load_s",
    "dataset.input_s", "dataset.split_s", "dataset.standardize_s", "metrics.score_s",
    *(f"evaluation.cell_s.{alg}" for alg in evaluation.ALGORITHM_ORDER),
    *(f"evaluation.process_s.{p}" for p in evaluation.PROCESS_ORDER),
    "evaluation.self_s", "cli.self_s",
)

# Work counts read from returned models; each must repeat exactly between passes.
COUNT_METRICS = (
    "trees.nodes", "trees.predict_rows", "neural.epochs", "neural.fit_failed",
    "linear_prob.lr_iterations", "margin_instance.support_vectors",
    "margin_instance.svm_unconverged", "model_io.bytes", "trace.spans",
)

# Spans that only carry the harness's own work; their time is tracing overhead.
_COUNT_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans and counts of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, attrs))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self seconds and work counts of one traced pass."""
    out = dict.fromkeys(TIMING_METRICS, 0.0)
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s.name == "evaluation.cell":
            out[f"evaluation.cell_s.{s.attrs['algorithm']}"] += own
            out[f"evaluation.process_s.{s.attrs['process']}"] += own
            out["evaluation.self_s"] += own
        elif s.name == "evaluation.run_benchmark":
            out["evaluation.self_s"] += own
        elif s.name == "cli.entry":
            out["cli.self_s"] += own
        elif s.name != _COUNT_SPAN:
            out[s.name] += own
    counts = dict.fromkeys(COUNT_METRICS, 0)
    counts.update(tracer.counts)
    counts["trace.spans"] = len(tracer.spans)
    out.update(counts)
    return out


def spans_record(tracer: Tracer, origin: float) -> list[dict]:
    """Spans as plain records, times in seconds since `origin`."""
    return [
        {"name": s.name, "start": s.start - origin, "end": s.end - origin,
         "parent": s.parent, **({"attrs": s.attrs} if s.attrs else {})}
        for s in tracer.spans
    ]


def _tree_nodes(model) -> int:
    stack, nodes = [model.root], 0
    while stack:
        node = stack.pop()
        nodes += 1
        if not node.is_leaf:
            stack += (node.left, node.right)
    return nodes


def _count_dt(counts, result, args):
    counts["trees.nodes"] += _tree_nodes(result)


def _count_rf(counts, result, args):
    counts["trees.nodes"] += sum(_tree_nodes(tree) for tree in result.trees)


def _count_ann(counts, result, args):
    counts["neural.epochs"] += result[1].steps


def _count_svm(counts, result, args):
    counts["margin_instance.support_vectors"] += sum(m.n_support for m in result.machines)
    counts["margin_instance.svm_unconverged"] += sum(not m.converged for m in result.machines)


def _count_lr(counts, result, args):
    counts["linear_prob.lr_iterations"] += result.iterations


def _count_saved_bytes(counts, result, args):
    counts["model_io.bytes"] += Path(args[0]).stat().st_size


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Record spans into `tracer` for every call the program makes into its layers."""
    originals = []

    def wrap(owner, attr, name, count=None, failed=None):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    if failed:
                        tracer.counts[failed] += 1
                    raise
            if count is not None:
                with tracer.span(_COUNT_SPAN):
                    count(tracer.counts, result, args)
            return result

        originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def wrap_cell(fn):
        def run_process(ds, algorithm, kind, seed, split_seed=None):
            with tracer.span("evaluation.cell", algorithm=algorithm.name, process=kind.name):
                return fn(ds, algorithm, kind, seed, split_seed)
        return run_process

    def wrap_predict(fn):
        def predict(adapter, model, features):
            layer = LAYER_OF[adapter.name]
            name = "neural.predict_s" if layer == "neural" else f"{layer}.predict_s.{adapter.name}"
            with tracer.span(name):
                labels = fn(adapter, model, features)
            if layer == "trees":
                tracer.counts["trees.predict_rows"] += labels.size
            return labels
        return predict

    def replace(owner, attr, make):
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    try:
        for owner in (evaluation, cli):
            wrap(owner, "standardize", "dataset.standardize_s")
            wrap(owner, "fit_mlp", "neural.fit_s", _count_ann, "neural.fit_failed")
        wrap(dataset.ScalingParams, "apply", "dataset.standardize_s")
        wrap(evaluation, "train_test_split", "dataset.split_s")
        wrap(evaluation, "k_fold", "dataset.split_s")
        wrap(cli, "generate_ecological", "dataset.input_s")
        wrap(cli, "load_csv", "dataset.input_s")
        for attr in ("confusion_matrix", "macro_aggregate", "measures"):
            wrap(evaluation, attr, "metrics.score_s")
        wrap(evaluation, "fit_decision_tree", "trees.fit_s.DT", _count_dt)
        wrap(evaluation, "fit_random_forest", "trees.fit_s.RF", _count_rf)
        wrap(evaluation, "fit_svm_multiclass", "margin_instance.fit_s.SVM", _count_svm)
        wrap(evaluation, "fit_knn", "margin_instance.fit_s.KNN")
        wrap(evaluation, "fit_lda", "linear_prob.fit_s.LDA")
        wrap(evaluation, "fit_logistic", "linear_prob.fit_s.LR", _count_lr)
        wrap(evaluation, "fit_naive_bayes", "linear_prob.fit_s.NB")
        wrap(model_io, "save_model", "model_io.save_s", _count_saved_bytes)
        wrap(model_io, "load_model", "model_io.load_s")
        wrap(evaluation, "run_benchmark", "evaluation.run_benchmark")
        wrap(cli, "entry", "cli.entry")
        replace(evaluation, "run_process", wrap_cell)
        replace(evaluation.AlgorithmAdapter, "predict", wrap_predict)
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
