"""Command-line interface: benchmark runs, model fit/predict round trips,
synthetic data generation, and dataset inspection.

Every command is deterministic under a fixed seed; benchmark reports are
written with wall_ms zeroed unless timings are requested, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, model_io
from .dataset import (
    ECO_LABEL_COLUMN,
    Dataset,
    SyntheticSpec,
    generate_ecological,
    load_csv,
    parse_feature_rows,
    read_csv_table,
    save_csv,
    standardize,
    train_test_split,
)
from .linear_prob import discriminant_table
from .margin_instance import describe_svm
from .neural import fit_mlp, trace_csv
from .trees import fit_random_forest, forest_error_trace

DEFAULT_SEED = 42

_ROW_FIELDS = (
    "algorithm", "process", "tp", "fp", "tn", "fn",
    "recall", "precision", "accuracy", "f_score", "wall_ms",
)


def _row_record(row: evaluation.ReportRow, include_timings: bool) -> dict:
    record = dict.fromkeys(_ROW_FIELDS)
    record["algorithm"] = row.algorithm
    record["process"] = row.process
    if row.ok:
        agg, ms = row.aggregates, row.measures
        record.update(
            tp=agg.tp, fp=agg.fp, tn=agg.tn, fn=agg.fn,
            recall=ms.recall, precision=ms.precision,
            accuracy=ms.accuracy, f_score=ms.f_score,
        )
        record["wall_ms"] = round(row.wall_ms, 3) if include_timings else 0.0
    else:
        record["wall_ms"] = None
        record["error"] = row.error
    return record


def _row_cells(record: dict, float_format: str) -> list[str]:
    """The _ROW_FIELDS cells of a row record as text: floats in `float_format`,
    None as an empty cell, anything else as str."""
    cells = []
    for name in _ROW_FIELDS:
        value = record[name]
        if isinstance(value, float):
            cells.append(format(value, float_format))
        else:
            cells.append("" if value is None else str(value))
    return cells


def report_to_json(report: evaluation.BenchmarkReport, include_timings: bool = False) -> str:
    payload = {
        "seed": report.master_seed,
        "dataset_summary": report.dataset_summary,
        "rows": [_row_record(row, include_timings) for row in report.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_csv(report: evaluation.BenchmarkReport, include_timings: bool = False) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(_ROW_FIELDS) + ["error"])
    for row in report.rows:
        record = _row_record(row, include_timings)
        writer.writerow(_row_cells(record, ".10g") + [record.get("error", "")])
    return out.getvalue()


def report_to_markdown(report: evaluation.BenchmarkReport, include_timings: bool = False) -> str:
    header = ("Algorithm", "Process", "T_p", "F_p", "T_n", "F_n",
              "Recall", "Precision", "Accuracy", "F-Score", "Wall ms")
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    failures = []
    for row in report.rows:
        cells = _row_cells(_row_record(row, include_timings), ".4f")
        lines.append("| " + " | ".join(cells) + " |")
        if not row.ok:
            failures.append(f"- {row.algorithm}/{row.process}: {row.error}")
    text = "\n".join(lines) + "\n"
    if failures:
        text += "\nFailed cells:\n" + "\n".join(failures) + "\n"
    return text


_FORMATTERS = {
    "json": report_to_json,
    "csv": report_to_csv,
    "markdown": report_to_markdown,
}


def _parse_params(text: str | None) -> dict:
    """Comma list of key=value hyperparameters with numeric coercion."""
    params = {}
    if not text:
        return params
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"expected key=value in --params, got {chunk!r}")
        key, raw = chunk.split("=", 1)
        key, raw = key.strip(), raw.strip()
        if raw.lower() in ("none", "null"):
            value = None
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key] = value
    return params


def _load_bench_dataset(args):
    if args.synthetic == (args.data is not None):
        raise ValueError("choose exactly one dataset source: --data PATH or --synthetic")
    if args.synthetic:
        spec = SyntheticSpec(
            n_per_class=args.n_per_class, separation=args.separation, seed=args.seed
        )
        source = (
            f"synthetic(n_per_class={spec.n_per_class},"
            f"separation={spec.separation:g},seed={spec.seed})"
        )
        return generate_ecological(spec), source
    return load_csv(args.data, args.label), str(args.data)


def cmd_bench(args) -> int:
    ds, source = _load_bench_dataset(args)
    algorithms = evaluation.parse_algorithms(args.algorithms)
    processes = evaluation.parse_processes(
        args.processes, train_fraction=args.train_fraction, folds=args.folds
    )
    report = evaluation.run_benchmark(
        ds, algorithms, processes, master_seed=args.seed, source=source
    )
    for kind in processes:
        ranked = evaluation.rank_algorithms(report, kind.name)
        print(f"Process {kind.name} ranking: " + " > ".join(ranked))
    text = _FORMATTERS[args.format](report, include_timings=args.timings)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    failures = [row for row in report.rows if not row.ok]
    for row in failures:
        print(f"cell failed: {row.algorithm}/{row.process}: {row.error}", file=sys.stderr)
    return 2 if failures else 0


def cmd_fit(args) -> int:
    ds = load_csv(args.data, args.label)
    params = _parse_params(args.params)
    spec = evaluation.make_algorithm(args.algorithm, **params)
    train, scaling = standardize(ds)
    seed = evaluation.derive_seed(args.seed, spec.name, "fit")

    if spec.name == "ANN":
        model, trace = fit_mlp(train, seed=seed, **spec.param_dict())
        print(f"Error: {trace.final_sse:.6g} Steps: {trace.steps}")
        if args.trace:
            Path(args.trace).write_text(trace_csv(trace), encoding="utf-8")
    else:
        model = evaluation.algorithm_adapter(spec.name).fit(train, seed, spec.param_dict())
        if args.trace:
            if spec.name != "RF":
                raise ValueError("--trace applies to the ANN and RF algorithms only")
            raw_train, raw_test = train_test_split(ds, 0.75, seed)
            sub_train, sub_scaling = standardize(raw_train)
            trace_forest = fit_random_forest(sub_train, seed=seed, **spec.param_dict())
            held = Dataset(
                sub_scaling.apply(raw_test.features),
                raw_test.labels,
                raw_test.feature_names,
                raw_test.class_names,
            )
            Path(args.trace).write_text(
                forest_error_trace(trace_forest, sub_train, held), encoding="utf-8"
            )

    if spec.name == "SVM":
        print(describe_svm(model), end="")
    if spec.name == "LDA":
        print(discriminant_table(model, ds.feature_names), end="")

    model_io.save_model(args.out, spec.name, model, scaling, ds.feature_names, ds.class_names)
    print(f"{spec.name} model written to {args.out}")
    return 0


def _read_feature_rows(path, bundle) -> np.ndarray:
    """Feature matrix from a headered CSV, matched to the model's schema.

    Columns are picked by name when all trained feature names are present
    (extra columns such as the label are ignored); otherwise the file must
    have exactly the trained column count, taken in order.
    """
    header, rows = read_csv_table(path, "input")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    p = bundle.n_features
    if set(bundle.feature_names) <= set(header):
        positions = [header.index(name) for name in bundle.feature_names]
    elif len(header) == p:
        positions = list(range(p))
    else:
        raise ValueError(
            f"model expects {p} feature columns {list(bundle.feature_names)}, "
            f"file has {len(header)}: {header}"
        )
    return parse_feature_rows(rows, header, positions)


def cmd_predict(args) -> int:
    bundle = model_io.load_model(args.model)
    features = _read_feature_rows(args.data, bundle)
    labels = bundle.predict(features)
    text = "\n".join(bundle.class_names[i] for i in labels) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{labels.size} predictions written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        n_per_class=args.n_per_class, separation=args.separation, seed=args.seed
    )
    ds = generate_ecological(spec)
    save_csv(ds, args.out, label_column=args.label)
    print(f"{ds.n_samples} rows x {ds.n_features + 1} columns written to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    ds = load_csv(args.data, args.label)
    writer = csv.writer(sys.stdout)
    print("# features")
    writer.writerow(["feature", "mean", "std", "min", "max"])
    stds = ds.features.std(axis=0, ddof=1) if ds.n_samples > 1 else np.zeros(ds.n_features)
    for j, name in enumerate(ds.feature_names):
        column = ds.features[:, j]
        writer.writerow(
            [name] + [f"{v:.10g}" for v in (column.mean(), stds[j], column.min(), column.max())]
        )
    print("# classes")
    writer.writerow(["class", "count"])
    counts = ds.class_counts()
    for i, name in enumerate(ds.class_names):
        writer.writerow([name, int(counts[i])])
    print("# correlation")
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant column reads nan
        corr = np.atleast_2d(np.corrcoef(ds.features, rowvar=False))
    writer.writerow(["feature"] + list(ds.feature_names))
    for j, name in enumerate(ds.feature_names):
        writer.writerow([name] + [f"{v:.10g}" for v in corr[j]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecobench",
        description="Compare eight classifiers on labeled tabular data under "
        "resubstitution, holdout and cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the full comparison benchmark")
    bench.add_argument("--data", help="dataset CSV path")
    bench.add_argument("--synthetic", action="store_true", help="generate the bundled "
                       "synthetic ecological dataset instead of reading a file")
    bench.add_argument("--label", default=ECO_LABEL_COLUMN, help="label column name")
    bench.add_argument("--n-per-class", type=int, default=10, dest="n_per_class")
    bench.add_argument("--separation", type=float, default=1.0,
                       help="synthetic class separation multiplier")
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--algorithms", default=",".join(evaluation.ALGORITHM_ORDER))
    bench.add_argument("--processes", default=",".join(evaluation.PROCESS_ORDER),
                       help="comma list from I,II,III")
    bench.add_argument("--train-fraction", type=float, default=0.75, dest="train_fraction")
    bench.add_argument("--folds", type=int, default=3)
    bench.add_argument("--format", choices=sorted(_FORMATTERS), default="json")
    bench.add_argument("--out", help="report file path (default: print report)")
    bench.add_argument("--timings", action="store_true",
                       help="record measured wall times in the report file "
                       "(makes reruns differ byte-wise)")
    bench.set_defaults(func=cmd_bench)

    fit = sub.add_parser("fit", help="fit one model and save it with its scaling")
    fit.add_argument("--data", required=True)
    fit.add_argument("--label", default=ECO_LABEL_COLUMN)
    fit.add_argument("--algorithm", required=True,
                     help="one of " + ",".join(evaluation.ALGORITHM_ORDER))
    fit.add_argument("--params", help="comma list of key=value hyperparameters, "
                     "e.g. k=1 or n_trees=100,m_try=3")
    fit.add_argument("--seed", type=int, default=DEFAULT_SEED)
    fit.add_argument("--out", required=True, help="model file path")
    fit.add_argument("--trace", help="training-curve CSV path (ANN: epoch,sse; "
                     "RF: per-tree-count error on an internal 75/25 split)")
    fit.set_defaults(func=cmd_fit)

    predict = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", help="output path (default: print labels)")
    predict.set_defaults(func=cmd_predict)

    gen = sub.add_parser("gen-data", help="write a synthetic ecological CSV")
    gen.add_argument("--out", required=True)
    gen.add_argument("--label", default=ECO_LABEL_COLUMN)
    gen.add_argument("--n-per-class", type=int, default=10, dest="n_per_class")
    gen.add_argument("--separation", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.set_defaults(func=cmd_gen_data)

    inspect = sub.add_parser("inspect", help="print dataset summary statistics as CSV")
    inspect.add_argument("--data", required=True)
    inspect.add_argument("--label", default=ECO_LABEL_COLUMN)
    inspect.set_defaults(func=cmd_inspect)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on first use: building it costs about a
    millisecond, which every `entry` call in one process would repeat."""
    return build_parser()


def entry(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())
