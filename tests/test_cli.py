"""Command-line round trips: bench, fit, predict, gen-data, inspect."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecobench import (
    BenchmarkReport,
    BinaryAggregates,
    Dataset,
    MeasureSet,
    ReportRow,
    fit_decision_tree,
    load_model,
    predict_tree,
    save_csv,
    standardize,
)
from ecobench.cli import entry, report_to_csv, report_to_markdown


def _gen(tmp_path, name="eco.csv", seed=42, extra=()):
    path = tmp_path / name
    rc = entry(["gen-data", "--out", str(path), "--seed", str(seed), *extra])
    assert rc == 0
    return path


def test_gen_data_writes_loadable_csv(tmp_path, capsys):
    path = _gen(tmp_path)
    out = capsys.readouterr().out
    assert "30 rows x 9 columns" in out
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "a,b,c,d,e,depth,pollution,temperature,sediment"
    assert len(lines) == 31


def test_gen_data_is_seed_deterministic(tmp_path):
    a = _gen(tmp_path, "a.csv", seed=5)
    b = _gen(tmp_path, "b.csv", seed=5)
    c = _gen(tmp_path, "c.csv", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_inspect_prints_sections(tmp_path, capsys):
    path = _gen(tmp_path)
    assert entry(["inspect", "--data", str(path)]) == 0
    out = capsys.readouterr().out
    assert "# features" in out
    assert "# classes" in out
    assert "# correlation" in out
    assert "C,10" in out
    assert "feature,mean,std,min,max" in out


def test_inspect_reads_nan_for_a_constant_column_without_warnings(tmp_path, capsys):
    path = tmp_path / "constant.csv"
    path.write_text("a,b,sediment\n1,2,C\n1,3,G\n1,5,C\n", encoding="utf-8")
    assert entry(["inspect", "--data", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.endswith("# correlation\nfeature,a,b\r\na,nan,nan\r\nb,nan,1\r\n")
    assert err == ""


def test_bench_synthetic_writes_full_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = entry(
        ["bench", "--synthetic", "--seed", "42", "--out", str(report_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Process I ranking: " in out
    assert "Process III ranking: " in out
    assert f"report written to {report_path}" in out

    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["seed"] == 42
    assert payload["dataset_summary"]["n_samples"] == 30
    assert len(payload["rows"]) == 24
    for row in payload["rows"]:
        assert "error" not in row
        assert row["wall_ms"] == 0.0
        for field in ("recall", "precision", "accuracy", "f_score"):
            assert 0.0 <= row[field] <= 1.0


# sha256 of `bench --synthetic --seed 42 --format json` (see ROADMAP.md); the
# float bits behind it are only fixed for one numpy build
DEFAULT_REPORT_SHA256 = "553bbd49bdf1f4e05f49e10632ba1c21b4c194b6379bbba18ae8cb85e84e33f7"


@pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="the default report hash is pinned under numpy 2.4.6",
)
def test_default_report_matches_pinned_hash(tmp_path):
    report_path = tmp_path / "report.json"
    rc = entry(["bench", "--synthetic", "--seed", "42", "--format", "json",
                "--out", str(report_path)])
    assert rc == 0
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == DEFAULT_REPORT_SHA256


def test_bench_rerun_is_byte_identical(tmp_path):
    args = [
        "bench", "--synthetic", "--seed", "9",
        "--algorithms", "LDA,NB,KNN", "--processes", "I,II",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert entry(args + ["--out", str(first)]) == 0
    assert entry(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_bench_timings_flag_records_wall_times(tmp_path):
    report_path = tmp_path / "timed.json"
    rc = entry(
        ["bench", "--synthetic", "--algorithms", "NB", "--processes", "I",
         "--timings", "--out", str(report_path)]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["rows"][0]["wall_ms"] > 0.0


def test_bench_timings_give_every_ok_row_its_share_of_a_stacked_fit(tmp_path):
    # LR and ANN fit the trains of all three processes in one loop, whose time
    # is shared among their cells by number of trains
    report_path = tmp_path / "timed.json"
    assert entry(["bench", "--synthetic", "--algorithms", "ANN,LR,NB", "--timings",
                  "--out", str(report_path)]) == 0
    rows = json.loads(report_path.read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 9 and all("error" not in row for row in rows)
    assert all(row["wall_ms"] > 0.0 for row in rows)


def test_bench_csv_and_markdown_formats(tmp_path, capsys):
    common = ["bench", "--synthetic", "--algorithms", "NB,LDA", "--processes", "I"]
    assert entry(common + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    header = "algorithm,process,tp,fp,tn,fn,recall,precision,accuracy,f_score,wall_ms,error"
    assert header in out
    assert "\nLDA,I," in out

    assert entry(common + ["--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "| Algorithm | Process |" in out
    assert "| NB | I |" in out


def _hand_built_report():
    ok = ReportRow("LDA", "II", BinaryAggregates(tp=2 / 3, fp=1 / 6, tn=1.5, fn=1 / 6),
                   MeasureSet(recall=0.8, precision=0.8, accuracy=13 / 15, f_score=0.8),
                   wall_ms=12.34567, seed=7)
    failed = ReportRow("SVM", "III", None, None, wall_ms=3.5, seed=8,
                       error='fold 2: "gamma", must be > 0')
    return BenchmarkReport(42, {"n_samples": 30}, (ok, failed))


def test_csv_and_markdown_reports_are_byte_exact():
    report = _hand_built_report()
    csv_rows = (
        "algorithm,process,tp,fp,tn,fn,recall,precision,accuracy,f_score,wall_ms,error\r\n"
        "LDA,II,0.6666666667,0.1666666667,1.5,0.1666666667,0.8,0.8,0.8666666667,0.8,{},\r\n"
        'SVM,III,,,,,,,,,,"fold 2: ""gamma"", must be > 0"\r\n'
    )
    assert report_to_csv(report) == csv_rows.format("0")
    assert report_to_csv(report, include_timings=True) == csv_rows.format("12.346")
    table = (
        "| Algorithm | Process | T_p | F_p | T_n | F_n | Recall | Precision | Accuracy "
        "| F-Score | Wall ms |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| LDA | II | 0.6667 | 0.1667 | 1.5000 | 0.1667 | 0.8000 | 0.8000 | 0.8667 | 0.8000 "
        "| {} |\n"
        "| SVM | III |  |  |  |  |  |  |  |  |  |\n"
        "\n"
        "Failed cells:\n"
        '- SVM/III: fold 2: "gamma", must be > 0\n'
    )
    assert report_to_markdown(report) == table.format("0.0000")
    assert report_to_markdown(report, include_timings=True) == table.format("12.3460")


def test_bench_demands_exactly_one_source(tmp_path, capsys):
    assert entry(["bench"]) == 1
    err = capsys.readouterr().err
    assert "error: choose exactly one dataset source" in err
    data = _gen(tmp_path)
    capsys.readouterr()
    assert entry(["bench", "--data", str(data), "--synthetic"]) == 1
    assert "choose exactly one dataset source" in capsys.readouterr().err


def test_bench_reports_failed_cells_with_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    labels = np.array([0] + [1] * 15 + [2] * 14)
    ds = Dataset(
        rng.normal(size=(30, 3)), labels, ("a", "b", "c"), ("RARE", "X", "Y")
    )
    path = tmp_path / "lopsided.csv"
    save_csv(ds, path, label_column="sediment")
    rc = entry(
        ["bench", "--data", str(path), "--algorithms", "LDA", "--processes", "I"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "cell failed: LDA/I" in captured.err
    assert '"error"' in captured.out


def test_fit_predict_round_trip_recovers_labels(tmp_path, capsys):
    data = _gen(tmp_path)
    model_path = tmp_path / "knn.json"
    rc = entry(
        ["fit", "--data", str(data), "--algorithm", "knn", "--params", "k=1",
         "--out", str(model_path)]
    )
    assert rc == 0
    assert f"KNN model written to {model_path}" in capsys.readouterr().out

    pred_path = tmp_path / "pred.txt"
    rc = entry(
        ["predict", "--model", str(model_path), "--data", str(data),
         "--out", str(pred_path)]
    )
    assert rc == 0
    predicted = pred_path.read_text(encoding="utf-8").strip().splitlines()
    with open(data, newline="", encoding="utf-8") as fh:
        expected = [row["sediment"] for row in csv.DictReader(fh)]
    assert predicted == expected


def test_fit_deep_tree_saves_loads_and_predicts(tmp_path):
    # alternating labels on one feature grow a 1499-deep chain of splits,
    # which a file of flat node arrays holds at any depth
    n = 1500
    ds = Dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2, ("x",), ("A", "B"))
    path = tmp_path / "deep.csv"
    save_csv(ds, path, label_column="sediment")
    rc = entry(["fit", "--data", str(path), "--algorithm", "dt",
                "--out", str(tmp_path / "dt.json")])
    assert rc == 0
    bundle = load_model(tmp_path / "dt.json")
    train, scaling = standardize(ds)
    in_process = predict_tree(fit_decision_tree(train), scaling.apply(ds.features))
    assert np.array_equal(bundle.predict(ds.features), in_process)
    assert np.array_equal(in_process, ds.labels)


def test_fit_svm_prints_parameter_summary(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = entry(
        ["fit", "--data", str(data), "--algorithm", "svm",
         "--out", str(tmp_path / "svm.json")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "SVM-Type: C-classification" in out
    assert "SVM-Kernel: radial" in out
    assert "Gamma: 0.125" in out
    assert "Levels: C G S" in out


def test_fit_lda_prints_discriminant_table(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = entry(
        ["fit", "--data", str(data), "--algorithm", "lda",
         "--out", str(tmp_path / "lda.json")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "feature,LD1,LD2" in out
    assert "depth," in out


def test_fit_ann_reports_error_and_saves_trace(tmp_path, capsys):
    data = _gen(tmp_path)
    trace_path = tmp_path / "trace.csv"
    rc = entry(
        ["fit", "--data", str(data), "--algorithm", "ann",
         "--params", "epochs=25", "--trace", str(trace_path),
         "--out", str(tmp_path / "ann.json")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Error: " in out and "Steps: " in out
    lines = trace_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,sse"
    assert len(lines) == 26


def test_fit_rf_trace_uses_internal_holdout(tmp_path):
    data = _gen(tmp_path)
    trace_path = tmp_path / "rf.csv"
    rc = entry(
        ["fit", "--data", str(data), "--algorithm", "rf",
         "--params", "n_trees=12", "--trace", str(trace_path),
         "--out", str(tmp_path / "rf.json")]
    )
    assert rc == 0
    lines = trace_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "n_trees,resubstitution_error,holdout_error"
    assert len(lines) == 13


def test_fit_trace_limited_to_ann_and_rf(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = entry(
        ["fit", "--data", str(data), "--algorithm", "nb",
         "--trace", str(tmp_path / "t.csv"), "--out", str(tmp_path / "nb.json")]
    )
    assert rc == 1
    assert "ANN and RF" in capsys.readouterr().err


def test_predict_matches_columns_by_name_or_position(tmp_path):
    data = _gen(tmp_path)
    model_path = tmp_path / "model.json"
    entry(["fit", "--data", str(data), "--algorithm", "knn", "--params", "k=1",
           "--out", str(model_path)])

    # headers renamed but width matches: positional fallback
    rows = data.read_text(encoding="utf-8").strip().splitlines()
    feature_rows = [",".join(r.split(",")[:8]) for r in rows[1:]]
    renamed = tmp_path / "renamed.csv"
    renamed.write_text(
        "c1,c2,c3,c4,c5,c6,c7,c8\n" + "\n".join(feature_rows) + "\n", encoding="utf-8"
    )
    out_path = tmp_path / "by_position.txt"
    assert entry(["predict", "--model", str(model_path), "--data", str(renamed),
                  "--out", str(out_path)]) == 0
    by_position = out_path.read_text(encoding="utf-8")

    # full file with the label column present: columns picked by name
    out_path2 = tmp_path / "by_name.txt"
    assert entry(["predict", "--model", str(model_path), "--data", str(data),
                  "--out", str(out_path2)]) == 0
    assert out_path2.read_text(encoding="utf-8") == by_position


def test_predict_rejects_width_mismatch(tmp_path, capsys):
    data = _gen(tmp_path)
    model_path = tmp_path / "model.json"
    entry(["fit", "--data", str(data), "--algorithm", "nb", "--out", str(model_path)])
    short = tmp_path / "short.csv"
    short.write_text("x,y\n1,2\n", encoding="utf-8")
    assert entry(["predict", "--model", str(model_path), "--data", str(short)]) == 1
    assert "model expects 8 feature columns" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["lda", "knn", "nb"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_predict_rejects_non_finite_cells(tmp_path, capsys, algorithm, cell):
    data = _gen(tmp_path)
    model_path = tmp_path / "model.json"
    assert entry(["fit", "--data", str(data), "--algorithm", algorithm,
                  "--out", str(model_path)]) == 0
    header, first, *_ = data.read_text(encoding="utf-8").splitlines()
    name = header.split(",")[2]
    cells = first.split(",")
    cells[2] = cell
    rows = tmp_path / "rows.csv"
    rows.write_text(f"{header}\n{first}\n{','.join(cells)}\n", encoding="utf-8")
    capsys.readouterr()
    assert entry(["predict", "--model", str(model_path), "--data", str(rows)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: row 2, column {name!r}: non-finite value {cell!r}\n"
    assert captured.out == ""


def test_cli_surface_errors_exit_1(tmp_path, capsys):
    assert entry(["predict", "--model", str(tmp_path / "no.json"),
                  "--data", str(tmp_path / "no.csv")]) == 1
    assert "error: model file not found" in capsys.readouterr().err
    data = _gen(tmp_path)
    capsys.readouterr()
    assert entry(["fit", "--data", str(data), "--algorithm", "zz",
                  "--out", str(tmp_path / "m.json")]) == 1
    assert "unknown algorithm" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    lambda record: record["model"].pop("k"),
    lambda record: record.pop("model"),
    lambda record: record.update(model="knn"),
    lambda record: record["model"].update(k=3.7),
    lambda record: record["model"]["features"][0].__setitem__(0, float("nan")),
    lambda record: record["model"]["labels"].__setitem__(0, 0.5),
    lambda record: record["model"].update(labels=[7] * len(record["model"]["labels"])),
    lambda record: record["class_names"].pop(),
    lambda record: record["class_names"].append("extra"),
    lambda record: record["feature_names"].pop(),
])
def test_predict_with_malformed_bundle_exits_1_without_traceback(tmp_path, capsys, damage):
    data = _gen(tmp_path)
    model_path = tmp_path / "model.json"
    assert entry(["fit", "--data", str(data), "--algorithm", "knn",
                  "--out", str(model_path)]) == 0
    saved = json.loads(model_path.read_text(encoding="utf-8"))
    record = json.loads(model_path.read_text(encoding="utf-8"))
    damage(record)
    model_path.write_text(json.dumps(record), encoding="utf-8")
    capsys.readouterr()
    assert entry(["predict", "--model", str(model_path), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    # the error names the field the damage changed
    (field,) = [key for key in saved if record.get(key) != saved[key]]
    assert err.startswith(f"error: {model_path}: {field}")
    assert "Traceback" not in err


@pytest.mark.parametrize("algorithm, field, damage", [
    ("nb", "variances", lambda model: model.update(variances=model["variances"][:2])),
    ("nb", "variance_floor", lambda model: model.update(
        variance_floor=model["variance_floor"][:3])),
    ("lda", "discriminant_axes", lambda model: model.update(
        discriminant_axes=[axis[:3] for axis in model["discriminant_axes"]])),
])
def test_predict_with_misshapen_model_array_names_the_field(tmp_path, capsys, algorithm,
                                                            field, damage):
    # a cut array once broadcast into a numpy error naming no field (NB
    # variances) or predicted with exit 0 (the other two)
    data = _gen(tmp_path)
    rows = _gen(tmp_path, "rows.csv", seed=43, extra=["--n-per-class", "1000"])
    model_path = tmp_path / "model.json"
    assert entry(["fit", "--data", str(data), "--algorithm", algorithm,
                  "--out", str(model_path)]) == 0
    record = json.loads(model_path.read_text(encoding="utf-8"))
    damage(record["model"])
    model_path.write_text(json.dumps(record), encoding="utf-8")
    capsys.readouterr()
    assert entry(["predict", "--model", str(model_path), "--data", str(rows)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_path}: model: {field}: expected ")
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", [
    lambda text: text.encode("utf-8")[:42],
    lambda text: b"\xff" + text.encode("utf-8"),
    lambda text: b"[" * 100_000 + b"]" * 100_000,
], ids=["truncated", "not-utf-8", "nested-too-deep"])
def test_predict_with_undecodable_model_file_names_it(tmp_path, capsys, damage):
    data = _gen(tmp_path)
    model_path = tmp_path / "model.json"
    assert entry(["fit", "--data", str(data), "--algorithm", "knn",
                  "--out", str(model_path)]) == 0
    model_path.write_bytes(damage(model_path.read_text(encoding="utf-8")))
    capsys.readouterr()
    assert entry(["predict", "--model", str(model_path), "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {model_path}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["inspect", "fit", "bench", "predict"])
def test_non_utf8_csv_is_an_error_naming_the_file(tmp_path, capsys, command):
    data = _gen(tmp_path)
    model_path = tmp_path / "model.json"
    assert entry(["fit", "--data", str(data), "--algorithm", "knn",
                  "--out", str(model_path)]) == 0
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"a,b,sediment\n1,2,S\xe9diment\n3,4,G\n")
    argv = {
        "inspect": ["inspect", "--data", str(bad)],
        "fit": ["fit", "--data", str(bad), "--algorithm", "nb",
                "--out", str(tmp_path / "nb.json")],
        "bench": ["bench", "--data", str(bad)],
        "predict": ["predict", "--model", str(model_path), "--data", str(bad)],
    }[command]
    capsys.readouterr()
    assert entry(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("algorithm, params, message", [
    ("knn", "k=abc", "KNN parameter 'k' takes int, got 'abc'"),
    ("knn", "k=true", "KNN parameter 'k' takes int, got 'true'"),
    ("rf", "n_trees=abc", "RF parameter 'n_trees' takes int, got 'abc'"),
    ("ann", "q=2.5", "ANN parameter 'q' takes int, got 2.5"),
    ("ann", "epochs=abc", "ANN parameter 'epochs' takes int, got 'abc'"),
    ("svm", "cost=abc", "SVM parameter 'cost' takes float, got 'abc'"),
    ("lr", "learning_rate=abc", "LR parameter 'learning_rate' takes float, got 'abc'"),
    ("lr", "max_iter=1.5", "LR parameter 'max_iter' takes int, got 1.5"),
    ("dt", "max_depth=1.5", "DT parameter 'max_depth' takes int or None, got 1.5"),
])
def test_fit_with_a_mistyped_param_exits_1_without_traceback(tmp_path, capsys, algorithm,
                                                             params, message):
    data = _gen(tmp_path)
    capsys.readouterr()
    assert entry(["fit", "--data", str(data), "--algorithm", algorithm, "--params", params,
                  "--out", str(tmp_path / "m.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "m.json").exists()


def _child(*argv):
    """`ecobench` run with `argv` in a child process, so that a numpy warning
    would reach stderr as it does for a user."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ecobench.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("algorithm, params, message", [
    ("lr", "learning_rate=1e308,max_iter=1", "training loss became non-finite at iteration 1"),
    ("ann", "learning_rate=1e3,epochs=50", "training loss became non-finite at epoch 33"),
])
def test_fit_whose_loss_overflows_prints_one_error_line(tmp_path, algorithm, params, message):
    data = _gen(tmp_path)
    done = _child("fit", "--data", str(data), "--algorithm", algorithm, "--params", params,
                  "--out", str(tmp_path / "m.json"))
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"


ANN_SETTINGS = ("q must be >= 1; epochs nonnegative; learning_rate and "
                "init_scale finite and nonnegative")
LR_SETTINGS = ("learning_rate must be finite and positive, max_iter nonnegative, "
               "tolerance finite and nonnegative")


@pytest.mark.parametrize("algorithm, params, message", [
    ("ann", "init_scale=inf", ANN_SETTINGS),
    ("ann", "init_scale=nan", ANN_SETTINGS),
    ("ann", "learning_rate=nan", ANN_SETTINGS),
    ("ann", "learning_rate=inf", ANN_SETTINGS),
    ("lr", "learning_rate=nan", LR_SETTINGS),
    ("lr", "tolerance=nan,max_iter=50", LR_SETTINGS),
    ("svm", "cost=nan", "cost must be a finite number > 0, got nan"),
    ("svm", "cost=inf", "cost must be a finite number > 0, got inf"),
    ("svm", "gamma=nan", "rbf kernel needs a finite gamma > 0, got nan"),
    ("svm", "gamma=inf", "rbf kernel needs a finite gamma > 0, got inf"),
    ("svm", "tol=nan", "tol must be a finite number > 0, got nan"),
    ("svm", "tol=0", "tol must be a finite number > 0, got 0"),
    ("svm", "tol=-1", "tol must be a finite number > 0, got -1"),
    ("svm", "kernel=linear,gamma=1", "linear kernel takes no gamma"),
])
def test_fit_refuses_a_non_finite_or_nonpositive_setting_before_fitting(tmp_path, algorithm,
                                                                        params, message):
    data = _gen(tmp_path)
    done = _child("fit", "--data", str(data), "--algorithm", algorithm, "--params", params,
                  "--out", str(tmp_path / "m.json"))
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["bench", "--synthetic", "--separation", "inf"],
     "separation must keep the class means finite, got inf"),
    (["bench", "--synthetic", "--separation", "nan"],
     "separation must keep the class means finite, got nan"),
    (["gen-data", "--separation", "1e308"],
     "separation must keep the class means finite, got 1e+308"),
    (["bench", "--synthetic", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
    (["gen-data", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
])
def test_synthetic_table_rejects_a_bad_field_in_one_error_line(tmp_path, argv, message):
    out = tmp_path / "out"
    done = _child(*argv, "--out", str(out))
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"
    assert not out.exists()


def test_bench_on_a_table_takes_a_negative_seed(tmp_path, capsys):
    data = _gen(tmp_path)
    out = tmp_path / "r.json"
    assert entry(["bench", "--data", str(data), "--seed", "-1", "--algorithms", "LDA,NB",
                  "--processes", "I,III", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["seed"] == -1


def test_csv_with_a_byte_order_mark_reads_like_one_without(tmp_path, capsys):
    data = _gen(tmp_path)
    lines = data.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("a,") and lines[0].endswith(",sediment")
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    # the label column first, so the mark sits before `sediment`
    label_first = tmp_path / "bom_label_first.csv"
    label_first.write_bytes(b"\xef\xbb\xbf" + "".join(
        ",".join(cells[-1:] + cells[:-1]) + "\n"
        for cells in (line.split(",") for line in lines)).encode("utf-8"))
    model_path = tmp_path / "nb.json"
    outputs, models = [], []
    for path in (data, marked, label_first):
        capsys.readouterr()
        assert entry(["inspect", "--data", str(path)]) == 0
        assert entry(["fit", "--data", str(path), "--algorithm", "nb",
                      "--out", str(model_path)]) == 0
        assert entry(["predict", "--model", str(model_path), "--data", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        models.append(model_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert models[0] == models[1] == models[2]
    assert "\na," in outputs[0] and "\ufeff" not in outputs[0]
