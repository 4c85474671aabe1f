"""The benchmark's workloads: what one pass runs and how its outputs are checked.

Every pass goes through `ecobench.cli.entry`, the function behind the
`ecobench` command, in this process. Output checks compare each pass with a
reference recorded from the program (reference.json) and with the run's
first pass on the same input seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from ecobench import cli, evaluation

from speed import PassClock

# Why each workload is in the benchmark:
# - grid-small is the paper's default grid and the frozen report: 30 rows, 24
#   cells, tiny matrices, so per-call Python overhead dominates (RF, LR, ANN).
# - grid-900-holdout has 900 rows under process II only: array work per tree
#   node and per iteration grows with n, KNN and SVM show their O(n^2) cost,
#   and ANN diverges there, which is the baseline failure.
# - model-roundtrip fits each algorithm on 30 rows, saves it, loads it and
#   predicts 3000 rows: heavy on prediction, the only user of model_io and of
#   the CSV parsing in cli.
GRID_ARGS = {
    "grid-small": [],
    "grid-900-holdout": ["--n-per-class", "300", "--processes", "II"],
}
ROUNDTRIP = "model-roundtrip"
WORKLOADS = (*GRID_ARGS, ROUNDTRIP)

# Input tables built in set-up for each input seed, as
# "n_per_class:seed offset[:CSV file stem]". The grids generate their table in
# memory; the round trip reads CSV files named <stem>-<input seed>.csv.
TABLES = {
    "grid-small": ["10:0"],
    "grid-900-holdout": ["300:0"],
    ROUNDTRIP: ["10:0:train", "1000:1:predict"],
}
PREDICT_ROWS = 3000

# A run with seed S cycles through the input seeds S, S + 1000, S + 2000, ...:
# pass k uses the (k mod n)-th. The work of a pass varies with its input (over
# the round trip's seeds 0 to 15 the forest grows 5159 to 7339 nodes), so a run
# that spans several inputs reads steadier than one that repeats one.
# grid-900-holdout keeps one input because its passes take 9 to 14 s.
INPUTS_PER_RUN = {"grid-small": 4, "grid-900-holdout": 1, ROUNDTRIP: 4}
INPUT_SEED_STEP = 1000


def input_seeds(workload: str, seed: int) -> list[int]:
    return [seed + INPUT_SEED_STEP * k for k in range(INPUTS_PER_RUN[workload])]

# sha256 of `ecobench bench --synthetic --seed 42 --format json`, the frozen default report.
DEFAULT_REPORT_SHA256 = "553bbd49bdf1f4e05f49e10632ba1c21b4c194b6379bbba18ae8cb85e84e33f7"
REFERENCE_PATH = Path(__file__).with_name("reference.json")

_MEASURES = ("tp", "fp", "tn", "fn", "recall", "precision", "accuracy", "f_score")


@dataclass
class PassResult:
    wall_s: float  # the pass's own seconds, reference slices left out
    adjusted_s: float  # the same at the reference speed (speed.py)
    outputs: dict  # operation -> checked output (cell values or a label digest)
    errors: dict = field(default_factory=dict)  # operation -> error text
    report: bytes = b""

    @property
    def attempted(self) -> int:
        return len(self.outputs) + len(self.errors)

    @property
    def failed(self) -> int:
        return len(self.errors)


@contextlib.contextmanager
def _quiet():
    """Keep the program's own printing out of the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def cells_never_raise():
    """Turn an exception that escapes `run_process` into an error row, so one
    cell's crash (such as a RecursionError) counts as one failed cell and the
    grid goes on."""
    original = evaluation.run_process

    def run_process(ds, algorithm, kind, seed, split_seed=None):
        try:
            return original(ds, algorithm, kind, seed, split_seed)
        except Exception as exc:
            return evaluation.ReportRow(algorithm.name, kind.name, None, None, 0.0, seed,
                                        error=_error_text(exc))

    evaluation.run_process = run_process
    try:
        yield
    finally:
        evaluation.run_process = original


def grid_cells(workload: str) -> list[str]:
    args = GRID_ARGS[workload]
    processes = args[args.index("--processes") + 1].split(",") if "--processes" in args \
        else evaluation.PROCESS_ORDER
    return [f"{alg}/{p}" for p in processes for alg in evaluation.ALGORITHM_ORDER]


def run_grid_pass(workload: str, seed: int, work: Path, slices: bool = True) -> PassResult:
    """One `ecobench bench --synthetic ...` command; an operation is one cell."""
    report = work / "report.json"
    report.unlink(missing_ok=True)
    argv = ["bench", "--synthetic", *GRID_ARGS[workload], "--seed", str(seed),
            "--format", "json", "--out", str(report)]
    crash = None
    with _quiet(), cells_never_raise(), PassClock(slices) as clock:
        try:
            code = cli.entry(argv)
        except Exception as exc:
            crash = _error_text(exc)
    if crash is None and code not in (0, 2):
        crash = f"ecobench bench exited with code {code}"
    if crash is not None:
        return PassResult(clock.wall_s, clock.adjusted_s, {},
                          dict.fromkeys(grid_cells(workload), crash))
    data = report.read_bytes()
    outputs, errors = {}, {}
    for row in json.loads(data)["rows"]:
        cell = f"{row['algorithm']}/{row['process']}"
        if "error" in row:
            errors[cell] = row["error"]
        else:
            outputs[cell] = [row[k] for k in _MEASURES]
    return PassResult(clock.wall_s, clock.adjusted_s, outputs, errors, data)


def run_roundtrip_pass(seed: int, work: Path, slices: bool = True) -> PassResult:
    """Per algorithm, `ecobench fit` then `ecobench predict`; an operation is
    one algorithm's fit, save, load and predict."""
    train, rows = work / f"train-{seed}.csv", work / f"predict-{seed}.csv"
    for alg in evaluation.ALGORITHM_ORDER:
        (work / f"{alg}.model.json").unlink(missing_ok=True)
        (work / f"{alg}.labels").unlink(missing_ok=True)
    errors = {}
    with _quiet(), PassClock(slices) as clock:
        for alg in evaluation.ALGORITHM_ORDER:
            model, labels = work / f"{alg}.model.json", work / f"{alg}.labels"
            try:
                code = cli.entry(["fit", "--data", str(train), "--algorithm", alg,
                                  "--seed", str(seed), "--out", str(model)])
                if code == 0:
                    code = cli.entry(["predict", "--model", str(model), "--data", str(rows),
                                      "--out", str(labels)])
                if code != 0:
                    errors[alg] = f"ecobench exited with code {code}"
            except Exception as exc:
                errors[alg] = _error_text(exc)
    outputs = {}
    for alg in evaluation.ALGORITHM_ORDER:
        if alg not in errors:
            text = (work / f"{alg}.labels").read_text(encoding="utf-8")
            outputs[alg] = {"rows": text.count("\n"),
                            "sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}
    return PassResult(clock.wall_s, clock.adjusted_s, outputs, errors)


def run_pass(workload: str, seed: int, work: Path, slices: bool = True) -> PassResult:
    """One pass; `slices` runs the reference slices of speed.py through it."""
    if workload == ROUNDTRIP:
        return run_roundtrip_pass(seed, work, slices)
    return run_grid_pass(workload, seed, work, slices)


def reference_entry(result: PassResult) -> dict:
    """What reference.json records for one pass: each operation's output or error."""
    return {op: result.outputs.get(op, {"error": result.errors.get(op)})
            for op in sorted([*result.outputs, *result.errors])}


def load_reference(workload: str, seed: int) -> dict | None:
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


class OutputCheck:
    """Compares every pass of one run on one input seed with the reference
    and with the first of those passes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference(workload, seed)
        self.first: PassResult | None = None
        self.mismatches: list[str] = []
        self.notes: list[str] = []
        if self.reference is None:
            self.notes.append(f"no reference for seed {seed}: outputs checked for "
                              "agreement between passes only")

    def _fail(self, text: str):
        if text not in self.mismatches:
            self.mismatches.append(text)

    def check(self, result: PassResult, index: int):
        if self.first is None:
            self.first = result
            self._check_reference(result)
        elif (result.outputs, result.errors, result.report) != \
                (self.first.outputs, self.first.errors, self.first.report):
            self._fail(f"pass {index} output differs from pass 0")
        if self.workload == "grid-small" and self.seed == 42:
            digest = hashlib.sha256(result.report).hexdigest()
            if digest != DEFAULT_REPORT_SHA256:
                self._fail(f"default report sha256 {digest} != {DEFAULT_REPORT_SHA256}")
        if self.workload == ROUNDTRIP:
            for alg, out in result.outputs.items():
                if out["rows"] != PREDICT_ROWS:
                    self._fail(f"{alg}: predicted {out['rows']} rows, expected {PREDICT_ROWS}")

    def _check_reference(self, result: PassResult):
        if self.reference is None:
            return
        ops = set(result.outputs) | set(result.errors)
        for op in sorted(ops ^ set(self.reference)):
            self._fail(f"{op}: operation set differs from the reference")
        for op, got in sorted(result.outputs.items()):
            want = self.reference.get(op)
            if isinstance(want, dict) and "error" in want:
                self.notes.append(f"{op}: succeeds now, failed in the reference ({want['error']})")
            elif want is not None and got != want:
                self._fail(f"{op}: output {got} != reference {want}")
        for op, err in sorted(result.errors.items()):
            want = self.reference.get(op)
            if want is not None and not (isinstance(want, dict) and "error" in want):
                self._fail(f"{op}: fails now ({err}); succeeded in the reference")
