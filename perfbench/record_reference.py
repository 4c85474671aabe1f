"""Record reference.json from the program as it stands: one pass per workload
and input seed, for every input seed a run with the given seeds uses.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED [EXTRA_SEED ...]

Only run this at a commit whose outputs are accepted as correct: every later
benchmark run is checked against what it writes. Existing entries for other
seeds are kept.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    first, last, *extra = (int(a) for a in argv)
    seeds = [*range(first, last + 1), *extra]
    run._require_program()
    import workloads

    path = workloads.REFERENCE_PATH
    table = json.loads(path.read_text(encoding="utf-8"))
    work = run.OUT / "record-reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for seed in (s for run_seed in seeds
                         for s in workloads.input_seeds(workload, run_seed)):
                run.time_setup(run.setup_argv(workload, [seed], work))
                result = workloads.run_pass(workload, seed, work, slices=False)
                table.setdefault(workload, {})[str(seed)] = workloads.reference_entry(result)
                print(f"{workload} seed {seed}: {result.failed} of {result.attempted} failed",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(layout(table), encoding="utf-8")
    return 0


def layout(table: dict) -> str:
    """The reference as JSON with one line per workload and seed."""
    blocks = []
    for workload in sorted(table):
        seeds = sorted(table[workload].items(), key=lambda item: int(item[0]))
        lines = [f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}" for seed, entry in seeds]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
