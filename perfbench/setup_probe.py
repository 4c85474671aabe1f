"""Set-up cost in a fresh interpreter: `import ecobench` plus building input tables.

    python3 perfbench/setup_probe.py SRC_DIR OUT_DIR N_PER_CLASS:SEED[:CSV_STEM] ...

Each table is the synthetic one `ecobench gen-data --n-per-class N --seed SEED`
makes; with a stem it is also written to OUT_DIR/STEM.csv. Prints the seconds
from before the import to the last table built.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import ecobench  # noqa: E402

for table in sys.argv[3:]:
    n_per_class, seed, *stem = table.split(":")
    ds = ecobench.generate_ecological(
        ecobench.SyntheticSpec(n_per_class=int(n_per_class), seed=int(seed))
    )
    if stem:
        ecobench.save_csv(ds, f"{sys.argv[2]}/{stem[0]}.csv", label_column=ecobench.ECO_LABEL_COLUMN)
print(repr(time.perf_counter() - start))
