"""
Repair-rate sweep through the command-line pipeline
===================================================

Drives the `sweep` command programmatically: one run produces the two
plotting series (cost/cycles and batch sizes) as CSV files, the way the
command-line tool writes them for external plotting.
"""

import csv
import pathlib

from relot import ModelParams, RunConfig, SweepRange
from relot.cli import run_sweep

OUT = pathlib.Path(__file__).parent / "output"

params = ModelParams(
    Dp=100.0, Dr=43.0, p=0.6, r=0.7, lam=45.0,
    Ap=10.0, Ar=30.0, h1=1.6, h2=1.2,
)
config = RunConfig(
    params=params,
    sweep_var="lambda",
    sweep_range=SweepRange(44.1, 105.0, 0.5),
    output_path=str(OUT / "repair_rate.csv"),
)
diag = run_sweep(config)
print(f"wrote {diag['rows']} rows per series in {diag['wallSeconds']:.2f}s")

for name in ("repair_rate_cycles.csv", "repair_rate_batches.csv"):
    with open(OUT / name, newline="") as fh:
        rows = list(csv.reader(fh))
    print(f"\n{name}: {rows[0]}")
    print(f"  first {rows[1]}")
    print(f"  last  {rows[-1]}")

# the optimal cost rises monotonically with the repair rate: faster repair
# means repaired stock sits in the supply depot longer
with open(OUT / "repair_rate_cycles.csv", newline="") as fh:
    body = list(csv.reader(fh))[1:]
costs = [float(r[1]) for r in body]
print(f"\nf1 strictly increasing across the sweep: {all(a < b for a, b in zip(costs, costs[1:]))}")
