"""relot benchmark: seeded closed-loop workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client, one process, one thread: the next operation starts when the
previous one returns.  A run executes whole rounds (one pass over a fixed
operation mix, see ``workloads.py``) until the timed operations add up to
``--seconds``; inputs are built and outputs checked outside the timed
region.  End-to-end times are scaled to a reference machine speed by
speed samples taken between the operations (``speed.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
1 when an operation fails in any way other than a known traceback of a
malformed config (``correct`` is then false), and 2 when the checkout
holds no relot sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import program
import speed

WORKLOADS = ("sweep", "front", "oracle")
HELD_OUT_SEED = 7919  # reserved for confirming claims; never used for tuning
SETUP_PROBES = 11
WORK = program.ROOT / ".bench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("rows_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics are reported per traced round.
PER_LAYER = (
    ("model.CostModel.inits", "count"),
    ("model.average_cost.calls", "count"),
    ("model.average_cost.elems", "count"),
    ("model.ghg_value.calls", "count"),
    ("model.energy_value.calls", "count"),
    ("analytic.solve_unconstrained.calls", "count"),
    ("analytic.solve_unconstrained.self_s", "s"),
    ("analytic.solve_constrained.calls", "count"),
    ("analytic.solve_constrained.self_s", "s"),
    ("analytic.case_I", "count"),
    ("analytic.case_II", "count"),
    ("analytic.case_III", "count"),
    ("analytic.case_IV", "count"),
    ("analytic.errors", "count"),
    ("analytic.kkt_residual.calls", "count"),
    ("analytic.gradient_norm.calls", "count"),
    ("minimize.minimize.calls", "count"),
    ("minimize.minimize.self_s", "s"),
    ("minimize.minimize.evals", "count"),
    ("minimize.minimize.starts", "count"),
    ("minimize.minimize.infeasible", "count"),
    ("pareto.pareto_front.calls", "count"),
    ("pareto.pareto_front.self_s", "s"),
    ("pareto.scalar_subproblem.calls", "count"),
    ("pareto.scalar_subproblem.searched", "count"),
    ("pareto.scalar_subproblem.self_s", "s"),
    ("pareto.front.recorded", "count"),
    ("pareto.front.deduplicated", "count"),
    ("pareto.front.front_size", "count"),
    ("pareto.front.kept_ratio", "ratio"),
    ("pareto.front.hv", "ratio"),
    ("pareto.dominance_filter.calls", "count"),
    ("pareto.dominance_filter.points_in", "count"),
    ("pareto.dominance_filter.points_out", "count"),
    ("pareto.dominance_filter.self_s", "s"),
    ("gridsearch.grid_min.calls", "count"),
    ("gridsearch.grid_min.self_s", "s"),
    ("gridsearch.grid_min.cells_stage1", "count"),
    ("gridsearch.grid_front.calls", "count"),
    ("gridsearch.grid_front.self_s", "s"),
    ("gridsearch.grid_front.cells", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.rows_written", "count"),
    ("cli.bytes_written", "count"),
    ("cli.exit_0", "count"),
    ("cli.exit_2", "count"),
    ("cli.exit_3", "count"),
    ("cli.exit_other", "count"),
    ("trace.overhead_s", "s"),
)


def environment() -> dict:
    """Environment stamp recorded with every run."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "cache": caches,
        "mode": "single process, single thread",
    }


# -- set-up -------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for this fresh process to import relot and build round 0.

    Scaled to the reference speed by speed samples taken right after.
    """
    t0 = perf_counter()
    program.load_relot()
    import workloads

    probe_dir = WORK / f"probe-{workload}-s{seed}-p{os.getpid()}"
    try:
        workloads.build_round(workload, seed, 0, probe_dir)
        setup = perf_counter() - t0
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return setup * speed.scale(statistics.median(speed.sample() for _ in range(3)))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=program.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


# -- one workload ---------------------------------------------------------------


class Run:
    """Accumulates timings and outcomes of one workload run.

    ``op_s`` and ``round_walls`` are at the reference speed; ``raw_walls``
    and ``speed`` (the kernel samples) are as measured.
    """

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.round_walls: list[float] = []
        self.raw_walls: list[float] = []
        self.speed: list[float] = []
        self.round_rows: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.stats: Counter = Counter()
        self.hv: list[float] = []


def timed_pass(ops, tracer=None, first_op: int = 0):
    """Run every op once in order, with a speed sample every ``speed.EVERY_S``.

    Returns ``(results, samples)``: per op ``[result, seconds, scaled
    seconds]``, scaled by the samples just before and just after its stretch
    of ops, to the power of the op's ``speed_exponent``.  The samples lie
    outside every op's timing.
    """
    results = []
    samples = [speed.sample()]
    stretch, elapsed = [], 0.0
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + k
        t0 = perf_counter()
        try:
            res = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = exc
        dt = perf_counter() - t0
        results.append([res, dt, dt])
        stretch.append((op, results[-1]))
        elapsed += dt
        if elapsed >= speed.EVERY_S or k == len(ops) - 1:
            samples.append(speed.sample())
            for o, item in stretch:
                item[2] *= speed.scale(samples[-2], samples[-1], exponent=o.speed_exponent)
            stretch, elapsed = [], 0.0
    return results, samples


def record_pass(run: Run, results, samples) -> float:
    """Add an untraced pass's timings to ``run``; returns its scaled wall time."""
    run.op_s.extend(scaled for _, _, scaled in results)
    run.round_walls.append(sum(scaled for _, _, scaled in results))
    run.raw_walls.append(sum(dt for _, dt, _ in results))
    run.speed.extend(samples)
    return run.round_walls[-1]


def check_pass(run: Run, ops, results, record_rows: bool) -> Counter:
    """Check every result outside the timed region; returns the pass's stats.

    ``record_rows`` marks an untraced pass: its rows feed the end-to-end
    metrics.
    """
    import workloads

    stats: Counter = Counter()
    rows = 0
    for op, (res, _, _) in zip(ops, results):
        if isinstance(res, Exception):
            out = workloads.Outcome("raised", f"{type(res).__name__}: {res}")
        else:
            try:
                out = op.check(res)
            except Exception as exc:  # a check that cannot read the output fails the op
                out = workloads.Outcome("check", f"{type(exc).__name__}: {exc}")
        run.attempted += 1
        if out.failure is not None:
            run.failed += 1
            run.wrong += op.wrong(out)
            run.reasons[f"{op.name}: {out.failure}: {out.reason}"[:300]] += 1
        else:
            rows += out.rows
        for key, value in out.stats.items():
            if key == "hv":
                run.hv.append(value)
            else:
                stats[key] += value
    run.stats.update(stats)
    if record_rows:
        run.round_rows.append(rows)
    return stats


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Execute rounds until the timed operations reach ``seconds``."""
    import workloads
    from tracing import Tracer

    run = Run()
    tracer = Tracer() if trace else None
    overhead, traced_stats = [], Counter()
    rundir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    timed = 0.0
    r = 0
    try:
        while r == 0 or timed < seconds:
            ops = workloads.build_round(workload, seed, r, rundir / f"r{r}")
            if tracer is None:
                results, samples = timed_pass(ops)
                check_pass(run, ops, results, record_rows=True)
                record_pass(run, results, samples)
                timed += run.raw_walls[-1]
            else:
                # same inputs untraced and traced, in alternating order
                walls = {}
                for traced in ((False, True) if r % 2 == 0 else (True, False)):
                    if traced:
                        with tracer.installed():
                            results, _ = timed_pass(ops, tracer, r * len(ops))
                        traced_stats.update(check_pass(run, ops, results, record_rows=False))
                        walls[traced] = sum(scaled for _, _, scaled in results)
                    else:
                        results, samples = timed_pass(ops)
                        check_pass(run, ops, results, record_rows=True)
                        walls[traced] = record_pass(run, results, samples)
                    timed += sum(dt for _, dt, _ in results)
                overhead.append(walls[True] - walls[False])
            shutil.rmtree(rundir / f"r{r}", ignore_errors=True)
            r += 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return run, tracer, overhead, traced_stats


def end_to_end(run: Run, setup_s: float) -> dict:
    ms = [t * 1e3 for t in run.op_s]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.round_walls),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": deciles[8],
        "rows_per_s": sum(run.round_rows) / sum(run.round_walls),
        "ok_ratio": 1.0 - run.failed / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, rounds: int, overhead: list[float], stats: Counter, hv: list[float]) -> dict:
    """Per-layer metrics per traced round, from counters, spans and checks."""
    counts = Counter(tracer.counts)
    for name, value in tracer.self_times().items():
        counts[name + ".self_s"] = value
    counts["model.CostModel.inits"] = counts.pop("model.CostModel.calls", 0)
    counts["cli.rows_written"] = stats["rows_written"]
    counts["cli.bytes_written"] = stats["bytes"]
    out = {name: counts.get(name, 0) / rounds for name, _ in PER_LAYER}
    recorded = counts["pareto.front.recorded"]
    out["pareto.front.kept_ratio"] = counts["pareto.front.front_size"] / recorded if recorded else 0.0
    out["pareto.front.hv"] = statistics.median(hv) if hv else 0.0
    out["trace.overhead_s"] = statistics.median(overhead)
    return out


def summary(workload: str, seed: int, run: Run, rounds: int) -> list[str]:
    lines = [
        f"# workload={workload} seed={seed} held_out_seed={HELD_OUT_SEED}",
        "# env " + json.dumps(environment(), sort_keys=True),
        f"# rounds={rounds} ops={run.attempted} timed_op_samples={len(run.op_s)} "
        f"failed={run.failed} wrong_output={run.wrong} rows_per_round={statistics.median(run.round_rows)}",
        f"# unscaled wall_s={statistics.median(run.raw_walls):.6f} speed_sample_s={statistics.median(run.speed):.6f} "
        f"samples={len(run.speed)} reference_s={speed.REF_S}",
    ]
    cases = {k: v for k, v in sorted(run.stats.items()) if k.startswith("case_")}
    if cases:
        lines.append("# kkt case mix " + json.dumps(cases))
    if run.hv:
        lines.append(f"# front_hv median={statistics.median(run.hv):.6f} fronts={len(run.hv)}")
    for reason, n in run.reasons.most_common(8):
        lines.append(f"# failure x{n}: {reason}")
    return lines


def run_one(args) -> int:
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    run, tracer, overhead, traced_stats = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    rounds = len(run.round_walls)
    if tracer is None:
        values, units = end_to_end(run, setup_s), dict(END_TO_END)
    else:
        values, units = per_layer(tracer, rounds, overhead, traced_stats, run.hv), dict(PER_LAYER)
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-s{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "rounds": rounds})
    for line in summary(args.workload, args.seed, run, rounds):
        print(line)
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if run.wrong == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each metric per workload."""
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=program.ROOT,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        if lines:
            results[workload] = json.loads(lines[-1])
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:7s} {name:38s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe and args.workload == "all":
        parser.error("--setup-probe needs one workload")
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
            return 0
        program.load_relot()
    except program.ProgramMissing as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
