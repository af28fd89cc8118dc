"""Workload inputs, operations and output checks for the relot benchmark.

A workload is a seeded list of rounds.  ``build_round(workload, seed, r,
workdir)`` derives round ``r`` from ``(workload, seed, r)`` alone and
returns its operations in execution order; every round of a workload has
the same composition, only the drawn parameters differ.  An operation is
one call into relot's public entry points (``relot.cli.main`` or one
oracle call); ``Op.call`` is the timed part and ``Op.check`` validates
the result afterwards, outside the timed region.

- ``sweep``: ``relot.cli.main`` on JSON configs written during set-up:
  ``solve``, ``solve-constrained`` and ``sweep`` over ``lambda`` or ``Dr``
  with 100-150 rows each, plus 5% malformed configs.
- ``front``: ``relot.cli.main(["pareto", ...])`` on perturbations of the
  three-objective instance at m = 6, with the repair floor loose or
  binding, plus the zeroed-coefficient degenerate instance.
- ``oracle``: direct ``grid_min``, ``grid_front`` and ``dominance_filter``
  calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import relot
import relot.cli

from hv import dominated_by_any, front_score

# The paper economics and its reference rows (Qp*, Qr*, f1, n, T), keyed by
# the repair rate lambda; unconstrained rows hold to 0.5%, floor-constrained
# rows (p1=p2=0.5, k1=20, k2=10) to 1%.
PAPER = dict(Dp=100.0, Dr=43.0, p=0.6, r=0.7, Ap=10.0, Ar=30.0, h1=1.6, h2=1.2)
PAPER_FLOORS = dict(p1=0.5, p2=0.5, k1=20.0, k2=10.0)
REFERENCE_UNCONSTRAINED = {
    45.0: (30.83, 115.10, 74.61, 72.56, 58.62),
    60.0: (30.83, 54.53, 156.81, 34.15, 13.20),
    75.0: (30.83, 44.92, 188.68, 28.17, 9.07),
    90.0: (30.83, 40.83, 206.80, 25.57, 7.52),
    105.0: (30.83, 38.51, 218.63, 24.10, 6.70),
}
REFERENCE_CONSTRAINED = {
    45.0: (29.77, 115.09, 74.61, 70.08, 56.61),
    60.0: (11.13, 52.29, 157.78, 12.82, 4.77),
    75.0: (7.28, 39.42, 193.0, 7.58, 2.14),
    90.0: (6.26, 33.35, 215.15, 6.35, 1.53),
    105.0: (5.82, 30.0, 230.7, 5.85, 1.27),
}
# lambda = 44.5, 45.0, ..., 105.0: 122 rows that include every reference rate.
PAPER_SWEEP = {"lo": 44.5, "hi": 105.25, "step": 0.5}
PAPER_VALUES = [44.5 + 0.5 * k for k in range(122)]

# Three-objective instance: holding cost, GHG emissions and energy use.
SUSTAIN = dict(
    Dp=1000.0, Dr=422.0, p=0.6, r=0.7, lam=450.0, Ap=50.0, Ar=100.0,
    h1=20.0, h2=10.0, p1=1.0, p2=1.0, k1=2000.0, k2=2000.0,
    ap=3e-8, bp=1.4e-3, cp=1.4, Wp=120.0, Wr=80.0, Kp=5.5, Kr=2.5,
)
SUSTAIN_QR = 204.6  # f1-best repair batch of SUSTAIN at its emissions floor
DEGENERATE_ZEROS = ("ap", "bp", "Wp", "Wr", "Kp", "Kr")

# Round composition.
SWEEP_RANDOM = 74          # well-formed random configs per sweep round
FLOOR_REGIMES = ("loose", "supply", "repair", "both")
FRONT_M = 6                # grid subdivisions of every front
FRONT_FLOORS = ("loose", "binding", "loose", "binding", "degenerate")
ORACLE_GRID_MIN = 15       # grid_min calls per oracle round (fast ops)
ORACLE_CLOUD_SIZES = (1000, 2000, 3000, 4000)
CLOUD_SHAPES = ("uniform", "lattice", "plane")
GRID_FRONT_CELLS = 3000    # target lattice size of the grid_front op
PLANE_SCALE = 2 ** 20      # plane clouds use integer coordinates / 2**20

# Coverage floors of a non-degenerate front: at least this many points and
# this hypervolume share (hv.front_score).  Each is the lowest value over
# the seed-commit fronts of seeds 101-110, rounds 0-3 (160 fronts), less a
# margin: a quarter of the points and 0.01 of the share.
FRONT_MIN_POINTS = 8       # lowest 11
FRONT_MIN_HV = 0.155       # lowest 0.1659

# Speed exponent (speed.py) of the oracle's large-array calls,
# dominance_filter on clouds and grid_front; every other op has 1.
ARRAY_SPEED_EXPONENT = 0.4

REL_TOL = 1e-9          # full-precision (JSON) values against the model
CSV_TOL = 5e-5          # 6-significant-digit CSV values against the model
FLOOR_TOL = 1e-8        # absolute floor violation allowed on a front


def _nice(x: float) -> float:
    """x rounded down to four significant digits."""
    scale = 10.0 ** (math.floor(math.log10(x)) - 3)
    return math.floor(x / scale) * scale


# -- results of one operation ------------------------------------------------


@dataclass
class Outcome:
    """What one operation did, as seen by its check.

    ``failure`` is None for a success; otherwise one of "raised", "exit",
    "stderr" (the error contract was broken) or "check" (wrong output).
    """

    failure: str | None = None
    reason: str = ""
    rows: int = 0                      # input rows the operation processed
    stats: dict = field(default_factory=dict)


@dataclass
class Op:
    """One timed call (``call``) and the check of its result (``check``).

    Any failure means wrong output, except for an op with ``may_raise``: a
    malformed config of a shape known to escape ``main`` with a traceback,
    whose "raised" failure is counted but not wrong.  ``speed_exponent``
    says how strongly the op's time follows machine speed (speed.py).
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    may_raise: bool = False
    speed_exponent: float = 1.0

    def wrong(self, out: Outcome) -> bool:
        return out.failure is not None and not (self.may_raise and out.failure == "raised")


def _fail(kind: str, reason: str, **kw) -> Outcome:
    return Outcome(failure=kind, reason=reason, **kw)


# -- CLI operations ----------------------------------------------------------


@dataclass
class CliResult:
    code: object            # exit code, or the exception main raised
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """Call ``relot.cli.main(argv)`` in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = relot.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed operation, never re-raised
            code = exc
    return CliResult(code, out.getvalue(), err.getvalue())


def _stderr_line(res: CliResult):
    """The single JSON object main printed on stderr, or None."""
    lines = res.stderr.splitlines()
    if len(lines) != 1:
        return None
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def _cli_outcome(res: CliResult, expect_ok: bool):
    """Classify exit code and stderr; returns (Outcome or None, diagnostics)."""
    if isinstance(res.code, BaseException):
        return _fail("raised", f"{type(res.code).__name__}: {res.code}"), None
    diag = _stderr_line(res)
    if expect_ok:
        if res.code != 0:
            return _fail("exit", f"exit {res.code} on a well-formed config: {res.stderr.strip()}"), None
        if diag is None:
            return _fail("stderr", "stderr is not one JSON line"), None
        return None, diag
    if res.code == 0:
        return _fail("check", "malformed config accepted with exit 0"), None
    if res.code not in (2, 3):
        return _fail("exit", f"unexpected exit {res.code!r}"), None
    if diag is None or "error" not in diag:
        return _fail("stderr", "rejection is not one JSON error line"), None
    return None, diag


def _read_table(path: Path, fmt: str):
    """(columns, rows) of a table written by the CLI."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"]
    lines = text.splitlines()
    cols = lines[0].split(",")
    rows = [[c if c in ("I", "II", "III", "IV") else float(c) for c in ln.split(",")] for ln in lines[1:]]
    return cols, rows


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# -- sweep workload ----------------------------------------------------------


def _random_base(rng: random.Random) -> dict:
    """Parameters drawn around the paper economics; always admissible."""
    Dp = 100.0 * rng.uniform(0.8, 1.25)
    p = rng.uniform(0.5, 0.7)
    r = rng.uniform(0.6, 0.8)
    inflow = r * p * Dp
    Dr = inflow * rng.uniform(1.02, 1.3)
    return dict(
        Dp=Dp, Dr=Dr, p=p, r=r, lam=Dr * rng.uniform(1.2, 2.5),
        Ap=10.0 * rng.uniform(0.7, 1.4), Ar=30.0 * rng.uniform(0.7, 1.4),
        h1=1.6 * rng.uniform(0.7, 1.4), h2=1.2 * rng.uniform(0.7, 1.4),
    )


def _floors(rng: random.Random, base: dict, regime: str) -> dict:
    """Floor limits that make the named constraints bind near the optimum.

    qp0 is the procurement stationary point of f1 with both multipliers
    zero.  With both floors tight the KKT case moves between II, III and IV
    along a sweep; "loose" leaves case I.
    """
    p1 = p2 = 0.5
    inflow = base["r"] * base["p"] * base["Dp"]
    qp0 = math.sqrt(2.0 * base["Ap"] * base["Dp"] / (base["h1"] + base["h2"] * base["r"] * base["p"]))
    if regime == "loose":
        k1, k2 = p1 * qp0 * rng.uniform(1.5, 3.0), 1000.0 * rng.uniform(1.0, 2.0)
    elif regime == "supply":
        k1, k2 = p1 * qp0 * rng.uniform(0.3, 0.95), 1000.0 * rng.uniform(1.0, 2.0)
    elif regime == "repair":
        k1, k2 = p1 * qp0 * rng.uniform(1.05, 3.0), rng.uniform(3.0, 10.0)
    else:
        cap = qp0 * rng.uniform(0.3, 0.7)
        k1 = p1 * cap
        k2 = p2 * inflow * cap / base["Dp"] * (1.0 + rng.uniform(1.0, 4.0))
    return dict(p1=p1, p2=p2, k1=k1, k2=k2)


def _sweep_range(rng: random.Random, base: dict, var: str) -> tuple[dict, list[float]]:
    """A sweep with 100-150 admissible rows; hi sits half a step past the last."""
    n = rng.randint(100, 150)
    if var == "lambda":
        lo = base["Dr"] * rng.uniform(1.005, 1.05)
        step = _nice(base["Dr"] * rng.uniform(0.008, 0.016))
    else:
        inflow = base["r"] * base["p"] * base["Dp"]
        lo = inflow * rng.uniform(1.005, 1.02)
        step = _nice((base["lam"] * 0.99 - lo) / (n - 1))
    values = [lo + i * step for i in range(n)]
    return {"lo": lo, "hi": values[-1] + 0.5 * step, "step": step}, values


def _malformed(rng: random.Random, kind: int, base: dict) -> tuple[str, str]:
    """(subcommand, config text) of a malformed config.

    Kinds 0-2 are the shapes that escape ``main`` with a traceback at the
    time the benchmark was written; kind 3 draws a shape the CLI rejects
    cleanly with exit 2 or 3.
    """
    params = _json_params(base)
    cmd = rng.choice(("solve", "solve-constrained"))
    doc = {"command": cmd, "params": params}
    if kind == 0:
        doc["params"] = rng.choice(([], [1.0, 2.0], [params]))
    elif kind == 1:
        doc["params"] = dict(params, **{rng.choice(sorted(params)): None})
    elif kind == 2:
        doc.update(sweepVar="lambda", sweepRange=rng.choice((5, 5.0, 120)))
    else:
        shape = rng.randrange(7)
        if shape == 0:
            doc["params"] = dict(params, q=1.0)
        elif shape == 1:
            doc["params"] = dict(params, **{"lambda": base["Dr"] * 0.99})
        elif shape == 2:
            doc["params"] = dict(params, p=1.5)
        elif shape == 3:
            doc.update(sweepVar="lambda", sweepRange={"lo": base["Dr"] * 1.1, "hi": base["Dr"] * 2.0, "step": -1.0})
        elif shape == 4:
            doc["command"] = "pareto"  # names a command other than the one run
        elif shape == 5:
            # a repair floor no positive batch fits: exit 3
            doc.update(command="solve-constrained", params=dict(params, p2=1.0, k2=1e-6))
            cmd = "solve-constrained"
        else:
            return cmd, json.dumps(doc)[:-20]
    return cmd, json.dumps(doc)


def _json_params(base: dict) -> dict:
    return {("lambda" if k == "lam" else k): v for k, v in base.items()}


def _check_solve_rows(cols, rows, params_list, fmt, constrained, stats) -> str | None:
    """Every row: echoed parameters, f1/n/T re-evaluated, certificate of optimality."""
    tol = REL_TOL if fmt == "json" else CSV_TOL
    at = {c: i for i, c in enumerate(cols)}
    for row, prm in zip(rows, params_list):
        qp, qr, f1 = row[at["Qp*"]], row[at["Qr*"]], row[at["f1"]]
        if not (qp > 0.0 and qr > 0.0):
            return f"non-positive batch sizes {qp}, {qr}"
        if _rel(row[at["lambda"]], prm.lam) > tol or _rel(row[at["Dr"]], prm.Dr) > tol:
            return f"row does not echo lambda={prm.lam}, Dr={prm.Dr}"
        cm = relot.CostModel(prm)
        for col, want in (
            ("f1", cm.average_cost(qp, qr)),
            ("n", cm.cycle_count(qp, qr)),
            ("T", cm.cycle_length(qp)),
        ):
            if _rel(row[at[col]], float(want)) > tol:
                return f"{col}={row[at[col]]} but the model gives {want} at lambda={prm.lam}"
        dec = relot.BatchDecision(Qp=qp, Qr=qr)
        if constrained:
            case = row[at["case"]]
            stats[f"case_{case}"] = stats.get(f"case_{case}", 0) + 1
            l1, l2 = row[at["lambda1"]], row[at["lambda2"]]
            if min(l1, l2) < 0.0:
                return f"negative multiplier in case {case}"
            if cm.supply_slack(qp) < -1e-9 * max(1.0, prm.k1) or float(cm.repair_slack(qp, qr)) < -1e-9 * max(1.0, prm.k2):
                return f"floor violated at lambda={prm.lam}, Dr={prm.Dr}"
            res = relot.kkt_residual(prm, dec, l1, l2)
            if not res < 1e-6:
                return f"kkt_residual {res} at lambda={prm.lam}, Dr={prm.Dr}"
        else:
            g = relot.gradient_norm(prm, dec)
            if not g < 1e-4:
                return f"gradient_norm {g} at lambda={prm.lam}, Dr={prm.Dr}"
    return None


def _check_reference(cols, rows, params_list, constrained) -> str | None:
    """Rows at the paper economics match the reference tables."""
    table, tol = (REFERENCE_CONSTRAINED, 1e-2) if constrained else (REFERENCE_UNCONSTRAINED, 5e-3)
    at = {c: i for i, c in enumerate(cols)}
    found = 0
    for row, prm in zip(rows, params_list):
        want = table.get(prm.lam)
        if want is None:
            continue
        found += 1
        got = (row[at["Qp*"]], row[at["Qr*"]], row[at["f1"]], row[at["n"]], row[at["T"]])
        for g, w in zip(got, want):
            if _rel(g, w) > tol:
                return f"reference row lambda={prm.lam}: got {got}, want {want}"
    if found != len(table):
        return f"{found} of {len(table)} reference rates in the output"
    return None


def _sweep_op(workdir: Path, i: int, cmd: str, doc: dict, values: list[float], fmt: str,
              reference: bool = False) -> Op:
    """A well-formed solve/solve-constrained/sweep config and its checks."""
    var = doc["sweepVar"]
    n = len(values)
    cfg = workdir / f"c{i}.json"
    out = workdir / f"o{i}.{fmt}"
    argv = [cmd, "--config", str(cfg)]
    if cmd == "sweep":
        doc = dict(doc, outputPath=str(out), outputFormat=fmt)
    else:
        argv += ["--out", str(out), "--format", fmt]
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    constrained = cmd == "solve-constrained"

    def check(res: CliResult) -> Outcome:
        bad, diag = _cli_outcome(res, expect_ok=True)
        if bad is not None:
            return bad
        base = relot.ModelParams.from_mapping(doc["params"])
        fld = "lam" if var == "lambda" else "Dr"
        params_list = [replace(base, **{fld: v}) for v in values]
        stats: dict = {"bytes": len(res.stdout) + len(res.stderr)}
        if diag.get("rows") != n:
            return _fail("check", f"diagnostics report {diag.get('rows')} rows, want {n}")
        if cmd == "sweep":
            stem = out.with_suffix("")
            cyc_path = Path(f"{stem}_cycles.{fmt}")
            bat_path = Path(f"{stem}_batches.{fmt}")
            cyc_cols, cyc = _read_table(cyc_path, fmt)
            bat_cols, bat = _read_table(bat_path, fmt)
            stats["bytes"] += cyc_path.stat().st_size + bat_path.stat().st_size
            stats["rows_written"] = len(cyc) + len(bat)
            if cyc_cols != [var, "f1", "n", "T"] or bat_cols != [var, "Qp*", "Qr*", "f1"]:
                return _fail("check", f"sweep columns {cyc_cols} / {bat_cols}")
            if len(cyc) != n or len(bat) != n:
                return _fail("check", f"sweep wrote {len(cyc)}/{len(bat)} rows, want {n}")
            tol = REL_TOL if fmt == "json" else CSV_TOL
            cols = ["lambda", "Dr", "Qp*", "Qr*", "f1", "n", "T"]
            rows = []
            for prm, value, c, b in zip(params_list, values, cyc, bat):
                if c[0] != b[0] or c[1] != b[3]:
                    return _fail("check", "sweep series disagree")
                if _rel(c[0], value) > tol:
                    return _fail("check", f"sweep value {c[0]} != {value}")
                rows.append([prm.lam, prm.Dr, b[1], b[2], b[3], c[2], c[3]])
        else:
            cols, rows = _read_table(out, fmt)
            stats["bytes"] += out.stat().st_size
            stats["rows_written"] = len(rows)
            want_cols = list(relot.cli.SOLVE_COLUMNS)
            if constrained:
                want_cols += list(relot.cli.CONSTRAINED_EXTRA)
            if cols != want_cols or len(rows) != n:
                return _fail("check", f"table has columns {cols} and {len(rows)} rows, want {n}")
        err = _check_solve_rows(cols, rows, params_list, fmt, constrained, stats)
        if err is None and reference:
            err = _check_reference(cols, rows, params_list, constrained)
        if err is not None:
            return _fail("check", err)
        return Outcome(rows=n, stats=stats)

    return Op(cmd, lambda: run_cli(argv), check)


def _malformed_op(workdir: Path, i: int, cmd: str, text: str, may_raise: bool) -> Op:
    cfg = workdir / f"c{i}.json"
    cfg.write_text(text, encoding="utf-8")
    argv = [cmd, "--config", str(cfg), "--out", str(workdir / f"o{i}.csv")]

    def check(res: CliResult) -> Outcome:
        bad, _ = _cli_outcome(res, expect_ok=False)
        if bad is not None:
            return bad
        return Outcome(stats={"bytes": len(res.stdout) + len(res.stderr)})

    return Op("malformed", lambda: run_cli(argv), check, may_raise)


def _sweep_round(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    paper = _json_params(dict(PAPER, lam=60.0))
    for cmd, extra in (("solve", {}), ("solve-constrained", PAPER_FLOORS)):
        doc = {"command": cmd, "params": dict(paper, **extra), "sweepVar": "lambda", "sweepRange": PAPER_SWEEP}
        ops.append(_sweep_op(workdir, len(ops), cmd, doc, PAPER_VALUES, "json", reference=True))
    for i in range(SWEEP_RANDOM):
        cmd = ("solve", "solve-constrained", "sweep")[i % 3]
        base = _random_base(rng)
        if cmd == "solve-constrained":
            base.update(_floors(rng, base, FLOOR_REGIMES[(i // 3) % len(FLOOR_REGIMES)]))
        var = ("lambda", "Dr")[(i // 3) % 2]
        sweep_range, values = _sweep_range(rng, base, var)
        doc = {"command": cmd, "params": _json_params(base), "sweepVar": var, "sweepRange": sweep_range}
        fmt = "json" if cmd == "solve-constrained" or i % 2 else "csv"
        ops.append(_sweep_op(workdir, len(ops), cmd, doc, values, fmt))
    for kind in range(4):
        cmd, text = _malformed(rng, kind, _random_base(rng))
        ops.append(_malformed_op(workdir, len(ops), cmd, text, may_raise=kind < 3))
    return ops


# -- front workload ----------------------------------------------------------


def sustain_instance(rng: random.Random, floor: str) -> dict:
    """A perturbation of SUSTAIN; ``floor`` is "loose", "binding" or "degenerate"."""
    pr = dict(SUSTAIN)
    for k in ("Dp", "Ap", "Ar", "h1", "h2", "ap", "bp", "cp", "Wp", "Wr", "Kp", "Kr"):
        pr[k] *= rng.uniform(0.9, 1.1)
    pr["p"] *= rng.uniform(0.95, 1.05)
    pr["r"] *= rng.uniform(0.95, 1.05)
    inflow = pr["p"] * pr["r"] * pr["Dp"]
    pr["Dr"] = inflow * rng.uniform(1.003, 1.02)
    pr["lam"] = pr["Dr"] * rng.uniform(1.03, 1.1)
    if floor == "degenerate":
        pr.update({k: 0.0 for k in DEGENERATE_ZEROS})
    elif floor == "binding":
        # repair floor caps Qr at 50-80% of its f1-best value at the
        # emissions floor, for every admissible Qp on the front
        qp_min = math.sqrt(2.0 * pr["Ap"] * pr["Dp"] / pr["h1"])
        c1 = 1.0 - inflow / pr["lam"]
        cap = SUSTAIN_QR * rng.uniform(0.5, 0.8)
        pr["k2"] = pr["p2"] * inflow * (c1 * cap / pr["Dr"] + qp_min / pr["Dp"])
    return pr


def _check_front(prm, cols, rows, degenerate: bool) -> tuple[str | None, float | None]:
    """(error or None, hypervolume share or None for the degenerate instance)."""
    at = {c: i for i, c in enumerate(cols)}
    if cols != list(relot.cli.PARETO_COLUMNS):
        return f"front columns {cols}", None
    if not rows:
        return "empty front", None
    if degenerate and len(rows) != 1:
        return f"degenerate instance gave {len(rows)} points, want 1", None
    pts = np.array([[r[at["f1"]], r[at["f2"]], r[at["f3"]]] for r in rows], dtype=float)
    dominated = np.flatnonzero(dominated_by_any(pts, pts))
    if dominated.size:
        return f"front point {dominated[0]} is dominated by another point", None
    cm = relot.CostModel(prm)
    for r in rows:
        qp, qr = r[at["Qp"]], r[at["Qr"]]
        if prm.p1 * qp - prm.k1 > FLOOR_TOL or float(cm.repair_load(qp, qr)) - prm.k2 > FLOOR_TOL:
            return f"floor violated at Qp={qp}, Qr={qr}", None
        if not float(cm.production_factor(qp)) >= 1e-6:
            return f"production factor below 1e-6 at Qp={qp}", None
        for col, want in (
            ("f1", cm.average_cost(qp, qr)),
            ("f2", cm.ghg_value(qp)),
            ("f3", cm.energy_value(qp, qr)),
        ):
            got = r[at[col]]
            if abs(got - float(want)) > REL_TOL * max(1.0, abs(float(want))):
                return f"{col}={got} but the model gives {float(want)} at Qp={qp}, Qr={qr}", None
    if degenerate:  # one point with flat f2 and f3 has no volume to score
        return None, None
    score = front_score(relot, prm, pts)
    if len(rows) < FRONT_MIN_POINTS or score < FRONT_MIN_HV:
        return (f"front coverage: {len(rows)} points and hypervolume share {score:.4f}, "
                f"floors {FRONT_MIN_POINTS} and {FRONT_MIN_HV}"), score
    return None, score


def _front_op(workdir: Path, i: int, pr: dict, floor: str) -> Op:
    m = FRONT_M
    cfg = workdir / f"c{i}.json"
    out = workdir / f"o{i}.json"
    doc = {"command": "pareto", "params": _json_params(pr), "gridSubdivisions": m, "outputFormat": "json"}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["pareto", "--config", str(cfg), "--out", str(out)]
    degenerate = floor == "degenerate"

    def check(res: CliResult) -> Outcome:
        bad, diag = _cli_outcome(res, expect_ok=True)
        if bad is not None:
            return bad
        params = relot.ModelParams(**pr)
        cols, rows = _read_table(out, "json")
        err, score = _check_front(params, cols, rows, degenerate)
        if err is None and diag.get("frontSize") != len(rows):
            err = f"diagnostics frontSize {diag.get('frontSize')} for {len(rows)} rows"
        if err is not None:
            return _fail("check", err)
        stats = {"bytes": out.stat().st_size + len(res.stdout) + len(res.stderr), "rows_written": len(rows)}
        if score is not None:
            stats["hv"] = score
        return Outcome(rows=(m - 1) * (m - 2) // 2, stats=stats)

    return Op(f"pareto-{floor}", lambda: run_cli(argv), check)


def _front_round(rng: random.Random, workdir: Path) -> list[Op]:
    return [_front_op(workdir, i, sustain_instance(rng, floor), floor) for i, floor in enumerate(FRONT_FLOORS)]


# -- oracle workload ---------------------------------------------------------


def cloud(rng: random.Random, shape: str, n: int) -> list[tuple[float, float, float]]:
    """Point clouds for the dominance filter.

    "uniform" leaves few survivors; "lattice" is the criterion-8 mix of
    uniform points and half-integer lattice points, with exact ties and
    duplicates; "plane" puts integer triples of equal sum on x+y+z=1, exact
    in binary, so that every point survives.
    """
    if shape == "uniform":
        return [(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
    if shape == "lattice":
        pts = []
        for _ in range(n):
            if rng.random() < 0.5:
                pts.append((rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2)))
            else:
                pts.append((rng.randrange(6) / 2.0, rng.randrange(6) / 2.0, rng.randrange(6) / 2.0))
        return pts
    pts = []
    for _ in range(n):
        a = rng.randrange(PLANE_SCALE + 1)
        b = rng.randrange(PLANE_SCALE + 1 - a)
        pts.append((a / PLANE_SCALE, b / PLANE_SCALE, (PLANE_SCALE - a - b) / PLANE_SCALE))
    return pts


def check_survivors(points, kept) -> str | None:
    """Exact check of a dominance filter's output.

    The kept indices are strictly increasing, no kept point is dominated by
    another kept point, and every dropped point is dominated by a kept one.
    Dominance is transitive and the set is finite, so this is equivalent to
    comparing against the full pairwise reference.
    """
    kept = list(kept)
    if any(b <= a for a, b in zip(kept, kept[1:])) or (kept and not 0 <= kept[0] <= kept[-1] < len(points)):
        return "kept indices are not increasing indices of the input"
    arr = np.asarray(points, dtype=float)
    mask = np.zeros(len(arr), dtype=bool)
    mask[kept] = True
    survivors = arr[mask]
    if dominated_by_any(survivors, survivors).any():
        return "a kept point is dominated by another kept point"
    if not dominated_by_any(arr[~mask], survivors).all():
        return "a dropped point is dominated by no kept point"
    return None


def pairwise_reference(points) -> list[int]:
    """Indices of non-dominated points by comparing every pair."""
    arr = np.asarray(points, dtype=float)
    return [int(i) for i in np.flatnonzero(~dominated_by_any(arr, arr))]


def _filter_op(points, shape: str) -> Op:
    def check(kept) -> Outcome:
        err = check_survivors(points, kept)
        if err is None and shape == "plane" and list(kept) != list(range(len(points))):
            err = "a point on x+y+z=1 was dropped"
        if err is None and len(points) <= 1000 and list(kept) != pairwise_reference(points):
            err = "output differs from the pairwise reference"
        if err is not None:
            return _fail("check", err)
        return Outcome(rows=len(points))

    return Op(f"filter-{shape}-{len(points)}", lambda: relot.dominance_filter(points), check,
              speed_exponent=ARRAY_SPEED_EXPONENT)


def _grid_min_op(params, constrained: bool) -> Op:
    def call():
        grid = relot.default_grid(params)
        return grid, relot.grid_min(params, grid, constrained=constrained)

    def check(result) -> Outcome:
        grid, (dec, value) = result
        cm = relot.CostModel(params)
        if _rel(value, float(cm.average_cost(dec.Qp, dec.Qr))) > 1e-12:
            return _fail("check", f"grid_min value {value} is not f1 at its decision")
        if constrained:
            want, tol = relot.solve_constrained(params).f1, 1e-2
            if cm.supply_slack(dec.Qp) < 0.0 or float(cm.repair_slack(dec.Qp, dec.Qr)) < 0.0:
                return _fail("check", f"grid_min returned an infeasible cell {dec}")
        else:
            want, tol = relot.solve_unconstrained(params).f1, 1e-3
        if _rel(value, want) > tol:
            return _fail("check", f"grid_min {value} vs closed form {want}")
        return Outcome(rows=int(grid.cells))

    return Op("grid_min-" + ("con" if constrained else "unc"), call, check)


def _grid_front_op(params) -> Op:
    def call():
        lo, hi = relot.decision_box(params)
        step = math.sqrt((hi[0] - lo[0]) * (hi[1] - lo[1]) / GRID_FRONT_CELLS)
        grid = relot.GridSpec(qp_range=(lo[0], hi[0]), qr_range=(lo[1], hi[1]), step=step)
        return grid, relot.grid_front(params, grid)

    def check(result) -> Outcome:
        grid, front = result
        cm = relot.CostModel(params)
        cells, objs = [], []
        qr_axis = grid.qr_axis()
        for qp in grid.qp_axis():
            if cm.production_factor(qp) < 1e-6 or cm.supply_slack(qp) < 0.0:
                continue
            qr = qr_axis[cm.repair_slack(qp, qr_axis) >= 0.0]
            f1 = cm.average_cost(qp, qr)
            f2 = float(cm.ghg_value(qp))
            f3 = np.broadcast_to(cm.energy_value(qp, qr), qr.shape)
            for j in range(qr.size):
                cells.append((float(qp), float(qr[j])))
                objs.append((float(f1[j]), f2, float(f3[j])))
        where = {c: k for k, c in enumerate(cells)}
        kept = []
        for dec, vec in front:
            k = where.get((dec.Qp, dec.Qr))
            if k is None or objs[k] != vec.as_tuple():
                return _fail("check", f"grid_front point {dec} is not a feasible lattice cell")
            kept.append(k)
        err = check_survivors(objs, kept)
        if err is not None:
            return _fail("check", "grid_front: " + err)
        return Outcome(rows=int(grid.cells))

    return Op("grid_front", call, check, speed_exponent=ARRAY_SPEED_EXPONENT)


def _oracle_round(rng: random.Random, r: int) -> list[Op]:
    ops = []
    for i in range(ORACLE_GRID_MIN):
        base = _random_base(rng)
        constrained = i % 2 == 1
        if constrained:
            base.update(_floors(rng, base, FLOOR_REGIMES[(i // 2 + r) % len(FLOOR_REGIMES)]))
        ops.append(_grid_min_op(relot.ModelParams(**base), constrained))
    # a binding repair floor leaves only a sliver of the box feasible, so
    # grid_front uses loose instances, where the lattice is a few thousand
    # feasible cells
    ops.append(_grid_front_op(relot.ModelParams(**sustain_instance(rng, "loose"))))
    for j, n in enumerate(ORACLE_CLOUD_SIZES):
        shape = CLOUD_SHAPES[(j + r) % len(CLOUD_SHAPES)]
        ops.append(_filter_op(cloud(rng, shape, n), shape))
    return ops


# -- rounds ------------------------------------------------------------------


def build_round(workload: str, seed: int, r: int, workdir: Path) -> list[Op]:
    """Operations of round ``r`` in execution order, derived from the seed alone."""
    rng = random.Random(f"relot-bench:{workload}:{seed}:{r}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        ops = _sweep_round(rng, workdir)
    elif workload == "front":
        ops = _front_round(rng, workdir)
    elif workload == "oracle":
        ops = _oracle_round(rng, r)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
