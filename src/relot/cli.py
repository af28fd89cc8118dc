"""Command-line front end.

Subcommands: ``solve`` (closed-form optimum, one row per sweep value),
``solve-constrained`` (floor-space case analysis), ``sweep`` (two series
files for plotting), ``pareto`` (three-objective front) and ``oracle``
(brute-force grid check).  A run is described by a JSON document of
RunConfig; tables go to --out or stdout, machine-readable diagnostics
(config echo, timings, integer cycle counts) to stderr.

Exit codes: 0 success, 2 configuration/domain errors and rejected argv,
3 infeasible model; every failure prints one JSON error line on stderr.
Table numbers are CSV-formatted with 6 significant digits; the json
format is one compact line at full precision.  The cpuSeconds column
(process CPU time) varies run to run and is meant to be dropped before
golden-file comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .analytic import solve_constrained, solve_unconstrained
from .gridsearch import default_grid, grid_min
from .model import CostModel, ModelParams, ParameterError, _number
from .pareto import pareto_front

__all__ = ["SweepRange", "RunConfig", "run", "run_solve", "run_sweep", "run_pareto", "main"]

COMMANDS = ("solve", "solve-constrained", "sweep", "pareto", "oracle")
FORMATS = ("csv", "json")
SWEEP_VARS = ("lambda", "Dr")

SOLVE_COLUMNS = ("rpDp", "lambda", "Dr", "Qp*", "Qr*", "f1", "n", "T", "cpuSeconds")
CONSTRAINED_EXTRA = ("case", "lambda1", "lambda2", "slackSupply", "slackRepair")
PARETO_COLUMNS = ("w1", "w2", "w3", "Qp", "Qr", "f1", "f2", "f3", "rank")
ORACLE_COLUMNS = ("Qp", "Qr", "f1", "cpuSeconds")
MAX_SWEEP_ROWS = 100_000
# m = 200 is (m-1)(m-2)/2 = 19 701 weights, about 15x the m = 53 front.
MAX_GRID_SUBDIVISIONS = 200


@dataclass(frozen=True)
class SweepRange:
    lo: float
    hi: float
    step: float

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"sweep {name} must be finite, got {getattr(self, name)!r}")
        if not (self.lo < self.hi):
            raise ParameterError(f"sweep range needs lo < hi, got {self.lo!r} >= {self.hi!r}")
        if not (self.step > 0.0):
            raise ParameterError(f"sweep step must be positive, got {self.step!r}")
        # values() yields floor(steps) + 1 rows; an overflow to inf fails here too
        steps = (self.hi - self.lo) / self.step + 1e-9
        if not steps < MAX_SWEEP_ROWS:
            raise ParameterError(f"sweep range holds more than {MAX_SWEEP_ROWS} rows")

    def values(self) -> list[float]:
        count = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return [self.lo + i * self.step for i in range(count)]


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    command: str | None = None
    sweep_var: str | None = None
    sweep_range: SweepRange | None = None
    grid_subdivisions: int | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if self.command is not None and self.command not in COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}")
        if self.sweep_var is not None and self.sweep_var not in SWEEP_VARS:
            raise ParameterError(f"sweep variable must be one of {SWEEP_VARS}, got {self.sweep_var!r}")
        if self.output_format not in FORMATS:
            raise ParameterError(f"output format must be one of {FORMATS}, got {self.output_format!r}")
        if self.grid_subdivisions is not None:
            m = self.grid_subdivisions
            if not isinstance(m, int) or isinstance(m, bool) or not 2 <= m <= MAX_GRID_SUBDIVISIONS:
                raise ParameterError(
                    f"gridSubdivisions must be an integer in [2, {MAX_GRID_SUBDIVISIONS}], got {m!r}"
                )
        if self.command == "pareto":
            if self.grid_subdivisions is None or self.grid_subdivisions < 3:
                raise ParameterError("the pareto command needs gridSubdivisions >= 3")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        if not isinstance(mapping, dict):
            raise ParameterError("configuration must be a JSON object")
        data = dict(mapping)
        if "params" not in data:
            raise ParameterError("configuration is missing 'params'")
        params = ModelParams.from_mapping(data.pop("params"))
        kwargs = {"params": params}
        if "command" in data:
            kwargs["command"] = data.pop("command")
        if "sweepVar" in data:
            kwargs["sweep_var"] = data.pop("sweepVar")
        if "sweepRange" in data:
            rng = data.pop("sweepRange")
            if not isinstance(rng, dict):
                raise ParameterError(f"sweepRange must be an object, got {rng!r}")
            keys = set(rng)
            if keys != {"lo", "hi", "step"}:
                raise ParameterError(f"sweepRange needs exactly lo/hi/step, got {sorted(keys)}")
            kwargs["sweep_range"] = SweepRange(
                *(_number(f"sweepRange.{k}", rng[k]) for k in ("lo", "hi", "step"))
            )
        if "gridSubdivisions" in data:
            m = data.pop("gridSubdivisions")
            if not isinstance(m, int) or isinstance(m, bool):
                raise ParameterError(f"gridSubdivisions must be an integer, got {m!r}")
            kwargs["grid_subdivisions"] = m
        for key, name in (("outputPath", "output_path"), ("outputFormat", "output_format")):
            if key in data:
                value = data.pop(key)
                if not isinstance(value, str):
                    raise ParameterError(f"{key} must be a string, got {value!r}")
                kwargs[name] = value
        if data:
            raise ParameterError(f"unknown configuration keys {sorted(data)}")
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        out: dict = {"params": self.params.to_mapping()}
        if self.command is not None:
            out["command"] = self.command
        if self.sweep_var is not None:
            out["sweepVar"] = self.sweep_var
        if self.sweep_range is not None:
            out["sweepRange"] = {
                "lo": self.sweep_range.lo,
                "hi": self.sweep_range.hi,
                "step": self.sweep_range.step,
            }
        if self.grid_subdivisions is not None:
            out["gridSubdivisions"] = self.grid_subdivisions
        if self.output_path is not None:
            out["outputPath"] = self.output_path
        out["outputFormat"] = self.output_format
        return out

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"configuration is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParameterError(f"configuration is nested too deeply: {exc}") from exc
        return cls.from_mapping(mapping)


# -- table emission --------------------------------------------------------------


def _format_cell(value) -> str:
    if type(value) is float:
        return "%.6g" % value
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def _render(columns, rows, fmt: str) -> str:
    if fmt == "json":
        # compact, so json.dumps takes its C encoder (indent forces the Python one)
        return json.dumps({"columns": list(columns), "rows": [list(r) for r in rows]})
    lines = [",".join(columns)]
    lines.extend(",".join([_format_cell(v) for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sweep_params(config: RunConfig) -> list[ModelParams]:
    """Parameter sets for one run: the sweep series, or just the base params."""
    if config.sweep_var is None or config.sweep_range is None:
        return [config.params]
    field = "lam" if config.sweep_var == "lambda" else "Dr"
    base = {f.name: getattr(config.params, f.name) for f in dataclasses.fields(ModelParams)}
    return [ModelParams(**{**base, field: value}) for value in config.sweep_range.values()]


# -- commands --------------------------------------------------------------------


def _solve_rows(config: RunConfig, constrained: bool):
    rows = []
    n_floor = []
    for params in _sweep_params(config):
        t0 = time.process_time()
        if constrained:
            sol = solve_constrained(params)
            dec, f1 = sol.decision, sol.f1
        else:
            unc = solve_unconstrained(params)
            dec, f1 = unc.decision, unc.f1
        elapsed = time.process_time() - t0
        cm = CostModel(params)
        n = cm.cycle_count(dec.Qp, dec.Qr)
        row = [
            params.return_inflow,
            params.lam,
            params.Dr,
            dec.Qp,
            dec.Qr,
            f1,
            n,
            cm.cycle_length(dec.Qp),
            elapsed,
        ]
        if constrained:
            row.extend(
                [
                    sol.case,
                    sol.lambda1,
                    sol.lambda2,
                    cm.supply_slack(dec.Qp),
                    cm.repair_slack(dec.Qp, dec.Qr),
                ]
            )
        rows.append(row)
        n_floor.append(math.floor(n))
    return rows, n_floor


def _run_solve(config: RunConfig, constrained: bool) -> dict:
    columns = SOLVE_COLUMNS + CONSTRAINED_EXTRA if constrained else SOLVE_COLUMNS
    rows, n_floor = _solve_rows(config, constrained)
    _emit(_render(columns, rows, config.output_format), config.output_path)
    return {"rows": len(rows), "nFloor": n_floor}


def _split_output(path: str, suffix: str, fmt: str) -> str:
    base = os.path.splitext(path)[0]
    return f"{base}_{suffix}.{ 'json' if fmt == 'json' else 'csv' }"


def _run_sweep(config: RunConfig) -> dict:
    if config.sweep_var is None or config.sweep_range is None:
        raise ParameterError("the sweep command needs sweepVar and sweepRange")
    if config.output_path is None:
        raise ParameterError("the sweep command writes two files and needs an output path")
    rows, n_floor = _solve_rows(config, constrained=False)
    var = config.sweep_var
    values = config.sweep_range.values()
    # rows: rpDp, lambda, Dr, Qp*, Qr*, f1, n, T, cpuSeconds
    cycles = [[v, r[5], r[6], r[7]] for v, r in zip(values, rows)]
    batches = [[v, r[3], r[4], r[5]] for v, r in zip(values, rows)]
    fmt = config.output_format
    cycles_path = _split_output(config.output_path, "cycles", fmt)
    batches_path = _split_output(config.output_path, "batches", fmt)
    _emit(_render((var, "f1", "n", "T"), cycles, fmt), cycles_path)
    _emit(_render((var, "Qp*", "Qr*", "f1"), batches, fmt), batches_path)
    return {
        "rows": len(rows),
        "nFloor": n_floor,
        "files": [cycles_path, batches_path],
    }


def _run_pareto(config: RunConfig) -> dict:
    front = pareto_front(config.params, config.grid_subdivisions)
    rows = [
        [
            p.weight.w1,
            p.weight.w2,
            p.weight.w3,
            p.decision.Qp,
            p.decision.Qr,
            p.objectives.f1,
            p.objectives.f2,
            p.objectives.f3,
            p.rank,
        ]
        for p in front.points
    ]
    _emit(_render(PARETO_COLUMNS, rows, config.output_format), config.output_path)
    d = front.diagnostics
    return {
        "rows": len(rows),
        "gridCount": d.grid_count,
        "solved": d.solved,
        "skippedInfeasible": d.skipped_infeasible,
        "shifts": list(d.shifts),
        "recorded": d.recorded,
        "deduplicated": d.deduplicated,
        "frontSize": d.front_size,
    }


def _run_oracle(config: RunConfig) -> dict:
    params = config.params
    constrained = math.isfinite(params.k1) or math.isfinite(params.k2)
    t0 = time.process_time()
    dec, value = grid_min(params, default_grid(params), constrained=constrained)
    elapsed = time.process_time() - t0
    rows = [[dec.Qp, dec.Qr, value, elapsed]]
    _emit(_render(ORACLE_COLUMNS, rows, config.output_format), config.output_path)
    return {"rows": 1, "constrained": constrained}


def run(config: RunConfig) -> dict:
    """Execute a configured command; returns the diagnostics mapping."""
    if config.command is None:
        raise ParameterError("no command selected")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if config.command == "solve":
        diag = _run_solve(config, constrained=False)
    elif config.command == "solve-constrained":
        diag = _run_solve(config, constrained=True)
    elif config.command == "sweep":
        diag = _run_sweep(config)
    elif config.command == "pareto":
        diag = _run_pareto(config)
    else:
        diag = _run_oracle(config)
    diag["command"] = config.command
    diag["config"] = config.to_mapping()
    diag["cpuSeconds"] = time.process_time() - cpu0
    diag["wallSeconds"] = time.perf_counter() - wall0
    return diag


def _retarget(config: RunConfig, command: str) -> RunConfig:
    if config.command not in (None, command):
        raise ParameterError(
            f"configuration selects {config.command!r}, expected {command!r}"
        )
    return config if config.command == command else replace(config, command=command)


def run_solve(config: RunConfig, *, constrained: bool = False) -> dict:
    """Solve at the configured parameters (optionally sweeping); emit the row table."""
    return run(_retarget(config, "solve-constrained" if constrained else "solve"))


def run_sweep(config: RunConfig) -> dict:
    """Emit the two plotting series over the configured sweep range."""
    return run(_retarget(config, "sweep"))


def run_pareto(config: RunConfig) -> dict:
    """Approximate the three-objective front; emit points plus diagnostics."""
    return run(_retarget(config, "pareto"))


class _JsonErrorParser(argparse.ArgumentParser):
    """Rejects a bad argv the way main rejects a bad config: one JSON error
    line on stderr and exit code 2.  Subparsers inherit the class."""

    def error(self, message: str):
        print(json.dumps({"error": f"{self.prog}: {message}"}), file=sys.stderr)
        sys.exit(2)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="relot",
        description="Reverse-logistics batch-size optimization toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in (
        ("solve", "closed-form optimal batch sizes"),
        ("solve-constrained", "floor-space constrained optimum via case analysis"),
        ("sweep", "parameter sweep series for plotting"),
        ("pareto", "three-objective front approximation"),
        ("oracle", "brute-force grid verification"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a RunConfig JSON document")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=FORMATS, help="table format (default: csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = RunConfig.from_json(fh.read())
        if config.command is not None and config.command != args.subcommand:
            raise ParameterError(
                f"config names command {config.command!r} but {args.subcommand!r} was invoked"
            )
        config = dataclasses.replace(
            config,
            command=args.subcommand,
            output_path=args.out if args.out is not None else config.output_path,
            output_format=args.format if args.format is not None else config.output_format,
        )
        # numpy overflow raises FloatingPointError instead of printing a
        # warning next to the one JSON line on stderr.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            diagnostics = run(config)
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # parameters at the edge of the float range
        print(json.dumps({"error": f"numeric range exceeded: {exc}"}), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    print(json.dumps(diagnostics), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
