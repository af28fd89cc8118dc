"""End-to-end command-line runs: configs, tables, sweeps, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relot
from relot import CostModel, ModelParams, ParameterError, RunConfig, SweepRange
from relot.cli import MAX_GRID_SUBDIVISIONS, MAX_SWEEP_ROWS, _parser, _render, main, run

from conftest import SUSTAIN, SUSTAIN_BINDING, UNCON_BASE

EX1_PARAMS = {**UNCON_BASE, "lambda": 45.0}
FLOOR_PARAMS = {**UNCON_BASE, "lambda": 60.0, "p1": 0.5, "p2": 0.5,
                "k1": 20.0, "k2": 10.0}
SUSTAIN_JSON = {**{k: v for k, v in SUSTAIN.items() if k != "lam"},
                "lambda": SUSTAIN["lam"]}


def _write_config(tmp_path, name="config.json", **overrides):
    doc = {"params": EX1_PARAMS, "command": "solve"}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _rows(csv_text):
    lines = [ln for ln in csv_text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestRunConfig:
    def test_mapping_round_trip(self):
        cfg = RunConfig(
            params=ModelParams(**SUSTAIN), command="pareto",
            grid_subdivisions=53, output_path="front.json", output_format="json")
        assert RunConfig.from_mapping(cfg.to_mapping()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig.from_mapping({"params": EX1_PARAMS, "comand": "solve"})

    def test_unknown_command_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig.from_mapping({"params": EX1_PARAMS, "command": "optimise"})

    def test_pareto_needs_three_subdivisions(self):
        with pytest.raises(ParameterError):
            RunConfig(params=ModelParams(**SUSTAIN), command="pareto",
                      grid_subdivisions=2)

    def test_subdivisions_must_be_integer(self):
        with pytest.raises(ParameterError):
            RunConfig(params=ModelParams(**SUSTAIN), command="pareto",
                      grid_subdivisions=True)

    def test_subdivisions_capped(self):
        RunConfig(params=ModelParams(**SUSTAIN), command="pareto",
                  grid_subdivisions=MAX_GRID_SUBDIVISIONS)
        with pytest.raises(ParameterError):
            RunConfig(params=ModelParams(**SUSTAIN), command="pareto",
                      grid_subdivisions=MAX_GRID_SUBDIVISIONS + 1)

    def test_sweep_range_values(self):
        assert SweepRange(45.0, 105.0, 15.0).values() == [45.0, 60.0, 75.0, 90.0, 105.0]
        assert SweepRange(45.0, 46.0, 2.0).values() == [45.0]
        assert len(SweepRange(0.0, 99_999.0, 1.0).values()) == MAX_SWEEP_ROWS

    def test_sweep_range_validation(self):
        with pytest.raises(ParameterError):
            SweepRange(10.0, 5.0, 1.0)
        with pytest.raises(ParameterError):
            SweepRange(5.0, 10.0, 0.0)
        # non-finite bounds, and more rows than the cap (checked before any
        # list is built: the second range alone would hold about 1e12 rows)
        for lo, hi, step in (
            (-math.inf, 60.0, 1.0), (45.0, math.inf, 1.0), (45.0, 60.0, math.inf),
            (math.nan, 60.0, 1.0), (0.0, 100_000.0, 1.0), (44.1, 1e9, 1e-3),
            (-1e308, 1e308, 1.0),
        ):
            with pytest.raises(ParameterError):
                SweepRange(lo, hi, step)


class TestSolveCommand:
    def test_table_row_on_stdout(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr()
        header, rows = _rows(out.out)
        assert header[:8] == ["rpDp", "lambda", "Dr", "Qp*", "Qr*", "f1", "n", "T"]
        assert rows[0][:8] == ["42", "45", "43", "30.8313", "115.101",
                               "74.6102", "72.5641", "58.6226"]

    def test_json_format_keeps_full_precision(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["Qp*"] == pytest.approx(30.83132079891037, rel=1e-12)
        assert row["f1"] == pytest.approx(74.61016271413838, rel=1e-12)

    def test_output_file_with_new_directory(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "results" / "table.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        header, rows = _rows(out.read_text())
        assert rows[0][3] == "30.8313"

    def test_diagnostics_on_stderr(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        main(["solve", "--config", str(cfg)])
        diag = json.loads(capsys.readouterr().err)
        assert diag["command"] == "solve"
        assert diag["rows"] == 1
        assert diag["nFloor"] == [72]
        assert diag["cpuSeconds"] > 0.0
        assert diag["wallSeconds"] > 0.0
        echo = RunConfig.from_mapping(diag["config"])
        assert echo.params.lam == 45.0

    def test_deterministic_apart_from_timing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        main(["solve", "--config", str(cfg)])
        first = capsys.readouterr().out
        main(["solve", "--config", str(cfg)])
        second = capsys.readouterr().out
        h1, r1 = _rows(first)
        h2, r2 = _rows(second)
        assert h1 == h2
        assert [r[:-1] for r in r1] == [r[:-1] for r in r2]

    def test_domain_error_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, params={**UNCON_BASE, "lambda": 40.0})
        assert main(["solve", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "repair rate" in err["error"]

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["solve-constrained", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"params": []},
        {"params": None},
        {"params": [EX1_PARAMS]},
        {"params": {**EX1_PARAMS, "Dp": None}},
        {"params": {**EX1_PARAMS, "Ap": "10"}},
        {"params": {**EX1_PARAMS, "h1": True}},
        {"params": {**EX1_PARAMS, "Ap": math.inf}},
        {"sweepVar": "lambda", "sweepRange": 5},
        {"sweepVar": "lambda", "sweepRange": [45.0, 60.0, 1.0]},
        {"sweepVar": "lambda", "sweepRange": {"lo": None, "hi": 60.0, "step": 1.0}},
        {"sweepVar": "lambda", "sweepRange": {"lo": -math.inf, "hi": 60.0, "step": 1.0}},
        {"sweepVar": "lambda", "sweepRange": {"lo": 44.1, "hi": 1e9, "step": 1e-3}},
        {"outputPath": None},
        {"outputPath": 7},
        # raw text: json.loads runs out of recursion depth on it
        pytest.param('{"params": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deeply-nested"),
    ])
    def test_malformed_config_exits_2_with_one_json_line(
        self, tmp_path, capsys, monkeypatch, overrides
    ):
        monkeypatch.chdir(tmp_path)
        if isinstance(overrides, str):
            cfg = tmp_path / "config.json"
            cfg.write_text(overrides)
        else:
            cfg = _write_config(tmp_path, **overrides)
        assert main(["solve", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error"}
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


class TestConstrainedCommand:
    def test_case_row(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, params=FLOOR_PARAMS,
                            command="solve-constrained")
        assert main(["solve-constrained", "--config", str(cfg)]) == 0
        header, rows = _rows(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert row["case"] == "III"
        assert row["Qp*"] == "11.1348"
        assert row["lambda2"] == "0.780384"
        assert row["slackRepair"] == "0"
        assert row["slackSupply"] == "14.4326"


class TestSweepCommand:
    def test_two_series_files(self, tmp_path, capsys):
        out = tmp_path / "series" / "table.csv"
        cfg = _write_config(
            tmp_path, command="sweep", sweepVar="lambda",
            sweepRange={"lo": 45.0, "hi": 105.0, "step": 15.0},
            outputPath=str(out))
        assert main(["sweep", "--config", str(cfg)]) == 0
        cycles = tmp_path / "series" / "table_cycles.csv"
        batches = tmp_path / "series" / "table_batches.csv"
        assert cycles.exists() and batches.exists()

        header, rows = _rows(cycles.read_text())
        assert header == ["lambda", "f1", "n", "T"]
        assert [r[0] for r in rows] == ["45", "60", "75", "90", "105"]
        assert [r[1] for r in rows] == ["74.6102", "156.813", "188.677",
                                        "206.796", "218.628"]

        header, rows = _rows(batches.read_text())
        assert header == ["lambda", "Qp*", "Qr*", "f1"]
        assert all(r[1] == "30.8313" for r in rows)
        assert [r[2] for r in rows] == ["115.101", "54.3463", "44.9183",
                                        "40.8253", "38.5082"]

    def test_cost_rises_with_repair_rate(self, tmp_path, capsys):
        """f1 at the optimum increases strictly over lambda in [44.1, 105]."""
        out = tmp_path / "fine.csv"
        cfg = _write_config(
            tmp_path, command="sweep", sweepVar="lambda",
            sweepRange={"lo": 44.1, "hi": 105.0, "step": 0.1},
            outputPath=str(out), outputFormat="json")
        assert main(["sweep", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "fine_cycles.json").read_text())
        f1_col = doc["columns"].index("f1")
        values = [row[f1_col] for row in doc["rows"]]
        assert len(values) >= 600
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_secondary_demand_sweep_cross_check(self, tmp_path, capsys):
        out = tmp_path / "dr.csv"
        cfg = _write_config(
            tmp_path, params={**UNCON_BASE, "lambda": 105.0},
            command="sweep", sweepVar="Dr",
            sweepRange={"lo": 43.0, "hi": 73.0, "step": 15.0},
            outputPath=str(out))
        assert main(["sweep", "--config", str(cfg)]) == 0
        header, rows = _rows((tmp_path / "dr_batches.csv").read_text())
        assert header[0] == "Dr"
        assert [r[0] for r in rows] == ["43", "58", "73"]

        solo = _write_config(tmp_path, name="solo.json",
                             params={**UNCON_BASE, "lambda": 105.0, "Dr": 73.0})
        main(["solve", "--config", str(solo)])
        solo_row = _rows(capsys.readouterr().out)[1][0]
        assert rows[-1][1:4] == solo_row[3:6]

    def test_single_row_sweep(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        cfg = _write_config(
            tmp_path, command="sweep", sweepVar="lambda",
            sweepRange={"lo": 45.0, "hi": 46.0, "step": 5.0},
            outputPath=str(out))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert len(_rows((tmp_path / "one_cycles.csv").read_text())[1]) == 1

    def test_sweep_into_invalid_domain_fails(self, tmp_path, capsys):
        """lambda = 40 < r*p*Dp invalidates the model, diagnosed as exit 2."""
        out = tmp_path / "bad.csv"
        cfg = _write_config(
            tmp_path, command="sweep", sweepVar="lambda",
            sweepRange={"lo": 40.0, "hi": 60.0, "step": 10.0},
            outputPath=str(out))
        assert main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("output_path,written", [
        ("runs.v2/series", "runs.v2/series"),
        ("./series", "series"),
        ("out/series.csv", "out/series"),
        ("series", "series"),
    ])
    def test_series_files_stay_beside_output_path(
        self, tmp_path, capsys, monkeypatch, output_path, written
    ):
        """Only a file extension is replaced, never a dot in a directory name."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.v2").mkdir()
        (tmp_path / "out").mkdir()
        cfg = _write_config(
            tmp_path, command="sweep", sweepVar="lambda",
            sweepRange={"lo": 45.0, "hi": 60.0, "step": 15.0},
            outputPath=output_path)
        assert main(["sweep", "--config", str(cfg)]) == 0
        files = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*.csv"))
        assert files == [f"{written}_batches.csv", f"{written}_cycles.csv"]

    def test_sweep_requires_output_path(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, command="sweep", sweepVar="lambda",
            sweepRange={"lo": 45.0, "hi": 60.0, "step": 15.0})
        assert main(["sweep", "--config", str(cfg)]) == 2


class TestParetoCommand:
    def test_front_json_document(self, tmp_path, capsys):
        out = tmp_path / "front.json"
        cfg = _write_config(
            tmp_path, params=SUSTAIN_JSON,
            command="pareto", gridSubdivisions=4, outputPath=str(out),
            outputFormat="json")
        assert main(["pareto", "--config", str(cfg)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["w1", "w2", "w3", "Qp", "Qr",
                                  "f1", "f2", "f3", "rank"]
        assert doc["rows"]
        for row in doc["rows"]:
            assert row[0] + row[1] + row[2] == pytest.approx(1.0, abs=1e-9)
            assert row[8] in ("efficient", "weak-efficient")
        diag = json.loads(capsys.readouterr().err)
        assert diag["gridCount"] == 3
        assert diag["frontSize"] == len(doc["rows"])

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            cfg = _write_config(
                tmp_path, name=f"{name}.cfg.json",
                params=SUSTAIN_JSON,
                command="pareto", gridSubdivisions=4, outputPath=str(out),
                outputFormat="json")
            assert main(["pareto", "--config", str(cfg)]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("m", [MAX_GRID_SUBDIVISIONS + 1, 10**9])
    def test_oversized_grid_exits_2_before_building_it(self, tmp_path, capsys, monkeypatch, m):
        def no_grid(m):
            raise AssertionError("a weight grid was built")

        monkeypatch.setattr("relot.pareto.weight_grid", no_grid)
        cfg = _write_config(tmp_path, params=SUSTAIN_JSON, command="pareto",
                            gridSubdivisions=m)
        assert main(["pareto", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "gridSubdivisions" in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("instance", [SUSTAIN, SUSTAIN_BINDING], ids=["loose", "binding"])
    def test_diagnostics_describe_the_subproblems(self, tmp_path, capsys, instance):
        params = {**{k: v for k, v in instance.items() if k != "lam"}, "lambda": instance["lam"]}
        cfg = _write_config(tmp_path, params=params, command="pareto",
                            gridSubdivisions=6, outputPath=str(tmp_path / "front.csv"))
        assert main(["pareto", "--config", str(cfg)]) == 0
        diag = json.loads(capsys.readouterr().err)
        cells = 3 * diag["gridCount"]
        assert diag["exact"] > 0
        assert diag["exact"] + diag["skippedInfeasible"] <= cells
        assert diag["solved"] >= cells - diag["exact"] - diag["skippedInfeasible"]
        cm = CostModel(ModelParams(**instance))
        funcs = (cm.average_cost, lambda qp, qr: cm.ghg_value(qp), cm.energy_value)
        assert len(diag["individualMinima"]) == len(diag["individualValues"]) == 3
        for f, (qp, qr), value in zip(funcs, diag["individualMinima"], diag["individualValues"]):
            assert qr == cm.best_repair(qp)
            assert abs(f(qp, qr) - value) <= 1e-12 * max(1.0, abs(value))

    def test_infeasible_model_exit_code(self, tmp_path, capsys):
        params = {**SUSTAIN_JSON, "k1": 50.0}
        cfg = _write_config(tmp_path, params=params, command="pareto",
                            gridSubdivisions=4)
        assert main(["pareto", "--config", str(cfg)]) == 3


class TestOracleCommand:
    def test_unconstrained_oracle_row(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, command="oracle")
        assert main(["oracle", "--config", str(cfg)]) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header[:3] == ["Qp", "Qr", "f1"]
        assert rows[0][:3] == ["30.83", "115.1", "74.6102"]

    def test_floors_engage_constrained_scan(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, params=FLOOR_PARAMS, command="oracle")
        assert main(["oracle", "--config", str(cfg)]) == 0
        row = _rows(capsys.readouterr().out)[1][0]
        assert float(row[2]) == pytest.approx(157.784, rel=1e-3)

    def test_empty_grid_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, params={**FLOOR_PARAMS, "k1": 0.001},
                            command="oracle")
        assert main(["oracle", "--config", str(cfg)]) == 3


class TestParserReuse:
    def test_calls_share_no_state(self, tmp_path, capsys):
        """The parser is built once per process.  A call's options, and an
        argv that argparse rejects, leave no trace in the next call."""
        solve = _write_config(tmp_path, "solve.json")
        floor = _write_config(tmp_path, "floor.json", params=FLOOR_PARAMS,
                              command="solve-constrained")
        table = tmp_path / "table.json"
        assert main(["solve", "--config", str(solve), "--out", str(table),
                     "--format", "json"]) == 0
        assert json.loads(table.read_text())["rows"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["solve-constrained", "--config", str(floor), "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["solve-constrained", "--config", str(floor)]) == 0
        reused = capsys.readouterr()
        _parser.cache_clear()
        assert main(["solve-constrained", "--config", str(floor)]) == 0
        alone = capsys.readouterr()

        def untimed(text):
            header, rows = _rows(text)
            t = header.index("cpuSeconds")
            return header, [r[:t] + r[t + 1:] for r in rows]

        assert untimed(reused.out) == untimed(alone.out)
        assert json.loads(reused.err)["config"] == json.loads(alone.err)["config"]


class TestArgvErrors:
    @pytest.mark.parametrize("argv", [
        ["solve-constrained", "--config", "cfg.json", "--format", "xml"],
        [],
    ], ids=["bad-format", "no-subcommand"])
    def test_rejected_argv_prints_one_json_line(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        _write_config(tmp_path, "cfg.json", params=FLOOR_PARAMS,
                      command="solve-constrained")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error"}

    def test_help_is_plain_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: relot solve")
        assert captured.err == ""


class TestModuleEntryPoint:
    def test_python_m_relot_writes_one_json_line(self, tmp_path):
        """``python3 -m relot`` runs the CLI with nothing on stderr but the
        diagnostics line (``-m relot.cli`` adds a runpy warning)."""
        cfg = _write_config(tmp_path)
        src = str(Path(relot.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        proc = subprocess.run(
            [sys.executable, "-m", "relot", "solve", "--config", str(cfg)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["command"] == "solve"
        header, rows = _rows(proc.stdout)
        assert header[:3] == ["rpDp", "lambda", "Dr"] and len(rows) == 1


def _reference_cell(value) -> str:
    """The per-cell CSV formatter the fast path must reproduce."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


RENDER_CELLS = [
    1.0, 30.83132079891037, 74.61016271413838, 1e-300, -1e-300, 5e-324, 1e300,
    123456.5, 1234567.0, 0.000123456789, -0.0, 0.0, math.inf, -math.inf, math.nan,
    np.float64(30.83132079891037), np.float64(-0.0), np.float64(math.inf),
    np.float64(math.nan), np.float64(1e-300), 0, 72, -3, True, "III", "efficient",
]


class TestRenderIdentity:
    def test_csv_bytes_equal_the_per_cell_formatter(self):
        columns = [f"c{i}" for i in range(len(RENDER_CELLS))]
        rows = [RENDER_CELLS, RENDER_CELLS[::-1], [-v if isinstance(v, float) else v
                                                   for v in RENDER_CELLS]]
        want = "\n".join([",".join(columns)]
                         + [",".join(_reference_cell(v) for v in row) for row in rows]) + "\n"
        assert _render(columns, rows, "csv").encode() == want.encode()

    def test_json_parses_to_the_indented_document(self):
        """Parsed values are identical, compared through their repr so that
        -0.0 and nan count too."""
        columns = [f"c{i}" for i in range(len(RENDER_CELLS))]
        rows = [list(RENDER_CELLS)]
        doc = {"columns": columns, "rows": rows}
        text = _render(columns, rows, "json")
        assert "\n" not in text
        canonical = lambda t: json.dumps(json.loads(t))
        assert canonical(text) == canonical(json.dumps(doc, indent=2))


class TestRunApi:
    def test_run_returns_diagnostics(self, tmp_path):
        cfg = RunConfig.from_mapping({"params": EX1_PARAMS, "command": "solve",
                                      "outputPath": str(tmp_path / "t.csv")})
        diag = run(cfg)
        assert diag["rows"] == 1
        assert (tmp_path / "t.csv").exists()
