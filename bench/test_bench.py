"""Tests of the benchmark itself: tracing, hypervolume, checks, inputs.

Run from the repository root with ``python3 -m pytest bench``.
"""

import importlib
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import program

relot = program.load_relot()

import hv  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    #   root [0, 10]
    #     a [1, 4]        (holds leaf [2, 3])
    #     a [3, 6]        overlaps the first a
    #     b [8, 12]       runs past its parent; only [8, 10] counts
    names = ["root", "a", "leaf", "a", "b"]
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = tracing.self_times(names, starts, ends, parents)
    assert got == pytest.approx({"root": 3.0, "a": 2.0 + 3.0, "leaf": 1.0, "b": 4.0})


def test_covered_length_merges_touching_and_contained_intervals():
    assert tracing.covered_length(0.0, 10.0, [(1, 2), (2, 3), (2.5, 2.7), (9, 20), (-5, 0)]) == 3.0


# -- tracer ----------------------------------------------------------------------


def _paper_constrained_config(tmp_path: Path) -> list[str]:
    params = dict(workloads._json_params(dict(workloads.PAPER, lam=60.0)), **workloads.PAPER_FLOORS)
    cfg = tmp_path / "paper.json"
    cfg.write_text(json.dumps({
        "command": "solve-constrained", "params": params,
        "sweepVar": "lambda", "sweepRange": workloads.PAPER_SWEEP,
    }))
    return ["solve-constrained", "--config", str(cfg), "--out", str(tmp_path / "out.json"), "--format", "json"]


def test_traced_counts_on_fixed_122_row_constrained_config(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        res = workloads.run_cli(_paper_constrained_config(tmp_path))
    assert res.code == 0
    c = tracer.counts
    assert c["cli.main.calls"] == 1 and c["cli.exit_0"] == 1
    assert c["analytic.solve_constrained.calls"] == 122
    assert c["analytic.kkt_residual.calls"] == 122
    assert c["model.CostModel.calls"] == 366
    assert sum(c[f"analytic.case_{k}"] for k in ("I", "II", "III", "IV")) == 122
    assert c["minimize.minimize.calls"] == 0 and c["gridsearch.grid_min.calls"] == 0
    selfs = tracer.self_times()
    assert 0.0 < selfs["cli.main"] < sum(e - s for s, e in zip(tracer.starts, tracer.ends))


def _module_attributes():
    mods = [importlib.import_module(n) for n in tracing.MODULE_NAMES]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("CostModel", k): v for k, v in vars(relot.CostModel).items()})
    return snap


def test_every_wrapped_attribute_is_the_original_again(tmp_path):
    before = _module_attributes()
    originals = {
        "cli.solve_constrained": relot.cli.solve_constrained,
        "pareto.minimize": relot.pareto.minimize,
        "pareto.scalar_subproblem": relot.pareto.scalar_subproblem,
        "pareto.dominance_filter": relot.pareto.dominance_filter,
        "gridsearch.dominance_filter": relot.gridsearch.dominance_filter,
        "analytic.kkt_residual": relot.analytic.kkt_residual,
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        for name, fn in originals.items():
            mod, attr = name.split(".")
            assert getattr(getattr(relot, mod), attr) is not fn, name
        workloads.run_cli(_paper_constrained_config(tmp_path))
        relot.pareto_front(relot.ModelParams(**workloads.SUSTAIN), 4)
        relot.dominance_filter([(0.0, 1.0, 2.0), (1.0, 1.0, 2.0)])
    assert tracer.counts["pareto.pareto_front.calls"] == 1
    assert tracer.counts["minimize.minimize.calls"] > 0
    assert tracer.counts["pareto.dominance_filter.points_in"] >= 2
    after = _module_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_originals_when_a_traced_call_raises():
    before = _module_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(relot.NoKktPointError):
        with tracer.installed():
            relot.solve_constrained(relot.ModelParams(**dict(workloads.PAPER, lam=60.0, k2=1e-9)))
    assert tracer.counts["analytic.errors"] == 1
    after = _module_attributes()
    assert all(after[k] is before[k] for k in before)


# -- hypervolume -----------------------------------------------------------------


def test_hypervolume_of_hand_computed_box_unions():
    ref = (1.0, 1.0, 1.0)
    assert hv.hypervolume([(0.0, 0.0, 0.0)], ref) == 1.0
    # boxes 1 x 1 x 0.5 and 0.5 x 0.5 x 1 overlap in 0.5 x 0.5 x 0.5
    assert hv.hypervolume([(0.0, 0.0, 0.5), (0.5, 0.5, 0.0)], ref) == pytest.approx(0.625)
    # three slabs of half the cube: the union misses only the corner
    # [0, 0.5]^3; a dominated point, a duplicate and a point outside the
    # reference box add nothing
    pts = [(0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)]
    assert hv.hypervolume(pts, ref) == pytest.approx(1.0 - 0.125)
    assert hv.hypervolume(pts + [(0.5, 0.5, 0.5), (0.5, 0.0, 0.0), (2.0, 0.0, 0.0)], ref) == pytest.approx(0.875)
    # two-step staircase at one height: area 0.5 + 0.5 - 0.25, height 0.5
    assert hv.hypervolume([(0.5, 0.0, 0.5), (0.0, 0.5, 0.5)], ref) == pytest.approx(0.75 * 0.5)
    assert hv.hypervolume([], ref) == 0.0


def test_hypervolume_matches_inclusion_exclusion_on_random_points():
    rng = random.Random(3)
    ref = (1.0, 1.0, 1.0)
    for _ in range(20):
        pts = [tuple(rng.random() for _ in range(3)) for _ in range(5)]
        total = 0.0
        for mask in range(1, 1 << len(pts)):
            chosen = [p for i, p in enumerate(pts) if mask >> i & 1]
            corner = [max(p[k] for p in chosen) for k in range(3)]
            total += (-1) ** (len(chosen) + 1) * math.prod(r - c for r, c in zip(ref, corner))
        assert hv.hypervolume(pts, ref) == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_reference_front_scores_one_against_itself():
    params = relot.ModelParams(**workloads.SUSTAIN)
    ref_front = hv.reference_front(relot, params)
    to_rank = hv.rank_map(ref_front)
    ranks = to_rank(ref_front)
    assert ranks.min(axis=0) == pytest.approx([0.0] * 3) and ranks.max(axis=0) == pytest.approx([1.0] * 3)
    assert not hv.dominated_by_any(ranks, ranks).any()  # the map keeps the front non-dominated
    score = hv.front_score(relot, params, [tuple(r) for r in ref_front])
    assert score == pytest.approx(1.0)
    assert hv.front_score(relot, params, [tuple(ref_front[0])]) < 0.5


# -- output checks ---------------------------------------------------------------


def _front_op(tmp_path, floor="loose"):
    pr = workloads.sustain_instance(random.Random(1), floor)
    op = workloads._front_op(tmp_path, 0, pr, floor)
    res = op.call()
    assert op.check(res).failure is None
    return op, res, tmp_path / "o0.json"


def test_corrupted_front_output_is_flagged(tmp_path):
    op, res, out = _front_op(tmp_path)
    doc = json.loads(out.read_text())
    f1 = doc["columns"].index("f1")

    dominated = list(doc["rows"][0])
    dominated[f1] += 1.0
    out.write_text(json.dumps({"columns": doc["columns"], "rows": doc["rows"] + [dominated]}))
    verdict = op.check(res)
    assert verdict.failure == "check" and "dominated" in verdict.reason

    wrong = [list(r) for r in doc["rows"]]
    wrong[-1][f1] *= 1.0 + 1e-6
    out.write_text(json.dumps({"columns": doc["columns"], "rows": wrong}))
    verdict = op.check(res)
    assert verdict.failure == "check" and "f1" in verdict.reason


def test_front_cut_short_is_flagged(tmp_path):
    op, res, out = _front_op(tmp_path, "binding")
    doc = json.loads(out.read_text())
    by_cost = sorted(doc["rows"], key=lambda r: r[doc["columns"].index("f1")])
    assert len(by_cost) - 3 >= workloads.FRONT_MIN_POINTS
    # too few points; enough points but without the low-cost end
    for rows in (doc["rows"][:1], doc["rows"][::3], by_cost[3:]):
        out.write_text(json.dumps({"columns": doc["columns"], "rows": rows}))
        verdict = op.check(res)
        assert verdict.failure == "check" and "coverage" in verdict.reason, len(rows)


def test_degenerate_front_must_have_one_point(tmp_path):
    op, res, out = _front_op(tmp_path, "degenerate")
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 1
    out.write_text(json.dumps({"columns": doc["columns"], "rows": doc["rows"] * 2}))
    assert op.check(res).failure == "check"


def test_corrupted_solve_output_is_flagged(tmp_path):
    params = dict(workloads._json_params(dict(workloads.PAPER, lam=60.0)), **workloads.PAPER_FLOORS)
    doc = {"command": "solve-constrained", "params": params, "sweepVar": "lambda", "sweepRange": workloads.PAPER_SWEEP}
    op = workloads._sweep_op(tmp_path, 0, "solve-constrained", doc, workloads.PAPER_VALUES, "json", reference=True)
    res = op.call()
    assert op.check(res).failure is None
    out = tmp_path / "o0.json"
    table = json.loads(out.read_text())
    f1 = table["columns"].index("f1")
    table["rows"][3][f1] *= 1.001
    out.write_text(json.dumps(table))
    assert op.check(res).failure == "check"


def test_malformed_configs_fail_only_when_they_escape_main(tmp_path):
    ops = [o for o in workloads.build_round("sweep", 2, 0, tmp_path) if o.name == "malformed"]
    assert len(ops) == 4
    verdicts = [o.check(o.call()) for o in ops]
    assert all(v.failure in (None, "raised") for v in verdicts)


def _check_one(op):
    r = run.Run()
    results, _ = run.timed_pass([op])
    run.check_pass(r, [op], results, record_rows=True)
    return r


def test_any_failure_of_a_well_formed_op_is_wrong_output(tmp_path):
    def boom():
        raise RuntimeError("boom")

    ok = workloads.Op("solve", lambda: workloads.CliResult(0, "", "{}"), lambda res: workloads.Outcome())
    assert (_check_one(ok).failed, _check_one(ok).wrong) == (0, 0)
    raised = workloads.Op("solve", boom, ok.check)
    exit1 = workloads.Op("solve", lambda: workloads.CliResult(1, "", "{}"),
                         lambda res: workloads._cli_outcome(res, expect_ok=True)[0] or workloads.Outcome())
    for op in (raised, exit1):
        r = _check_one(op)
        assert (r.failed, r.wrong) == (1, 1), op.name


def test_only_known_tracebacks_of_malformed_configs_are_not_wrong(tmp_path):
    ops = [o for o in workloads.build_round("sweep", 2, 0, tmp_path) if o.name == "malformed"]
    assert sum(o.may_raise for o in ops) == 3
    traceback = workloads.CliResult(TypeError("escaped main"), "", "Traceback")
    for op in ops:
        verdict = op.check(traceback)
        assert verdict.failure == "raised"
        assert op.wrong(verdict) is not op.may_raise
        # exit 0 on a malformed config is wrong for every shape
        assert op.wrong(op.check(workloads.CliResult(0, "", "{}")))


def test_timed_pass_scales_each_stretch_by_its_neighbouring_speed_samples(monkeypatch):
    samples = iter([speed.REF_S, 3 * speed.REF_S, speed.REF_S / 2])
    monkeypatch.setattr(speed, "sample", lambda: next(samples))
    monkeypatch.setattr(speed, "EVERY_S", 0.0)  # one stretch per op
    ops = [workloads.Op("op0", lambda: None, None), workloads.Op("op1", lambda: None, None, speed_exponent=0.5)]
    results, got = run.timed_pass(ops)
    assert got == [speed.REF_S, 3 * speed.REF_S, speed.REF_S / 2]
    (_, dt0, scaled0), (_, dt1, scaled1) = results
    assert scaled0 == pytest.approx(dt0 * 0.5) and scaled1 == pytest.approx(dt1 / 1.75 ** 0.5)
    assert speed.scale(speed.REF_S) == 1.0
    assert speed.scale(4 * speed.REF_S, exponent=0.5) == pytest.approx(0.5)


def test_dominance_check_flags_a_wrong_filter():
    pts = workloads.cloud(random.Random(4), "lattice", 300)
    kept = workloads.pairwise_reference(pts)
    assert workloads.check_survivors(pts, kept) is None
    assert relot.dominance_filter(pts) == kept
    assert workloads.check_survivors(pts, kept[1:]) is not None
    dropped = next(i for i in range(len(pts)) if i not in kept)
    assert workloads.check_survivors(pts, sorted(kept + [dropped])) is not None


def test_plane_cloud_points_all_survive():
    pts = workloads.cloud(random.Random(5), "plane", 500)
    assert all(a + b + c == 1.0 for a, b, c in pts)
    assert workloads.pairwise_reference(pts) == list(range(len(pts)))


# -- inputs ----------------------------------------------------------------------


def _configs(workdir: Path) -> dict:
    return {p.name: p.read_text().replace(str(workdir), "") for p in sorted(workdir.glob("c*.json"))}


def test_inputs_depend_on_the_seed_alone(tmp_path):
    a = [op.name for op in workloads.build_round("sweep", 11, 3, tmp_path / "a")]
    b = [op.name for op in workloads.build_round("sweep", 11, 3, tmp_path / "b")]
    c = [op.name for op in workloads.build_round("sweep", 12, 3, tmp_path / "c")]
    assert a == b
    assert _configs(tmp_path / "a") == _configs(tmp_path / "b")
    assert _configs(tmp_path / "a") != _configs(tmp_path / "c")
    assert len(a) == 80 and a.count("malformed") == 4


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(Path(__file__).parent, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
