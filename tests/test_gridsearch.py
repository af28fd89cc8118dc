"""Brute-force lattice oracle: exhaustive minimum and coarse front."""

import random

import numpy as np
import pytest

from relot import (
    CostModel,
    EmptyFeasibleGridError,
    GridSpec,
    ModelParams,
    ParameterError,
    average_cost,
    check_feasibility,
    decision_box,
    default_grid,
    grid_front,
    grid_min,
    solve_constrained,
    solve_unconstrained,
)

from relot import gridsearch
from relot.gridsearch import _BLOCK_CELLS, _scan_min

from conftest import LAMBDAS, SUSTAIN, floor_params, unconstrained_params


def _row_scan(cm, qp_axis, qr_axis, constrained):
    """Reference scan: one Qp row per iteration, the first hit of each
    row's argmin, rows compared as (f1, Qp, Qr) tuples."""
    best = None
    for qp in qp_axis:
        qr = qr_axis
        if constrained:
            if cm.supply_slack(qp) < 0.0:
                continue
            mask = cm.repair_slack(qp, qr) >= 0.0
            if not mask.any():
                continue
            qr = qr[mask]
        values = cm.average_cost(qp, qr)
        pos = int(np.argmin(values))
        cand = (float(values[pos]), float(qp), float(qr[pos]))
        if best is None or cand < best:
            best = cand
    return best


def _lattice(lo, step, n):
    return lo + step * np.arange(n)


class _StubCost:
    """The floors of a real model with a stand-in f1, to force exact ties."""

    def __init__(self, cm, f1):
        self.cm, self.f1 = cm, f1

    def supply_slack(self, qp):
        return self.cm.supply_slack(qp)

    def repair_slack(self, qp, qr):
        return self.cm.repair_slack(qp, qr)

    def average_cost(self, qp, qr):
        return self.f1(*np.broadcast_arrays(qp, qr))


def _oracle_filter(triples):
    kept = []
    for i, a in enumerate(triples):
        if not any(
            all(x <= y for x, y in zip(b, a)) and any(x < y for x, y in zip(b, a))
            for j, b in enumerate(triples) if j != i
        ):
            kept.append(i)
    return kept


class TestGridSpec:
    def test_axes_inclusive(self):
        spec = GridSpec((1.0, 2.0), (1.0, 3.0), 0.5)
        assert list(spec.qp_axis()) == [1.0, 1.5, 2.0]
        assert list(spec.qr_axis()) == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert spec.cells == 15

    @pytest.mark.parametrize("qp_range,qr_range,step", [
        ((2.0, 1.0), (1.0, 3.0), 0.5),
        ((1.0, 2.0), (1.0, 3.0), 0.0),
        ((1.0, 2.0), (1.0, 3.0), -1.0),
        ((-1.0, 2.0), (1.0, 3.0), 0.5),
    ])
    def test_bad_spec_rejected(self, qp_range, qr_range, step):
        with pytest.raises(ParameterError):
            GridSpec(qp_range, qr_range, step)

    def test_cell_budget_guard(self):
        """[1,60]x[1,200] at a 0.01 scan step is 1.17e8 cells: over budget."""
        with pytest.raises(ParameterError):
            GridSpec((1.0, 60.0), (1.0, 200.0), 0.01)

    def test_default_grid_spans_three_optima(self):
        p = unconstrained_params(45.0)
        star = solve_unconstrained(p).decision
        spec = default_grid(p)
        assert spec.qp_range[1] == pytest.approx(3.0 * star.Qp, rel=1e-12)
        assert spec.qr_range[1] == pytest.approx(3.0 * star.Qr, rel=1e-12)
        assert spec.step == 1.0


class TestGridMin:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_two_stage_matches_closed_form(self, lam):
        p = unconstrained_params(lam)
        dec, val = grid_min(p, default_grid(p))
        star = solve_unconstrained(p)
        assert val == pytest.approx(star.f1, rel=1e-6)
        assert dec.Qp == pytest.approx(star.decision.Qp, abs=0.01)
        assert dec.Qr == pytest.approx(star.decision.Qr, abs=0.01)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_constrained_matches_case_analysis(self, lam):
        p = floor_params(lam)
        dec, val = grid_min(p, default_grid(p), constrained=True)
        kkt = solve_constrained(p)
        assert val == pytest.approx(kkt.f1, rel=1e-4)
        cm = CostModel(p)
        assert cm.supply_slack(dec.Qp) >= 0.0
        assert cm.repair_slack(dec.Qp, dec.Qr) >= 0.0

    def test_coarse_scan_without_refinement(self):
        p = unconstrained_params(45.0)
        dec, val = grid_min(p, default_grid(p), refine=False)
        star = solve_unconstrained(p)
        assert val == pytest.approx(star.f1, rel=1e-3)
        assert dec.Qp == pytest.approx(star.decision.Qp, abs=1.0)

    def test_single_cell_grid(self):
        p = unconstrained_params(45.0)
        dec, val = grid_min(p, GridSpec((30.83, 30.84), (115.10, 115.11), 1.0))
        assert dec.Qp == 30.83 and dec.Qr == 115.10
        assert val == pytest.approx(average_cost(p, 30.83, 115.10), rel=1e-12)

    def test_no_feasible_cell_raises(self):
        p = ModelParams.from_mapping(
            {**floor_params(60.0).to_mapping(), "k1": 0.001})
        with pytest.raises(EmptyFeasibleGridError):
            grid_min(p, default_grid(p), constrained=True)

    def test_exhaustive_against_plain_loop(self):
        """Vectorised scan equals a literal double loop on random windows."""
        p = unconstrained_params(45.0)
        cm = CostModel(p)
        rng = random.Random(42)
        for _ in range(20):
            lo_p = rng.uniform(5.0, 40.0)
            lo_r = rng.uniform(10.0, 150.0)
            spec = GridSpec((lo_p, lo_p + rng.uniform(2.0, 20.0)),
                            (lo_r, lo_r + rng.uniform(2.0, 50.0)),
                            rng.uniform(0.3, 2.0))
            dec, val = grid_min(p, spec, refine=False)
            best = min(
                (cm.average_cost(float(qp), float(qr)), float(qp), float(qr))
                for qp in spec.qp_axis() for qr in spec.qr_axis()
            )
            assert val == pytest.approx(best[0], rel=1e-12)
            assert dec.Qp == pytest.approx(best[1], rel=1e-12)
            assert dec.Qr == pytest.approx(best[2], rel=1e-12)


class TestBlockedScan:
    """The blocked scan equals the per-row reference exactly: the same
    cell, the same float, and on constrained lattices the same cells
    evaluated."""

    @pytest.mark.parametrize("constrained", [False, True])
    def test_rows_longer_than_a_block(self, constrained):
        cm = CostModel(floor_params(60.0))
        qr_axis = _lattice(0.5, 0.004, _BLOCK_CELLS + 1001)
        assert _BLOCK_CELLS // qr_axis.size == 0  # one row per block
        qp_axis = _lattice(37.0, 0.7, 7)  # the last rows break the supply floor
        got = _scan_min(cm, qp_axis, qr_axis, constrained)
        assert got == _row_scan(cm, qp_axis, qr_axis, constrained)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("constrained", [False, True])
    def test_many_rows_per_block_with_ragged_last_block(self, lam, constrained):
        cm = CostModel(floor_params(lam))
        qr_axis = _lattice(1.0, 0.5, 159)
        qp_axis = _lattice(1.0, 0.1, 591)
        rows = _BLOCK_CELLS // qr_axis.size
        assert rows > 100 and qp_axis.size % rows
        got = _scan_min(cm, qp_axis, qr_axis, constrained)
        assert got == _row_scan(cm, qp_axis, qr_axis, constrained)

    def test_supply_cap_inside_a_block_and_empty_blocks(self):
        """k1/p1 = 40 cuts the fourth block of 103 rows; the two blocks after
        it have no feasible cell, and the repair floor cuts every row."""
        cm = CostModel(floor_params(60.0))
        qr_axis = _lattice(1.0, 0.5, 159)
        qp_axis = _lattice(1.0, 0.1, 591)
        rows = _BLOCK_CELLS // qr_axis.size
        supply_ok = cm.supply_slack(qp_axis) >= 0.0
        assert 3 * rows < np.argmin(supply_ok) < 4 * rows
        assert not (cm.repair_slack(qp_axis[:, None], qr_axis) >= 0.0).all(axis=1).any()
        got = _scan_min(cm, qp_axis, qr_axis, True)
        assert got == _row_scan(cm, qp_axis, qr_axis, True)
        assert got[1] < 40.0

    def test_no_feasible_block(self):
        cm = CostModel(floor_params(60.0))
        qp_axis = _lattice(40.5, 0.1, 300)
        assert _scan_min(cm, qp_axis, _lattice(1.0, 0.5, 159), True) is None

    @pytest.mark.parametrize("f1", [
        lambda qp, qr: np.zeros(qp.shape),
        lambda qp, qr: np.full(qp.shape, np.inf),
        lambda qp, qr: np.floor(np.abs(qr - 30.0) / 5.0),
        lambda qp, qr: np.floor(np.abs(qp - 20.0) / 3.0) + np.floor(np.abs(qr - 30.0) / 5.0),
    ], ids=["constant", "infinite", "ties-across-rows", "ties-in-both-axes"])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_exact_ties(self, f1, constrained):
        """Plateaus of equal f1 within rows and across blocks: the smallest
        Qp wins, then the smallest Qr; an infinite minimum keeps the first
        feasible cell."""
        cm = _StubCost(CostModel(floor_params(60.0)), f1)
        qr_axis = _lattice(1.0, 0.5, 159)
        qp_axis = _lattice(1.0, 0.1, 591)
        got = _scan_min(cm, qp_axis, qr_axis, constrained)
        assert got == _row_scan(cm, qp_axis, qr_axis, constrained)

    def test_constrained_scan_evaluates_the_same_cells(self, monkeypatch):
        cm = CostModel(floor_params(75.0))
        qr_axis = _lattice(1.0, 0.5, 159)
        qp_axis = _lattice(1.0, 0.1, 591)
        evaluated = []
        average_cost = CostModel.average_cost

        def counted(self, qp, qr):
            values = average_cost(self, qp, qr)
            evaluated.append(np.size(values))
            return values

        monkeypatch.setattr(CostModel, "average_cost", counted)
        _scan_min(cm, qp_axis, qr_axis, True)
        blocked = sum(evaluated)
        evaluated.clear()
        _row_scan(cm, qp_axis, qr_axis, True)
        assert blocked == sum(evaluated)
        assert 0 < blocked < qp_axis.size * qr_axis.size

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("constrained", [False, True])
    def test_grid_min_equals_row_scan(self, monkeypatch, lam, constrained):
        """Both stages, through grid_min, on the default lattices."""
        p = floor_params(lam)
        got = grid_min(p, default_grid(p), constrained)
        monkeypatch.setattr(gridsearch, "_scan_min", _row_scan)
        assert got == grid_min(p, default_grid(p), constrained)


class TestGridFront:
    def test_needs_sustainability_terms(self):
        p = unconstrained_params(45.0)
        with pytest.raises(ParameterError):
            grid_front(p, default_grid(p))

    def test_equals_per_cell_scan(self):
        """The masked scan equals a literal per-cell loop, exactly: order,
        decisions and objective floats.  The lattice straddles the M floor,
        the supply floor and the repair floor, which binds on the front."""
        p = ModelParams(**{**SUSTAIN, "k1": 72.55, "k2": 43.5})
        cm = CostModel(p)
        spec = GridSpec((70.5, 73.0), (202.0, 205.0), 0.1)
        cells, triples = [], []
        for qp in spec.qp_axis().tolist():
            for qr in spec.qr_axis().tolist():
                if (cm.production_factor(qp) >= 1e-6 and cm.supply_slack(qp) >= 0.0
                        and cm.repair_slack(qp, qr) >= 0.0):
                    cells.append((qp, qr))
                    triples.append((cm.average_cost(qp, qr), cm.ghg_value(qp),
                                    cm.energy_value(qp, qr)))
        want = [(cells[i], triples[i]) for i in _oracle_filter(triples)]
        got = [(dec.as_tuple(), vec.as_tuple()) for dec, vec in grid_front(p, spec)]
        assert len(want) >= 5
        assert got == want

    def test_coarse_front_properties(self):
        p = ModelParams(**SUSTAIN)
        lo, hi = decision_box(p)
        front = grid_front(p, GridSpec((lo[0], hi[0]), (lo[1], hi[1]), 5.0))
        assert front
        triples = [tuple(v) for _, v in front]
        assert _oracle_filter(triples) == list(range(len(triples)))
        for dec, vec in front:
            rep = check_feasibility(p, dec, include_emissions_domain=True)
            assert rep.all_ok
            assert vec.f1 == pytest.approx(average_cost(p, dec.Qp, dec.Qr), rel=1e-12)

    def test_front_trades_cost_against_emissions(self):
        """Sorted by Qp, f1 and f3 rise while f2 falls toward its minimum."""
        p = ModelParams(**SUSTAIN)
        lo, hi = decision_box(p)
        front = sorted(grid_front(p, GridSpec((lo[0], 72.3), (lo[1], hi[1]), 0.25)),
                       key=lambda item: item[0].Qp)
        assert len(front) >= 3
        qps = [dec.Qp for dec, _ in front]
        f2s = [vec.f2 for _, vec in front]
        f3s = [vec.f3 for _, vec in front]
        assert qps == sorted(qps)
        assert all(a > b for a, b in zip(f2s, f2s[1:]))
        assert all(a < b for a, b in zip(f3s, f3s[1:]))

    def test_degenerate_instance_single_point(self):
        deg = ModelParams.from_mapping({
            **ModelParams(**SUSTAIN).to_mapping(),
            "ap": 0.0, "bp": 0.0, "Wp": 0.0, "Wr": 0.0, "Kp": 0.0, "Kr": 0.0,
        })
        lo, hi = decision_box(ModelParams(**SUSTAIN))
        front = grid_front(deg, GridSpec((lo[0], hi[0]), (lo[1], hi[1]), 5.0))
        assert len(front) == 1
        dec, vec = front[0]
        assert vec.f2 == 1.4 and vec.f3 == 0.0

    def test_empty_feasible_region_raises(self):
        p = ModelParams(**SUSTAIN)
        with pytest.raises(EmptyFeasibleGridError):
            grid_front(p, GridSpec((1.0, 60.0), (1.0, 60.0), 5.0))
