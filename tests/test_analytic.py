"""Closed-form optima and the floor-space case analysis."""

import math

import pytest

from relot import (
    BatchDecision,
    CostModel,
    ModelParams,
    NoKktPointError,
    SolverError,
    average_cost,
    gradient_norm,
    kkt_residual,
    solve_constrained,
    solve_unconstrained,
)

from conftest import LAMBDAS, UNCON_BASE, floor_params, unconstrained_params

# Full-precision regression pins for the five repair-rate settings.
UNCON_ROWS = {
    45.0: (30.83132079891037, 115.10111304065322, 74.61016271413838),
    60.0: (30.83132079891037, 54.3462680608135, 156.81257637153885),
    75.0: (30.83132079891037, 44.91826433447183, 188.67683804549725),
    90.0: (30.83132079891037, 40.825328795294496, 206.79610804398692),
    105.0: (30.83132079891037, 38.50822249096159, 218.62798977010905),
}

CON_ROWS = {
    45.0: (29.775625608410106, 115.090071968612, 74.61037014569278, 0.0019013515848200768),
    60.0: (11.134756068377216, 52.294151222627576, 157.78408087077386, 0.7803842671273742),
    75.0: (7.283021743429361, 39.41929801480876, 192.9932932951867, 2.882957186200656),
    90.0: (6.255598678936735, 33.349280707964404, 215.1522977068804, 4.785895878216252),
    105.0: (5.819623042988808, 29.956254279508816, 230.66372972874476, 6.234630489023402),
}


class TestUnconstrained:
    @pytest.mark.parametrize("lam", sorted(UNCON_ROWS))
    def test_closed_form_rows(self, lam):
        sol = solve_unconstrained(unconstrained_params(lam))
        qp, qr, f1 = UNCON_ROWS[lam]
        assert sol.decision.Qp == pytest.approx(qp, rel=1e-12)
        assert sol.decision.Qr == pytest.approx(qr, rel=1e-12)
        assert sol.f1 == pytest.approx(f1, rel=1e-12)

    @pytest.mark.parametrize("lam", sorted(UNCON_ROWS))
    def test_stationarity(self, lam):
        p = unconstrained_params(lam)
        sol = solve_unconstrained(p)
        assert sol.grad_norm < 1e-8
        assert gradient_norm(p, sol.decision) < 1e-8

    def test_gradient_large_away_from_optimum(self):
        """f1 is very flat along Qp, so the 10%-off thresholds differ per axis."""
        p = unconstrained_params(45.0)
        star = solve_unconstrained(p).decision
        assert gradient_norm(p, BatchDecision(star.Qp * 1.1, star.Qr)) > 1e-4
        assert gradient_norm(p, BatchDecision(star.Qp, star.Qr * 1.1)) > 1e-2

    def test_setup_cost_scaling(self):
        """Qp* = sqrt(2*Ap*Dp/(h1+h2*p*r)) doubles when Ap quadruples."""
        base = solve_unconstrained(unconstrained_params(45.0))
        scaled = solve_unconstrained(
            ModelParams(**{**UNCON_BASE, "Ap": 4 * UNCON_BASE["Ap"]}, lam=45.0))
        assert scaled.decision.Qp == pytest.approx(2 * base.decision.Qp, rel=1e-12)
        assert scaled.decision.Qr == pytest.approx(base.decision.Qr, rel=1e-12)

    def test_value_matches_cost_model(self):
        p = unconstrained_params(75.0)
        sol = solve_unconstrained(p)
        assert sol.f1 == pytest.approx(
            average_cost(p, sol.decision.Qp, sol.decision.Qr), rel=1e-12)


class TestConstrained:
    @pytest.mark.parametrize("lam", sorted(CON_ROWS))
    def test_repair_floor_rows(self, lam):
        """Both-floor instance activates the repair floor at every rate."""
        sol = solve_constrained(floor_params(lam))
        qp, qr, f1, lam2 = CON_ROWS[lam]
        assert sol.case == "III"
        assert sol.decision.Qp == pytest.approx(qp, rel=1e-9)
        assert sol.decision.Qr == pytest.approx(qr, rel=1e-9)
        assert sol.f1 == pytest.approx(f1, rel=1e-12)
        assert sol.lambda1 == 0.0
        assert sol.lambda2 == pytest.approx(lam2, rel=1e-6)
        assert sol.lambda2 > 0.0
        assert sol.feasible
        assert sol.kkt_residual < 1e-8

    def test_case_i_interior(self):
        """Slack floors reduce to the unconstrained stationary point."""
        p = ModelParams(lam=45.0, p1=0.5, p2=0.5, **UNCON_BASE)
        sol = solve_constrained(p)
        star = solve_unconstrained(unconstrained_params(45.0))
        assert sol.case == "I"
        assert sol.lambda1 == 0.0 and sol.lambda2 == 0.0
        assert sol.decision == star.decision

    def test_case_ii_supply_floor(self):
        """k1=10, p1=0.5 caps Qp at 20; Qr keeps its stationary value."""
        p = ModelParams(lam=45.0, p1=0.5, k1=10.0, **UNCON_BASE)
        sol = solve_constrained(p)
        assert sol.case == "II"
        assert sol.decision.Qp == 20.0
        assert sol.decision.Qr == pytest.approx(115.10111304065322, rel=1e-12)
        assert sol.lambda1 == pytest.approx(0.015230893710923158, rel=1e-9)
        assert sol.lambda2 == 0.0
        assert sol.f1 == pytest.approx(74.64261725068086, rel=1e-12)

    def test_case_iv_both_floors(self):
        """Multipliers pinned to a 50-digit differentiation of f1 at (4, Qr)."""
        p = ModelParams(lam=45.0, p1=0.5, k1=2.0, p2=0.5, k2=4.5, **UNCON_BASE)
        sol = solve_constrained(p)
        assert sol.case == "IV"
        assert sol.decision.Qp == pytest.approx(4.0, rel=1e-12)
        assert sol.decision.Qr == pytest.approx(112.41428571428574, rel=1e-12)
        assert sol.lambda1 == pytest.approx(0.44502139231634768, rel=1e-9)
        assert sol.lambda2 == pytest.approx(0.47934257543201624, rel=1e-9)
        assert sol.kkt_residual < 1e-8

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_tiny_repair_floor_has_no_kkt_point(self, lam):
        """k2=1e-6 would need a repair multiplier far above 1e12."""
        p = ModelParams(lam=lam, p2=1.0, k2=1e-6, **UNCON_BASE)
        with pytest.raises(NoKktPointError):
            solve_constrained(p)

    def test_near_tie_keeps_both_floors(self):
        """Both floors at 0.99999 of the unconstrained usage: case III's
        point overshoots the supply floor by 1.8e-7, so the answer is case
        IV, feasible to round-off."""
        base = dict(Dp=10.0, Dr=3.896484375, p=0.328125, r=0.296875,
                    lam=10.71533203125, Ap=1.0, Ar=1.0, h1=3.875, h2=6.75,
                    p1=1.0, p2=1.0)
        star = solve_unconstrained(ModelParams(**base)).decision
        cm = CostModel(ModelParams(**base))
        p = ModelParams(**base, k1=0.99999 * star.Qp,
                        k2=0.99999 * cm.repair_load(star.Qp, star.Qr))
        sol = solve_constrained(p)
        assert sol.case == "IV"
        assert sol.lambda1 > 0.0 and sol.lambda2 > 0.0
        cm = CostModel(p)
        assert cm.supply_slack(sol.decision.Qp) >= -1e-12 * p.k1
        assert cm.repair_slack(sol.decision.Qp, sol.decision.Qr) >= -1e-12 * p.k2

    def test_constrained_never_beats_unconstrained(self):
        for lam in sorted(CON_ROWS):
            con = solve_constrained(floor_params(lam))
            unc = solve_unconstrained(unconstrained_params(lam))
            assert con.f1 >= unc.f1 - 1e-12

    def test_floor_space_monotonicity(self):
        """Shrinking the repair floor space can only raise the optimal cost."""
        values = []
        for k2 in (8.0, 10.0, 12.0):
            p = ModelParams(lam=60.0, p1=0.5, p2=0.5, k1=20.0, k2=k2, **UNCON_BASE)
            values.append(solve_constrained(p).f1)
        assert values[0] > values[1] > values[2]


class TestKktResidual:
    def test_small_at_solutions(self):
        for lam in sorted(CON_ROWS):
            p = floor_params(lam)
            sol = solve_constrained(p)
            assert kkt_residual(p, sol.decision, sol.lambda1, sol.lambda2) < 1e-8

    def test_small_at_unconstrained_star(self):
        """The exact gradient vanishes there up to round-off."""
        p = unconstrained_params(45.0)
        star = solve_unconstrained(p).decision
        assert kkt_residual(p, star) < 1e-7

    def test_large_at_perturbed_point(self):
        p = floor_params(60.0)
        sol = solve_constrained(p)
        off = BatchDecision(sol.decision.Qp * 1.1, sol.decision.Qr)
        assert kkt_residual(p, off, sol.lambda1, sol.lambda2) > 1e-3


class TestErrors:
    def test_error_hierarchy(self):
        assert issubclass(SolverError, RuntimeError)
        assert issubclass(NoKktPointError, RuntimeError)
