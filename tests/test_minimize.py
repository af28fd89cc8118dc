"""Penalty-based pattern-search kernel on analytic and model problems."""

import importlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from relot import CostModel, ScalarProgram, lattice_starts, minimize
from relot.minimize import STEP_MIN, _clip, _Evaluator

from conftest import floor_params, unconstrained_params

# the module, which the package's ``minimize`` function shadows
search = importlib.import_module("relot.minimize")


def _quadratic(cx, cy):
    return lambda x, y: (x - cx) ** 2 + (y - cy) ** 2


class TestUnconstrained:
    def test_interior_minimum(self):
        """minimize (x-3)^2 + (y-4)^2 on [0.5,10]^2 => (3, 4)"""
        prog = ScalarProgram(objective=_quadratic(3.0, 4.0),
                             lower=(0.5, 0.5), upper=(10.0, 10.0))
        res = minimize(prog)
        assert res.feasible
        assert res.decision.Qp == pytest.approx(3.0, abs=1e-6)
        assert res.decision.Qr == pytest.approx(4.0, abs=1e-6)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_boundary_minimum(self):
        """minimizer outside the box clips to the nearest corner"""
        prog = ScalarProgram(objective=_quadratic(3.0, 4.0),
                             lower=(0.25, 0.25), upper=(1.0, 1.0))
        res = minimize(prog)
        assert res.decision.Qp == pytest.approx(1.0, abs=1e-8)
        assert res.decision.Qr == pytest.approx(1.0, abs=1e-8)


class TestConstrained:
    def test_linear_constraint(self):
        """minimize (x-3)^2 + (y-4)^2 s.t. x + y <= 5 => (2, 3)"""
        prog = ScalarProgram(
            objective=_quadratic(3.0, 4.0),
            lower=(0.5, 0.5), upper=(10.0, 10.0),
            constraints=(lambda x, y: x + y - 5.0,),
        )
        res = minimize(prog, lattice=(5, 5))
        assert res.feasible
        assert res.decision.Qp == pytest.approx(2.0, abs=1e-5)
        assert res.decision.Qr == pytest.approx(3.0, abs=1e-5)
        assert res.value == pytest.approx(2.0, rel=1e-6)

    def test_active_constraint_is_met_exactly(self):
        """The penalty does not let the solution drift outside the region."""
        prog = ScalarProgram(
            objective=_quadratic(3.0, 4.0),
            lower=(0.5, 0.5), upper=(10.0, 10.0),
            constraints=(lambda x, y: x + y - 5.0,),
        )
        res = minimize(prog, lattice=(5, 5))
        violation = res.decision.Qp + res.decision.Qr - 5.0
        assert violation <= 1e-8
        assert abs(violation) < 1e-5

    def test_infeasible_program_reports_violation(self):
        """x <= 1 and x >= 2 cannot hold; best compromise sits at x = 1.5."""
        prog = ScalarProgram(
            objective=lambda x, y: y,
            lower=(0.5, 0.5), upper=(10.0, 10.0),
            constraints=(lambda x, y: x - 1.0, lambda x, y: 2.0 - x),
        )
        res = minimize(prog, lattice=(9, 3))
        assert not res.feasible
        assert res.max_violation == pytest.approx(0.5, abs=1e-3)

    def test_nonpositive_lower_bound_rejected(self):
        with pytest.raises(ValueError):
            ScalarProgram(objective=lambda x, y: y, lower=(0.0, 1.0), upper=(10.0, 10.0))


class TestOnCostModel:
    def test_matches_closed_form(self):
        """Pattern search lands on the analytic optimum within 0.1%."""
        from relot import solve_unconstrained

        p = unconstrained_params(45.0)
        cm = CostModel(p)
        prog = ScalarProgram(objective=cm.average_cost,
                             lower=(1.0, 1.0), upper=(200.0, 400.0))
        res = minimize(prog)
        star = solve_unconstrained(p)
        assert res.value == pytest.approx(star.f1, rel=1e-3)
        assert res.decision.Qp == pytest.approx(star.decision.Qp, rel=5e-3)
        assert res.decision.Qr == pytest.approx(star.decision.Qr, rel=5e-3)

    def test_matches_floor_case_analysis(self):
        """Floor constraints as penalty terms reproduce the case solution."""
        from relot import solve_constrained

        p = floor_params(60.0)
        cm = CostModel(p)
        prog = ScalarProgram(
            objective=cm.average_cost,
            lower=(1.0, 1.0), upper=(200.0, 400.0),
            constraints=(
                lambda qp, qr: p.p1 * qp - p.k1,
                lambda qp, qr: cm.repair_load(qp, qr) - p.k2,
            ),
        )
        res = minimize(prog)
        kkt = solve_constrained(p)
        assert res.feasible
        assert res.value == pytest.approx(kkt.f1, rel=1e-2)
        assert cm.repair_load(*res.decision.as_tuple()) <= p.k2 + 1e-6


class TestDeterminism:
    def test_bit_identical_repeats(self):
        prog = ScalarProgram(
            objective=_quadratic(3.0, 4.0),
            lower=(0.5, 0.5), upper=(10.0, 10.0),
            constraints=(lambda x, y: x + y - 5.0,),
        )
        a = minimize(prog, lattice=(5, 5))
        b = minimize(prog, lattice=(5, 5))
        assert a.decision == b.decision
        assert a.value == b.value
        assert a.iterations == b.iterations
        # as the search gave them before it memoized points
        assert (a.decision.Qp.hex(), a.decision.Qr.hex(), a.value.hex(), a.iterations) == (
            "0x1.ffffffa3d7244p+0", "0x1.8000002e146dfp+1", "0x1.0000000000000p+1", 273491)

    def test_each_distinct_point_is_evaluated_once(self):
        """The objective and each constraint run once per distinct point;
        ``iterations`` still counts every evaluation, repeats included."""
        points, checks = Counter(), Counter()

        def objective(x, y):
            points[x, y] += 1
            return (x - 3.0) ** 2 + (y - 4.0) ** 2

        def constraint(x, y):
            checks[x, y] += 1
            return x + y - 5.0

        prog = ScalarProgram(objective=objective, lower=(0.5, 0.5), upper=(10.0, 10.0),
                             constraints=(constraint,))
        res = minimize(prog, lattice=(5, 5))
        assert set(points.values()) == {1}
        assert checks == points
        assert res.iterations > len(points)

    def test_result_bookkeeping(self):
        prog = ScalarProgram(objective=_quadratic(1.0, 1.0),
                             lower=(0.25, 0.25), upper=(2.0, 2.0))
        res = minimize(prog)
        assert res.iterations > 0
        assert res.starts > 0
        assert res.feasible and res.max_violation == 0.0


class TestLatticeStarts:
    def test_grid_shape_and_bounds(self):
        pts = lattice_starts((1.0, 2.0), (100.0, 400.0), (4, 3))
        assert len(pts) == 12
        for x, y in pts:
            assert 1.0 <= x <= 100.0
            assert 2.0 <= y <= 400.0

    def test_deterministic(self):
        assert lattice_starts((1.0, 1.0), (9.0, 9.0), (3, 3)) == lattice_starts(
            (1.0, 1.0), (9.0, 9.0), (3, 3))


# -- the unmemoized search, as the reference ------------------------------------
# _reference_call and _reference_compass are _Evaluator.__call__ without the
# memo and _compass with every neighbour clipped through _clip.  With them
# patched in, minimize evaluates every point each time it visits it.


def _reference_call(self, x):
    self.evals += 1
    f = self.objective(x[0], x[1])
    viol = 0.0
    pen = 0.0
    for c in self.constraints:
        cv = c(x[0], x[1])
        if cv > 0.0:
            pen += cv * cv
            if cv > viol:
                viol = cv
    if viol <= 0.0:
        if self.best_feasible is None or (f, x) < self.best_feasible:
            self.best_feasible = (f, x)
    elif self.best_near is None or (viol, f, x) < self.best_near:
        self.best_near = (viol, f, x)
    return f, viol, pen


def _reference_compass(value, x, lower, upper, step_frac, ev, deadline):
    """Pattern search with step halving from step_frac down to STEP_MIN."""
    width = (upper[0] - lower[0], upper[1] - lower[1])
    step = [step_frac * width[0], step_frac * width[1]]
    floor = (STEP_MIN * width[0], STEP_MIN * width[1])
    fx = value(x)
    while (step[0] > floor[0] or step[1] > floor[1]) and ev.evals < deadline:
        best = None
        for dx, dy in ((step[0], 0.0), (-step[0], 0.0), (0.0, step[1]), (0.0, -step[1])):
            y = _clip((x[0] + dx, x[1] + dy), lower, upper)
            if y == x:
                continue
            fy = value(y)
            if best is None or (fy, y) < best:
                best = (fy, y)
        if best is not None and best[0] < fx:
            fx, x = best
        else:
            step[0] *= 0.5
            step[1] *= 0.5
    return x


def _with_reference_search(call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Evaluator, "__call__", _reference_call)
        mp.setattr(search, "_compass", _reference_compass)
        return call()


def _bits(res):
    return (res.decision.Qp.hex(), res.decision.Qr.hex(), res.value.hex(), res.feasible,
            res.iterations, res.starts, res.max_violation.hex())


positive = st.floats(0.05, 50.0)


@st.composite
def programs(draw):
    """A box, a quadratic objective, 0-2 linear constraints, a start lattice
    up to (3, 3), a small budget and 0-3 seeds, some of them one ulp outside
    the box."""
    lower = (draw(positive), draw(positive))
    upper = tuple(lo * draw(st.floats(1.01, 100.0)) for lo in lower)
    cx = draw(st.floats(0.0, 2.0 * upper[0]))
    cy = draw(st.floats(0.0, 2.0 * upper[1]))
    ay = draw(st.floats(0.1, 2.0))
    constraints = tuple(
        (lambda u, v, w: lambda x, y: u * x + v * y - w)(
            draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(-50.0, 50.0)))
        for _ in range(draw(st.integers(0, 2)))
    )
    prog = ScalarProgram(objective=lambda x, y: (x - cx) ** 2 + ay * (y - cy) ** 2,
                         lower=lower, upper=upper, constraints=constraints)
    outside = st.tuples(*(
        st.sampled_from([math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)])
        for lo, hi in zip(lower, upper)
    ))
    inside = st.tuples(st.floats(lower[0], upper[0]), st.floats(lower[1], upper[1]))
    seeds = draw(st.lists(inside | outside, max_size=3))
    lattice = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return prog, seeds, lattice, draw(st.integers(20, 600))


class TestAgainstUnmemoizedSearch:
    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_every_result_field_is_unchanged(self, case):
        prog, seeds, lattice, budget = case

        def solve():
            return minimize(prog, seeds, lattice=lattice, budget=budget)

        assert _bits(solve()) == _bits(_with_reference_search(solve))

    def test_start_one_ulp_above_the_box(self):
        """The unmoved coordinate of every neighbour is clipped as well, so
        a start just past ``upper`` gives the same path."""
        lower, upper = (1.0, 2.0), (3.0, 7.0)
        prog = ScalarProgram(objective=_quadratic(2.9, 6.9), lower=lower, upper=upper)
        start = (math.nextafter(upper[0], math.inf), math.nextafter(upper[1], math.inf))

        def run():
            ev = _Evaluator(prog)
            x = search._compass(lambda pt: ev(pt)[0], start, lower, upper, 0.1, ev, 1000)
            return x, ev.evals

        got, want = run(), _with_reference_search(run)
        assert got == want
        assert got[0] != start
