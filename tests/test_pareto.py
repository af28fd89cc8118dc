"""Weight handling, dominance filtering and the three-objective front."""

import math
import random

import numpy as np
import pytest

from relot import (
    BatchDecision,
    CostModel,
    DomainError,
    InfeasibleModelError,
    ModelParams,
    ParameterError,
    WeightVector,
    average_cost,
    check_feasibility,
    decision_box,
    dominance_filter,
    ghg_emissions,
    energy_use,
    pareto_front,
    scalar_subproblem,
    solve_unconstrained,
    weight_grid,
)

from conftest import SUSTAIN, UNCON_BASE, unconstrained_params

THIRDS = WeightVector(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def _oracle_filter(triples):
    """Quadratic reference: keep i unless some j is <= everywhere and < somewhere."""
    kept = []
    for i, a in enumerate(triples):
        dominated = False
        for j, b in enumerate(triples):
            if i == j:
                continue
            if all(x <= y for x, y in zip(b, a)) and any(x < y for x, y in zip(b, a)):
                dominated = True
                break
        if not dominated:
            kept.append(i)
    return kept


class TestWeights:
    def test_vector_validation(self):
        with pytest.raises(DomainError):
            WeightVector(0.5, 0.5, 0.1)
        with pytest.raises(DomainError):
            WeightVector(0.0, 0.5, 0.5)

    def test_vector_iterates_in_order(self):
        assert tuple(WeightVector(0.5, 0.25, 0.25)) == (0.5, 0.25, 0.25)


class TestWeightGrid:
    @pytest.mark.parametrize("m,count", [(3, 1), (4, 3), (5, 6), (52, 1275), (53, 1326)])
    def test_counts(self, m, count):
        """interior lattice of the simplex: (m-1)(m-2)/2 points"""
        assert len(weight_grid(m)) == count

    def test_members_are_valid_weights(self):
        for w in weight_grid(7):
            assert min(w) > 0.0
            assert math.isclose(sum(w), 1.0, rel_tol=0.0, abs_tol=1e-12)

    def test_center_for_smallest_grid(self):
        (w,) = weight_grid(3)
        assert tuple(w) == pytest.approx((1 / 3, 1 / 3, 1 / 3), rel=1e-12)

    def test_distinct_and_deterministic(self):
        grid = weight_grid(9)
        assert len({tuple(w) for w in grid}) == len(grid)
        assert [tuple(w) for w in weight_grid(9)] == [tuple(w) for w in grid]


class TestDominanceFilter:
    def test_dominated_point_removed(self):
        assert dominance_filter([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]) == [0]

    def test_incomparable_points_survive(self):
        kept = dominance_filter([(1.0, 3.0, 2.0), (2.0, 1.0, 3.0), (3.0, 2.0, 1.0)])
        assert kept == [0, 1, 2]

    def test_exact_duplicates_survive(self):
        """Equal vectors do not dominate one another."""
        kept = dominance_filter([(1.0, 2.0, 3.0), (1.0, 2.0, 3.0)])
        assert kept == [0, 1]

    def test_partial_tie_is_dominance(self):
        kept = dominance_filter([(1.0, 2.0, 3.0), (1.0, 2.0, 4.0)])
        assert kept == [0]

    def test_random_against_quadratic_oracle(self):
        rng = random.Random(20240814)
        triples = [
            (rng.choice(range(10)) * 1.0, rng.choice(range(10)) * 1.0,
             rng.choice(range(10)) * 1.0)
            for _ in range(1000)
        ]
        assert dominance_filter(triples) == _oracle_filter(triples)

    def test_chunked_path_matches_oracle(self):
        """2600 uniform points: few survivors, each dropped point compared
        against the survivors kept so far only."""
        rng = random.Random(3)
        triples = [
            (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1))
            for _ in range(2600)
        ]
        assert dominance_filter(triples) == _oracle_filter(triples)

    def test_plane_cloud_keeps_every_point(self):
        """x+y+z = 1 in exact binary fractions: nothing dominates anything,
        so every point is compared with every survivor before it."""
        rng = random.Random(7)
        scale = 1 << 20
        triples = []
        for _ in range(3000):
            a = rng.randrange(scale + 1)
            b = rng.randrange(scale + 1 - a)
            triples.append((a / scale, b / scale, (scale - a - b) / scale))
        assert dominance_filter(triples) == list(range(3000))

    def test_empty_and_single_point(self):
        assert dominance_filter([]) == []
        assert dominance_filter([(1.0, 2.0, 3.0)]) == [0]

    @pytest.mark.parametrize("shape", ["uniform", "lattice", "plane"])
    def test_array_input_matches_list_input(self, shape):
        rng = random.Random(11)
        if shape == "uniform":
            triples = [(rng.random(), rng.random(), rng.random()) for _ in range(1500)]
        elif shape == "lattice":
            triples = [(rng.randrange(6) / 2.0, rng.randrange(6) / 2.0, rng.randrange(6) / 2.0)
                       for _ in range(1500)]
        else:
            triples = []
            for _ in range(1500):
                a = rng.randrange(1025)
                b = rng.randrange(1025 - a)
                triples.append((a / 1024, b / 1024, (1024 - a - b) / 1024))
        assert dominance_filter(np.array(triples)) == dominance_filter(triples)

    @pytest.mark.parametrize("arr", [np.ones((4, 2)), np.ones(3), np.ones((2, 3, 1))])
    def test_array_of_wrong_shape_rejected(self, arr):
        with pytest.raises(DomainError):
            dominance_filter(arr)


class TestDecisionBox:
    def test_sustainability_box(self):
        lo, hi = decision_box(ModelParams(**SUSTAIN))
        assert lo[0] == pytest.approx(70.71071418112818, rel=1e-9)
        assert lo[1] == pytest.approx(4.0927532066216505, rel=1e-9)
        assert hi[0] == pytest.approx(192.8473039599675, rel=1e-9)
        assert hi[1] == pytest.approx(613.9129809932475, rel=1e-9)

    def test_box_floor_lower_bound_respects_domain(self):
        """With emission terms the Qp range starts at the M >= eps wall."""
        p = ModelParams(**SUSTAIN)
        lo, _ = decision_box(p)
        assert ghg_emissions(p, lo[0]).M >= 1e-6

    def test_energy_only_box_contains_star(self):
        p = ModelParams(lam=45.0, Wp=120.0, Wr=80.0, Kp=5.5, Kr=2.5, **UNCON_BASE)
        lo, hi = decision_box(p)
        star = solve_unconstrained(p).decision
        assert lo[0] < star.Qp < hi[0]
        assert lo[1] < star.Qr < hi[1]

    def test_floor_cap_below_domain_raises(self):
        p = ModelParams.from_mapping({**ModelParams(**SUSTAIN).to_mapping(), "k1": 50.0})
        with pytest.raises(InfeasibleModelError):
            decision_box(p)


class TestScalarSubproblem:
    def test_unbounded_anchor_reduces_to_plain_minimum(self):
        """An infinite anchor drops every constraint; k=1 is then just f1."""
        p = ModelParams(lam=45.0, Wp=120.0, Wr=80.0, Kp=5.5, Kr=2.5, **UNCON_BASE)
        box = decision_box(p)
        inf = float("inf")
        res = scalar_subproblem(p, THIRDS, 1, (inf, inf, inf), bounds=box)
        star = solve_unconstrained(p)
        assert res.feasible
        assert res.decision.Qp == pytest.approx(star.decision.Qp, rel=1e-3)
        assert res.decision.Qr == pytest.approx(star.decision.Qr, rel=1e-3)
        assert res.value == pytest.approx(star.f1 / 3.0, rel=1e-6)

    def test_feasible_anchor_is_improved_on(self):
        """The subproblem value never exceeds the anchor's own weighted level.

        Every side constraint shares the anchored level of objective k, so
        the anchor must sit where the weighted shifted f2 clears the other
        objectives' minima: the low-Qp end of the box, where the production
        factor is near its floor and emissions are enormous.
        """
        p = ModelParams(**SUSTAIN)
        shifts = (1.0, 15.933333333332625, 1.0)
        qp, qr = 70.71071418112818, 204.63766033108251
        anchor = (average_cost(p, qp, qr), ghg_emissions(p, qp).f2,
                  energy_use(p, BatchDecision(qp, qr)))
        res = scalar_subproblem(p, THIRDS, 2, anchor, shifts=shifts)
        assert res.feasible
        anchored = (anchor[1] + shifts[1]) / 3.0
        assert res.value <= anchored * (1.0 + 1e-9)
        # the side bounds are slack at that level, so the search reaches the
        # global emissions minimizer
        f2_min = ghg_emissions(p, 72.27641798688508).f2
        assert res.value == pytest.approx((f2_min + shifts[1]) / 3.0, rel=1e-5)
        assert abs(res.decision.Qp - 72.27641798688508) < 1e-3

    def test_output_stays_feasible(self):
        p = ModelParams(**SUSTAIN)
        qp, qr = 70.71071418112818, 204.63766033108251
        anchor = (average_cost(p, qp, qr), ghg_emissions(p, qp).f2,
                  energy_use(p, BatchDecision(qp, qr)))
        res = scalar_subproblem(p, THIRDS, 3, anchor,
                                shifts=(1.0, 15.933333333332625, 1.0))
        assert res.feasible
        rep = check_feasibility(p, res.decision, include_emissions_domain=True)
        assert rep.all_ok

    def test_impossible_bound_reports_infeasible(self):
        """Anchored at the emissions minimizer, no point can undercut f2's bound
        while keeping the weighted f1 below it."""
        p = ModelParams(**SUSTAIN)
        anchor = (1390.4031091445936, -14.933333333332625, 3810.8222604986377)
        res = scalar_subproblem(p, THIRDS, 2, anchor,
                                shifts=(1.0, 15.933333333332625, 1.0))
        assert not res.feasible
        assert res.max_violation > 1.0

    def test_prune_with_known_floors_costs_nothing(self):
        p = ModelParams(**SUSTAIN)
        anchor = (1390.4031091445936, -14.933333333332625, 3810.8222604986377)
        floors = (1390.3992319505867, -14.933333333332625, 3810.8167632669715)
        res = scalar_subproblem(p, THIRDS, 2, anchor,
                                shifts=(1.0, 15.933333333332625, 1.0),
                                objective_floors=floors)
        assert not res.feasible
        assert res.iterations == 0
        assert res.value == float("inf")
        assert res.max_violation > 0.0


class TestParetoFront:
    def test_small_grid_geometry(self, sustainability_params):
        """m=7 explores the Qp interval between the cost and emission minima."""
        front = pareto_front(sustainability_params, 7)
        d = front.diagnostics
        assert d.grid_count == 15
        assert d.shifts[0] == 1.0 and d.shifts[2] == 1.0
        assert d.shifts[1] == pytest.approx(15.933333333333335, rel=1e-9)
        assert d.individual_values[0] == pytest.approx(1390.3992319505867, rel=1e-9)
        assert d.individual_values[1] == pytest.approx(-14.933333333333335, rel=1e-9)
        assert d.individual_values[2] == pytest.approx(3810.8167632669715, rel=1e-9)
        assert 5 <= len(front) <= 45
        for pt in front:
            assert 70.71 <= pt.decision.Qp <= 72.28
            assert pt.subproblem in (1, 2, 3)
            assert pt.rank in ("efficient", "weak-efficient")
            assert sum(pt.weight) == pytest.approx(1.0, abs=1e-12)

    def test_front_is_feasible_and_nondominated(self, sustainability_params):
        front = pareto_front(sustainability_params, 7)
        triples = []
        for pt in front:
            rep = check_feasibility(sustainability_params, pt.decision,
                                    include_emissions_domain=True)
            assert rep.all_ok
            triples.append(tuple(pt.objectives))
        assert _oracle_filter(triples) == list(range(len(triples)))

    def test_points_are_repair_batch_optimal(self, sustainability_params):
        """f2 and f3 ignore Qr, so any front point must already hold the
        cheapest Qr for its Qp; otherwise a cheaper twin would dominate it.
        The individual minima hold it too, and their values are exact."""
        p = sustainability_params
        cm = CostModel(p)
        qr_star = solve_unconstrained(p).decision.Qr
        front = pareto_front(p, 7)
        for pt in front:
            best = average_cost(p, pt.decision.Qp, qr_star)
            assert pt.objectives.f1 <= best * (1.0 + 1e-6)
            assert pt.decision.Qr == cm.best_repair(pt.decision.Qp)
        d = front.diagnostics
        funcs = (cm.average_cost, lambda qp, qr: cm.ghg_value(qp), cm.energy_value)
        for f, dec, value in zip(funcs, d.individual_minima, d.individual_values):
            assert dec.Qr == cm.best_repair(dec.Qp)
            assert value == f(dec.Qp, dec.Qr)

    def test_degenerate_objectives_collapse_to_single_point(self):
        """Constant f2 and zero f3 leave only the cost minimizer."""
        deg = ModelParams.from_mapping({
            **ModelParams(**SUSTAIN).to_mapping(),
            "ap": 0.0, "bp": 0.0, "Wp": 0.0, "Wr": 0.0, "Kp": 0.0, "Kr": 0.0,
        })
        front = pareto_front(deg, 5)
        assert len(front) == 1
        pt = front.points[0]
        assert pt.decision.Qp == pytest.approx(70.710714, rel=1e-6)
        assert pt.decision.Qr == pytest.approx(204.637660, rel=1e-6)
        assert pt.objectives.f2 == 1.4
        assert pt.objectives.f3 == 0.0

    def test_deterministic(self, sustainability_params):
        a = pareto_front(sustainability_params, 5)
        b = pareto_front(sustainability_params, 5)
        assert [(pt.decision, tuple(pt.objectives)) for pt in a] == [
            (pt.decision, tuple(pt.objectives)) for pt in b]

    def test_infeasible_model_raises(self):
        p = ModelParams.from_mapping({**ModelParams(**SUSTAIN).to_mapping(), "k1": 50.0})
        with pytest.raises(InfeasibleModelError):
            pareto_front(p, 5)

    def test_needs_all_three_objectives(self):
        with pytest.raises(ParameterError):
            pareto_front(unconstrained_params(45.0), 5)
