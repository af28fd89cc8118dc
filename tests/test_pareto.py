"""Weight handling, dominance filtering and the three-objective front."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

import relot.pareto
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
from relot.pareto import COINCIDENCE_RTOL, _collapse, _energy_edge, _feasible_decision

from conftest import SUSTAIN, SUSTAIN_BINDING, UNCON_BASE, unconstrained_params

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

    @pytest.mark.xfail(strict=True, reason="weights of at least 1/m never admit x_1*, "
                       "so the emitted front stops short of the cost minimizer")
    def test_front_reaches_the_cost_minimizer(self, sustainability_params):
        """x_1* is efficient as the unique f1 minimum, so the front should
        reach it; at m=6 the smallest emitted Qp is 70.7587 against 70.7107."""
        front = pareto_front(sustainability_params, 6)
        qp_star = front.diagnostics.individual_minima[0].Qp
        lowest = min(pt.decision.Qp for pt in front)
        assert lowest - qp_star <= COINCIDENCE_RTOL * lowest


def _record(gi, qp, qr, objectives):
    return (gi, 1, BatchDecision(Qp=qp, Qr=qr), objectives, "weak-efficient")


def _first_fit(records):
    """The earlier collapse: each record joins the first kept slot it is
    coincident with, in record order."""
    slots = []
    for rec in records:
        if not any(relot.pareto._coincident(rec[2], s[2], COINCIDENCE_RTOL) for s in slots):
            slots.append(rec)
    return slots


class TestCollapse:
    RHO = COINCIDENCE_RTOL

    def test_runs_do_not_chain(self):
        """Three decisions 0.6 rho apart form two runs in every order; the
        first-fit rule chains them into one when the middle one comes first."""
        q = 100.0
        qps = (q, q * (1 + 0.6 * self.RHO), q * (1 + 1.2 * self.RHO))
        for order in itertools.permutations(range(3)):
            records = [_record(gi, qps[j], 50.0, (float(j), 0.0, 0.0))
                       for gi, j in enumerate(order)]
            kept = _collapse(records)
            assert sorted(rec[2].Qp for rec in kept) == [qps[0], qps[2]], order
        middle_first = [_record(gi, qps[j], 50.0, (float(j), 0.0, 0.0))
                        for gi, j in enumerate((1, 0, 2))]
        assert len(_first_fit(middle_first)) == 1

    def test_equal_objectives_keep_the_earliest(self):
        records = [
            _record(0, 100.0 * (1 + 0.5 * self.RHO), 50.0, (1.0, 2.0, 3.0)),
            _record(1, 100.0, 50.0, (1.0, 2.0, 3.0)),
            _record(2, 100.0 * (1 + 0.2 * self.RHO), 50.0, (1.0, 2.0, 3.0)),
        ]
        assert _collapse(records) == [records[0]]

    def test_runs_follow_their_earliest_record(self):
        """Run {0, 3} comes first although record 3 is its keeper and the
        other run holds the smaller Qp."""
        records = [
            _record(0, 200.0, 40.0, (5.0, 0.0, 0.0)),
            _record(1, 100.0, 50.0, (5.0, 0.0, 0.0)),
            _record(2, 100.0, 50.0, (4.0, 0.0, 0.0)),
            _record(3, 200.0, 40.0, (3.0, 0.0, 0.0)),
            _record(4, 300.0, 30.0, (3.0, 0.0, 0.0)),
        ]
        assert _collapse(records) == [records[3], records[2], records[4]]

    def test_repair_batch_apart_is_not_coincident(self):
        """Equal Qp with repair batches further apart than rho: two runs."""
        records = [
            _record(0, 100.0, 50.0, (1.0, 0.0, 0.0)),
            _record(1, 100.0, 50.0 * (1 + 2 * self.RHO), (2.0, 0.0, 0.0)),
        ]
        assert _collapse(records) == records


# The SUSTAIN front at m=6: Qp, Qr, f1, f2, f3 as float.hex, rank,
# subproblem.  Subproblem-1 and -2 points are as the searched-only
# construction gave them.  Subproblem-3 points sit at the edge of their
# levels; each Qp is within 2 ulp of a 50-digit root of its binding level
# (test_pinned_edges_solve_their_levels_at_50_digits).
SUSTAIN_M6_FRONT = (
    ("0x1.211b0d5116ca5p+6", "0x1.99467b6a37e96p+7", "0x1.5b99cc8a4d298p+10", "-0x1.ddddddddddddfp+3", "0x1.dc5a4ff5406b1p+11", "weak-efficient", 2),
    ("0x1.1b08f5b4121b8p+6", "0x1.99467b6a37e96p+7", "0x1.5b998ec9e55cep+10", "0x1.dbfad87dc78d7p+13", "0x1.dc5a2459d4c18p+11", "weak-efficient", 3),
    ("0x1.1b269731d2934p+6", "0x1.99467b6a37e96p+7", "0x1.5b998fdca108dp+10", "0x1.645ccd09011f0p+12", "0x1.dc5a253569ee8p+11", "weak-efficient", 3),
    ("0x1.1b4b30eee134ap+6", "0x1.99467b6a37e96p+7", "0x1.5b99913171ff6p+10", "0x1.3ba9021af7601p+11", "0x1.dc5a264446631p+11", "weak-efficient", 3),
    ("0x1.1b8c1b53a1230p+6", "0x1.99467b6a37e96p+7", "0x1.5b999391e3b64p+10", "0x1.d482d87dc8b8bp+9", "0x1.dc5a2823ac642p+11", "weak-efficient", 3),
    ("0x1.1b104e8d38538p+6", "0x1.99467b6a37e96p+7", "0x1.5b998f0deb0f6p+10", "0x1.64dc4480781e3p+13", "0x1.dc5a24904d6ecp+11", "weak-efficient", 3),
    ("0x1.1b3742d58f59ap+6", "0x1.99467b6a37e96p+7", "0x1.5b999077a923ap+10", "0x1.da7c721762585p+11", "0x1.dc5a25b0d57c9p+11", "weak-efficient", 3),
    ("0x1.1b588ccbad8bep+6", "0x1.99467b6a37e96p+7", "0x1.5b9991ae3ddd4p+10", "0x1.f15003e4f9073p+10", "0x1.dc5a26a708d42p+11", "weak-efficient", 1),
    ("0x1.1b76503430d96p+6", "0x1.99467b6a37e96p+7", "0x1.5b9992c50edcdp+10", "0x1.39ab243d19cdfp+10", "0x1.dc5a2782df929p+11", "weak-efficient", 3),
    ("0x1.1b1723f4f867dp+6", "0x1.99467b6a37e96p+7", "0x1.5b998f4d3ec48p+10", "0x1.197b088e77aa6p+13", "0x1.dc5a24c2f3c7ap+11", "weak-efficient", 1),
    ("0x1.1b1c7a3b1493bp+6", "0x1.99467b6a37e96p+7", "0x1.5b998f7ebe084p+10", "0x1.db7b6106510eap+12", "0x1.dc5a24ea7fdc3p+11", "weak-efficient", 3),
    ("0x1.1b563282726d4p+6", "0x1.99467b6a37e96p+7", "0x1.5b9991983f680p+10", "0x1.02e50029d247fp+11", "0x1.dc5a2695a53f5p+11", "weak-efficient", 1),
    ("0x1.1b279bb85695ap+6", "0x1.99467b6a37e96p+7", "0x1.5b998fe615680p+10", "0x1.5ad9daf4e9156p+12", "0x1.dc5a253cf35cap+11", "weak-efficient", 1),
)


# SUSTAIN_BINDING at m=6, same columns and provenance.  Its repair floor
# binds, so Qr varies along the front.
SUSTAIN_BINDING_M6_FRONT = (
    ("0x1.211b0d5116ca5p+6", "0x1.22b1e0a41b869p+7", "0x1.701dfef93877ap+10", "-0x1.ddddddddddddfp+3", "0x1.dc5a4ff5406b1p+11", "weak-efficient", 2),
    ("0x1.1b08f5b4121b8p+6", "0x1.35e8945659b4fp+7", "0x1.691cf5b1d03d2p+10", "0x1.dbfad87dc78d7p+13", "0x1.dc5a2459d4c18p+11", "weak-efficient", 3),
    ("0x1.1b269731d2934p+6", "0x1.358acc41f2259p+7", "0x1.693aa48bda0abp+10", "0x1.645ccd09011f0p+12", "0x1.dc5a253569ee8p+11", "weak-efficient", 3),
    ("0x1.1b4b30eee134ap+6", "0x1.3516f509051f3p+7", "0x1.695f88fa48726p+10", "0x1.3ba9021af7601p+11", "0x1.dc5a264446631p+11", "weak-efficient", 3),
    ("0x1.1b8c1b53a1230p+6", "0x1.34497fd1d3bd4p+7", "0x1.69a196decb3d2p+10", "0x1.d482d87dc8b8bp+9", "0x1.dc5a2823ac642p+11", "weak-efficient", 3),
    ("0x1.1b104e8d38538p+6", "0x1.35d15373df770p+7", "0x1.69244def4e82bp+10", "0x1.64dc4480781e3p+13", "0x1.dc5a24904d6ecp+11", "weak-efficient", 3),
    ("0x1.1b3742d58f59ap+6", "0x1.3556092da312fp+7", "0x1.694b6a37557a6p+10", "0x1.da7c721762585p+11", "0x1.dc5a25b0d57c9p+11", "weak-efficient", 3),
    ("0x1.1b76503430d96p+6", "0x1.348e79be4a547p+7", "0x1.698b5322a57c0p+10", "0x1.39ab243d19cdfp+10", "0x1.dc5a2782df929p+11", "weak-efficient", 3),
    ("0x1.1b1c7a3b1493bp+6", "0x1.35aace5401404p+7", "0x1.69307e4b0b0f2p+10", "0x1.db7b6106510eap+12", "0x1.dc5a24ea7fdc3p+11", "weak-efficient", 3),
    ("0x1.1b52e5dbd414ap+6", "0x1.34fe90b9cc1a2p+7", "0x1.696755da1179bp+10", "0x1.124857a71ab2ap+11", "0x1.dc5a267d41957p+11", "weak-efficient", 1),
    ("0x1.1b257641c5068p+6", "0x1.358e5ebed55a2p+7", "0x1.6939825420e3bp+10", "0x1.6f5beb043591bp+12", "0x1.dc5a252d0dfcdp+11", "weak-efficient", 1),
)


def _front_hex(front):
    return tuple(
        (pt.decision.Qp.hex(), pt.decision.Qr.hex(), *(v.hex() for v in pt.objectives),
         pt.rank, pt.subproblem)
        for pt in front
    )


def _no_search(*args, **kwargs):
    raise AssertionError("a subproblem was searched numerically")


class TestExactSubproblems:
    def test_degenerate_front_runs_no_search(self, monkeypatch):
        """Criterion 7's instance: x_1* meets every level it is asked about,
        and every other subproblem is provably empty."""
        monkeypatch.setattr(relot.pareto, "minimize", _no_search)
        deg = ModelParams(**dict(SUSTAIN, ap=0.0, bp=0.0, Wp=0.0, Wr=0.0, Kp=0.0, Kr=0.0))
        front = pareto_front(deg, 12)
        d = front.diagnostics
        assert len(front) == 1
        assert d.solved == 0
        assert d.exact > 0
        assert d.exact + d.skipped_infeasible == 3 * d.grid_count
        assert front.points[0].decision == d.individual_minima[0]

    def test_tied_levels_count_as_met(self, monkeypatch):
        """f2 and f3 constant and bit-equal: at w2 == w3 the level of
        subproblem 2 (and 3) equals the other's weighted value exactly, and
        a met level includes equality."""
        monkeypatch.setattr(relot.pareto, "minimize", _no_search)
        flat = dict(SUSTAIN, ap=0.0, bp=0.0, Wp=0.0)
        cm = CostModel(ModelParams(**flat))
        flat["cp"] = cm.energy_value(71.0, 200.0)
        p = ModelParams(**flat)
        cm = CostModel(p)
        assert cm.ghg_value(75.0) == cm.energy_value(72.0, 150.0) == flat["cp"]
        front = pareto_front(p, 5)
        d = front.diagnostics
        assert d.shifts == (0.0, 0.0, 0.0)
        assert WeightVector(0.2, 0.4, 0.4) in weight_grid(5)
        assert d.solved == 0
        assert d.exact + d.skipped_infeasible == 3 * d.grid_count
        assert len(front) == 1

    def test_sustain_front_is_unchanged(self, sustainability_params):
        front = pareto_front(sustainability_params, 6)
        assert _front_hex(front) == SUSTAIN_M6_FRONT
        d = front.diagnostics
        assert (d.solved, d.exact, d.skipped_infeasible) == (4, 18, 8)
        assert (d.recorded, d.deduplicated, d.front_size) == (22, 9, 13)

    def test_binding_front_is_unchanged(self):
        """A binding repair floor moves Qr along the front, so coincidence
        there depends on Qr as well as Qp."""
        front = pareto_front(ModelParams(**SUSTAIN_BINDING), 6)
        assert _front_hex(front) == SUSTAIN_BINDING_M6_FRONT
        d = front.diagnostics
        assert (d.solved, d.exact, d.skipped_infeasible) == (2, 18, 10)
        assert (d.recorded, d.deduplicated, d.front_size) == (20, 9, 11)

    @pytest.mark.parametrize("instance,size,counts,digest", [
        (SUSTAIN, 61, (55, 23, 98, 44, 121, 60, 61),
         "94100837c3b5569f0346f8196ca9d1af33c56e7b9bf7c2f1ee1a481afb26b64c"),
        (SUSTAIN_BINDING, 51, (55, 13, 97, 55, 110, 59, 51),
         "64c9c6bc6e7a0d70cbd2eeacc76c334a670dad04fa208500e75a3618f92e262e"),
    ], ids=["loose", "binding"])
    def test_m12_front_is_unchanged(self, instance, size, counts, digest):
        """The m=12 fronts, subproblem-1 and -2 points as the unmemoized
        search gave them and subproblem-3 points at their level edges: the
        diagnostic counts (grid, solved, exact, skipped, recorded,
        deduplicated, size) and a sha256 over each point's Qp, Qr, f1-f3 as
        float.hex, its rank and its subproblem."""
        front = pareto_front(ModelParams(**instance), 12)
        d = front.diagnostics
        assert len(front) == size
        assert (d.grid_count, d.solved, d.exact, d.skipped_infeasible,
                d.recorded, d.deduplicated, d.front_size) == counts
        assert hashlib.sha256(repr(_front_hex(front)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("instance,searches,screens",
                             [(SUSTAIN, 4, 58), (SUSTAIN_BINDING, 2, 40)],
                             ids=["loose", "binding"])
    def test_screened_subproblems_are_empty(self, instance, searches, screens, monkeypatch):
        """Certificate of the screen.  Wherever x_k* misses the anchored
        level and the level lies below another objective's weighted
        individual minimum, a full search with the front's shifts, bounds
        and seeds finds no feasible point.  Every other subproblem-1 or -2
        anchor tried is searched, once; subproblem 3 is never searched."""
        p = ModelParams(**instance)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return scalar_subproblem(*args, **kwargs)

        monkeypatch.setattr(relot.pareto, "scalar_subproblem", counted)
        d = pareto_front(p, 6).diagnostics
        assert len(calls) == d.solved == searches
        assert all(k != 3 for _, k in calls)

        c = _Certificate(p)
        screened = 0
        for w, k, anchor, level in c.subproblems(6):
            if c.met_by_minimizer(w, k, level) or not c.screened(w, k, level):
                continue
            screened += 1
            assert not c.search(w, k, anchor).feasible, (w, k, anchor)
        assert screened == screens

    @pytest.mark.parametrize("instance", [SUSTAIN, SUSTAIN_BINDING], ids=["loose", "binding"])
    def test_no_search_beats_a_minimizer_that_meets_the_levels(self, instance):
        """Optimality certificate of the exact answer.  Wherever x_k* meets
        the anchored levels, the numeric search of that subproblem, run with
        the front's own shifts, bounds and seeds, returns a feasible
        point no better than x_k*."""
        c = _Certificate(ModelParams(**instance))
        met = 0
        for w, k, anchor, level in c.subproblems(6, candidates=c.all_anchors):
            if not c.met_by_minimizer(w, k, level):
                continue
            met += 1
            sub = c.search(w, k, anchor)
            exact = c.weighted(w, k - 1, c.minima[k - 1])
            assert sub.feasible, (w, k, anchor)
            assert sub.value >= exact - 1e-12 * abs(exact), (w, k, anchor)
        assert met == 20  # the front takes x_k* 10 times; its other 8 exact answers are edges

    @pytest.mark.parametrize("instance,decided", [(SUSTAIN, (32, 0)), (SUSTAIN_BINDING, (24, 0))],
                             ids=["loose", "binding"])
    def test_energy_edge_is_optimal(self, instance, decided):
        """Optimality certificate of subproblem 3's level edge, over every
        weight and every feasible anchor candidate that neither x_3* nor the
        screen decides.  An edge meets both levels and the float below it
        misses one of them or leaves the box; the numeric search, run with
        the front's shifts, bounds and seeds, finds no lower f3.  Where the
        rule finds no edge, the search finds no feasible point."""
        c = _Certificate(ModelParams(**instance))
        answered = empty = 0
        for w, k, anchor, level in c.subproblems(6):
            if k != 3 or c.met_by_minimizer(w, k, level) or c.screened(w, k, level):
                continue
            qp = _energy_edge(c.cm, w.as_tuple(), c.shifts, level, c.qp_lo, c.minima)
            sub = c.search(w, k, anchor)
            if qp is None:
                empty += 1
                assert not sub.feasible, (w, anchor)
                continue
            answered += 1
            below = math.nextafter(qp, 0.0)
            assert all(c.weighted(w, i, c.line(qp)) <= level for i in (0, 1))
            assert below < c.qp_lo or any(c.weighted(w, i, c.line(below)) > level for i in (0, 1))
            assert sub.feasible, (w, anchor)
            f3 = c.cm.energy_value(qp, c.cm.best_repair(qp))
            assert c.cm.energy_value(*sub.decision.as_tuple()) >= f3 - 1e-12 * abs(f3), (w, anchor)
        assert (answered, empty) == decided

    @pytest.mark.parametrize("instance", [SUSTAIN, SUSTAIN_BINDING], ids=["loose", "binding"])
    def test_parted_levels_leave_subproblem_3_empty(self, instance):
        """No anchor of the m=6 fronts parts the levels, so the empty
        verdict is certified on levels set just above both weighted
        individual minima: the f1 level then holds only near x_1* and the
        f2 level only near x_2*.  The rule finds no edge, and the numeric
        search with the front's shifts, bounds and seeds finds no feasible
        point."""
        c = _Certificate(ModelParams(**instance))
        for w in weight_grid(6):
            wt = w.as_tuple()
            level = max(c.weighted(w, i, c.minima[i]) for i in (0, 1)) * (1.0 + 1e-9)
            assert _energy_edge(c.cm, wt, c.shifts, level, c.qp_lo, c.minima) is None
            sub = scalar_subproblem(
                c.p, w, 3, (math.inf, math.inf, level / wt[2] - c.shifts[2]),
                shifts=c.shifts, bounds=c.bounds, seeds=[m.as_tuple() for m in c.minima],
            )
            assert not sub.feasible, w

    @pytest.mark.parametrize("instance,pinned", [(SUSTAIN, SUSTAIN_M6_FRONT),
                                                 (SUSTAIN_BINDING, SUSTAIN_BINDING_M6_FRONT)],
                             ids=["loose", "binding"])
    def test_pinned_edges_solve_their_levels_at_50_digits(self, instance, pinned):
        """Each pinned subproblem-3 Qp lies within 2 ulp of a root of one of
        its weight's anchored levels, w_i*(f_i + s_i) = w_3*(f_3(anchor) + s_3)
        for i = 1 or 2 on the repair line, solved at 50 digits.  The model is
        re-derived here from the area decomposition, not from ``CostModel``."""
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(**instance)
        c = _Certificate(p)
        front = pareto_front(p, 6)
        checked = 0
        with mpmath.workdps(50):
            f1, f2 = _model_at_working_precision(mpmath, p)
            for pt, row in zip(front, pinned):
                if row[-1] != 3:
                    continue
                qp = float.fromhex(row[0])
                assert pt.decision.Qp == qp
                wt = pt.weight.as_tuple()
                gaps = []
                for anchor, (i, f) in itertools.product(c.candidates, ((0, f1), (1, f2))):
                    level = mpmath.mpf(c.weighted(pt.weight, 2, anchor))

                    def meets(q):
                        return mpmath.mpf(wt[i]) * (f(q) + mpmath.mpf(c.shifts[i])) <= level

                    lo, hi = mpmath.mpf(c.qp_lo), mpmath.mpf(c.minima[i].Qp)
                    if meets(lo) or not meets(hi):
                        continue
                    for _ in range(200):  # 1.5 * 2**-200 is far below 50 digits
                        mid = (lo + hi) / 2
                        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
                    gaps.append(abs(mpmath.mpf(qp) - hi) / math.ulp(qp))
                assert gaps and min(gaps) <= 2, (row, gaps)
                checked += 1
        assert checked == sum(row[-1] == 3 for row in pinned) > 0


def _model_at_working_precision(mpmath, p):
    """f1 and f2 along the repair line at the working precision.  f1 is the
    cycle cost over T from the area decomposition; the repair batch is the
    Qr that zeroes its Qr-derivative, cut to the repair floor's cap."""
    v = {k: mpmath.mpf(getattr(p, k)) for k in
         ("Dp", "Dr", "p", "r", "lam", "Ap", "Ar", "h1", "h2", "p2", "k2", "ap", "bp", "cp")}
    inflow = v["r"] * v["p"] * v["Dp"]
    C1 = 1 - inflow / v["lam"]
    C2 = v["r"] * v["p"] / (C1 * (1 - inflow / v["Dr"]))
    C3 = (1 + C2) / (v["Dp"] + v["Dr"])
    t = C1 / v["Dr"]
    c = 1 / v["lam"] + t

    def cost(qp, qr):
        n, T1 = C2 * qp / qr, t * qr
        A1 = qp * qp / (2 * v["Dp"]) + C1 * C2 * c / 2 * qp * qr
        A2 = (inflow / 2 * (T1 + qp / v["Dp"]) ** 2 + C1 * C2 / (2 * v["lam"]) * qp * qr
              + inflow / 2 * (n - 1) * T1 * T1
              + qr * c * (inflow * T1 + v["r"] * v["p"] * qp - C1 * qr)
              + qr * qr * c * C1 * (1 - inflow / v["Dr"]))
        return (v["Ap"] + n * v["Ar"] + v["h1"] * A1 + v["h2"] * A2) / (C3 * qp)

    qr_star = mpmath.findroot(lambda qr: mpmath.diff(lambda x: cost(v["Dp"], x), qr),
                              (mpmath.mpf(1), v["Dp"]), solver="anderson")

    def f1(qp):
        cap = (v["k2"] / (v["p2"] * inflow) - qp / v["Dp"]) / t
        return cost(qp, min(qr_star, cap))

    def f2(qp):
        P = v["Dp"] / (1 - 2 * v["Ap"] * v["Dp"] / (v["h1"] * qp * qp))
        return v["ap"] * P * P - v["bp"] * P + v["cp"]

    return f1, f2


class _Certificate:
    """The inputs a front gives its subproblems, rebuilt for certificates:
    shifts, minima, box and anchor candidates, and the searches and level
    tests the front runs."""

    def __init__(self, p):
        self.p = p
        self.cm = cm = CostModel(p)
        self.funcs = (cm.average_cost, lambda qp, qr: cm.ghg_value(qp), cm.energy_value)
        self.d = pareto_front(p, 6).diagnostics
        self.shifts, self.minima, self.values = (
            self.d.shifts, self.d.individual_minima, self.d.individual_values)
        self.bounds = decision_box(p, emissions_domain=True)
        (self.qp_lo, qr_lo), (qp_hi, qr_hi) = self.bounds
        center = BatchDecision(Qp=math.sqrt(self.qp_lo * qp_hi), Qr=math.sqrt(qr_lo * qr_hi))
        self.all_anchors = (*self.minima, center)
        self.candidates = [a for a in self.all_anchors if _feasible_decision(p, cm, a)]

    def line(self, qp):
        return BatchDecision(Qp=qp, Qr=self.cm.best_repair(qp))

    def weighted(self, w, i, dec):
        return w.as_tuple()[i] * (self.funcs[i](dec.Qp, dec.Qr) + self.shifts[i])

    def subproblems(self, m, candidates=None):
        """(weight, k, anchor, level) for every weight, k and anchor."""
        for w in weight_grid(m):
            for k in (1, 2, 3):
                for anchor in candidates or self.candidates:
                    yield w, k, anchor, self.weighted(w, k - 1, anchor)

    def met_by_minimizer(self, w, k, level):
        return all(self.weighted(w, i, self.minima[k - 1]) <= level
                   for i in range(3) if i != k - 1)

    def screened(self, w, k, level):
        wt = w.as_tuple()
        return any(wt[i] * (self.values[i] + self.shifts[i]) > level + 1e-12 * max(1.0, abs(level))
                   for i in range(3) if i != k - 1)

    def search(self, w, k, anchor):
        return scalar_subproblem(
            self.p, w, k, [self.funcs[i](*anchor.as_tuple()) for i in range(3)],
            shifts=self.shifts, bounds=self.bounds,
            seeds=[anchor.as_tuple()] + [m.as_tuple() for m in self.minima],
        )
