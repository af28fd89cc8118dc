"""Unit tests for the cost, emissions and energy model layer."""

import math
import random

import pytest

from relot import (
    BatchDecision,
    CostModel,
    DomainError,
    ModelParams,
    ParameterError,
    average_cost,
    check_feasibility,
    cost_breakdown,
    derive_constants,
    energy_use,
    ghg_emissions,
    objective_breakdown,
)

from conftest import SUSTAIN, UNCON_BASE, floor_params, unconstrained_params


def _random_valid_params(rng: random.Random) -> ModelParams:
    """Draw parameters satisfying lam > r*p*Dp, Dr > r*p*Dp and lam > Dr."""
    Dp = rng.uniform(10.0, 500.0)
    p = rng.uniform(0.05, 0.95)
    r = rng.uniform(0.05, 0.95)
    inflow = r * p * Dp
    Dr = inflow * rng.uniform(1.1, 5.0)
    lam = Dr * rng.uniform(1.1, 4.0)
    return ModelParams(
        Dp=Dp, Dr=Dr, p=p, r=r, lam=lam,
        Ap=rng.uniform(1.0, 100.0), Ar=rng.uniform(1.0, 100.0),
        h1=rng.uniform(0.1, 10.0), h2=rng.uniform(0.1, 10.0),
    )


class TestValidation:
    def test_lambda_at_return_inflow_rejected(self):
        """lam must strictly exceed r*p*Dp = 42."""
        with pytest.raises(ParameterError):
            ModelParams(lam=42.0, **UNCON_BASE)

    def test_secondary_demand_below_inflow_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(Dp=100.0, Dr=42.0, p=0.6, r=0.7, lam=60.0,
                        Ap=10.0, Ar=30.0, h1=1.6, h2=1.2)

    def test_lambda_at_secondary_demand_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(Dp=100.0, Dr=43.0, p=0.6, r=0.7, lam=43.0,
                        Ap=10.0, Ar=30.0, h1=1.6, h2=1.2)

    @pytest.mark.parametrize("field,value", [
        ("Dp", 0.0), ("Ap", 0.0), ("Ar", -1.0), ("h1", 0.0), ("h2", -0.5),
        ("p", 0.0), ("p", 1.5), ("r", 0.0), ("r", 1.0001),
        ("p1", 0.0), ("k1", 0.0), ("k2", -3.0),
        ("Dp", math.inf), ("Dr", math.inf), ("lam", math.inf), ("Ap", math.inf),
        ("Ar", math.inf), ("h1", math.inf), ("h2", math.inf), ("p1", math.inf),
        ("p2", math.inf), ("Ap", math.nan), ("k2", math.nan),
    ])
    def test_bad_scalar_rejected(self, field, value):
        kwargs = dict(UNCON_BASE, lam=45.0)
        kwargs[field] = value
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("field", ["ap", "bp", "cp", "Wp", "Wr", "Kp", "Kr"])
    def test_infinite_coefficient_rejected(self, field):
        with pytest.raises(ParameterError):
            ModelParams(**dict(SUSTAIN, **{field: math.inf}))

    def test_partial_coefficient_groups_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(lam=45.0, ap=1e-8, **UNCON_BASE)
        with pytest.raises(ParameterError):
            ModelParams(lam=45.0, Wp=5.0, **UNCON_BASE)

    def test_zero_emission_slopes_allowed(self):
        """ap = bp = 0 degenerates f2 to the constant cp and stays valid."""
        p = ModelParams(lam=45.0, ap=0.0, bp=0.0, cp=1.4, **UNCON_BASE)
        assert p.has_emissions


_COEFFS = dict(ap=3e-8, bp=1.4e-3, cp=1.4, Wp=120.0, Wr=80.0, Kp=5.5, Kr=2.5)


class TestRejectionMessages:
    """Every rejection of ModelParams, with the message it gives today.  The
    multi-fault rows pin the order of the checks."""

    @pytest.mark.parametrize("overrides,message", [
        ({"Dp": 0.0}, "Dp must be positive and finite, got 0.0"),
        ({"Dr": -1.0}, "Dr must be positive and finite, got -1.0"),
        ({"lam": math.inf}, "lam must be positive and finite, got inf"),
        ({"Ap": math.nan}, "Ap must be positive and finite, got nan"),
        ({"Ar": 0.0}, "Ar must be positive and finite, got 0.0"),
        ({"h1": -0.5}, "h1 must be positive and finite, got -0.5"),
        ({"h2": math.inf}, "h2 must be positive and finite, got inf"),
        ({"p1": 0.0}, "p1 must be positive and finite, got 0.0"),
        ({"p2": math.nan}, "p2 must be positive and finite, got nan"),
        ({"p": 0.0}, "p must lie in (0, 1), got 0.0"),
        ({"p": 1.0}, "p must lie in (0, 1), got 1.0"),
        ({"r": math.nan}, "r must lie in (0, 1), got nan"),
        ({"r": 1.5}, "r must lie in (0, 1), got 1.5"),
        ({"k1": 0.0}, "k1 must be positive (or +inf), got 0.0"),
        ({"k2": -3.0}, "k2 must be positive (or +inf), got -3.0"),
        ({"k1": -math.inf}, "k1 must be positive (or +inf), got -inf"),
        ({"k2": math.nan}, "k2 must be positive (or +inf), got nan"),
        ({"lam": 42.0},
         "repair rate lam=42.0 must exceed the return inflow r*p*Dp=42.0"),
        ({"Dr": 42.0, "lam": 60.0},
         "secondary demand Dr=42.0 must exceed the return inflow r*p*Dp=42.0"),
        ({"lam": 43.0}, "repair rate lam=43.0 must exceed Dr=43.0"),
        ({"ap": 1e-8}, "incomplete coefficient group: missing ['bp', 'cp']"),
        ({"Wp": 5.0, "Kr": 1.0}, "incomplete coefficient group: missing ['Kp', 'Wr']"),
        ({**_COEFFS, "cp": None}, "incomplete coefficient group: missing ['cp']"),
        ({**_COEFFS, "ap": -1e-9}, "ap must be finite and >= 0, got -1e-09"),
        ({**_COEFFS, "bp": math.inf}, "bp must be finite and >= 0, got inf"),
        ({**_COEFFS, "Wr": math.nan}, "Wr must be finite and >= 0, got nan"),
        ({**_COEFFS, "Kr": -0.1}, "Kr must be finite and >= 0, got -0.1"),
        ({"Dp": 0.0, "p": 2.0}, "Dp must be positive and finite, got 0.0"),
        ({"p": 2.0, "k1": 0.0}, "p must lie in (0, 1), got 2.0"),
        ({"k1": 0.0, "lam": 42.0}, "k1 must be positive (or +inf), got 0.0"),
        ({"lam": 43.0, "ap": 1.0}, "repair rate lam=43.0 must exceed Dr=43.0"),
        ({**_COEFFS, "cp": None, "Wp": None}, "incomplete coefficient group: missing ['cp']"),
        ({**_COEFFS, "ap": -1.0, "Wp": None}, "ap must be finite and >= 0, got -1.0"),
    ])
    def test_message(self, overrides, message):
        with pytest.raises(ParameterError) as exc:
            ModelParams(**{**UNCON_BASE, "lam": 45.0, **overrides})
        assert str(exc.value) == message

    @pytest.mark.parametrize("field,missing", [
        ("ap", "['bp', 'cp']"), ("bp", "['ap', 'cp']"), ("cp", "['ap', 'bp']"),
        ("Wp", "['Kp', 'Kr', 'Wr']"), ("Wr", "['Kp', 'Kr', 'Wp']"),
        ("Kp", "['Kr', 'Wp', 'Wr']"), ("Kr", "['Kp', 'Wp', 'Wr']"),
    ])
    def test_one_coefficient_alone(self, field, missing):
        with pytest.raises(ParameterError) as exc:
            ModelParams(**UNCON_BASE, lam=45.0, **{field: 0.0})
        assert str(exc.value) == f"incomplete coefficient group: missing {missing}"

    def test_scalar_checks_run_in_field_order(self):
        faults = [("Dp", 0.0), ("Dr", 0.0), ("lam", 0.0), ("Ap", 0.0), ("Ar", 0.0),
                  ("h1", 0.0), ("h2", 0.0), ("p1", 0.0), ("p2", 0.0), ("p", 2.0),
                  ("r", 2.0), ("k1", 0.0), ("k2", 0.0)]
        for i, (name, _) in enumerate(faults):
            with pytest.raises(ParameterError) as exc:
                ModelParams(**{**UNCON_BASE, "lam": 45.0, **dict(faults[i:])})
            assert str(exc.value).startswith(f"{name} must ")


class TestSerialization:
    def test_lambda_key_alias(self):
        p = ModelParams.from_mapping({**UNCON_BASE, "lambda": 45.0})
        assert p.lam == 45.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams.from_mapping({**UNCON_BASE, "lambda": 45.0, "bogus": 1.0})

    def test_mapping_round_trip(self):
        p = ModelParams(**SUSTAIN)
        assert ModelParams.from_mapping(p.to_mapping()) == p

    def test_mapping_skips_unset_fields(self):
        mapping = unconstrained_params(45.0).to_mapping()
        assert "k1" not in mapping and "ap" not in mapping
        assert mapping["lambda"] == 45.0

    def test_json_round_trip(self):
        p = ModelParams(**SUSTAIN)
        assert ModelParams.from_json(p.to_json()) == p

    def test_floor_defaults_unbounded(self):
        p = unconstrained_params(45.0)
        assert math.isinf(p.k1) and math.isinf(p.k2)
        assert not p.has_sustainability


class TestDerivedConstants:
    def test_reference_values(self):
        """lam=45: C1 = 1/15, C2 = 0.42*15*43 = 270.9, C3 = 271.9/143."""
        dc = derive_constants(unconstrained_params(45.0))
        assert dc.C1 == pytest.approx(1.0 / 15.0, rel=1e-12)
        assert dc.C2 == pytest.approx(270.9, rel=1e-12)
        assert dc.C3 == pytest.approx(271.9 / 143.0, rel=1e-12)

    def test_fast_repair_limit(self):
        """As lam grows, C1 -> 1 and C2 -> r*p*Dp / (1 - r*p*Dp/Dr)."""
        dc = derive_constants(ModelParams(lam=1e9, **UNCON_BASE))
        assert dc.C1 == pytest.approx(1.0, rel=1e-6)
        assert dc.C2 == pytest.approx(0.42 * 43.0, rel=1e-6)

    def test_sustainability_instance(self):
        dc = derive_constants(ModelParams(**SUSTAIN))
        assert dc.C1 == pytest.approx(1.0 / 15.0, rel=1e-12)
        assert dc.C2 == pytest.approx(1329.3, rel=1e-12)


def _reference_coefficients(params: ModelParams) -> dict[str, float]:
    """Every float CostModel precomputes, by the formulas of derive_constants
    and the area decomposition, in their original evaluation order."""
    inflow = params.r * params.p * params.Dp
    C1 = 1.0 - inflow / params.lam
    C2 = params.r * params.p / (C1 * (1.0 - inflow / params.Dr))
    C3 = (1.0 + C2) / (params.Dp + params.Dr)
    rp = params.r * params.p
    inv2Dp = 0.5 / params.Dp
    c_T1 = C1 / params.Dr
    c_rep = 1.0 / params.lam + c_T1
    cross = 0.5 * C1 * C2 * c_rep
    c_lam = C1 * C2 / (2.0 * params.lam)
    cross_repair = rp * c_T1 + c_lam + 0.5 * inflow * C2 * c_T1 * c_T1 + rp * c_rep
    return dict(
        C1=C1, C2=C2, C3=C3, _inflow=inflow, _rp=rp, _inv2Dp=inv2Dp,
        _invDp=1.0 / params.Dp, _c_T1=c_T1, _c_rep=c_rep, _cross=cross,
        _c_lam=c_lam, _c_e2=c_rep * C1 * (1.0 - inflow / params.Dr),
        _c_m=2.0 * params.Ap * params.Dp / params.h1,
        alpha=params.Ap / C3,
        beta=(params.h1 + params.h2 * rp) * inv2Dp / C3,
        gamma=params.Ar * C2 / C3,
        delta=(params.h1 * cross + params.h2 * cross_repair) / C3,
    )


def assert_coefficients_bit_identical(params: ModelParams) -> None:
    cm = CostModel(params)
    want = _reference_coefficients(params)
    assert set(want) == set(CostModel.__slots__) - {"params"}
    assert {k: float.hex(getattr(cm, k)) for k in want} == {
        k: float.hex(v) for k, v in want.items()
    }
    dc = derive_constants(params)
    assert cm.constants == dc
    assert [float.hex(v) for v in (dc.C1, dc.C2, dc.C3)] == [
        float.hex(want[k]) for k in ("C1", "C2", "C3")
    ]


class TestCoefficientIdentity:
    @pytest.mark.parametrize("make", [unconstrained_params, floor_params])
    @pytest.mark.parametrize("lam", [44.5, 45.0, 60.0, 75.0, 90.0, 105.0])
    def test_paper_economics(self, make, lam):
        assert_coefficients_bit_identical(make(lam))

    def test_sustainability_instance(self):
        assert_coefficients_bit_identical(ModelParams(**SUSTAIN))


class TestCostBreakdown:
    def test_reference_row(self):
        """Reference geometry at the lam=45 optimum."""
        p = unconstrained_params(45.0)
        bd = cost_breakdown(p, BatchDecision(30.83132079891037, 115.10111304065322))
        assert bd.n == pytest.approx(72.56406635681137, rel=1e-12)
        assert bd.T == pytest.approx(58.622630246319694, rel=1e-12)
        assert bd.f1 == pytest.approx(74.61016271413838, rel=1e-12)

    def test_area_sum_is_exact(self):
        """A2 is literally the sum of its five areas, no drift allowed."""
        rng = random.Random(20240817)
        for _ in range(50):
            p = _random_valid_params(rng)
            d = BatchDecision(rng.uniform(1.0, 400.0), rng.uniform(1.0, 400.0))
            bd = cost_breakdown(p, d)
            assert bd.A2 == bd.B + bd.C_prime + bd.D_prime + bd.E1 + bd.E2

    def test_cycle_cost_composition(self):
        rng = random.Random(11)
        for _ in range(50):
            p = _random_valid_params(rng)
            d = BatchDecision(rng.uniform(1.0, 400.0), rng.uniform(1.0, 400.0))
            bd = cost_breakdown(p, d)
            assert bd.cycle_cost == p.Ap + bd.n * p.Ar + p.h1 * bd.A1 + p.h2 * bd.A2
            assert bd.f1 == bd.cycle_cost / bd.T
            assert bd.f1 == pytest.approx(average_cost(p, d.Qp, d.Qr), rel=1e-10)

    def test_setup_cost_increment(self):
        """Doubling both setup costs adds (Ap + n*Ar)/T to the average cost."""
        p = unconstrained_params(60.0)
        d = BatchDecision(25.0, 60.0)
        bd = cost_breakdown(p, d)
        p2 = ModelParams.from_mapping(
            {**p.to_mapping(), "Ap": 2 * p.Ap, "Ar": 2 * p.Ar})
        bd2 = cost_breakdown(p2, d)
        assert bd2.f1 - bd.f1 == pytest.approx((p.Ap + bd.n * p.Ar) / bd.T, rel=1e-9)

    def test_no_repair_splitting_degenerate(self):
        """With Qr = C2*Qp there is exactly one repair cycle and D' vanishes."""
        p = unconstrained_params(45.0)
        C2 = derive_constants(p).C2
        bd = cost_breakdown(p, BatchDecision(10.0, C2 * 10.0))
        assert bd.n == 1.0
        assert bd.D_prime == 0.0

    def test_areas_nonnegative_with_whole_cycles(self):
        """All six areas are nonnegative whenever n >= 1."""
        rng = random.Random(7)
        for _ in range(200):
            p = _random_valid_params(rng)
            C2 = derive_constants(p).C2
            qp = rng.uniform(1.0, 300.0)
            qr = C2 * qp / rng.uniform(1.0, 50.0)
            bd = cost_breakdown(p, BatchDecision(qp, qr))
            scale = max(1.0, bd.A2)
            for area in (bd.A1, bd.B, bd.C_prime, bd.D_prime, bd.E1, bd.E2):
                assert area >= -1e-9 * scale

    def test_total_flow_identity(self):
        """One procurement batch plus the repaired flow covers (Dp+Dr)*T."""
        rng = random.Random(99)
        for _ in range(200):
            p = _random_valid_params(rng)
            d = BatchDecision(rng.uniform(1.0, 400.0), rng.uniform(1.0, 400.0))
            bd = cost_breakdown(p, d)
            lhs = d.Qp + bd.n * d.Qr
            rhs = (p.Dp + p.Dr) * bd.T
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.xfail(
        strict=True,
        reason="n*Qr = C2*Qp exceeds the returned inflow r*p*Dp*T whenever "
        "C2 > r*p*Dp*C3: the repaired stream also serves the secondary "
        "demand Dr, so it is not balanced by returns alone",
    )
    def test_return_balance(self):
        p = unconstrained_params(45.0)
        bd = cost_breakdown(p, BatchDecision(30.0, 50.0))
        inflow = p.r * p.p * p.Dp
        assert bd.n * 50.0 == pytest.approx(inflow * bd.T, rel=1e-9)


class TestEmissions:
    def test_reference_point(self):
        """qp=100: M = 1 - 100000/200000 = 0.5, P = 2000, f2 = 0.12 - 2.8 + 1.4."""
        g = ghg_emissions(ModelParams(**SUSTAIN), 100.0)
        assert g.M == 0.5
        assert g.P == 2000.0
        assert g.f2 == pytest.approx(-1.28, rel=1e-12)

    def test_domain_guard(self):
        p = ModelParams(**SUSTAIN)
        with pytest.raises(DomainError):
            ghg_emissions(p, 70.0)
        with pytest.raises(DomainError):
            ghg_emissions(p, 70.71)
        assert ghg_emissions(p, 70.712).M >= 1e-6

    def test_constant_when_slopes_zero(self):
        p = ModelParams(lam=45.0, ap=0.0, bp=0.0, cp=1.4, **UNCON_BASE)
        assert ghg_emissions(p, 200.0).f2 == 1.4

    def test_missing_coefficients(self):
        with pytest.raises(ParameterError):
            ghg_emissions(unconstrained_params(45.0), 30.0)

    @pytest.mark.parametrize("ap,bp,want", [
        (3e-8, 1.4e-3, 72.27641798688508),  # vertex M_best = 3/70 inside (0, 1)
        (3e-8, 0.0, math.inf),              # f2 = ap*P^2 falls with Qp
        (1e-6, 1e-3, math.inf),             # vertex M_best = 2 beyond the domain
        (0.0, 1.4e-3, 0.0),                 # f2 = cp - bp*P rises with Qp
        (0.0, 0.0, None),                   # constant
    ])
    def test_minimizer_cases(self, ap, bp, want):
        cm = CostModel(ModelParams(**{**SUSTAIN, "ap": ap, "bp": bp}))
        got = cm.ghg_minimizer()
        if want is None or not 0.0 < want < math.inf:
            assert got == want
            return
        assert got == pytest.approx(want, rel=1e-12)
        assert cm.ghg_value(got) < min(cm.ghg_value(got * 0.999), cm.ghg_value(got * 1.001))


class TestEnergy:
    def test_reference_point(self):
        p = ModelParams(**SUSTAIN)
        assert energy_use(p, BatchDecision(100.0, 100.0)) == pytest.approx(
            3810.8808990453276, rel=1e-12)

    def test_independent_of_repair_batch(self):
        """n*Qr telescopes to C2*Qp, so f3 never depends on Qr."""
        p = ModelParams(**SUSTAIN)
        a = energy_use(p, BatchDecision(88.0, 30.0))
        b = energy_use(p, BatchDecision(88.0, 600.0))
        assert a == b

    def test_throughput_identity(self):
        """Wp=Wr=0, Kp=Kr=1 counts setups only: f3 = (1+C2)/C3 = Dp+Dr."""
        p = ModelParams(Dp=1000.0, Dr=422.0, p=0.6, r=0.7, lam=450.0,
                        Ap=50.0, Ar=100.0, h1=20.0, h2=10.0,
                        Wp=0.0, Wr=0.0, Kp=1.0, Kr=1.0)
        assert energy_use(p, BatchDecision(77.0, 33.0)) == 1422.0

    def test_missing_coefficients(self):
        with pytest.raises(ParameterError):
            energy_use(unconstrained_params(45.0), BatchDecision(30.0, 50.0))

    def test_objective_breakdown_consistency(self):
        p = ModelParams(**SUSTAIN)
        d = BatchDecision(100.0, 150.0)
        ob = objective_breakdown(p, d)
        assert ob.f1 == pytest.approx(average_cost(p, d.Qp, d.Qr), rel=1e-12)
        assert ob.f2 == ghg_emissions(p, d.Qp).f2
        assert ob.f3 == energy_use(p, d)
        assert ob.M == 0.5


class TestFeasibility:
    def test_active_repair_floor(self):
        """lam=60 constrained optimum sits exactly on the repair floor."""
        rep = check_feasibility(
            floor_params(60.0),
            BatchDecision(11.134756068377216, 52.294151222627576))
        assert rep.supply_floor_ok and rep.repair_floor_ok
        assert rep.slack_supply == pytest.approx(14.432621965811393, rel=1e-9)
        assert abs(rep.slack_repair) < 1e-9
        assert rep.all_ok

    def test_unconstrained_optimum_violates_floor(self):
        rep = check_feasibility(
            floor_params(60.0),
            BatchDecision(30.83132079891037, 54.3462680608135))
        assert rep.supply_floor_ok
        assert not rep.repair_floor_ok
        assert rep.slack_repair == pytest.approx(-4.436937572029901, rel=1e-9)
        assert not rep.all_ok

    def test_emissions_domain_flag(self):
        p = ModelParams(**SUSTAIN)
        rep = check_feasibility(p, BatchDecision(70.0, 100.0),
                                include_emissions_domain=True)
        assert rep.emissions_domain_ok is False
        rep = check_feasibility(p, BatchDecision(100.0, 100.0),
                                include_emissions_domain=True)
        assert rep.emissions_domain_ok is True
        assert rep.slack_m == pytest.approx(0.5 - 1e-6, rel=1e-12)

    def test_domain_flag_left_out_by_default(self):
        rep = check_feasibility(ModelParams(**SUSTAIN), BatchDecision(70.0, 100.0))
        assert rep.emissions_domain_ok is None and rep.slack_m is None


class TestCostModelHelpers:
    def test_repair_load_reference(self):
        """Floor usage p2*(C1*Qr/Dr + Qp/Dp)*r*p*Dp at the lam=60 optimum."""
        cm = CostModel(floor_params(60.0))
        load = cm.repair_load(11.134756068377216, 52.294151222627576)
        assert load == pytest.approx(10.0, rel=1e-9)

    def test_repair_floor_caps(self):
        """repair_qp_cap inverts repair_cap; best_repair is Qr* cut to the cap."""
        cm = CostModel(floor_params(60.0))
        qr_star = math.sqrt(cm.gamma / cm.delta)
        for qp in (1.0, 5.0, 11.0):
            cap = cm.repair_cap(qp)
            assert cm.repair_qp_cap(cap) == pytest.approx(qp, rel=1e-12)
            assert cm.best_repair(qp) == min(qr_star, cap)
        free = CostModel(unconstrained_params(60.0))
        assert free.repair_qp_cap(50.0) == math.inf
        assert free.best_repair(30.0) == math.sqrt(free.gamma / free.delta)

    def test_production_factor_inverse(self):
        cm = CostModel(ModelParams(**SUSTAIN))
        for m in (1e-6, 0.25, 0.5, 0.9):
            assert cm.production_factor(cm.min_qp_for_factor(m)) == pytest.approx(
                m, abs=1e-12)

    def test_vectorized_average_cost(self):
        import numpy as np

        p = unconstrained_params(45.0)
        cm = CostModel(p)
        qp = np.array([10.0, 20.0, 30.0])
        vals = cm.average_cost(qp, 100.0)
        for i, q in enumerate(qp):
            assert vals[i] == pytest.approx(average_cost(p, float(q), 100.0), rel=1e-12)
