"""Property tests of the four-coefficient cost core and the KKT solver.

Models are drawn in the bounded ranges of ``_random_valid_params``
(test_model.py), decisions in [0.5, 400]; floor spaces are drawn relative
to the unconstrained optimum so that every KKT case occurs.
"""

import math

from hypothesis import given, settings, strategies as st

from relot import (
    CostModel,
    ModelParams,
    NoKktPointError,
    kkt_residual,
    solve_constrained,
    solve_unconstrained,
)

SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def models(draw, floors=False):
    """Admissible parameters: lam > Dr > r*p*Dp, everything bounded."""
    u = lambda lo, hi: draw(st.floats(lo, hi))
    Dp = u(10.0, 500.0)
    p = u(0.05, 0.95)
    r = u(0.05, 0.95)
    Dr = r * p * Dp * u(1.1, 5.0)
    lam = Dr * u(1.1, 4.0)
    kwargs = dict(
        Dp=Dp, Dr=Dr, p=p, r=r, lam=lam,
        Ap=u(1.0, 100.0), Ar=u(1.0, 100.0), h1=u(0.1, 10.0), h2=u(0.1, 10.0),
    )
    if floors:
        kwargs.update(p1=u(0.1, 2.0), p2=u(0.1, 2.0))
        base = ModelParams(**kwargs)
        star = solve_unconstrained(base).decision
        supply = kwargs["p1"] * star.Qp
        repair = CostModel(base).repair_load(star.Qp, star.Qr)
        kwargs.update(
            k1=draw(st.one_of(st.just(math.inf), st.floats(0.05, 2.0).map(lambda v: v * supply))),
            k2=draw(st.one_of(st.just(math.inf), st.floats(0.05, 2.0).map(lambda v: v * repair))),
        )
    return ModelParams(**kwargs)


decisions = st.floats(0.5, 400.0)


@SETTINGS
@given(models(), decisions, decisions)
def test_four_coefficients_match_the_area_decomposition(params, qp, qr):
    cm = CostModel(params)
    ref = cm.breakdown(qp, qr).f1
    assert math.isclose(cm.average_cost(qp, qr), ref, rel_tol=1e-10)


@SETTINGS
@given(models())
def test_closed_form_value(params):
    cm = CostModel(params)
    sol = solve_unconstrained(params)
    want = 2.0 * math.sqrt(cm.alpha * cm.beta) + 2.0 * math.sqrt(cm.gamma * cm.delta)
    assert math.isclose(sol.f1, want, rel_tol=1e-12)


@SETTINGS
@given(models(floors=True))
def test_constrained_solution_certifies_itself(params):
    try:
        sol = solve_constrained(params)
    except NoKktPointError:
        return
    cm = CostModel(params)
    d = sol.decision
    tol1 = 1e-9 * max(1.0, params.k1) if math.isfinite(params.k1) else 0.0
    tol2 = 1e-9 * max(1.0, params.k2) if math.isfinite(params.k2) else 0.0
    slack1 = cm.supply_slack(d.Qp)
    slack2 = cm.repair_slack(d.Qp, d.Qr)
    assert slack1 >= -tol1 and slack2 >= -tol2
    assert kkt_residual(params, d, sol.lambda1, sol.lambda2) < 1e-10
    assert sol.lambda1 >= 0.0 and sol.lambda2 >= 0.0
    if sol.lambda1 > 0.0:
        assert abs(slack1) <= tol1
    if sol.lambda2 > 0.0:
        assert abs(slack2) <= tol2
    assert sol.f1 >= solve_unconstrained(params).f1 * (1.0 - 1e-12)
