"""Property tests of the four-coefficient cost core, the KKT solver, the
dominance filter, the front's coincidence collapse, subproblem 3's level
edge and the command-line error contract.

Models are drawn in the bounded ranges of ``_random_valid_params``
(test_model.py), decisions in [0.5, 400]; floor spaces are drawn relative
to the unconstrained optimum so that every KKT case occurs.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

from hypothesis import assume, event, given, settings, strategies as st

from relot import (
    BatchDecision,
    CostModel,
    ModelParams,
    NoKktPointError,
    SweepRange,
    decision_box,
    dominance_filter,
    kkt_residual,
    pareto_front,
    solve_constrained,
    solve_unconstrained,
)
from relot.cli import MAX_GRID_SUBDIVISIONS, main
from relot.pareto import COINCIDENCE_RTOL, _coincident, _collapse, _energy_edge

from conftest import SUSTAIN
from test_cli import EX1_PARAMS, FLOOR_PARAMS, SUSTAIN_JSON
from test_model import assert_coefficients_bit_identical
from test_pareto import _oracle_filter

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
@given(models(floors=True))
def test_cost_model_coefficients_are_bit_identical(params):
    assert_coefficients_bit_identical(params)


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


# Small integers make ties, partial ties and exact duplicates common.
small_triples = st.lists(st.tuples(*[st.integers(0, 3).map(float)] * 3), max_size=40)


@SETTINGS
@given(small_triples)
def test_dominance_filter_matches_pairwise_oracle(triples):
    assert dominance_filter(triples) == _oracle_filter(triples)


# -- coincidence collapse of front records ---------------------------------------

RHO = COINCIDENCE_RTOL
# Cluster centres far apart in Qp; members sit 0.3*rho apart, and where the
# repair cap binds (Qp above about 89.4) Qr moves about twice as fast, so
# no pair lies near the coincidence boundary in either coordinate.
QP_CENTRES = (80.0, 89.0, 95.0, 120.0)


def _repair_line(qp: float) -> float:
    """A non-increasing Qr(Qp): flat, then falling as a capped repair batch."""
    return min(150.0, 1.2e6 / qp ** 2)


@st.composite
def clustered_records(draw):
    cells = draw(st.lists(
        st.tuples(st.sampled_from(QP_CENTRES), st.integers(0, 8), st.integers(1, 3)),
        max_size=40,
    ))
    records = []
    for gi, (centre, step, k) in enumerate(cells):
        qp = centre * (1.0 + 0.3 * step * RHO)
        qr = _repair_line(qp)
        records.append((gi, k, BatchDecision(Qp=qp, Qr=qr), ((qp - 90.0) ** 2, qr, -qp),
                        "weak-efficient"))
    return records


def _reference_collapse(records):
    """The collapse rule, quadratically: open a run at the remaining record
    with the smallest (Qp, index), put every remaining record coincident
    with it in that run, repeat; keep per run the smallest objectives,
    earliest on ties; order the runs by their earliest record."""
    left = list(range(len(records)))
    runs = []
    while left:
        head = min(left, key=lambda i: (records[i][2].Qp, i))
        run = [i for i in left if _coincident(records[i][2], records[head][2], RHO)]
        runs.append(run)
        left = [i for i in left if i not in run]
    runs.sort(key=min)
    return runs, [records[min(run, key=lambda i: (records[i][3], i))] for run in runs]


@SETTINGS
@given(clustered_records(), st.randoms(use_true_random=False))
def test_collapse_matches_the_quadratic_rule(records, rnd):
    runs, want = _reference_collapse(records)
    assert _collapse(records) == want
    for run in runs:
        qps = [records[i][2].Qp for i in run]
        assert max(qps) - min(qps) <= RHO * max(qps)
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert sorted(rec[2].as_tuple() for rec in _collapse(shuffled)) == sorted(
        rec[2].as_tuple() for rec in want)


# -- subproblem 3's level edge -----------------------------------------------------


@st.composite
def sustain_variants(draw):
    """SUSTAIN perturbed as the benchmark's front instances are (+-10%, a
    loose or binding repair floor), in three variants: as drawn, Wp = 0
    (f3 constant, f2 not) and ap = 0 < bp (f2 rising with Qp)."""
    u = lambda lo, hi: draw(st.floats(lo, hi))
    pr = dict(SUSTAIN)
    for k in ("Dp", "Ap", "Ar", "h1", "h2", "ap", "bp", "cp", "Wp", "Wr", "Kp", "Kr"):
        pr[k] *= u(0.9, 1.1)
    pr["p"] *= u(0.95, 1.05)
    pr["r"] *= u(0.95, 1.05)
    inflow = pr["p"] * pr["r"] * pr["Dp"]
    pr["Dr"] = inflow * u(1.003, 1.02)
    pr["lam"] = pr["Dr"] * u(1.03, 1.1)
    if draw(st.booleans()):  # cap Qr at 50-80% of 204.6 at the emissions floor
        qp_min = math.sqrt(2.0 * pr["Ap"] * pr["Dp"] / pr["h1"])
        c1 = 1.0 - inflow / pr["lam"]
        pr["k2"] = pr["p2"] * inflow * (c1 * 204.6 * u(0.5, 0.8) / pr["Dr"] + qp_min / pr["Dp"])
    variant = draw(st.sampled_from(("as drawn", "Wp = 0", "ap = 0")))
    if variant == "Wp = 0":
        pr["Wp"] = 0.0
    elif variant == "ap = 0":
        pr["ap"] = 0.0
    return ModelParams(**pr)


@settings(max_examples=200, deadline=None)
@given(sustain_variants(), st.floats(0.02, 0.96), st.floats(0.02, 0.98),
       st.floats(0.0, 1.0), st.booleans())
def test_energy_edge_is_the_least_energy_point_meeting_both_levels(params, a, b, t, met_at_t):
    """Against a 401-point scan of the repair line: no scanned Qp meets both
    levels where the edge rule finds none, and none that does has lower f3
    than the edge.  The edge meets both levels and the float below it misses
    one of them or leaves the box.  The level is anchored at f3 of the line
    point at fraction t of the Qp range, or is the least level that point
    meets (the edge then exists)."""
    cm = CostModel(params)
    d = pareto_front(params, 3).diagnostics
    (qp_lo, qr_lo), (qp_top, _) = decision_box(params, emissions_domain=True)
    qp_hi = min(qp_top, cm.repair_qp_cap(qr_lo))
    wt = (a, (1.0 - a) * b, (1.0 - a) * (1.0 - b))
    s = d.shifts
    funcs = (cm.average_cost, lambda qp, qr: cm.ghg_value(qp), cm.energy_value)

    def weighted(i, qp):
        return wt[i] * (funcs[i](qp, cm.best_repair(qp)) + s[i])

    q = min(qp_lo + t * (qp_hi - qp_lo), qp_hi)
    level = max(weighted(0, q), weighted(1, q)) if met_at_t else weighted(2, q)

    def meets(qp):
        return weighted(0, qp) <= level and weighted(1, qp) <= level

    edge = _energy_edge(cm, wt, s, level, qp_lo, d.individual_minima)
    feasible = [x for x in [qp_lo + (qp_hi - qp_lo) * j / 400 for j in range(401)] + [q]
                if x <= qp_hi and meets(x)]
    event("no edge" if edge is None else "edge at qp_lo" if edge == qp_lo else "edge above qp_lo")
    if edge is None:
        assert not met_at_t
        assert not feasible
        return
    assert qp_lo <= edge <= qp_hi
    assert meets(edge)
    below = math.nextafter(edge, 0.0)
    assert below < qp_lo or not meets(below)
    f3 = cm.energy_value(edge, cm.best_repair(edge))
    for x in feasible:
        assert cm.energy_value(x, cm.best_repair(x)) >= f3 - 1e-12 * abs(f3), x


# -- command-line contract ---------------------------------------------------------

# One small valid config per subcommand.
VALID_CONFIGS = {
    "solve": {"command": "solve", "params": EX1_PARAMS, "outputFormat": "csv"},
    "solve-constrained": {"command": "solve-constrained", "params": FLOOR_PARAMS},
    "sweep": {
        "command": "sweep", "params": EX1_PARAMS, "sweepVar": "lambda",
        "sweepRange": {"lo": 45.0, "hi": 60.0, "step": 5.0},
    },
    "oracle": {"command": "oracle", "params": FLOOR_PARAMS},
    "pareto": {"command": "pareto", "params": SUSTAIN_JSON, "gridSubdivisions": 3},
}
SUBCOMMANDS = sorted(VALID_CONFIGS)
MAX_TEST_SWEEP_ROWS = 50
MAX_TEST_GRID_SUBDIVISIONS = 6


def _json_values(depth: int):
    """JSON documents nested at most ``depth`` containers deep, at most 8
    items per container."""
    leaf = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    if depth == 0:
        return leaf
    inner = _json_values(depth - 1)
    return (
        leaf
        | st.lists(inner, max_size=8)
        | st.dictionaries(st.text(max_size=8), inner, max_size=8)
    )


json_values = _json_values(4)
# Numbers of every magnitude, including ints beyond the float range, so that
# extreme values reach the solvers and not only the parser.
any_magnitude = (
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-330, 308))
    | st.integers(-(10**400), 10**400)
)


@st.composite
def mutated_configs(draw):
    """A valid config for one subcommand with one key, top-level or inside
    params, replaced by an arbitrary JSON value."""
    sub = draw(st.sampled_from(SUBCOMMANDS))
    doc = json.loads(json.dumps(VALID_CONFIGS[sub]))
    keys = sorted(doc) + [f"params.{k}" for k in sorted(doc["params"])]
    key = draw(st.sampled_from(keys))
    value = draw(any_magnitude | json_values)
    if key.startswith("params."):
        doc["params"][key[len("params."):]] = value
    else:
        doc[key] = value
    return sub, doc


def _small_job(doc) -> bool:
    """False when the document holds a sweep range of more than
    MAX_TEST_SWEEP_ROWS rows, or a grid of more than
    MAX_TEST_GRID_SUBDIVISIONS subdivisions, that validation would accept.
    A front's subproblem count grows with the square of the subdivisions."""
    if not isinstance(doc, dict):
        return True
    m = doc.get("gridSubdivisions")
    if isinstance(m, int) and MAX_TEST_GRID_SUBDIVISIONS < m <= MAX_GRID_SUBDIVISIONS:
        return False
    rng = doc.get("sweepRange")
    try:
        rows = len(SweepRange(*(float(rng[k]) for k in ("lo", "hi", "step"))).values())
    except (TypeError, KeyError, ValueError, OverflowError):
        return True
    return rows <= MAX_TEST_SWEEP_ROWS


def _check_contract(workdir, sub: str, doc) -> None:
    """main exits 0, 2 or 3 with exactly one JSON line on stderr, no traceback
    and no warning."""
    assume(_small_job(doc))
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([sub, "--config", str(cfg), "--out", str(workdir / "table.csv")])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, err.getvalue()
    report = json.loads(lines[0])
    assert isinstance(report, dict)
    assert ("error" in report) == (code != 0)
    assert not caught, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-contract")


@SETTINGS
@given(st.sampled_from(SUBCOMMANDS), json_values)
def test_any_json_document_meets_the_cli_contract(workdir, sub, doc):
    _check_contract(workdir, sub, doc)


@SETTINGS
@given(mutated_configs())
def test_mutated_valid_config_meets_the_cli_contract(workdir, case):
    _check_contract(workdir, *case)
