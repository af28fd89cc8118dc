"""Property tests of the four-coefficient cost core, the KKT solver, the
dominance filter and the command-line error contract.

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

from hypothesis import assume, given, settings, strategies as st

from relot import (
    CostModel,
    ModelParams,
    NoKktPointError,
    SweepRange,
    dominance_filter,
    kkt_residual,
    solve_constrained,
    solve_unconstrained,
)
from relot.cli import main

from test_cli import EX1_PARAMS, FLOOR_PARAMS
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


# -- command-line contract ---------------------------------------------------------

# One small valid config per subcommand; pareto is left out because one
# front takes seconds.
VALID_CONFIGS = {
    "solve": {"command": "solve", "params": EX1_PARAMS, "outputFormat": "csv"},
    "solve-constrained": {"command": "solve-constrained", "params": FLOOR_PARAMS},
    "sweep": {
        "command": "sweep", "params": EX1_PARAMS, "sweepVar": "lambda",
        "sweepRange": {"lo": 45.0, "hi": 60.0, "step": 5.0},
    },
    "oracle": {"command": "oracle", "params": FLOOR_PARAMS},
}
SUBCOMMANDS = sorted(VALID_CONFIGS)
MAX_TEST_SWEEP_ROWS = 50


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


def _small_sweep(doc) -> bool:
    """False when the document holds a sweep range of more than
    MAX_TEST_SWEEP_ROWS rows that validation would accept."""
    rng = doc.get("sweepRange") if isinstance(doc, dict) else None
    try:
        rows = len(SweepRange(*(float(rng[k]) for k in ("lo", "hi", "step"))).values())
    except (TypeError, KeyError, ValueError, OverflowError):
        return True
    return rows <= MAX_TEST_SWEEP_ROWS


def _check_contract(workdir, sub: str, doc) -> None:
    """main exits 0, 2 or 3 with exactly one JSON line on stderr, no traceback
    and no warning."""
    assume(_small_sweep(doc))
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
