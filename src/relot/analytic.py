"""Closed-form solvers for the reverse-logistics cost model.

The average cost is separable, f1 = alpha/Qp + beta*Qp + gamma/Qr + delta*Qr
(see ``CostModel``), so every quantity here is exact: the gradient of f1 is
(beta - alpha/Qp^2, delta - gamma/Qr^2), its curvature is
(2*alpha/Qp^3, 2*gamma/Qr^3), and no finite differences are taken.

``solve_unconstrained`` returns Qp* = sqrt(alpha/beta), Qr* = sqrt(gamma/delta).
``solve_constrained`` enumerates the four KKT configurations of the supply
floor p1*Qp <= k1 and the repair floor a*Qp + b*Qr <= k2 (none / supply /
repair / both active), keeps every configuration whose multipliers are
positive and whose point is feasible, and returns the cheapest one.
Multipliers below MULTIPLIER_TOL are treated as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BatchDecision, CostModel, ModelParams

__all__ = [
    "SolverError",
    "NoKktPointError",
    "UnconstrainedSolution",
    "KktSolution",
    "solve_unconstrained",
    "solve_constrained",
    "kkt_residual",
    "gradient_norm",
]

MULTIPLIER_TOL = 1e-12
_MAX_MULTIPLIER = 1e12  # no case-III point is accepted beyond this repair multiplier
_FEAS_TOL = 1e-7  # relative slack tolerance when accepting a KKT candidate
_CASE_ORDER = {"I": 0, "II": 1, "III": 2, "IV": 3}


class SolverError(RuntimeError):
    """Raised when a solver cannot certify its own output."""


class NoKktPointError(RuntimeError):
    """Raised when no KKT configuration admits positive multipliers and a
    feasible point, e.g. inconsistent floor constraints."""


@dataclass(frozen=True)
class UnconstrainedSolution:
    decision: BatchDecision
    f1: float
    grad_norm: float


@dataclass(frozen=True)
class KktSolution:
    case: str          # "I", "II", "III" or "IV"
    decision: BatchDecision
    lambda1: float
    lambda2: float
    f1: float
    feasible: bool
    kkt_residual: float


# -- exact derivatives -----------------------------------------------------------


def _gradient(cm: CostModel, qp: float, qr: float) -> tuple[float, float]:
    """Exact gradient of f1 at (qp, qr)."""
    return cm.beta - cm.alpha / (qp * qp), cm.delta - cm.gamma / (qr * qr)


def _repair_row(params: ModelParams, cm: CostModel) -> tuple[float, float]:
    """Coefficients (a, b) of the repair floor a*Qp + b*Qr <= k2."""
    a = params.p2 * params.r * params.p
    return a, a * params.Dp * cm.C1 / params.Dr


def gradient_norm(params: ModelParams, d: BatchDecision) -> float:
    """Relative magnitude of the exact gradient of f1 at d, measured as the
    norm of (df1/dQi * Qi / f1)."""
    cm = CostModel(params)
    gp, gr = _gradient(cm, d.Qp, d.Qr)
    f1 = cm.average_cost(d.Qp, d.Qr)
    return math.hypot(gp * d.Qp / f1, gr * d.Qr / f1)


def kkt_residual(
    params: ModelParams,
    d: BatchDecision,
    lambda1: float = 0.0,
    lambda2: float = 0.0,
) -> float:
    """Stationarity defect of the floor-space Lagrangian at d.

    Each Lagrangian component is divided by the exact curvature of f1 along
    its coordinate times the coordinate (2*alpha/Qp^2, 2*gamma/Qr^2), that
    is, it is the length of the coordinate-wise Newton step relative to the
    coordinate, which makes the residual dimension-free.
    """
    cm = CostModel(params)
    gp, gr = _gradient(cm, d.Qp, d.Qr)
    a, b = _repair_row(params, cm)
    lp = gp + lambda1 * params.p1 + lambda2 * a
    lr = gr + lambda2 * b
    return max(
        abs(lp) * d.Qp * d.Qp / (2.0 * cm.alpha),
        abs(lr) * d.Qr * d.Qr / (2.0 * cm.gamma),
    )


# -- solvers -------------------------------------------------------------------


def solve_unconstrained(params: ModelParams) -> UnconstrainedSolution:
    """Optimal batch sizes ignoring the floor constraints."""
    cm = CostModel(params)
    d = BatchDecision(Qp=math.sqrt(cm.alpha / cm.beta), Qr=math.sqrt(cm.gamma / cm.delta))
    gnorm = gradient_norm(params, d)
    if not (gnorm < 1e-4):
        raise SolverError(
            f"stationarity check failed at {d}: relative gradient {gnorm!r}"
        )
    return UnconstrainedSolution(decision=d, f1=cm.average_cost(d.Qp, d.Qr), grad_norm=gnorm)


def _case3_multiplier(cm: CostModel, a: float, b: float, k2: float) -> float | None:
    """Repair multiplier l2 that puts the repair floor exactly at capacity.

    At multiplier l2 the stationary batches are Qp(l2) = sqrt(alpha/(beta + l2*a))
    and Qr(l2) = sqrt(gamma/(delta + l2*b)), so the floor usage
    a*Qp(l2) + b*Qr(l2) is convex and strictly decreasing from its value at
    the unconstrained optimum toward 0.  Newton's method from l2 = 0 climbs
    monotonically to the unique root of usage = k2 without overshooting.
    None when the floor does not bind or the root exceeds _MAX_MULTIPLIER.
    """
    l2 = 0.0
    for _ in range(200):
        qp = math.sqrt(cm.alpha / (cm.beta + l2 * a))
        qr = math.sqrt(cm.gamma / (cm.delta + l2 * b))
        excess = a * qp + b * qr - k2
        if excess <= 0.0:
            break
        # -d(usage)/d(l2), from dQp/dl2 = -a*Qp^3/(2*alpha) and likewise for Qr
        slope = a * a * qp**3 / (2.0 * cm.alpha) + b * b * qr**3 / (2.0 * cm.gamma)
        step = excess / slope
        l2 += step
        if l2 > _MAX_MULTIPLIER:
            return None
        if step <= 1e-15 * l2:
            break
    return l2 if l2 > 0.0 else None


def _cond_2x2_upper(a: float, b: float, c: float) -> float:
    """Condition number of [[a, b], [0, c]] in the spectral norm."""
    det = abs(a * c)
    if det == 0.0:
        return math.inf
    s = a * a + b * b + c * c
    disc = math.sqrt(max(s * s - 4.0 * det * det, 0.0))
    smax = math.sqrt((s + disc) / 2.0)
    smin = math.sqrt(max((s - disc) / 2.0, 0.0))
    return math.inf if smin == 0.0 else smax / smin


def solve_constrained(params: ModelParams) -> KktSolution:
    """Cheapest KKT configuration of the floor-space constrained problem.

    All four constraint-activity patterns are evaluated; a candidate is kept
    when its multipliers exceed MULTIPLIER_TOL and its point satisfies both
    floors.  With both floors infinite this reduces exactly to the
    unconstrained solution (Case I).
    """
    cm = CostModel(params)
    a, b = _repair_row(params, cm)

    def feasible(qp: float, qr: float) -> bool:
        ok1 = cm.supply_slack(qp) >= -_FEAS_TOL * max(1.0, abs(params.k1))
        if math.isinf(params.k1):
            ok1 = True
        ok2 = True
        if not math.isinf(params.k2):
            ok2 = cm.repair_slack(qp, qr) >= -_FEAS_TOL * max(1.0, abs(params.k2))
        return ok1 and ok2

    candidates: list[KktSolution] = []

    def add(case: str, qp: float, qr: float, l1: float, l2: float) -> None:
        d = BatchDecision(Qp=qp, Qr=qr)
        candidates.append(
            KktSolution(
                case=case,
                decision=d,
                lambda1=l1,
                lambda2=l2,
                f1=cm.average_cost(qp, qr),
                feasible=True,
                kkt_residual=kkt_residual(params, d, l1, l2),
            )
        )

    # Case I: neither floor active.
    qp0 = math.sqrt(cm.alpha / cm.beta)
    qr0 = math.sqrt(cm.gamma / cm.delta)
    if feasible(qp0, qr0):
        add("I", qp0, qr0, 0.0, 0.0)

    # Case II: supply floor active; Qr keeps its stationary value.
    if math.isfinite(params.k1):
        qp = params.k1 / params.p1
        l1 = (cm.alpha / (qp * qp) - cm.beta) / params.p1
        if l1 > MULTIPLIER_TOL and feasible(qp, qr0):
            add("II", qp, qr0, l1, 0.0)

    # Case III: repair floor active.
    if math.isfinite(params.k2):
        l2 = _case3_multiplier(cm, a, b, params.k2)
        if l2 is not None and l2 > MULTIPLIER_TOL:
            qp = math.sqrt(cm.alpha / (cm.beta + l2 * a))
            qr = cm.repair_cap(qp)
            if feasible(qp, qr):
                add("III", qp, qr, 0.0, l2)

    # Case IV: both floors active; the multipliers solve a triangular system.
    if math.isfinite(params.k1) and math.isfinite(params.k2):
        qp = params.k1 / params.p1
        qr = cm.repair_cap(qp)
        if qr > 0.0 and _cond_2x2_upper(params.p1, a, b) <= 1e12:
            gp, gr = _gradient(cm, qp, qr)
            l2 = -gr / b
            l1 = -(gp + l2 * a) / params.p1
            if l1 > MULTIPLIER_TOL and l2 > MULTIPLIER_TOL and feasible(qp, qr):
                add("IV", qp, qr, l1, l2)

    if not candidates:
        raise NoKktPointError(
            "no constraint-activity pattern yields positive multipliers and a "
            "feasible point; the floor constraints are likely inconsistent"
        )

    best = min(candidates, key=lambda s: (s.f1, _CASE_ORDER[s.case]))
    _validate(params, cm, best)
    return best


def _validate(params: ModelParams, cm: CostModel, sol: KktSolution) -> None:
    """Defensive certification of the returned KKT point."""
    if sol.kkt_residual >= 1e-6:
        raise SolverError(
            f"case {sol.case} solution has stationarity residual {sol.kkt_residual!r}"
        )
    d = sol.decision
    if math.isfinite(params.k1):
        comp1 = sol.lambda1 * cm.supply_slack(d.Qp)
        if abs(comp1) >= 1e-6 * max(1.0, abs(params.k1)):
            raise SolverError(f"complementary slackness violated on the supply floor: {comp1!r}")
    if math.isfinite(params.k2):
        comp2 = sol.lambda2 * cm.repair_slack(d.Qp, d.Qr)
        if abs(comp2) >= 1e-6 * max(1.0, abs(params.k2)):
            raise SolverError(f"complementary slackness violated on the repair floor: {comp2!r}")
