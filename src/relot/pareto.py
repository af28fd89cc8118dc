"""Three-objective trade-off exploration for the reverse-logistics model.

Objectives: f1 average cost rate, f2 emissions, f3 energy use.  A weight
grid over the interior of the 2-simplex drives an objective-constraint
scalarization: for weight w and index k, minimize w_k*f_k(x) subject to
w_i*f_i(x) <= w_k*f_k(anchor) for the other two objectives, over the
floor-feasible region with production factor M >= eps_m.

Per weight, each of the three subproblems is anchored at the best
candidate (the three individual minimizers plus the box center, ranked by
weighted-max merit) that gives the subproblem a provably non-empty
region, then re-anchored once at its own output.  Coincident triples are
recorded as efficient, otherwise the non-dominated members of the triple
as weak-efficient; a final global dominance filter produces the front.

When any objective is non-positive at the individual minima, all three
objectives are shifted by s_i = max(0, -min f_i) + 1 inside the
scalarization; reported objective values are never shifted.

f2 and f3 depend on the decision only through Qp (the n*Qr term in f3
equals C2*Qp), so their subproblems are flat along Qr.  Their outputs
take the f1-best repair batch min(Qr*, repair_cap(Qp)) at their Qp, the
best member of that degenerate optimal set; f2 and f3 stay unchanged by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytic import solve_unconstrained
from .minimize import ScalarProgram, SolveResult, minimize
from .model import (
    EPS_M,
    BatchDecision,
    CostModel,
    DomainError,
    ModelParams,
    ParameterError,
)

__all__ = [
    "RANK_EFFICIENT",
    "RANK_WEAK",
    "InfeasibleModelError",
    "WeightVector",
    "ObjectiveVector",
    "ParetoPoint",
    "FrontDiagnostics",
    "ParetoFront",
    "weight_grid",
    "dominance_filter",
    "decision_box",
    "scalar_subproblem",
    "pareto_front",
]

RANK_EFFICIENT = "efficient"
RANK_WEAK = "weak-efficient"

# Decisions closer than this (relative, per coordinate) count as the same point.
COINCIDENCE_RTOL = 1e-6
# The emissions-domain bound is enforced with this interior margin so that
# solver output satisfies M >= eps_m exactly despite feasibility tolerances.
_M_MARGIN = 2e-8


class InfeasibleModelError(RuntimeError):
    """Raised when the constrained region contains no admissible decision."""


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive weights summing to one."""

    w1: float
    w2: float
    w3: float

    def __post_init__(self) -> None:
        total = self.w1 + self.w2 + self.w3
        if not all(w > 0.0 for w in (self.w1, self.w2, self.w3)):
            raise DomainError(f"weights must be strictly positive, got {self.as_tuple()}")
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w1, self.w2, self.w3)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class ObjectiveVector:
    f1: float
    f2: float
    f3: float

    def __post_init__(self) -> None:
        for name in ("f1", "f2", "f3"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.f1, self.f2, self.f3)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class ParetoPoint:
    decision: BatchDecision
    objectives: ObjectiveVector
    weight: WeightVector
    rank: str
    subproblem: int  # which scalarized objective (1..3) produced the point


@dataclass(frozen=True)
class FrontDiagnostics:
    grid_count: int
    solved: int
    skipped_infeasible: int
    refine_fallbacks: int
    shifts: tuple[float, float, float]
    individual_minima: tuple[BatchDecision, BatchDecision, BatchDecision]
    individual_values: tuple[float, float, float]
    recorded: int
    deduplicated: int
    front_size: int


@dataclass(frozen=True)
class ParetoFront:
    points: tuple[ParetoPoint, ...]
    diagnostics: FrontDiagnostics

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _as_triple(obj) -> tuple[float, float, float]:
    if isinstance(obj, ObjectiveVector):
        return obj.as_tuple()
    t = tuple(float(v) for v in obj)
    if len(t) != 3:
        raise DomainError(f"expected three objective values, got {len(t)}")
    return t


def weight_grid(m: int) -> list[WeightVector]:
    """Interior lattice of the 2-simplex with spacing 1/m.

    Contains (i/m, j/m, (m-i-j)/m) for i, j >= 1, i + j <= m - 1; that is
    (m-1)(m-2)/2 vectors, every component at least 1/m.
    """
    if not isinstance(m, int) or m < 2:
        raise DomainError(f"grid subdivisions must be an integer >= 2, got {m!r}")
    grid = []
    for i in range(1, m - 1):
        for j in range(1, m - i):
            grid.append(WeightVector(i / m, j / m, (m - i - j) / m))
    return grid


def dominance_filter(points: Sequence) -> list[int]:
    """Indices of points not dominated by any other, original order kept.

    u dominates v when u <= v componentwise with at least one strict
    component; identical vectors do not dominate each other.
    """
    arr = np.asarray([_as_triple(p) for p in points], dtype=float)
    n = len(arr)
    if n <= 1:
        return list(range(n))
    keep = np.ones(n, dtype=bool)
    chunk = max(1, int(5_000_000 // n))
    for s in range(0, n, chunk):
        blk = arr[s : s + chunk]
        le = (arr[:, None, :] <= blk[None, :, :]).all(axis=2)
        lt = (arr[:, None, :] < blk[None, :, :]).any(axis=2)
        keep[s : s + chunk] &= ~(le & lt).any(axis=0)
    return [i for i in range(n) if keep[i]]


# -- search region --------------------------------------------------------------


def decision_box(
    params: ModelParams,
    *,
    eps_m: float = EPS_M,
    emissions_domain: bool | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Bound box for numeric searches.

    Spans well past the unconstrained optimum, is cut by the supply floor,
    and (when the emissions/energy model is in play) starts at the smallest
    Qp whose production factor clears eps_m, so every point in the box is
    emissions-admissible.
    """
    cm = CostModel(params)
    star = solve_unconstrained(params).decision
    if emissions_domain is None:
        emissions_domain = params.has_emissions

    qp_hi = 3.0 * star.Qp
    if params.has_emissions and params.ap > 0.0 and params.bp > 0.0:
        p_best = params.bp / (2.0 * params.ap)  # unconstrained minimizer of f2 in P
        m_best = params.Dp / p_best
        if 0.0 < m_best < 1.0:
            qp_hi = max(qp_hi, 2.0 * cm.min_qp_for_factor(m_best))
    if math.isfinite(params.k1):
        qp_hi = min(qp_hi, params.k1 / params.p1)
    qp_lo = min(star.Qp, qp_hi) / 50.0
    if emissions_domain:
        qp_lo = max(qp_lo, cm.min_qp_for_factor(eps_m + _M_MARGIN))
    if not qp_lo < qp_hi:
        raise InfeasibleModelError(
            f"no admissible Qp: floor cap {qp_hi!r} below domain floor {qp_lo!r}"
        )

    qr_hi = 3.0 * star.Qr
    if math.isfinite(params.k2):
        cap = cm.repair_cap(qp_lo)
        if cap <= 0.0:
            raise InfeasibleModelError(
                f"repair floor {params.k2!r} admits no positive repair batch"
            )
        qr_hi = min(qr_hi, cap)
    qr_lo = min(star.Qr, qr_hi) / 50.0
    if not qr_lo < qr_hi:
        raise InfeasibleModelError("no admissible Qr range under the repair floor")
    return (qp_lo, qr_lo), (qp_hi, qr_hi)


def _floor_constraints(params: ModelParams, cm: CostModel, lower, upper) -> list:
    """Floor constraints, normalized; omitted when the box already implies them."""
    cons = []
    if math.isfinite(params.k1) and cm.supply_slack(upper[0]) < 0.0:
        scale = max(1.0, abs(params.k1))
        cons.append(lambda qp, qr, _s=scale: -cm.supply_slack(qp) / _s)
    if math.isfinite(params.k2) and cm.repair_slack(upper[0], upper[1]) < 0.0:
        scale = max(1.0, abs(params.k2))
        cons.append(lambda qp, qr, _s=scale: -cm.repair_slack(qp, qr) / _s)
    return cons


def _feasible_decision(params: ModelParams, cm: CostModel, dec: BatchDecision, eps_m: float) -> bool:
    """Feasibility of a decision for the original constraint set."""
    tol1 = 1e-8 * (max(1.0, params.k1) if math.isfinite(params.k1) else 1.0)
    tol2 = 1e-8 * (max(1.0, params.k2) if math.isfinite(params.k2) else 1.0)
    if cm.supply_slack(dec.Qp) < -tol1 or cm.repair_slack(dec.Qp, dec.Qr) < -tol2:
        return False
    if params.has_emissions and cm.production_factor(dec.Qp) < eps_m:
        return False
    return True


# -- scalarized subproblem -------------------------------------------------------


def scalar_subproblem(
    params: ModelParams,
    w: WeightVector,
    k: int,
    anchor,
    *,
    shifts: tuple[float, float, float] = (0.0, 0.0, 0.0),
    eps_m: float = EPS_M,
    bounds=None,
    seeds: Sequence[tuple[float, float]] = (),
    lattice: tuple[int, int] = (4, 4),
    budget: int = 4000,
    objective_floors: tuple[float, float, float] | None = None,
) -> SolveResult:
    """Minimize w_k*(f_k + s_k) subject to w_i*(f_i + s_i) <= w_k*(f_k(anchor) + s_k).

    ``anchor`` provides objective values only (an ObjectiveVector or any
    3-sequence); +inf components drop the corresponding constraint, so an
    all-inf anchor degenerates to plain single-objective minimization.
    ``objective_floors`` are known lower bounds of the unshifted objectives
    over the region; a subproblem whose bound already exceeds the anchored
    level returns an infeasible report without searching (iterations == 0).
    """
    if k not in (1, 2, 3):
        raise DomainError(f"subproblem index must be 1, 2 or 3, got {k!r}")
    anchor_vals = tuple(
        float(v) for v in (anchor.as_tuple() if isinstance(anchor, ObjectiveVector) else anchor)
    )
    if len(anchor_vals) != 3:
        raise DomainError("anchor must supply three objective values")
    wt = w.as_tuple()
    cm = CostModel(params)

    needs_m = k != 1 or any(
        i != k - 1 and math.isfinite(anchor_vals[i]) for i in range(3)
    )
    if needs_m and not params.has_sustainability:
        raise ParameterError("emissions/energy coefficients are required for this subproblem")
    if bounds is None:
        bounds = decision_box(params, eps_m=eps_m, emissions_domain=needs_m)
    lower, upper = bounds

    funcs = {
        1: cm.average_cost,
        2: lambda qp, qr: cm.ghg_value(qp),
        3: cm.energy_value,
    }
    fk = funcs[k]
    sk = shifts[k - 1]
    wk = wt[k - 1]
    rhs = wk * (anchor_vals[k - 1] + sk)

    def objective(qp, qr, _f=fk, _w=wk, _s=sk):
        return _w * (_f(qp, qr) + _s)

    cons = list(_floor_constraints(params, cm, lower, upper))
    if math.isfinite(rhs):
        scale = max(1.0, abs(rhs))
        for i in (0, 1, 2):
            if i == k - 1:
                continue
            if objective_floors is not None:
                bound = wt[i] * (objective_floors[i] + shifts[i])
                if bound > rhs + 1e-12 * scale:
                    center = (
                        math.sqrt(lower[0] * upper[0]),
                        math.sqrt(lower[1] * upper[1]),
                    )
                    return SolveResult(
                        decision=BatchDecision(Qp=center[0], Qr=center[1]),
                        value=math.inf,
                        feasible=False,
                        iterations=0,
                        starts=0,
                        max_violation=(bound - rhs) / scale,
                    )
            cons.append(
                lambda qp, qr, _f=funcs[i + 1], _w=wt[i], _s=shifts[i], _r=rhs, _sc=scale: (
                    _w * (_f(qp, qr) + _s) - _r
                )
                / _sc
            )

    prog = ScalarProgram(
        objective=objective,
        lower=lower,
        upper=upper,
        constraints=tuple(cons),
    )
    return minimize(prog, seeds=seeds, lattice=lattice, budget=budget)


# -- front construction ----------------------------------------------------------


def _coincident(a: BatchDecision, b: BatchDecision, rtol: float) -> bool:
    return abs(a.Qp - b.Qp) <= rtol * max(abs(a.Qp), abs(b.Qp)) and abs(
        a.Qr - b.Qr
    ) <= rtol * max(abs(a.Qr), abs(b.Qr))


def pareto_front(
    params: ModelParams,
    m: int,
    *,
    eps_m: float = EPS_M,
    lattice: tuple[int, int] = (3, 3),
    budget: int = 4000,
    min_lattice: tuple[int, int] = (7, 7),
    min_budget: int = 24000,
    map_fn: Callable[..., Iterable] = map,
) -> ParetoFront:
    """Approximate the efficient frontier of (f1, f2, f3) on a weight grid.

    Per weight: anchor each scalarized subproblem at the best-merit
    feasible candidate that gives it a non-empty region, solve, refine once
    anchored at the subproblem's own output (falling back to the first
    output when the refinement reports infeasible), classify the triple
    (coincident -> efficient, otherwise its non-dominated members ->
    weak-efficient), then filter the union of all recorded points.

    Grid points are independent work units; ``map_fn`` may be replaced by a
    parallel map, and results are merged in grid order so the output does
    not depend on execution interleaving.
    """
    if not params.has_sustainability:
        raise ParameterError(
            "the three-objective model needs the emissions and energy coefficients"
        )

    cm = CostModel(params)
    bounds = decision_box(params, eps_m=eps_m, emissions_domain=True)
    lower, upper = bounds
    floors = _floor_constraints(params, cm, lower, upper)
    funcs = (
        cm.average_cost,
        lambda qp, qr: cm.ghg_value(qp),
        cm.energy_value,
    )

    cache: dict[tuple[float, float], tuple[float, float, float]] = {}

    def triple(dec: BatchDecision) -> tuple[float, float, float]:
        key = dec.as_tuple()
        got = cache.get(key)
        if got is None:
            got = (funcs[0](*key), funcs[1](*key), funcs[2](*key))
            cache[key] = got
        return got

    # Individual minima of each objective over the admissible region.
    star = solve_unconstrained(params).decision

    def cheapest_repair(dec: BatchDecision) -> BatchDecision:
        """The f1-best repair batch at dec.Qp: f1 is convex in Qr with its
        minimum at Qr*, and f2, f3 do not depend on Qr."""
        return BatchDecision(Qp=dec.Qp, Qr=min(star.Qr, cm.repair_cap(dec.Qp)))

    base_seed = (
        min(max(star.Qp, lower[0]), upper[0]),
        min(max(star.Qr, lower[1]), upper[1]),
    )
    minima: list[BatchDecision] = []
    floor_values: list[float] = []
    for idx, fi in enumerate(funcs):
        res = minimize(
            ScalarProgram(objective=fi, lower=lower, upper=upper, constraints=tuple(floors)),
            seeds=(base_seed,),
            lattice=min_lattice,
            budget=min_budget,
        )
        if not res.feasible:
            raise InfeasibleModelError(
                "an individual objective minimization found no feasible point"
            )
        dec = res.decision
        if idx > 0:
            dec = cheapest_repair(dec)
        minima.append(dec)
        floor_values.append(res.value)

    # Positivity shifts from the values observed at the minima.
    observed = [min(triple(d)[i] for d in minima) for i in range(3)]
    if any(v <= 0.0 for v in observed):
        shifts = tuple(max(0.0, -v) + 1.0 for v in observed)
    else:
        shifts = (0.0, 0.0, 0.0)

    # Anchor candidates: the three minimizers plus the box center.
    center = BatchDecision(
        Qp=math.sqrt(lower[0] * upper[0]), Qr=math.sqrt(lower[1] * upper[1])
    )
    candidates = [
        d for d in (*minima, center) if _feasible_decision(params, cm, d, eps_m)
    ]
    if not candidates:
        raise InfeasibleModelError("no feasible anchor candidate")

    floor_triple = (floor_values[0], floor_values[1], floor_values[2])
    grid = weight_grid(m)
    seeds_base = [d.as_tuple() for d in minima]

    def solve_weight(item):
        gi, w = item
        wt = w.as_tuple()
        by_merit = sorted(
            candidates,
            key=lambda d: (
                max(wt[i] * (triple(d)[i] + shifts[i]) for i in range(3)),
                d.Qp,
                d.Qr,
            ),
        )
        recs = []
        solved = skipped = fallbacks = 0
        finals: dict[int, BatchDecision] = {}
        for k in (1, 2, 3):
            result: BatchDecision | None = None
            # First pass: anchor at the best candidate whose subproblem is
            # not provably empty; later candidates give laxer levels.
            for anchor_dec in by_merit:
                assert _feasible_decision(params, cm, anchor_dec, eps_m)
                sub = scalar_subproblem(
                    params,
                    w,
                    k,
                    triple(anchor_dec),
                    shifts=shifts,
                    eps_m=eps_m,
                    bounds=bounds,
                    seeds=[anchor_dec.as_tuple()] + seeds_base,
                    lattice=lattice,
                    budget=budget,
                    objective_floors=floor_triple,
                )
                if sub.iterations:
                    solved += 1
                if sub.feasible:
                    result = sub.decision
                    break
            if result is None:
                skipped += 1
                continue
            # Refinement pass anchored at the first pass's own output.
            assert _feasible_decision(params, cm, result, eps_m)
            sub = scalar_subproblem(
                params,
                w,
                k,
                triple(result),
                shifts=shifts,
                eps_m=eps_m,
                bounds=bounds,
                seeds=[result.as_tuple()] + seeds_base,
                lattice=(2, 2),
                budget=budget,
                objective_floors=floor_triple,
            )
            if sub.iterations:
                solved += 1
            if sub.feasible:
                result = sub.decision
            else:
                fallbacks += 1
            if k != 1:
                result = cheapest_repair(result)
            finals[k] = result

        if len(finals) == 3 and all(
            _coincident(finals[1], finals[k], COINCIDENCE_RTOL) for k in (2, 3)
        ) and _coincident(finals[2], finals[3], COINCIDENCE_RTOL):
            d = finals[1]
            recs.append((gi, 1, d, triple(d), RANK_EFFICIENT))
        elif finals:
            ks = sorted(finals)
            objs = [triple(finals[k]) for k in ks]
            for pos in dominance_filter(objs):
                k = ks[pos]
                recs.append((gi, k, finals[k], objs[pos], RANK_WEAK))
        return recs, solved, skipped, fallbacks

    solved = skipped = fallbacks = 0
    records: list[tuple[int, int, BatchDecision, tuple[float, float, float], str]] = []
    for recs, n_solved, n_skipped, n_fallbacks in map_fn(solve_weight, enumerate(grid)):
        records.extend(recs)
        solved += n_solved
        skipped += n_skipped
        fallbacks += n_fallbacks
    records.sort(key=lambda r: (r[0], r[1]))

    # Collapse coincident decisions recorded from different weights, keeping
    # the representative with the lexicographically smallest objectives.
    kept: list[list] = []
    collapsed = 0
    for rec in records:
        hit = None
        for slot in kept:
            if _coincident(rec[2], slot[2], COINCIDENCE_RTOL):
                hit = slot
                break
        if hit is None:
            kept.append(list(rec))
        else:
            collapsed += 1
            if rec[3] < hit[3]:
                hit[0], hit[1], hit[2], hit[3], hit[4] = rec

    survivors = dominance_filter([slot[3] for slot in kept]) if kept else []
    points = tuple(
        ParetoPoint(
            decision=kept[i][2],
            objectives=ObjectiveVector(*kept[i][3]),
            weight=grid[kept[i][0]],
            rank=kept[i][4],
            subproblem=kept[i][1],
        )
        for i in survivors
    )
    diagnostics = FrontDiagnostics(
        grid_count=len(grid),
        solved=solved,
        skipped_infeasible=skipped,
        refine_fallbacks=fallbacks,
        shifts=shifts,
        individual_minima=(minima[0], minima[1], minima[2]),
        individual_values=floor_triple,
        recorded=len(records),
        deduplicated=collapsed,
        front_size=len(points),
    )
    return ParetoFront(points=points, diagnostics=diagnostics)
