"""Three-objective trade-off exploration for the reverse-logistics model.

Objectives: f1 average cost rate, f2 emissions, f3 energy use.  A weight
grid over the interior of the 2-simplex drives an objective-constraint
scalarization: for weight w and index k, minimize w_k*f_k(x) subject to
w_i*f_i(x) <= w_k*f_k(anchor) for the other two objectives, over the
floor-feasible region with production factor M >= EPS_M.

f2 and f3 depend on the decision only through Qp (the n*Qr term in f3
equals C2*Qp), and f1 is convex in Qr with its minimum at Qr*.  Every
efficient decision therefore holds the f1-best repair batch
Qr = min(Qr*, repair_cap(Qp)) (``CostModel.best_repair``), and along that
line the three individual minima are exact:

* reduced f1 is convex in Qp, so its minimizer is the Qp of the
  repair-floor-only optimum, clipped into the admissible Qp range;
* f2 is a parabola in P = Dp/M with M increasing in Qp, so its minimizer
  is ``CostModel.ghg_minimizer`` clipped into the range;
* f3 is affine and non-decreasing in M, so its minimizer is the bottom
  of the range (the f1 minimizer when f3 is constant).

The admissible Qp range is the search box's, cut where repair_cap(Qp)
falls to the box's lower Qr.  A constant f2 also takes the f1 minimizer.

Per weight, each of the three subproblems is anchored at the best
candidate (the three individual minimizers plus the box center, ranked by
weighted-max merit) whose region is not provably empty, and
``pareto_front`` makes every decision that needs no search.  Subproblem k
is answered exactly by x_k*, the individual minimizer of f_k, whenever
x_k* meets the anchored levels of the other two objectives: x_k*
minimizes f_k over the whole region, so it is then an optimum.  A level
below w_i*(f_i(x_i*) + s_i) for some i != k leaves the region provably
empty.  Subproblem 3 is answered exactly at the edge of its levels
(``_energy_edge``): along the repair line each level is a Qp interval
around x_i*, and f3 does not fall as Qp rises, so the lowest Qp that meets
both levels is an optimum, and none means the region is empty.  The
remaining subproblems 1 and 2 are searched (``scalar_subproblem``), and a
search's output takes the f1-best repair batch at its Qp.
Coincident triples are recorded as efficient, otherwise the non-dominated
members of the triple as weak-efficient; coincident records collapse
(``_collapse``) and a global dominance filter produces the front.

When any objective is non-positive at its individual minimum, all three
objectives are shifted by s_i = max(0, -min f_i) + 1 inside the
scalarization; reported objective values are never shifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analytic import solve_constrained, solve_unconstrained
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
# solver output satisfies M >= EPS_M exactly despite feasibility tolerances.
_M_MARGIN = 2e-8
# Start lattice and evaluation budget of each scalarized subproblem of a front.
SUBPROBLEM_LATTICE = (3, 3)
SUBPROBLEM_BUDGET = 4000


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
    """Counts and anchors of one front.

    ``solved`` counts the numeric searches (``scalar_subproblem`` calls);
    ``exact`` counts subproblems answered exactly without a search: by
    their objective's individual minimizer x_k*, or at subproblem 3's level
    edge (``_energy_edge``); ``skipped_infeasible`` counts those left
    without a point; ``deduplicated`` counts the records dropped because
    a run of Qp-sorted records within COINCIDENCE_RTOL of the run's first
    record keeps one of them (``_collapse``).
    """

    grid_count: int
    solved: int
    exact: int
    skipped_infeasible: int
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

    Points are visited in lexicographic order (f1, then f2, then f3).  A
    point that dominates v sorts strictly before v, and when v is dominated
    at all, a non-dominated point dominates it (dominance is transitive and
    the set is finite).  So each point is compared with the survivors kept
    so far only (Kung, Luccio & Preparata, JACM 1975): O(n*h) comparisons
    for h survivors, against n^2 for an all-pairs pass.

    An (n, 3) ndarray is used as it is; any other sequence is read one
    point at a time.
    """
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or points.shape[1] != 3:
            raise DomainError(f"expected an (n, 3) array of objective values, got {points.shape}")
        arr = points.astype(float, copy=False)
    else:
        arr = np.asarray([_as_triple(p) for p in points], dtype=float).reshape(-1, 3)
    kept = np.empty_like(arr)
    keep: list[int] = []
    for i in np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0])).tolist():
        v, s = arr[i], kept[: len(keep)]
        if not ((s <= v).all(axis=1) & (s < v).any(axis=1)).any():
            kept[len(keep)] = v
            keep.append(i)
    return sorted(keep)


# -- search region --------------------------------------------------------------


def decision_box(
    params: ModelParams,
    *,
    emissions_domain: bool | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Bound box for numeric searches.

    Spans well past the unconstrained optimum, is cut by the supply floor,
    and (when the emissions/energy model is in play) starts at the smallest
    Qp whose production factor clears EPS_M, so every point in the box is
    emissions-admissible.
    """
    cm = CostModel(params)
    star = solve_unconstrained(params).decision
    if emissions_domain is None:
        emissions_domain = params.has_emissions

    qp_hi = 3.0 * star.Qp
    if params.has_emissions:
        qp_f2 = cm.ghg_minimizer()
        if qp_f2 is not None and 0.0 < qp_f2 < math.inf:
            qp_hi = max(qp_hi, 2.0 * qp_f2)
    if math.isfinite(params.k1):
        qp_hi = min(qp_hi, params.k1 / params.p1)
    qp_lo = min(star.Qp, qp_hi) / 50.0
    if emissions_domain:
        qp_lo = max(qp_lo, cm.min_qp_for_factor(EPS_M + _M_MARGIN))
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


def _feasible_decision(params: ModelParams, cm: CostModel, dec: BatchDecision) -> bool:
    """Feasibility of a decision for the original constraint set."""
    tol1 = 1e-8 * (max(1.0, params.k1) if math.isfinite(params.k1) else 1.0)
    tol2 = 1e-8 * (max(1.0, params.k2) if math.isfinite(params.k2) else 1.0)
    if cm.supply_slack(dec.Qp) < -tol1 or cm.repair_slack(dec.Qp, dec.Qr) < -tol2:
        return False
    if params.has_emissions and cm.production_factor(dec.Qp) < EPS_M:
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
    bounds=None,
    seeds: Sequence[tuple[float, float]] = (),
) -> SolveResult:
    """Minimize w_k*(f_k + s_k) subject to w_i*(f_i + s_i) <= w_k*(f_k(anchor) + s_k).

    ``anchor`` provides objective values only (an ObjectiveVector or any
    3-sequence); +inf components drop the corresponding constraint, so an
    all-inf anchor degenerates to plain single-objective minimization.
    Every call is a search by ``minimize`` on SUBPROBLEM_LATTICE starts
    plus ``seeds``, with SUBPROBLEM_BUDGET evaluations per start.
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
        bounds = decision_box(params, emissions_domain=needs_m)
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
    return minimize(prog, seeds=seeds, lattice=SUBPROBLEM_LATTICE, budget=SUBPROBLEM_BUDGET)


# -- front construction ----------------------------------------------------------


def _energy_edge(
    cm: CostModel,
    wt: tuple[float, float, float],
    shifts: tuple[float, float, float],
    level: float,
    qp_lo: float,
    minima: Sequence[BatchDecision],
) -> float | None:
    """The lowest Qp on the repair line meeting the f1 and f2 levels, or None.

    Subproblem 3 minimizes f3, which does not fall as Qp rises, subject to
    w_i*(f_i + s_i) <= ``level`` for i = 1, 2.  Along the repair line
    Qr = best_repair(Qp) reduced f1 is convex and f2 quasiconvex, so each
    level holds on a Qp interval around x_i* and does not rise on
    [qp_lo, x_i*].  Bisection to adjacent floats finds each interval's left
    edge a_i.  The intersection of the two intervals is non-empty exactly
    when max(a_1, a_2) lies in both, and that Qp is then an optimum.  The
    levels are evaluated by the same float expressions as the search's
    constraints, so the answer meets them in floating point, and the float
    just below it misses one of them or lies below qp_lo.
    """

    def weighted(i: int, qp: float) -> float:
        f = cm.average_cost(qp, cm.best_repair(qp)) if i == 0 else cm.ghg_value(qp)
        return wt[i] * (f + shifts[i])

    def left_edge(i: int) -> float | None:
        lo, hi = qp_lo, minima[i].Qp
        if not weighted(i, hi) <= level:
            return None
        if weighted(i, lo) <= level:
            return lo
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return hi
            if weighted(i, mid) <= level:
                hi = mid
            else:
                lo = mid

    edges = [left_edge(0), left_edge(1)]
    if None in edges:
        return None
    qp = max(edges)
    if weighted(0, qp) <= level and weighted(1, qp) <= level:
        return qp
    return None


def _coincident(a: BatchDecision, b: BatchDecision, rtol: float) -> bool:
    return abs(a.Qp - b.Qp) <= rtol * max(abs(a.Qp), abs(b.Qp)) and abs(
        a.Qr - b.Qr
    ) <= rtol * max(abs(a.Qr), abs(b.Qr))


def _collapse(records: list) -> list:
    """One representative per run of coincident records.

    A record is (grid index, k, decision, objectives, rank).  Records are
    visited in (Qp, record index) order; each joins the current run when
    it is coincident with the run's first record, so a run spans at most
    COINCIDENCE_RTOL, and otherwise starts a new run.  Each run keeps its
    record with the lexicographically smallest objectives, the earliest on
    ties, and the runs come out in the order of their earliest record.
    A record's place in the list only breaks ties.
    """
    order = sorted(range(len(records)), key=lambda i: (records[i][2].Qp, i))
    runs: list[list[int]] = []
    for i in order:
        if runs and _coincident(records[i][2], records[runs[-1][0]][2], COINCIDENCE_RTOL):
            runs[-1].append(i)
        else:
            runs.append([i])
    best = sorted((min(run), min(run, key=lambda i: (records[i][3], i))) for run in runs)
    return [records[i] for _, i in best]


def pareto_front(params: ModelParams, m: int) -> ParetoFront:
    """Approximate the efficient frontier of (f1, f2, f3) on a weight grid.

    The individual minima are exact (see the module docstring).  Per
    weight, each scalarized subproblem is anchored at the best-merit
    feasible candidate whose region is not provably empty.  Subproblem k
    takes x_k* itself when x_k* meets the anchored levels of the other two
    objectives, and otherwise subproblem 3 takes the lowest Qp on the
    repair line that meets both levels (both counted in ``exact``); an
    anchor whose levels no Qp meets passes to the next candidate.
    Subproblems 1 and 2 are otherwise searched numerically (counted in
    ``solved``), and a search's output takes the f1-best repair batch at
    its Qp.  The triple is classified (coincident ->
    efficient, otherwise its non-dominated members -> weak-efficient),
    coincident records collapse, and the rest is filtered.
    """
    if not params.has_sustainability:
        raise ParameterError(
            "the three-objective model needs the emissions and energy coefficients"
        )

    cm = CostModel(params)
    bounds = decision_box(params, emissions_domain=True)
    lower, upper = bounds
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

    def on_repair_line(qp: float) -> BatchDecision:
        return BatchDecision(Qp=qp, Qr=cm.best_repair(qp))

    # Exact individual minima over the Qp range where the f1-best repair
    # batch stays inside the box.
    qp_lo = lower[0]
    qp_hi = min(upper[0], cm.repair_qp_cap(lower[1]))

    def clip(qp: float) -> float:
        return min(max(qp, qp_lo), qp_hi)

    qp_f1 = clip(solve_constrained(replace(params, k1=math.inf)).decision.Qp)
    qp_f2 = cm.ghg_minimizer()
    qp_f2 = qp_f1 if qp_f2 is None else clip(qp_f2)
    qp_f3 = qp_lo if params.Wp > 0.0 else qp_f1
    minima = tuple(on_repair_line(qp) for qp in (qp_f1, qp_f2, qp_f3))
    minimum_values = tuple(triple(d)[i] for i, d in enumerate(minima))

    # Positivity shifts from the individual minimum values.
    if any(v <= 0.0 for v in minimum_values):
        shifts = tuple(max(0.0, -v) + 1.0 for v in minimum_values)
    else:
        shifts = (0.0, 0.0, 0.0)

    # Anchor candidates: the three minimizers plus the box center.
    center = BatchDecision(
        Qp=math.sqrt(lower[0] * upper[0]), Qr=math.sqrt(lower[1] * upper[1])
    )
    candidates = [
        d for d in (*minima, center) if _feasible_decision(params, cm, d)
    ]
    if not candidates:
        raise InfeasibleModelError("no feasible anchor candidate")

    grid = weight_grid(m)
    seeds_base = [d.as_tuple() for d in minima]
    solved = exact = skipped = 0
    records: list[tuple[int, int, BatchDecision, tuple[float, float, float], str]] = []
    for gi, w in enumerate(grid):
        wt = w.as_tuple()
        by_merit = sorted(
            candidates,
            key=lambda d: (
                max(wt[i] * (triple(d)[i] + shifts[i]) for i in range(3)),
                d.Qp,
                d.Qr,
            ),
        )
        finals: dict[int, BatchDecision] = {}
        for k in (1, 2, 3):
            # x_k* minimizes f_k over the whole region, so it is an optimum
            # of subproblem k whenever the anchored level admits it.
            at_min = triple(minima[k - 1])
            needed = max(wt[i] * (at_min[i] + shifts[i]) for i in range(3) if i != k - 1)
            # No point undercuts an individual minimum, so a level below
            # ``bound`` leaves the region empty.
            bound = max(wt[i] * (minimum_values[i] + shifts[i]) for i in range(3) if i != k - 1)
            # Anchor at the best candidate whose subproblem is not provably
            # empty; later candidates give laxer levels.
            for anchor_dec in by_merit:
                level = wt[k - 1] * (triple(anchor_dec)[k - 1] + shifts[k - 1])
                if needed <= level:
                    exact += 1
                    finals[k] = minima[k - 1]
                    break
                if bound > level + 1e-12 * max(1.0, abs(level)):
                    continue
                if k == 3:
                    qp = _energy_edge(cm, wt, shifts, level, qp_lo, minima)
                    if qp is None:
                        continue
                    exact += 1
                    finals[k] = on_repair_line(qp)
                    break
                solved += 1
                sub = scalar_subproblem(
                    params,
                    w,
                    k,
                    triple(anchor_dec),
                    shifts=shifts,
                    bounds=bounds,
                    seeds=[anchor_dec.as_tuple()] + seeds_base,
                )
                if sub.feasible:
                    finals[k] = on_repair_line(sub.decision.Qp)
                    break
            else:
                skipped += 1

        if len(finals) == 3 and all(
            _coincident(finals[1], finals[k], COINCIDENCE_RTOL) for k in (2, 3)
        ) and _coincident(finals[2], finals[3], COINCIDENCE_RTOL):
            d = finals[1]
            records.append((gi, 1, d, triple(d), RANK_EFFICIENT))
        elif finals:
            ks = sorted(finals)
            objs = [triple(finals[k]) for k in ks]
            for pos in dominance_filter(objs):
                k = ks[pos]
                records.append((gi, k, finals[k], objs[pos], RANK_WEAK))

    kept = _collapse(records)
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
        exact=exact,
        skipped_infeasible=skipped,
        shifts=shifts,
        individual_minima=minima,
        individual_values=minimum_values,
        recorded=len(records),
        deduplicated=len(records) - len(kept),
        front_size=len(points),
    )
    return ParetoFront(points=points, diagnostics=diagnostics)
