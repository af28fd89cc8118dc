"""Penalized pattern-search minimizer over a two-variable box.

Inequality constraints g(x) <= 0 enter through an exterior quadratic
penalty whose weight grows by PENALTY_GROWTH over PENALTY_ROUNDS rounds.
Each round runs a compass (coordinate pattern) search with step halving.
Because an exterior penalty converges from the infeasible side, the final
point is pulled back onto the feasible set by bisecting toward the best
exactly-feasible iterate seen, then polished with a feasible-only pattern
search.  Everything is deterministic: no randomness, fixed iteration
order, lexicographic tie-breaks.

Within one ``minimize`` call each distinct point is evaluated once; the
objective and constraints must therefore be pure functions of the point.
Budgets, deadlines and ``SolveResult.iterations`` count every evaluation,
repeats included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .model import BatchDecision

__all__ = ["ScalarProgram", "SolveResult", "minimize", "lattice_starts"]

PENALTY_ROUNDS = 6
PENALTY_GROWTH = 10.0
PENALTY_INITIAL = 100.0
STEP_INITIAL = 0.10      # fraction of the box width
STEP_MIN = 1e-8          # relative to the box width
FEAS_TOL = 1e-8

Point = tuple[float, float]


@dataclass(frozen=True)
class ScalarProgram:
    """Objective and constraints (g(x) <= 0 feasible) over a bound box."""

    objective: Callable[[float, float], float]
    lower: Point
    upper: Point
    constraints: tuple[Callable[[float, float], float], ...] = ()

    def __post_init__(self) -> None:
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(
                    f"bounds must be finite with lower < upper, got {self.lower}, {self.upper}"
                )
            # solutions are packed into batch decisions, which are positive
            if not lo > 0.0:
                raise ValueError(
                    f"lower bounds must be positive, got {self.lower}"
                )


@dataclass(frozen=True)
class SolveResult:
    decision: BatchDecision
    value: float
    feasible: bool
    iterations: int
    starts: int
    max_violation: float


def lattice_starts(lower: Point, upper: Point, shape: tuple[int, int]) -> list[Point]:
    """Log-spaced start lattice over the box (linear if a bound is <= 0)."""

    def axis(lo: float, hi: float, n: int) -> list[float]:
        if n <= 1:
            return [math.sqrt(lo * hi) if lo > 0.0 else 0.5 * (lo + hi)]
        if lo > 0.0:
            ratio = hi / lo
            return [lo * ratio ** (i / (n - 1)) for i in range(n)]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    xs = axis(lower[0], upper[0], shape[0])
    ys = axis(lower[1], upper[1], shape[1])
    return [(x, y) for x in xs for y in ys]


class _Evaluator:
    """Evaluates (objective, max violation, squared penalty) with bookkeeping.

    Each distinct point is evaluated once: a repeat returns the stored
    triple.  ``evals`` counts every call, repeats included, so budgets and
    deadlines are unchanged by the memo.  A repeat cannot improve the
    records, which only ever decrease, so it skips them.  Tracks the best
    exactly-feasible point seen anywhere and the least violating point
    otherwise.  One evaluator serves one ``minimize`` call, so the memo
    holds at most that call's evaluations.
    """

    __slots__ = ("objective", "constraints", "evals", "seen", "best_feasible", "best_near")

    def __init__(self, prog: ScalarProgram):
        self.objective = prog.objective
        self.constraints = prog.constraints
        self.evals = 0
        self.seen: dict[Point, tuple[float, float, float]] = {}
        self.best_feasible: tuple[float, Point] | None = None
        self.best_near: tuple[float, float, Point] | None = None

    def __call__(self, x: Point) -> tuple[float, float, float]:
        self.evals += 1
        hit = self.seen.get(x)
        if hit is not None:
            return hit
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
        out = self.seen[x] = (f, viol, pen)
        return out


def _clip(x: Point, lower: Point, upper: Point) -> Point:
    return (
        min(max(x[0], lower[0]), upper[0]),
        min(max(x[1], lower[1]), upper[1]),
    )


def _compass(
    value: Callable[[Point], float],
    x: Point,
    lower: Point,
    upper: Point,
    step_frac: float,
    ev: _Evaluator,
    deadline: int,
) -> Point:
    """Pattern search with step halving from step_frac down to STEP_MIN.

    Each neighbour equals ``_clip`` of x moved along one axis, the unmoved
    coordinate clipped too: a start may lie an ulp outside the box.
    """
    lo0, lo1 = lower
    hi0, hi1 = upper
    s0 = step_frac * (hi0 - lo0)
    s1 = step_frac * (hi1 - lo1)
    floor0 = STEP_MIN * (hi0 - lo0)
    floor1 = STEP_MIN * (hi1 - lo1)
    x0, x1 = x
    c0 = min(max(x0, lo0), hi0)
    c1 = min(max(x1, lo1), hi1)
    fx = value(x)
    while (s0 > floor0 or s1 > floor1) and ev.evals < deadline:
        best: tuple[float, Point] | None = None
        for y in ((min(max(x0 + s0, lo0), hi0), c1), (min(max(x0 - s0, lo0), hi0), c1),
                  (c0, min(max(x1 + s1, lo1), hi1)), (c0, min(max(x1 - s1, lo1), hi1))):
            if y == x:
                continue
            fy = value(y)
            if best is None or (fy, y) < best:
                best = (fy, y)
        if best is not None and best[0] < fx:
            fx, x = best
            x0, x1 = c0, c1 = x
        else:
            s0 *= 0.5
            s1 *= 0.5
    return x


def _restore(ev: _Evaluator, feas: Point, target: Point) -> Point:
    """Feasible point on the segment [feas, target] closest to target."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        x = (
            feas[0] + mid * (target[0] - feas[0]),
            feas[1] + mid * (target[1] - feas[1]),
        )
        if ev(x)[1] <= 0.0:
            lo = mid
        else:
            hi = mid
    return (
        feas[0] + lo * (target[0] - feas[0]),
        feas[1] + lo * (target[1] - feas[1]),
    )


def minimize(
    prog: ScalarProgram,
    seeds: Sequence[Point] = (),
    *,
    lattice: tuple[int, int] = (7, 7),
    budget: int = 20000,
) -> SolveResult:
    """Multi-start penalized pattern search.

    Starts are a log-spaced ``lattice`` over the box plus the caller's
    ``seeds`` (clipped to the box).  ``budget`` caps objective evaluations
    per start.  The result is the best exactly-feasible point across all
    starts, ties broken lexicographically on the decision; when no start
    reaches the feasible set, the least-violating point is reported and
    ``feasible`` reflects whether its violation is within FEAS_TOL.
    """
    ev = _Evaluator(prog)
    starts = lattice_starts(prog.lower, prog.upper, lattice)
    starts += [_clip((float(s[0]), float(s[1])), prog.lower, prog.upper) for s in seeds]

    winners: list[tuple[float, Point]] = []
    for start in starts:
        deadline = ev.evals + budget
        x = start
        ev(x)
        mu = PENALTY_INITIAL
        for rnd in range(PENALTY_ROUNDS):
            def merit(pt: Point, _mu: float = mu) -> float:
                f, _, pen = ev(pt)
                return f + _mu * pen

            x = _compass(merit, x, prog.lower, prog.upper,
                         STEP_INITIAL if rnd == 0 else 0.01, ev, deadline)
            mu *= PENALTY_GROWTH
            if ev.evals >= deadline:
                break

        if ev(x)[1] <= 0.0:
            cand = x
        elif ev.best_feasible is not None:
            cand = _restore(ev, ev.best_feasible[1], x)
        else:
            continue  # this start never saw the feasible set

        fc = ev(cand)[0]
        if ev.best_feasible is not None and ev.best_feasible[0] < fc:
            fc, cand = ev.best_feasible

        def guarded(pt: Point) -> float:
            f, viol, _ = ev(pt)
            return f if viol <= 0.0 else math.inf

        cand = _compass(guarded, cand, prog.lower, prog.upper, 0.01,
                        ev, ev.evals + budget // 4)
        winners.append((ev(cand)[0], cand))

    if winners:
        value, point = min(winners, key=lambda w: (w[0], w[1]))
        return SolveResult(
            decision=BatchDecision(Qp=point[0], Qr=point[1]),
            value=value,
            feasible=True,
            iterations=ev.evals,
            starts=len(starts),
            max_violation=0.0,
        )

    if ev.best_near is None:
        raise ValueError("no evaluations performed; empty start set")
    violation, value, point = ev.best_near
    return SolveResult(
        decision=BatchDecision(Qp=point[0], Qr=point[1]),
        value=value,
        feasible=violation <= FEAS_TOL,
        iterations=ev.evals,
        starts=len(starts),
        max_violation=violation,
    )
