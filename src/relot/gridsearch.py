"""Brute-force grid verification of the optimizers.

Exhaustive scans over a (Qp, Qr) lattice serve as an independent check on
the closed-form and numeric solvers: ``grid_min`` finds the best feasible
cell for the average cost f1 (two-stage by default: a full scan at
``step`` followed by a rescan at ``step/100`` in a window of 2.5 steps
around the incumbent), and ``grid_front`` returns the non-dominated
feasible cells of the three-objective model on a single-stage lattice.

``grid_min`` evaluates blocks of whole Qp rows, vectorized over the
block: at most 2^14 cells, or one row when a row is longer.  Its memory
stays bounded by the larger of the two even on 1e8-cell lattices.
``grid_front`` masks the whole lattice at once (the cell guard caps its
size) and materializes every feasible cell, so it is meant for coarse
lattices.  Neither scan uses the model's separable structure: every cell
is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import solve_unconstrained
from .model import EPS_M, BatchDecision, CostModel, ModelParams, ParameterError
from .pareto import ObjectiveVector, dominance_filter

__all__ = [
    "EmptyFeasibleGridError",
    "GridSpec",
    "default_grid",
    "grid_min",
    "grid_front",
]

# Second-stage refinement: step shrinks by this factor inside a window of
# WINDOW_STEPS first-stage steps around the incumbent.
REFINE_RATIO = 100
WINDOW_STEPS = 2.5
_MAX_CELLS = 1e8
# grid_min evaluates whole Qp rows in blocks of at most this many cells.
_BLOCK_CELLS = 1 << 14


class EmptyFeasibleGridError(RuntimeError):
    """Raised when no grid cell satisfies the requested constraints."""


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


@dataclass(frozen=True)
class GridSpec:
    """Scan lattice: closed ranges per axis and the first-stage step."""

    qp_range: tuple[float, float]
    qr_range: tuple[float, float]
    step: float

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("qp_range", self.qp_range), ("qr_range", self.qr_range)):
            if not (lo > 0.0 and math.isfinite(lo)):
                raise ParameterError(f"{name} lower bound must be positive, got {lo!r}")
            if not (hi > lo and math.isfinite(hi)):
                raise ParameterError(f"{name} upper bound must exceed {lo!r}, got {hi!r}")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ParameterError(f"step must be positive, got {self.step!r}")
        if self.cells > _MAX_CELLS:
            raise ParameterError(
                f"grid holds {self.cells:.3g} cells, above the {_MAX_CELLS:.0e} guard"
            )

    @property
    def cells(self) -> float:
        n1 = math.floor((self.qp_range[1] - self.qp_range[0]) / self.step + 1e-9) + 1
        n2 = math.floor((self.qr_range[1] - self.qr_range[0]) / self.step + 1e-9) + 1
        return float(n1) * float(n2)

    def qp_axis(self) -> np.ndarray:
        return _axis(self.qp_range[0], self.qp_range[1], self.step)

    def qr_axis(self) -> np.ndarray:
        return _axis(self.qr_range[0], self.qr_range[1], self.step)


def default_grid(params: ModelParams, *, step: float = 1.0, span: float = 3.0) -> GridSpec:
    """Lattice centered on the closed-form optimum: [0.1, span*Qp*] x [0.1, span*Qr*]."""
    star = solve_unconstrained(params).decision
    return GridSpec(
        qp_range=(0.1, max(span * star.Qp, 0.2)),
        qr_range=(0.1, max(span * star.Qr, 0.2)),
        step=step,
    )


def _scan_min(
    cm: CostModel,
    qp_axis: np.ndarray,
    qr_axis: np.ndarray,
    constrained: bool,
):
    """Best feasible cell of f1, ties broken lexicographically by (Qp, Qr).

    Walks the Qp axis in blocks of whole rows, at most _BLOCK_CELLS cells
    (or one row) each.  A block's argmin runs in C order, so it already
    prefers the smallest Qp and then the smallest Qr; blocks are compared
    as (f1, Qp, Qr) tuples.  Constrained blocks evaluate f1 on their
    feasible cells only.
    """
    best = None
    rows = max(1, _BLOCK_CELLS // qr_axis.size)
    for start in range(0, qp_axis.size, rows):
        qp = qp_axis[start : start + rows]
        if constrained:
            qp = qp[~(cm.supply_slack(qp) < 0.0)]
            feasible = cm.repair_slack(qp[:, None], qr_axis) >= 0.0
            if not feasible.any():
                continue
            qp = np.broadcast_to(qp[:, None], feasible.shape)[feasible]
            qr = np.broadcast_to(qr_axis, feasible.shape)[feasible]
            values = cm.average_cost(qp, qr)
            pos = int(np.argmin(values))
            cand = (float(values[pos]), float(qp[pos]), float(qr[pos]))
        else:
            values = cm.average_cost(qp[:, None], qr_axis)
            i, j = divmod(int(np.argmin(values)), qr_axis.size)
            cand = (float(values[i, j]), float(qp[i]), float(qr_axis[j]))
        if best is None or cand < best:
            best = cand
    return best


def grid_min(
    params: ModelParams,
    grid: GridSpec,
    constrained: bool = False,
    *,
    refine: bool = True,
) -> tuple[BatchDecision, float]:
    """Exhaustive minimum of f1 over the lattice's feasible cells.

    ``constrained`` applies the floor-space constraints per cell.  With
    ``refine`` (the default) the first-stage incumbent is re-scanned at
    step/100 within 2.5 steps, so the effective resolution is step/100.
    """
    cm = CostModel(params)
    best = _scan_min(cm, grid.qp_axis(), grid.qr_axis(), constrained)
    if best is None:
        raise EmptyFeasibleGridError("no feasible cell in the scan lattice")
    if refine:
        fine = grid.step / REFINE_RATIO
        half = WINDOW_STEPS * grid.step
        qp_axis = _axis(
            max(grid.qp_range[0], best[1] - half),
            min(grid.qp_range[1], best[1] + half),
            fine,
        )
        qr_axis = _axis(
            max(grid.qr_range[0], best[2] - half),
            min(grid.qr_range[1], best[2] + half),
            fine,
        )
        refined = _scan_min(cm, qp_axis, qr_axis, constrained)
        if refined is not None and refined < best:
            best = refined
    return BatchDecision(Qp=best[1], Qr=best[2]), best[0]


def grid_front(
    params: ModelParams,
    grid: GridSpec,
) -> list[tuple[BatchDecision, ObjectiveVector]]:
    """Non-dominated feasible cells of (f1, f2, f3), scan order preserved.

    Feasibility means both floor constraints and production factor
    M >= EPS_M, matching the three-objective model's constraint set.
    """
    if not params.has_sustainability:
        raise ParameterError(
            "the three-objective front needs the emissions and energy coefficients"
        )
    cm = CostModel(params)
    qp, qr = np.meshgrid(grid.qp_axis(), grid.qr_axis(), indexing="ij")
    feasible = (
        (cm.production_factor(qp) >= EPS_M)
        & (cm.supply_slack(qp) >= 0.0)
        & (cm.repair_slack(qp, qr) >= 0.0)
    )
    qp, qr = qp[feasible], qr[feasible]
    if not qp.size:
        raise EmptyFeasibleGridError("no feasible cell in the scan lattice")
    objs = np.column_stack(
        (cm.average_cost(qp, qr), cm.ghg_value(qp), cm.energy_value(qp, qr))
    )
    return [
        (BatchDecision(Qp=float(qp[i]), Qr=float(qr[i])), ObjectiveVector(*objs[i].tolist()))
        for i in dominance_filter(objs)
    ]
