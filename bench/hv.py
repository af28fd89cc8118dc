"""Exact hypervolume of a three-objective front, and the reference it is scored by.

All objectives are minimized.  ``hypervolume`` is the volume of the union
of the boxes [p, ref] over the points p: it slices along the third
objective and keeps the two-dimensional staircase of the points seen so
far, so it makes no sampling error.

A front is scored against its instance's ``reference_front``, the
non-dominated cells of a fine two-stage lattice evaluated with the
benchmark's own ``CostModel`` calls, never with the front being scored.
The raw objectives are useless for a volume: on the three-objective
instances f2 spans ten decades as the production factor M approaches its
floor, while f1 and f3 move in the sixth significant digit, so one point
near the f1 optimum holds nearly all of the raw volume.  ``front_score``
therefore maps each objective onto [0, 1] by its rank share among the
reference front's values (``rank_map``), a monotone map that keeps every
dominance relation, and reports the emitted front's hypervolume in that
space as a share of the reference front's, both bounded by the point
(1 + ``REF_MARGIN``) on every axis.  The score is coarse: a front that
loses its low-cost end drops by about a tenth, and a single point at the
f1 optimum still keeps nine tenths of a full front's score.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

EPS_M = 1e-6
REF_MARGIN = 0.1
N_QP = 400      # Qp lattice points of the reference front
N_QR = 300      # coarse Qr lattice points per Qp
N_FINE = 101    # fine Qr points around each row's best coarse cell


def _staircase_insert(stair: list, x: float, y: float) -> None:
    """Add (x, y) to a 2-D non-dominated staircase sorted by x (y falling)."""
    k = bisect.bisect_right(stair, (x, math.inf))
    if k > 0 and stair[k - 1][1] <= y:
        return  # weakly dominated by a point with smaller or equal x
    j = k
    while j < len(stair) and stair[j][1] >= y:
        j += 1
    stair[k:j] = [(x, y)]


def _staircase_area(stair: list, ref) -> float:
    area = 0.0
    for i, (x, y) in enumerate(stair):
        x_next = stair[i + 1][0] if i + 1 < len(stair) else ref[0]
        area += (x_next - x) * (ref[1] - y)
    return area


def hypervolume(points, ref) -> float:
    """Volume dominated by ``points`` and bounded by ``ref`` (minimization)."""
    pts = sorted(
        (tuple(map(float, p)) for p in points if all(a < r for a, r in zip(p, ref))),
        key=lambda p: p[2],
    )
    total = 0.0
    stair: list = []
    for i, (x, y, z) in enumerate(pts):
        _staircase_insert(stair, x, y)
        z_next = pts[i + 1][2] if i + 1 < len(pts) else ref[2]
        if z_next > z:
            total += _staircase_area(stair, ref) * (z_next - z)
    return total


def dominated_by_any(targets: np.ndarray, by: np.ndarray) -> np.ndarray:
    """For each target row, whether some row of ``by`` dominates it."""
    out = np.zeros(len(targets), dtype=bool)
    chunk = max(1, 2_000_000 // max(1, len(by)))
    for s in range(0, len(targets), chunk):
        t = targets[s : s + chunk]
        le = (by[None, :, :] <= t[:, None, :]).all(axis=2)
        lt = (by[None, :, :] < t[:, None, :]).any(axis=2)
        out[s : s + chunk] = (le & lt).any(axis=1)
    return out


def reference_front(relot, params) -> np.ndarray:
    """Non-dominated (f1, f2, f3) of a fine feasible lattice.

    Qp runs from the emissions-domain floor (M = 1e-6) to four times it,
    log-spaced in the distance from the floor, where the trade-off lives.
    Per Qp, Qr is scanned on a log lattice over two decades around the
    f1-best repair batch at the floor, refined 100-fold around the row's
    best cell, and completed by the cell on the repair floor (whose usage
    is linear in Qr).  Only each row's non-dominated cells go on.
    """
    cm = relot.CostModel(params)
    qp_min = cm.min_qp_for_factor(EPS_M) * (1.0 + 1e-9)
    qp_hi = 4.0 * qp_min
    if math.isfinite(params.k1):
        qp_hi = min(qp_hi, params.k1 / params.p1)
    qp_axis = qp_min + (qp_hi - qp_min) * np.geomspace(1e-9, 1.0, N_QP)
    wide = np.geomspace(1e-2, 1e5, 2000)
    qr_best = float(wide[np.argmin(cm.average_cost(qp_min, wide))])
    coarse = np.geomspace(qr_best / 10.0, qr_best * 10.0, N_QR)
    ratio = coarse[1] / coarse[0]

    rows = []
    for qp in qp_axis:
        if cm.supply_slack(qp) < 0.0 or cm.production_factor(qp) < EPS_M:
            continue
        qr = coarse[cm.repair_slack(qp, coarse) >= 0.0]
        if qr.size == 0:
            continue
        j = int(np.argmin(cm.average_cost(qp, qr)))
        fine = np.linspace(qr[j] / ratio, qr[j] * ratio, N_FINE)
        load0 = float(cm.repair_load(qp, 0.0))
        slope = float(cm.repair_load(qp, 1.0)) - load0
        cap = (params.k2 - load0) / slope * (1.0 - 1e-12) if math.isfinite(params.k2) else math.inf
        qr = np.concatenate([qr, fine, [cap] if math.isfinite(cap) and cap > 0.0 else []])
        qr = qr[cm.repair_slack(qp, qr) >= 0.0]
        f = np.empty((qr.size, 3))
        f[:, 0] = cm.average_cost(qp, qr)
        f[:, 1] = cm.ghg_value(qp)
        f[:, 2] = cm.energy_value(qp, qr)
        order = np.lexsort((f[:, 2], f[:, 1], f[:, 0]))
        low = math.inf
        for k in order:
            if f[k, 2] < low:
                low = f[k, 2]
                rows.append(f[k])
    if not rows:
        raise ValueError("reference lattice holds no feasible cell")
    f = np.array(rows)
    return f[~dominated_by_any(f, f)]


def rank_map(front: np.ndarray):
    """Monotone map of each objective onto [0, 1] by rank among ``front``'s values.

    Values between two reference values are interpolated linearly; values
    outside the reference range map to 0 or 1.
    """
    axes = [np.unique(front[:, k]) for k in range(3)]

    def to_rank(points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return np.column_stack([
            np.interp(pts[:, k], ax, np.linspace(0.0, 1.0, ax.size)) for k, ax in enumerate(axes)
        ])

    return to_rank


def front_score(relot, params, points) -> float:
    """Hypervolume of ``points`` as a share of the instance's reference front."""
    ref_front = reference_front(relot, params)
    to_rank = rank_map(ref_front)
    ref = (1.0 + REF_MARGIN,) * 3
    return hypervolume(to_rank(points), ref) / hypervolume(to_rank(ref_front), ref)
