"""Two-depot reverse-logistics inventory model.

A supply depot serves a primary market with demand rate ``Dp`` and a
secondary market with demand rate ``Dr``.  A fraction ``p`` of the primary
demand comes back; a fraction ``r`` of those returns passes inspection and
is repaired at rate ``lam`` in batches of size ``Qr``.  New items are
procured in batches of size ``Qp``.  One period of length ``T`` consists of
``n`` repair cycles followed by a single procurement cycle.

The module provides the parameter/decision containers, the derived cycle
constants C1..C3, the holding-area decomposition behind the average cost
rate f1 and the four EOQ coefficients it reduces to, the emissions (f2)
and energy (f3) objectives, and floor-space feasibility checks.  All
evaluators are pure functions of their inputs; ``CostModel`` only
precomputes constants for speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

__all__ = [
    "EPS_M",
    "ParameterError",
    "DomainError",
    "ModelParams",
    "DerivedConstants",
    "BatchDecision",
    "CostBreakdown",
    "GhgEmissions",
    "ObjectiveBreakdown",
    "FeasibilityReport",
    "CostModel",
    "derive_constants",
    "cost_breakdown",
    "average_cost",
    "ghg_emissions",
    "energy_use",
    "objective_breakdown",
    "check_feasibility",
]

# Smallest admissible production-rate factor M; "M > 0" is operationalized
# as M >= EPS_M so the emissions model stays numerically evaluable.
EPS_M = 1e-6

_EMISSION_KEYS = ("ap", "bp", "cp")
_ENERGY_KEYS = ("Wp", "Wr", "Kp", "Kr")

# JSON key for the repair rate; "lambda" is reserved in Python.
_JSON_ALIASES = {"lambda": "lam"}
_FIELD_ALIASES = {"lam": "lambda"}


class ParameterError(ValueError):
    """Raised when a parameter set violates the model's admissibility rules."""


class DomainError(ValueError):
    """Raised when an evaluation is requested outside the model's domain."""


def _positive(name: str, value: float) -> None:
    if not (0.0 < value < math.inf):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")


def _number(name: str, value) -> float:
    """A JSON number as a float; anything else (null, strings, lists,
    booleans) is a ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters.

    Dp, Dr      primary / secondary demand rates
    p, r        return fraction and repair acceptance fraction, both in (0, 1)
    lam         repair rate, must exceed Dr and the return inflow r*p*Dp
    Ap, Ar      procurement / repair setup costs
    h1, h2      holding cost rates at the supply and repair depots
    p1, p2      floor space per unit at the supply / repair depot
    k1, k2      available floor space; +inf means unconstrained
    ap, bp, cp  emissions coefficients (f2); all three or none
    Wp, Wr      energy per unit produced / repaired; all four energy
    Kp, Kr      fixed energy rates          keys or none

    Every value is finite except k1 and k2, which may be +inf.
    """

    Dp: float
    Dr: float
    p: float
    r: float
    lam: float
    Ap: float
    Ar: float
    h1: float
    h2: float
    p1: float = 1.0
    p2: float = 1.0
    k1: float = math.inf
    k2: float = math.inf
    ap: float | None = None
    bp: float | None = None
    cp: float | None = None
    Wp: float | None = None
    Wr: float | None = None
    Kp: float | None = None
    Kr: float | None = None

    def __post_init__(self) -> None:
        _positive("Dp", self.Dp)
        _positive("Dr", self.Dr)
        _positive("lam", self.lam)
        _positive("Ap", self.Ap)
        _positive("Ar", self.Ar)
        _positive("h1", self.h1)
        _positive("h2", self.h2)
        _positive("p1", self.p1)
        _positive("p2", self.p2)
        if not (0.0 < self.p < 1.0):
            raise ParameterError(f"p must lie in (0, 1), got {self.p!r}")
        if not (0.0 < self.r < 1.0):
            raise ParameterError(f"r must lie in (0, 1), got {self.r!r}")
        if not (self.k1 > 0.0):
            raise ParameterError(f"k1 must be positive (or +inf), got {self.k1!r}")
        if not (self.k2 > 0.0):
            raise ParameterError(f"k2 must be positive (or +inf), got {self.k2!r}")
        inflow = self.r * self.p * self.Dp
        if not (self.lam > inflow):
            raise ParameterError(
                f"repair rate lam={self.lam!r} must exceed the return inflow "
                f"r*p*Dp={inflow!r}"
            )
        if not (self.Dr > inflow):
            raise ParameterError(
                f"secondary demand Dr={self.Dr!r} must exceed the return inflow "
                f"r*p*Dp={inflow!r}"
            )
        if not (self.lam > self.Dr):
            raise ParameterError(
                f"repair rate lam={self.lam!r} must exceed Dr={self.Dr!r}"
            )
        if (
            self.ap is None and self.bp is None and self.cp is None and self.Wp is None
            and self.Wr is None and self.Kp is None and self.Kr is None
        ):
            return
        for group, values in (
            (_EMISSION_KEYS, (self.ap, self.bp, self.cp)),
            (_ENERGY_KEYS, (self.Wp, self.Wr, self.Kp, self.Kr)),
        ):
            given = [(k, v) for k, v in zip(group, values) if v is not None]
            if given and len(given) != len(group):
                missing = sorted(set(group) - {k for k, _ in given})
                raise ParameterError(f"incomplete coefficient group: missing {missing}")
            for k, v in given:
                if not (0.0 <= v < math.inf):
                    raise ParameterError(f"{k} must be finite and >= 0, got {v!r}")

    @property
    def return_inflow(self) -> float:
        """Rate r*p*Dp at which repairable returns arrive."""
        return self.r * self.p * self.Dp

    @property
    def has_emissions(self) -> bool:
        return all(getattr(self, k) is not None for k in _EMISSION_KEYS)

    @property
    def has_energy(self) -> bool:
        return all(getattr(self, k) is not None for k in _ENERGY_KEYS)

    @property
    def has_sustainability(self) -> bool:
        return self.has_emissions and self.has_energy

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ModelParams":
        if not isinstance(mapping, dict):
            raise ParameterError(f"params must be an object, got {mapping!r}")
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            name = _JSON_ALIASES.get(key, key)
            if name not in known:
                raise ParameterError(f"unknown parameter key {key!r}")
            kwargs[name] = _number(key, value)
        try:
            return cls(**kwargs)
        except TypeError as exc:  # missing required keys
            raise ParameterError(str(exc)) from exc

    def to_mapping(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or (isinstance(value, float) and math.isinf(value)):
                continue
            out[_FIELD_ALIASES.get(f.name, f.name)] = value
        return out

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_mapping(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class DerivedConstants:
    """Cycle constants: C1 idle fraction of a repair cycle, C2 the repair/
    procurement batch ratio factor (n = C2*Qp/Qr), C3 the period factor
    (T = C3*Qp)."""

    C1: float
    C2: float
    C3: float


@dataclass(frozen=True)
class BatchDecision:
    """A candidate pair of batch sizes (procurement Qp, repair Qr)."""

    Qp: float
    Qr: float

    def __post_init__(self) -> None:
        for name in ("Qp", "Qr"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise DomainError(f"{name} must be a positive finite number, got {v!r}")

    def as_tuple(self) -> tuple[float, float]:
        return (self.Qp, self.Qr)


@dataclass(frozen=True)
class CostBreakdown:
    """Cycle geometry, holding areas and the resulting average cost rate."""

    L1: float
    T1: float
    T2: float
    n: float
    T: float
    A1: float
    B: float
    C_prime: float
    D_prime: float
    E1: float
    E2: float
    A2: float
    cycle_cost: float
    f1: float


@dataclass(frozen=True)
class GhgEmissions:
    """Emissions evaluation: production factor M, adjusted rate P, value f2."""

    M: float
    P: float
    f2: float


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """All three objectives at one decision, plus the M/P intermediates."""

    M: float
    P: float
    f1: float
    f2: float
    f3: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Floor-space slacks and flags; emissions-domain slack when requested."""

    slack_supply: float
    slack_repair: float
    slack_m: float | None
    supply_floor_ok: bool
    repair_floor_ok: bool
    emissions_domain_ok: bool | None

    @property
    def all_ok(self) -> bool:
        ok = self.supply_floor_ok and self.repair_floor_ok
        if self.emissions_domain_ok is not None:
            ok = ok and self.emissions_domain_ok
        return ok


def _cycle_constants(params: ModelParams) -> tuple[float, float, float]:
    """(C1, C2, C3) of derive_constants, without building the dataclass."""
    inflow = params.r * params.p * params.Dp
    if not (params.lam > inflow):
        raise DomainError("repair rate must exceed the return inflow r*p*Dp")
    if not (params.Dr > inflow):
        raise DomainError("secondary demand must exceed the return inflow r*p*Dp")
    C1 = 1.0 - inflow / params.lam
    C2 = params.r * params.p / (C1 * (1.0 - inflow / params.Dr))
    return C1, C2, (1.0 + C2) / (params.Dp + params.Dr)


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Compute C1, C2, C3 for a parameter set.

    C1 = 1 - r*p*Dp/lam, C2 = r*p / (C1*(1 - r*p*Dp/Dr)),
    C3 = (1 + C2) / (Dp + Dr).
    """
    return DerivedConstants(*_cycle_constants(params))


class CostModel:
    """Evaluator bound to one parameter set.

    Precomputes the derived constants once; the value methods are plain
    arithmetic and accept either floats or numpy arrays.  Methods that
    perform domain checks (``ghg``, ``energy``) are scalar-only.

    The average cost is two independent EOQ terms,

        f1(Qp, Qr) = alpha/Qp + beta*Qp + gamma/Qr + delta*Qr,

    with every coefficient positive.  Proof, from the area decomposition
    of ``breakdown``: write I = r*p*Dp, t = C1/Dr (so T1 = t*Qr),
    c = 1/lam + t, n = C2*Qp/Qr and T = C3*Qp.  The repair-depot area
    A2 = B + C' + D' + E1 + E2 carries four Qr^2 terms that cancel in pairs:

    * B = I/2*(t*Qr + Qp/Dp)^2 holds +I/2*t^2*Qr^2, and
      D' = I/2*(n - 1)*t^2*Qr^2 holds -I/2*t^2*Qr^2;
    * E1 = c*Qr*(I*t*Qr + r*p*Qp - C1*Qr) holds c*(I*t - C1)*Qr^2, and
      E2 = c*C1*(1 - I/Dr)*Qr^2 is exactly c*(C1 - I*t)*Qr^2.

    What remains is A2 = I/(2*Dp^2)*Qp^2 + X*Qp*Qr with
    X = r*p*t + C1*C2/(2*lam) + I*C2*t^2/2 + r*p*c, next to
    A1 = Qp^2/(2*Dp) + (C1*C2*c/2)*Qp*Qr.  Dividing the cycle cost
    Ap + n*Ar + h1*A1 + h2*A2 by T = C3*Qp gives

        alpha = Ap/C3                      beta  = (h1 + h2*r*p)/(2*Dp*C3)
        gamma = Ar*C2/C3                   delta = (h1*C1*C2*c/2 + h2*X)/C3

    so the unconstrained optimum is Qp* = sqrt(alpha/beta),
    Qr* = sqrt(gamma/delta) and f1* = 2*sqrt(alpha*beta) + 2*sqrt(gamma*delta).
    """

    __slots__ = (
        "params", "C1", "C2", "C3", "alpha", "beta", "gamma", "delta",
        "_inflow", "_rp", "_inv2Dp", "_invDp", "_cross", "_c_lam", "_c_rep",
        "_c_e2", "_c_T1", "_c_m",
    )

    def __init__(self, params: ModelParams):
        self.params = params
        self.C1, self.C2, self.C3 = C1, C2, C3 = _cycle_constants(params)
        Dp, Dr, lam = params.Dp, params.Dr, params.lam
        self._inflow = inflow = params.r * params.p * Dp
        self._rp = rp = params.r * params.p
        self._inv2Dp = inv2Dp = 0.5 / Dp
        self._invDp = 1.0 / Dp
        self._c_T1 = c_T1 = C1 / Dr                   # T1 = c_T1 * Qr
        self._c_rep = c_rep = 1.0 / lam + c_T1        # repair-cycle span per unit
        self._cross = cross = 0.5 * C1 * C2 * c_rep
        self._c_lam = c_lam = C1 * C2 / (2.0 * lam)
        self._c_e2 = c_rep * C1 * (1.0 - inflow / Dr)
        self._c_m = 2.0 * params.Ap * Dp / params.h1
        cross_repair = (  # X of the class docstring
            rp * c_T1 + c_lam + 0.5 * inflow * C2 * c_T1 * c_T1 + rp * c_rep
        )
        self.alpha = params.Ap / C3
        self.beta = (params.h1 + params.h2 * rp) * inv2Dp / C3
        self.gamma = params.Ar * C2 / C3
        self.delta = (params.h1 * cross + params.h2 * cross_repair) / C3

    @property
    def constants(self) -> DerivedConstants:
        """C1, C2, C3 as a DerivedConstants, equal to derive_constants(params)."""
        return DerivedConstants(self.C1, self.C2, self.C3)

    # -- cycle geometry -------------------------------------------------

    def cycle_count(self, qp, qr):
        """Number of repair cycles n per period."""
        return self.C2 * qp / qr

    def cycle_length(self, qp):
        """Period length T."""
        return self.C3 * qp

    # -- holding cost ----------------------------------------------------

    def average_cost(self, qp, qr):
        """Average cost rate f1(Qp, Qr): setups plus holding per unit time."""
        return self.alpha / qp + self.beta * qp + self.gamma / qr + self.delta * qr

    def breakdown(self, qp: float, qr: float) -> CostBreakdown:
        """Full cycle geometry and area decomposition at scalar (qp, qr)."""
        pr = self.params
        n = self.C2 * qp / qr
        T = self.C3 * qp
        L1 = self.C1 * qr
        T1 = self._c_T1 * qr
        T2 = T1 + qp * self._invDp
        A1 = qp * qp * self._inv2Dp + self._cross * qp * qr
        B = 0.5 * self._inflow * T2 * T2
        Cp = self._c_lam * qp * qr
        Dq = 0.5 * self._inflow * (n - 1.0) * T1 * T1
        E1 = qr * self._c_rep * (self._inflow * T1 + self._rp * qp - self.C1 * qr)
        E2 = qr * qr * self._c_e2
        A2 = B + Cp + Dq + E1 + E2
        cycle_cost = pr.Ap + n * pr.Ar + pr.h1 * A1 + pr.h2 * A2
        return CostBreakdown(
            L1=L1, T1=T1, T2=T2, n=n, T=T, A1=A1, B=B, C_prime=Cp,
            D_prime=Dq, E1=E1, E2=E2, A2=A2, cycle_cost=cycle_cost,
            f1=cycle_cost / T,
        )

    # -- sustainability objectives ----------------------------------------

    def production_factor(self, qp):
        """M(Qp) = 1 - 2*Ap*Dp/(h1*Qp^2); no domain check."""
        return 1.0 - self._c_m / (qp * qp)

    def min_qp_for_factor(self, m_floor: float) -> float:
        """Smallest Qp with production factor >= m_floor (requires m_floor < 1)."""
        return math.sqrt(self._c_m / (1.0 - m_floor))

    def ghg_minimizer(self) -> float | None:
        """The Qp minimizing f2 over the emissions domain M in (0, 1).

        f2 = ap*P^2 - bp*P + cp is a parabola in P = Dp/M, and M rises with
        Qp.  Its vertex M_best = 2*ap*Dp/bp gives min_qp_for_factor(M_best)
        when it lies in (0, 1).  Otherwise f2 is monotone in Qp: +inf when
        it falls with Qp (ap > 0 with M_best >= 1, or bp = 0), 0.0 when it
        rises (ap = 0 < bp), and None when it is constant (ap = bp = 0).
        Requires the emissions coefficients.
        """
        pr = self.params
        if pr.ap == 0.0:
            return 0.0 if pr.bp > 0.0 else None
        m_best = 2.0 * pr.ap * pr.Dp / pr.bp if pr.bp > 0.0 else math.inf
        return self.min_qp_for_factor(m_best) if m_best < 1.0 else math.inf

    def ghg_value(self, qp):
        """f2 via the adjusted production rate P = Dp/M; no domain check."""
        pr = self.params
        P = pr.Dp / self.production_factor(qp)
        return pr.ap * P * P - pr.bp * P + pr.cp

    def energy_value(self, qp, qr):
        """f3 = ((M*Wp/Dp + Kp)*Qp + (Wr/lam + Kr)*n*Qr) / T; no domain check.

        n*Qr telescopes to C2*Qp and T = C3*Qp, so the value depends on
        qp alone; the cancelled form keeps that exact in floating point.
        """
        pr = self.params
        M = self.production_factor(qp)
        return ((M * pr.Wp / pr.Dp + pr.Kp) + (pr.Wr / pr.lam + pr.Kr) * self.C2) / self.C3

    def _admissible_factor(self, qp: float) -> float:
        """Production factor M at Qp; DomainError below the floor EPS_M."""
        M = self.production_factor(qp)
        if not (M >= EPS_M):
            raise DomainError(
                f"production factor M={M!r} below the admissible floor {EPS_M!r} "
                f"at Qp={qp!r}"
            )
        return M

    def ghg(self, qp: float) -> GhgEmissions:
        if not self.params.has_emissions:
            raise ParameterError("emissions coefficients ap, bp, cp are not set")
        M = self._admissible_factor(qp)
        P = self.params.Dp / M
        return GhgEmissions(M=M, P=P, f2=self.params.ap * P * P - self.params.bp * P + self.params.cp)

    def energy(self, qp: float, qr: float) -> float:
        if not self.params.has_energy:
            raise ParameterError("energy coefficients Wp, Wr, Kp, Kr are not set")
        self._admissible_factor(qp)
        return self.energy_value(qp, qr)

    # -- floor space -------------------------------------------------------

    def supply_slack(self, qp):
        """k1 minus the supply-depot floor usage p1*Qp."""
        return self.params.k1 - self.params.p1 * qp

    def repair_load(self, qp, qr):
        """Repair-depot floor usage p2*(C1*Qr/Dr + Qp/Dp)*r*p*Dp."""
        return self.params.p2 * (self._c_T1 * qr + qp * self._invDp) * self._inflow

    def repair_slack(self, qp, qr):
        return self.params.k2 - self.repair_load(qp, qr)

    def repair_cap(self, qp):
        """Largest Qr the repair floor allows at Qp (+inf without a repair
        floor; not positive when no repair batch fits)."""
        pr = self.params
        return (pr.k2 / (pr.p2 * self._inflow) - qp * self._invDp) / self._c_T1

    def repair_qp_cap(self, qr):
        """Largest Qp at which the repair floor still admits Qr, the inverse
        of repair_cap (+inf without a repair floor)."""
        pr = self.params
        return (pr.k2 / (pr.p2 * self._inflow) - self._c_T1 * qr) * pr.Dp

    def best_repair(self, qp: float) -> float:
        """The f1-best repair batch at Qp: Qr* = sqrt(gamma/delta) cut to
        repair_cap(qp).  f1 is convex in Qr with its minimum at Qr*, and f2
        and f3 do not depend on Qr, so every efficient decision holds it."""
        return min(math.sqrt(self.gamma / self.delta), self.repair_cap(qp))


# -- module-level operations ------------------------------------------------


def cost_breakdown(params: ModelParams, d: BatchDecision) -> CostBreakdown:
    """Evaluate the full cost decomposition at a decision."""
    return CostModel(params).breakdown(d.Qp, d.Qr)


def average_cost(params: ModelParams, qp, qr):
    """f1 only; accepts scalars or arrays for qp/qr."""
    return CostModel(params).average_cost(qp, qr)


def ghg_emissions(params: ModelParams, qp: float) -> GhgEmissions:
    """Emissions objective f2 with its M and P intermediates."""
    return CostModel(params).ghg(qp)


def energy_use(params: ModelParams, d: BatchDecision) -> float:
    """Energy objective f3 at a decision."""
    return CostModel(params).energy(d.Qp, d.Qr)


def objective_breakdown(params: ModelParams, d: BatchDecision) -> ObjectiveBreakdown:
    """f1, f2, f3 (plus M, P) at one decision; requires all coefficient groups."""
    cm = CostModel(params)
    g = cm.ghg(d.Qp)
    f3 = cm.energy(d.Qp, d.Qr)
    return ObjectiveBreakdown(M=g.M, P=g.P, f1=cm.average_cost(d.Qp, d.Qr), f2=g.f2, f3=f3)


def check_feasibility(
    params: ModelParams,
    d: BatchDecision,
    include_emissions_domain: bool = False,
) -> FeasibilityReport:
    """Floor-space feasibility of a decision; optionally the emissions domain."""
    cm = CostModel(params)
    s1 = cm.supply_slack(d.Qp)
    s2 = cm.repair_slack(d.Qp, d.Qr)
    slack_m = None
    dom_ok = None
    if include_emissions_domain:
        slack_m = cm.production_factor(d.Qp) - EPS_M
        dom_ok = slack_m >= 0.0
    return FeasibilityReport(
        slack_supply=s1,
        slack_repair=s2,
        slack_m=slack_m,
        supply_floor_ok=s1 >= 0.0,
        repair_floor_ok=s2 >= 0.0,
        emissions_domain_ok=dom_ok,
    )
