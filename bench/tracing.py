"""Run-time tracing of relot's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function with a wrapper
wherever a relot module binds it by name (``relot.cli.solve_constrained``,
``relot.pareto.minimize``, ``relot.gridsearch.dominance_filter``, ...) and
puts every original object back on exit.  Coarse calls record a span
(name, start, end, parent span, op id); the hot ``CostModel`` methods and
the per-row certification helpers only bump counters, because a span per
call would add about 250k spans to one front.

Spans stay in memory until ``dump`` writes them out.  A layer's self time
is its spans' duration minus the part of each span that its child spans
cover (``self_times``).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
from time import perf_counter

import numpy as np

MODULE_NAMES = (
    "relot",
    "relot.model",
    "relot.analytic",
    "relot.minimize",
    "relot.pareto",
    "relot.gridsearch",
    "relot.cli",
)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Total self time per span name: duration minus the union of its children."""
    children = collections.defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    totals: dict[str, float] = collections.defaultdict(float)
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        totals[name] += duration - covered_length(starts[i], ends[i], children.get(i, ()))
    return dict(totals)


def _elems(qp, qr) -> int:
    """Number of (Qp, Qr) points one vectorized evaluation covers."""
    a = getattr(qp, "size", 1)
    b = getattr(qr, "size", 1)
    if a > 1 and b > 1:
        return int(np.prod(np.broadcast_shapes(np.shape(qp), np.shape(qr))))
    return max(a, b)


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, after=None, error_key: str | None = None):
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0.0)
            tracer.counts[calls] += 1
            tracer._stack.append(sid)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if error_key is not None:
                    tracer.counts[error_key] += 1
                raise
            finally:
                tracer.ends[sid] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, result, args, kwargs)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _average_cost(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(cm, qp, qr):
            counts["model.average_cost.calls"] += 1
            counts["model.average_cost.elems"] += _elems(qp, qr)
            return fn(cm, qp, qr)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(n) for n in MODULE_NAMES]
        mod = {n.rpartition(".")[2]: m for n, m in zip(MODULE_NAMES, modules)}
        analytic, minimize, pareto = mod["analytic"], mod["minimize"], mod["pareto"]
        gridsearch, cli, model = mod["gridsearch"], mod["cli"], mod["model"]

        def after_exit(counts, code, args, kwargs):
            counts[f"cli.exit_{code}" if code in (0, 2, 3) else "cli.exit_other"] += 1

        def after_kkt(counts, sol, args, kwargs):
            counts["analytic.case_" + sol.case] += 1

        def after_minimize(counts, res, args, kwargs):
            counts["minimize.minimize.evals"] += res.iterations
            counts["minimize.minimize.starts"] += res.starts
            counts["minimize.minimize.infeasible"] += not res.feasible

        def after_subproblem(counts, res, args, kwargs):
            counts["pareto.scalar_subproblem.searched"] += res.iterations > 0

        def after_front(counts, front, args, kwargs):
            d = front.diagnostics
            counts["pareto.front.recorded"] += d.recorded
            counts["pareto.front.deduplicated"] += d.deduplicated
            counts["pareto.front.front_size"] += d.front_size

        def after_filter(counts, kept, args, kwargs):
            points = args[0] if args else kwargs["points"]
            counts["pareto.dominance_filter.points_in"] += len(points)
            counts["pareto.dominance_filter.points_out"] += len(kept)

        def after_grid(key):
            def after(counts, result, args, kwargs):
                grid = args[1] if len(args) > 1 else kwargs["grid"]
                counts[key] += int(grid.cells)

            return after

        spans = (
            (cli.main, "cli.main", after_exit, "cli.exit_other"),
            (analytic.solve_unconstrained, "analytic.solve_unconstrained", None, "analytic.errors"),
            (analytic.solve_constrained, "analytic.solve_constrained", after_kkt, "analytic.errors"),
            (minimize.minimize, "minimize.minimize", after_minimize, None),
            (pareto.pareto_front, "pareto.pareto_front", after_front, None),
            (pareto.scalar_subproblem, "pareto.scalar_subproblem", after_subproblem, None),
            (pareto.dominance_filter, "pareto.dominance_filter", after_filter, None),
            (gridsearch.grid_min, "gridsearch.grid_min", after_grid("gridsearch.grid_min.cells_stage1"), None),
            (gridsearch.grid_front, "gridsearch.grid_front", after_grid("gridsearch.grid_front.cells"), None),
        )
        try:
            for fn, name, after, error_key in spans:
                self._rebind(modules, fn, self._span(name, fn, after, error_key))
            for fn, name in (
                (analytic.kkt_residual, "analytic.kkt_residual"),
                (analytic.gradient_norm, "analytic.gradient_norm"),
            ):
                self._rebind(modules, fn, self._counter(name, fn))
            cm = model.CostModel
            self._patch_method(cm, "__init__", self._counter("model.CostModel", cm.__init__))
            self._patch_method(cm, "average_cost", self._average_cost(cm.average_cost))
            self._patch_method(cm, "ghg_value", self._counter("model.ghg_value", cm.ghg_value))
            self._patch_method(cm, "energy_value", self._counter("model.energy_value", cm.energy_value))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.starts, self.ends, self.parents)

    def dump(self, path, meta: dict) -> None:
        """Write every span as [name, start, end, parent, op] plus the counters."""
        spans = [
            [n, s, e, p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "counts": dict(self.counts), "spans": spans}, fh)
