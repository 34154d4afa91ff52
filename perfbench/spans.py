"""In-memory span tracer that wraps `signorini`'s public functions from outside.

Nothing under `src/` changes: `Tracer.install()` replaces each public
function of the layer modules (and `FieldSampler.__call__`) in every
`signorini` module namespace that holds it, and `uninstall()` puts the
originals back. Spans are kept in memory as (name, start, end, parent,
run) tuples and written once by the caller.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "grid", "coefficients", "operator", "solver", "functionals",
          "freeboundary", "oracle")

# scipy.sparse.linalg entry points counted as solver.linear_solve when called
# inside a solver span.
LINEAR_SOLVES = ("spsolve", "splu", "spilu", "factorized", "cg", "minres", "gmres",
                 "bicgstab", "spsolve_triangular")

SPAN_NAME = 0
SPAN_START = 1
SPAN_END = 2
SPAN_PARENT = 3
SPAN_RUN = 4


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlaps counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[SPAN_PARENT] is not None:
            children[s[SPAN_PARENT]].append((s[SPAN_START], s[SPAN_END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[SPAN_START], s[SPAN_END]
        covered, cursor = 0.0, lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Records spans and counters for calls into the wrapped functions."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, on_return=None, only_inside=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if only_inside is not None and not (
                any(tracer.spans[i][SPAN_NAME].startswith(only_inside) for i in stack)
                and tracer.spans[stack[-1]][SPAN_NAME] != name
            ):
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append((name, time.perf_counter(), math.nan,
                                 stack[-1] if stack else None, tracer.run_id))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                s = tracer.spans[sid]
                tracer.spans[sid] = (s[0], s[1], time.perf_counter(), s[3], s[4])
            if on_return is not None:
                on_return(tracer.counters, args, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "signorini" and not name.startswith("signorini."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, run_id: int) -> None:
        """Wrap everything; spans and counters from now on belong to run_id."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        self.counters = defaultdict(float)
        for layer in LAYERS:
            mod = sys.modules.get(f"signorini.{layer}")
            if mod is None:
                continue
            for fname, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    hook = _on_solve if (layer == "solver" and fname.startswith("solve")) \
                        else _HOOKS.get((layer, fname))
                    wrapper = self._wrap(f"{layer}.{fname}", fn, hook)
                    self._replace_everywhere(fn, wrapper)
        sampler = getattr(sys.modules.get("signorini.functionals"), "FieldSampler", None)
        if sampler is not None and "__call__" in vars(sampler):
            call = vars(sampler)["__call__"]
            self._patches.append((sampler, "__call__", call))
            sampler.__call__ = self._wrap("functionals.FieldSampler", call)
        import scipy.sparse.linalg as spla

        for fname in LINEAR_SOLVES:
            fn = getattr(spla, fname, None)
            if fn is None:
                continue
            wrapper = self._wrap("solver.linear_solve", fn, only_inside="solver.")
            self._patches.append((spla, fname, fn))
            setattr(spla, fname, wrapper)
            self._replace_everywhere(fn, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []

    # -- per-layer metrics ----------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics of the latest traced call (spans and counters of run_id)."""
        ids = [i for i, s in enumerate(self.spans) if s[SPAN_RUN] == self.run_id]
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for i in ids:
            name = self.spans[i][SPAN_NAME]
            calls[name] += 1
            incl[name] += self.spans[i][SPAN_END] - self.spans[i][SPAN_START]
            own[name] += selfs[i]

        def group(prefix):
            return [k for k in calls if k.startswith(prefix)]

        c = self.counters
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(own[k] for k in group(layer + "."))
        solves = group("solver.solve")
        m["solver.solve.self_s"] = sum(own[k] for k in solves)
        m["solver.iterations"] = c["solver.iterations"]
        m["solver.matvec_nnz"] = c["solver.matvec_nnz"]
        m["solver.final_update"] = c["solver.final_update"]
        m["solver.linear_solve.calls"] = calls["solver.linear_solve"]
        m["solver.linear_solve.self_s"] = own["solver.linear_solve"]
        m["solver.min_gap_max"] = c["solver.min_gap_max"]
        m["solver.complementarity_report.self_s"] = own["solver.complementarity_report"]
        for name in ("functionals.radial_profile", "functionals.geometry_fields",
                     "functionals.FieldSampler", "grid.ball_cells", "grid.sphere_quadrature",
                     "operator.cell_energy_density", "operator.cell_average",
                     "coefficients.normalize_at", "oracle.profile_ode"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = own[name]
        m["functionals.identity_checks.self_s"] = own["functionals.identity_checks"]
        m["freeboundary.report.self_s"] = own["freeboundary.free_boundary_report"]
        m["freeboundary.classify.calls"] = calls["freeboundary.classify"]
        m["freeboundary.classify.s"] = incl["freeboundary.classify"]
        m["freeboundary.decay_fit.self_s"] = own["freeboundary.decay_fit"]
        m["freeboundary.points"] = c["freeboundary.points"]
        m["freeboundary.resolved_ratio"] = (
            c["freeboundary.resolved"] / c["freeboundary.points"] if c["freeboundary.points"] else 0.0
        )
        m["functionals.calibrate_constant.calls"] = calls["functionals.calibrate_constant"]
        m["functionals.calibrate_inf"] = c["functionals.calibrate_inf"]
        m["functionals.nonfinite_summary"] = c["functionals.nonfinite_summary"]
        m["grid.build_grid.s"] = incl["grid.build_grid"]
        m["coefficients.build_s"] = (incl["coefficients.build_coefficients"]
                                     + incl["coefficients.make_problem"])
        m["operator.assemble_energy.self_s"] = own["operator.assemble_energy"]
        m["oracle.exact_solution.s"] = incl["oracle.exact_solution"]
        m["cli.run.self_s"] = own["cli.run"]
        return m


# -- counters taken from return values -------------------------------------

def _on_solve(c, args, sol):
    """Any solver.solve*(form, ...) returning a SolutionField."""
    nnz = args[0].stiffness.nnz if args else 0
    c["solver.iterations"] += sol.iterations
    c["solver.matvec_nnz"] += nnz * sol.iterations
    c["solver.final_update"] = max(c["solver.final_update"], float(sol.final_residual))


def _on_complementarity(c, args, rep):
    c["solver.min_gap_max"] = max(c["solver.min_gap_max"], float(rep["min_gap_max"]))


def _on_calibrate(c, args, k):
    c["functionals.calibrate_inf"] += not math.isfinite(k)


def _on_profile(c, args, prof):
    c["functionals.nonfinite_summary"] += sum(
        1 for v in prof.summary().values() if not math.isfinite(v)
    )


def _on_report(c, args, rep):
    c["freeboundary.points"] += len(rep.points)
    c["freeboundary.resolved"] += sum(
        1 for p in rep.points if p.get("class") in ("Regular", "Degenerate")
    )


_HOOKS = {
    ("solver", "complementarity_report"): _on_complementarity,
    ("functionals", "calibrate_constant"): _on_calibrate,
    ("functionals", "radial_profile"): _on_profile,
    ("freeboundary", "free_boundary_report"): _on_report,
}


def median_metrics(per_call: list) -> dict:
    """Key-wise median over the calls' metric dicts."""
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
