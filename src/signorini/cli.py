"""Experiment runner: JSON config -> solve -> diagnostics -> CSV/JSON artifacts.

Verbs: solve, diagnose, classify, blowup, oracle, sweep.
Exit codes: 0 success, 2 invalid config, 3 nonconvergence, 4 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import (
    InvalidCoefficientError,
    InvalidConfigurationError,
    InvalidParameterError,
    NonconvergedError,
    OracleFailureError,
    SignoriniError,
    UnsupportedRadiusError,
)
from .coefficients import build_coefficients, make_problem
from .freeboundary import blowup, free_boundary_report, reduce_obstacle
from .functionals import default_r_grid, identity_checks, radial_profile, surface_cross_check
from .grid import build_grid
from .operator import assemble_energy
from .oracle import exact_solution, profile_ode
from .solver import complementarity_report, solve_penalized, solve_psor

CONFIG_SCHEMA = 1


@dataclass
class ExperimentConfig:
    n: int = 1
    a: float = 0.0
    R: float = 1.0
    hx: float = 1.0 / 64
    hy: float = 1.0 / 64
    coefficients: object = None  # None/"identity" | nested scalar specs
    obstacle: object = 0.0
    source: object = 0.0
    source_y_independent: bool = True
    boundary: object = 0.0  # scalar spec or "oracle:<kind>"
    solver: dict = field(default_factory=lambda: {"method": "psor"})
    r_grid: dict = field(default_factory=dict)  # {count, r_min, r_max}
    Kprime: object = "auto"
    delta: float = 0.5
    C_weiss: object = "auto"
    output: object = None  # default output directory (--out overrides)
    seed: int = 0
    schema: int = CONFIG_SCHEMA

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise InvalidConfigurationError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    def validate(self) -> None:
        if self.schema != CONFIG_SCHEMA:
            raise InvalidConfigurationError(
                f"config schema {self.schema} unsupported (expected {CONFIG_SCHEMA})"
            )
        if self.n not in (1, 2):
            raise InvalidConfigurationError(f"field 'n' must be 1 or 2, got {self.n}")
        if not (0.0 <= self.a < 1.0):
            raise InvalidConfigurationError(f"field 'a' must lie in [0, 1), got {self.a}")
        for name in ("R", "hx", "hy", "delta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise InvalidConfigurationError(f"field '{name}' must be positive finite, got {v}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidConfigurationError(f"field 'delta' must lie in (0,1), got {self.delta}")
        method = self.solver.get("method", "psor")
        if method not in ("psor", "penalized"):
            raise InvalidConfigurationError(f"solver.method must be psor|penalized, got {method}")

    def to_dict(self) -> dict:
        return asdict(self)


def _resolve_boundary(cfg: ExperimentConfig, grid):
    spec = cfg.boundary
    if isinstance(spec, str) and spec.startswith("oracle:"):
        ref = exact_solution(spec.split(":", 1)[1], cfg.a)
        mesh = grid.node_mesh()
        pts = np.stack(mesh, axis=-1)
        return ref(pts), ref
    return spec, None


def build_experiment(cfg: ExperimentConfig):
    grid = build_grid(cfg.n, cfg.R, cfg.hx, cfg.hy, cfg.a)
    coeff = build_coefficients(grid, cfg.coefficients, seed=cfg.seed)
    boundary, ref = _resolve_boundary(cfg, grid)
    problem = make_problem(
        grid, coeff=coeff, psi=cfg.obstacle, f=cfg.source, boundary=boundary,
        f_independent_of_y=cfg.source_y_independent,
    )
    return grid, problem, ref


def run_solve(cfg: ExperimentConfig):
    grid, problem, ref = build_experiment(cfg)
    form = assemble_energy(grid, problem)
    s = cfg.solver
    method = s.get("method", "psor")
    if method == "penalized":
        eps = s.get("eps", 1e-3)
        sol = solve_penalized(form, problem, eps=eps, tol=s.get("tol"))
    else:
        sol = solve_psor(
            form, problem, tol=s.get("tol"), max_iter=s.get("max_iter", 100_000),
            omega=s.get("omega"), warm_start=s.get("warm_start", True),
        )
    return grid, problem, form, sol, ref


def _json_dump(obj, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _jsonable(v):
    """Plain JSON values; non-finite floats become their repr strings
    ('inf', '-inf', 'nan'), which strict parsers accept."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not np.isfinite(v):
        return repr(v)
    return v


def run(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> dict:
    """Full pipeline: solve -> radial profile -> identities -> free boundary.

    Deterministic given config and seed; artifacts land in out_dir.
    """
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    grid, problem, form, sol, ref = run_solve(cfg)

    np.save(out / "U.npy", sol.U)
    np.save(out / "active.npy", sol.active)
    np.save(out / "trace.npy", sol.trace)

    rg_spec = cfg.r_grid
    r_grid = default_r_grid(
        grid, count=rg_spec.get("count", 40),
        r_min=rg_spec.get("r_min"), r_max=rg_spec.get("r_max"),
    )
    # all radial diagnostics run on the zero-obstacle reduction U - psi
    sol0, problem0 = reduce_obstacle(sol, problem)
    prof = radial_profile(
        sol0, problem0, r_grid=r_grid, Kprime=cfg.Kprime, delta=cfg.delta,
        C_weiss=cfg.C_weiss,
    )
    prof.to_csv(out / "profile.csv")
    _json_dump(prof.summary(), out / "profile_summary.json")

    idr = r_grid[(r_grid >= 0.2 * grid.R) & (r_grid <= 0.8 * grid.R)]
    checks = identity_checks(sol0, problem0, r_grid=idr if len(idr) >= 3 else None)
    cross = surface_cross_check(sol0, problem0, float(np.median(r_grid)))
    comp = complementarity_report(sol, problem, form)
    _json_dump(
        {
            "height_derivative_rel_max": float(np.max(checks["height_derivative_rel"])),
            "rellich_rel_max": (
                None if checks["rellich_rel"] is None else float(np.max(checks["rellich_rel"]))
            ),
            "trace_C1": checks["trace_C1"],
            "trace_C2": checks["trace_C2"],
            "energy_cross_check_rel": cross["rel"],
            "complementarity": comp,
        },
        out / "identities.json",
    )

    fb = free_boundary_report(sol, problem, delta=cfg.delta)
    fb.to_json(out / "freeboundary.json")
    if fb.graph is not None:
        fb.graph_to_csv(out / "graph.csv")
    nearest = min(fb.points, key=lambda p: float(np.linalg.norm(p["x0"])), default=None)

    manifest = {
        "config": cfg.to_dict(),
        "version": __version__,
        "solver_iterations": sol.iterations,
        "solver_active_set_iterations": sol.active_set_iterations,
        "solver_inner_iterations": sol.inner_iterations,
        "solver_final_update": sol.final_residual,
        "classification_at_origin": None if nearest is None else nearest["class"],
        "classification_x0": None if nearest is None else nearest["x0"],
        "oracle_linf_error": (
            None
            if ref is None
            else float(np.abs(sol.U - problem.boundary).max())
        ),
        "wall_time_s": round(time.time() - t0, 3),
    }
    _json_dump(manifest, out / "manifest.json")
    if not quiet:
        print(f"run complete: {out} ({manifest['wall_time_s']}s, {sol.iterations} iterations)")
    return manifest


def sweep(cfg: ExperimentConfig, parameter: str, values, out_dir, quiet: bool = False):
    """Run the config once per parameter value; one CSV row per value."""
    import pathlib

    if parameter not in ExperimentConfig.__dataclass_fields__:
        raise InvalidConfigurationError(f"unknown sweep parameter {parameter!r}")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for v in values:
        sub = out / f"{parameter}={v}"
        try:
            cfg_v = ExperimentConfig.from_dict({**cfg.to_dict(), parameter: v})
            manifest = run(cfg_v, sub, quiet=True)
            with open(sub / "profile_summary.json") as fh:
                summ = json.load(fh)
            with open(sub / "freeboundary.json") as fh:
                fbj = json.load(fh)
            slopes = [p.get("decay_slope") for p in fbj["points"] if "decay_slope" in p]
            err = manifest.get("oracle_linf_error")
            rows.append(
                {
                    "value": v,
                    "status": "ok",
                    "decay_slope": slopes[0] if slopes else float("nan"),
                    "Ntilde_rmin": summ["Ntilde_min_r"],
                    "phi_margin": summ["phi_monotonicity_margin"],
                    "weiss_margin": summ["weiss_monotonicity_margin"],
                    "Kprime": summ["Kprime"],
                    "C_weiss": summ["C_weiss"],
                    "oracle_linf_error": float("nan") if err is None else err,
                }
            )
        except SignoriniError as exc:
            rows.append({"value": v, "status": f"error: {exc}", "decay_slope": float("nan"),
                         "Ntilde_rmin": float("nan"), "phi_margin": float("nan"),
                         "weiss_margin": float("nan"), "Kprime": float("nan"),
                         "C_weiss": float("nan"), "oracle_linf_error": float("nan")})
    header = ["value", "status", "decay_slope", "Ntilde_rmin", "phi_margin",
              "weiss_margin", "Kprime", "C_weiss", "oracle_linf_error"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[k]) for k in header))
    with open(out / "sweep.csv", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if not quiet:
        print(f"sweep complete: {out/'sweep.csv'} ({len(rows)} rows)")
    return rows


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return '"%s"' % v.replace('"', "'") if ("," in v or '"' in v) else v
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="signorini",
        description="Degenerate thin obstacle solver and free-boundary diagnostics",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=None,
                        help="output directory (default: the config's 'output' field)")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--quiet", action="store_true")

    common(sub.add_parser("solve", help="solve only, write the field"))
    common(sub.add_parser("diagnose", help="full solve + diagnostics pipeline"))
    common(sub.add_parser("classify", help="solve + free-boundary classification"))

    bp = sub.add_parser("blowup", help="frequency-normalized rescaling at a point")
    common(bp)
    bp.add_argument("--x0", default="0", help="thin point, comma-separated")
    bp.add_argument("--scale", type=float, required=True, help="rescaling radius")

    op = sub.add_parser("oracle", help="tabulate a reference solution")
    op.add_argument("--kind", required=True)
    op.add_argument("--a", type=float, required=True)
    op.add_argument("--out", required=True)
    op.add_argument("--tol", type=float, default=1e-6, help="oracle residual tolerance")
    op.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("sweep", help="run a config across parameter values")
    common(sp)
    sp.add_argument("--param", required=True)
    sp.add_argument("--values", required=True, help="comma-separated JSON scalars")
    return p


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (InvalidConfigurationError, InvalidCoefficientError, InvalidParameterError,
            UnsupportedRadiusError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NonconvergedError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 3
    except OracleFailureError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    import pathlib

    if args.verb == "oracle":
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.kind == "signorini_profile" and args.a > 0:
            prof = profile_ode(args.a, residual_tol=args.tol)
            prof.to_csv(out / "angular_profile.csv")
            _json_dump({"a": args.a, "kind": args.kind, "residual": prof.residual,
                        "kappa": prof.kappa}, out / "oracle.json")
        else:
            ref = exact_solution(args.kind, args.a)
            theta = np.linspace(0, np.pi, 721)
            pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            vals = ref(pts)
            with open(out / "angular_profile.csv", "w", newline="\n") as fh:
                fh.write("theta,phi\n")
                for t, v in zip(theta, vals):
                    fh.write("%.17g,%.17g\n" % (t, v))
            _json_dump({"a": args.a, "kind": args.kind, "residual": 0.0,
                        "kappa": ref.kappa}, out / "oracle.json")
        if not args.quiet:
            print(f"oracle written: {out}")
        return 0

    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    if getattr(args, "out", None) is None:
        if cfg.output is None:
            raise InvalidConfigurationError(
                "no output directory: pass --out or set the config 'output' field"
            )
        args.out = cfg.output

    if args.verb == "solve":
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        grid, problem, form, sol, ref = run_solve(cfg)
        np.save(out / "U.npy", sol.U)
        np.save(out / "active.npy", sol.active)
        np.save(out / "trace.npy", sol.trace)
        comp = complementarity_report(sol, problem, form)
        _json_dump(
            {"config": cfg.to_dict(), "version": __version__,
             "solver_iterations": sol.iterations,
             "solver_active_set_iterations": sol.active_set_iterations,
             "solver_inner_iterations": sol.inner_iterations,
             "solver_final_update": sol.final_residual,
             "complementarity": comp,
             "wall_time_s": round(time.time() - t0, 3)},
            out / "manifest.json",
        )
        if not args.quiet:
            print(f"solve complete: {out} ({sol.iterations} iterations)")
        return 0

    if args.verb == "diagnose":
        run(cfg, args.out, quiet=args.quiet)
        return 0

    if args.verb == "classify":
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        grid, problem, form, sol, ref = run_solve(cfg)
        fb = free_boundary_report(sol, problem, delta=cfg.delta)
        fb.to_json(out / "freeboundary.json")
        if fb.graph is not None:
            fb.graph_to_csv(out / "graph.csv")
        if not args.quiet:
            print(f"classification written: {out}")
        return 0

    if args.verb == "blowup":
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        grid, problem, form, sol, ref = run_solve(cfg)
        x0 = np.array([float(t) for t in str(args.x0).split(",")])
        bl = blowup(sol, problem, x0, args.scale)
        np.save(out / "blowup.npy", bl.U)
        _json_dump({"x0": x0.tolist(), "scale": args.scale}, out / "blowup.json")
        if not args.quiet:
            print(f"blowup written: {out}")
        return 0

    if args.verb == "sweep":
        values = json.loads("[" + args.values + "]") if args.values.strip() else []
        sweep(cfg, args.param, values, args.out, quiet=args.quiet)
        return 0

    raise InvalidConfigurationError(f"unknown verb {args.verb}")


def _console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _console_entry()
