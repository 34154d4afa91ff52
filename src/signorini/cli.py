"""Experiment runner: JSON config -> solve -> diagnostics -> CSV/JSON artifacts.

The verbs solve, diagnose, classify and blowup each run a tuple of named
stages (VERBS) through one pipeline, which writes the stages' artifacts
and one manifest.json; oracle tabulates a reference solution and sweep
runs diagnose once per parameter value. This module is the only one
that writes files.
Exit codes: 0 success, 2 invalid config or arguments (malformed JSON
included), 3 nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real

import numpy as np
import scipy

from . import __version__
from .errors import (
    InvalidCoefficientError,
    InvalidConfigurationError,
    InvalidParameterError,
    NonconvergedError,
    OutOfDomainError,
    SignoriniError,
    UnsupportedRadiusError,
)
from .coefficients import build_coefficients, is_number, make_problem
from .freeboundary import blowup, free_boundary_report
from .functionals import (
    COLUMNS, default_r_grid, identity_checks, radial_profile, surface_cross_check,
)
from .grid import build_grid
from .operator import assemble_energy
from .oracle import exact_solution
from .solver import complementarity_report, solve_active_set

CONFIG_SCHEMA = 1
# the one method, "psor", names the active-set solver; its "omega", once
# the PSOR relaxation, is type-checked and ignored
SOLVER_KEYS = {"method", "tol", "omega"}
R_GRID_KEYS = {"count", "r_min", "r_max"}
# the type of every solver and r_grid key but solver.method
KEY_TYPES = {"tol": Real, "omega": Real, "count": Integral, "r_min": Real, "r_max": Real}


def _require(name: str, value, kind) -> None:
    """Reject a value that is not of kind, an Integral or Real number (a
    bool is neither)."""
    if not is_number(value, kind):
        what = {Integral: "an integer", Real: "a number"}[kind]
        raise InvalidConfigurationError(f"field '{name}' must be {what}, got {value!r}")


def _positive_finite(value) -> bool:
    """Whether a number is positive and finite as a float; an integer
    beyond the float range is not."""
    try:
        return bool(np.isfinite(float(value)) and value > 0)
    except OverflowError:
        return False


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
    boundary: object = 0.0  # scalar spec or "oracle:<kind>"
    solver: dict = field(default_factory=lambda: {"method": "psor"})
    r_grid: dict = field(default_factory=dict)  # {count, r_min, r_max}
    Kprime: object = "calibrate"
    delta: float = 0.5
    C_weiss: object = "calibrate"
    output: object = None  # default output directory (--out overrides)
    seed: int = 0
    schema: int = CONFIG_SCHEMA

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise InvalidConfigurationError(
                f"config must be a JSON object, got {type(raw).__name__}"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise InvalidConfigurationError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidConfigurationError(f"cannot read config {str(path)!r}: {exc}")
        return cls.from_dict(raw)

    def validate(self) -> None:
        if self.schema != CONFIG_SCHEMA:
            raise InvalidConfigurationError(
                f"config schema {self.schema} unsupported (expected {CONFIG_SCHEMA})"
            )
        for name in ("n", "seed"):
            _require(name, getattr(self, name), Integral)
        for name in ("a", "R", "hx", "hy", "delta"):
            _require(name, getattr(self, name), Real)
        for name in ("Kprime", "C_weiss"):
            v = getattr(self, name)
            if v != "calibrate":
                _require(name, v, Real)
        if self.n not in (1, 2):
            raise InvalidConfigurationError(f"field 'n' must be 1 or 2, got {self.n}")
        if not (0.0 <= self.a < 1.0):
            raise InvalidConfigurationError(f"field 'a' must lie in [0, 1), got {self.a}")
        for name in ("R", "hx", "hy", "delta"):
            v = getattr(self, name)
            if not _positive_finite(v):
                raise InvalidConfigurationError(f"field '{name}' must be positive finite, got {v}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidConfigurationError(f"field 'delta' must lie in (0,1), got {self.delta}")
        for name in ("solver", "r_grid"):
            if not isinstance(getattr(self, name), dict):
                raise InvalidConfigurationError(f"field '{name}' must be an object")
        if not (self.output is None or isinstance(self.output, str)):
            raise InvalidConfigurationError(
                f"field 'output' must be a string or null, got {self.output!r}")
        method = self.solver.get("method", "psor")
        if method != "psor":
            raise InvalidConfigurationError(f"field 'solver.method' must be psor, got {method!r}")
        for name, allowed in (("solver", SOLVER_KEYS), ("r_grid", R_GRID_KEYS)):
            spec = getattr(self, name)
            unknown = set(spec) - allowed
            if unknown:
                raise InvalidConfigurationError(f"unknown {name} keys {sorted(unknown)}")
            for key, value in spec.items():
                if key != "method":
                    _require(f"{name}.{key}", value, KEY_TYPES[key])
        tol = self.solver.get("tol")
        if tol is not None and not _positive_finite(tol):
            raise InvalidConfigurationError(f"field 'solver.tol' must be positive finite, got {tol}")
        if self.r_grid:  # a set r_grid must give the profile stage its radii on this grid
            default_r_grid(_grid(self), **self.r_grid)

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


def _grid(cfg: ExperimentConfig):
    return build_grid(cfg.n, cfg.R, cfg.hx, cfg.hy, cfg.a)


def build_experiment(cfg: ExperimentConfig, grid=None):
    """(grid, problem, reference) of the config; grid, when given, is the
    config's grid, already built."""
    if grid is None:
        grid = _grid(cfg)
    coeff = build_coefficients(grid, cfg.coefficients)
    boundary, ref = _resolve_boundary(cfg, grid)
    problem = make_problem(grid, coeff=coeff, psi=cfg.obstacle, f=cfg.source, boundary=boundary)
    return grid, problem, ref


def run_solve(cfg: ExperimentConfig, grid=None):
    grid, problem, ref = build_experiment(cfg, grid)
    form = assemble_energy(grid, problem)
    sol = solve_active_set(form, problem, tol=cfg.solver.get("tol"))
    return grid, problem, form, sol, ref


def _write(out_dir, artifacts: dict) -> None:
    """Write {file name: data} into out_dir, creating it; the suffix picks
    the format. .npy: an array. .json: strict JSON (sorted keys; non-finite
    floats as strings). .csv: (header, rows), floats to 17 significant
    digits, cells holding a comma, quote or newline quoted.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts.items():
        path = out / name
        if name.endswith(".npy"):
            np.save(path, data)
            continue
        with open(path, "w", newline="\n") as fh:
            if name.endswith(".json"):
                json.dump(_jsonable(data), fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
            else:
                header, rows = data
                lines = [",".join(header)]
                lines += [",".join(_csv_cell(v) for v in row) for row in rows]
                fh.write("\n".join(lines) + "\n")


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


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    text = str(v)
    if any(c in text for c in ',"\n'):
        return '"%s"' % text.replace('"', '""')
    return text


# The pipeline. Each stage reads and extends `res`, the run's in-memory
# results (the config's grid, built once, among them), adds its entries to
# res["manifest"], and returns its artifacts.


def _solve(cfg: ExperimentConfig, res: dict) -> dict:
    _, problem, form, sol, ref = run_solve(cfg, res["grid"])
    res.update(problem=problem, sol=sol)
    res["manifest"].update(
        solver_iterations=sol.iterations,
        solver_inner_iterations=sol.inner_iterations,
        solver_steps=sol.steps,
        solver_final_update=sol.final_residual,
        solver_hierarchy={k: round(v, 4) for k, v in sol.hierarchy_s.items()},
        complementarity=complementarity_report(sol, problem, form),
        oracle_linf_error=None if ref is None else float(np.abs(sol.U - problem.boundary).max()),
    )
    return {"U.npy": sol.U, "active.npy": sol.active, "trace.npy": sol.trace}


def _profile(cfg: ExperimentConfig, res: dict) -> dict:
    # all radial diagnostics run on the zero-obstacle reduction U - psi,
    # the free-boundary report's own (alongside)
    U0, problem0 = res["reduced"]
    prof = radial_profile(
        U0, problem0, r_grid=res["r_grid"], Kprime=cfg.Kprime, delta=cfg.delta,
        C_weiss=cfg.C_weiss,
    )
    res.update(profile=prof, summary=prof.summary())
    cols = [getattr(prof, c) for c in COLUMNS]
    cols += [prof.mask_lambda.astype(int), prof.mask_gamma.astype(int)]
    header = COLUMNS + ["in_lambda_mask", "in_gamma_mask"]
    return {"profile.csv": (header, zip(*cols)), "profile_summary.json": res["summary"]}


def _identities(cfg: ExperimentConfig, res: dict) -> dict:
    """Checks the profile stage's columns on the same reduction."""
    U0, problem0 = res["reduced"]
    checks = identity_checks(U0, problem0, res["profile"])
    cross = surface_cross_check(U0, problem0, res["profile"])
    rellich = checks["rellich_rel"]
    return {"identities.json": {
        "height_derivative_rel_max": float(np.max(checks["height_derivative_rel"])),
        "rellich_rel_max": None if rellich is None else float(np.max(rellich)),
        "trace_C1": checks["trace_C1"],
        "trace_C2": checks["trace_C2"],
        "energy_cross_check_rel": cross["rel"],
        "complementarity": res["manifest"]["complementarity"],
    }}


def _freeboundary(cfg: ExperimentConfig, res: dict) -> dict:
    fb = free_boundary_report(res["sol"], res["problem"], delta=cfg.delta,
                              alongside=res["alongside"])
    res["points"] = fb.points
    nearest = min(fb.points, key=lambda p: float(np.linalg.norm(p["x0"])), default=None)
    res["manifest"].update(
        classification_at_origin=None if nearest is None else nearest["class"],
        classification_x0=None if nearest is None else nearest["x0"],
        freeboundary_processes=fb.processes,
    )
    artifacts = {"freeboundary.json": {
        "params": fb.params,
        "n_contact": int(fb.contact_mask.sum()),
        "n_gamma": int(fb.gamma_mask.sum()),
        "points": fb.points,
        "gamma_est": None if fb.graph is None else fb.graph["gamma_est"],
        "graph_error": fb.graph_error,
    }}
    if fb.graph is not None:
        artifacts["graph.csv"] = (("s", "g"), zip(fb.graph["s"], fb.graph["g"]))
    return artifacts


def _blowup(cfg: ExperimentConfig, res: dict) -> dict:
    x0, scale = res["blowup_at"]
    bl = blowup(res["sol"].U, res["problem"], x0, scale)
    return {"blowup.npy": bl, "blowup.json": {"x0": x0, "scale": scale}}


STAGES = {"solve": _solve, "profile": _profile, "identities": _identities,
          "freeboundary": _freeboundary, "blowup": _blowup}
VERBS = {
    "solve": ("solve",),
    "diagnose": ("solve", "profile", "identities", "freeboundary"),
    "classify": ("solve", "freeboundary"),
    "blowup": ("solve", "blowup"),
}
# The stages that run inside the freeboundary stage, in this process, while
# forked children claim the report's points (deal), so that a run deals its
# diagnostics once and subtracts the obstacle once; a verb with them has
# the freeboundary stage too.
ALONGSIDE = ("profile", "identities")


def _pipeline(cfg: ExperimentConfig, out_dir, verb: str, quiet: bool = True,
              blowup_at=None) -> dict:
    """Run the verb's stages in order, writing each stage's artifacts as it
    ends, then manifest.json; returns the in-memory results. The verb's
    ALONGSIDE stages run inside its freeboundary stage, whose stage_s is
    then the time of the whole phase less theirs. blowup_at is the (x0,
    scale) of the blowup stage."""
    t0 = time.time()
    manifest = {"config": cfg.to_dict(), "version": __version__, "stage_s": {},
                "environment": {"python": platform.python_version(), "numpy": np.__version__,
                                "scipy": scipy.__version__}}
    res = {"manifest": manifest, "blowup_at": blowup_at, "grid": _grid(cfg)}
    if "profile" in VERBS[verb]:  # radii that miss the grid exit before the solve
        res["r_grid"] = default_r_grid(res["grid"], **cfg.r_grid)
    stages = VERBS[verb]
    inside = [name for name in stages if name in ALONGSIDE]
    seconds = {}

    def run_stage(name: str) -> None:
        t = time.perf_counter()
        _write(out_dir, STAGES[name](cfg, res))
        seconds[name] = time.perf_counter() - t

    def alongside(U0, problem0) -> None:
        res["reduced"] = U0, problem0
        for name in inside:
            run_stage(name)

    res["alongside"] = alongside
    for name in stages:
        if name not in inside:
            run_stage(name)
    if inside:
        seconds["freeboundary"] -= sum(seconds[name] for name in inside)
    manifest["stage_s"] = {name: round(seconds[name], 3) for name in stages}
    manifest["wall_time_s"] = round(time.time() - t0, 3)
    _write(out_dir, {"manifest.json": manifest})
    if not quiet:
        print(f"{verb} complete: {out_dir} ({manifest['wall_time_s']}s)")
    return res


def run(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> dict:
    """The diagnose pipeline: solve -> radial profile -> identities -> free
    boundary. Deterministic given the config; returns the manifest."""
    return _pipeline(cfg, out_dir, "diagnose", quiet=quiet)["manifest"]


SWEEP_COLUMNS = ["value", "status", "decay_slope", "Ntilde_rmin", "phi_margin",
                 "weiss_margin", "Kprime", "C_weiss", "oracle_linf_error"]


def sweep(cfg: ExperimentConfig, parameter: str, values, out_dir, quiet: bool = False):
    """Run the diagnose pipeline once per parameter value; one CSV row per value."""
    if parameter not in ExperimentConfig.__dataclass_fields__:
        raise InvalidConfigurationError(f"unknown sweep parameter {parameter!r}")
    out = pathlib.Path(out_dir)
    rows = []
    for v in values:
        row = dict.fromkeys(SWEEP_COLUMNS, float("nan"))
        row["value"] = v
        try:
            cfg_v = ExperimentConfig.from_dict({**cfg.to_dict(), parameter: v})
            res = _pipeline(cfg_v, out / f"{parameter}={v}", "diagnose")
        except SignoriniError as exc:
            row["status"] = f"error: {exc}"
        else:
            summ = res["summary"]
            slopes = [p["decay_slope"] for p in res["points"] if "decay_slope" in p]
            err = res["manifest"]["oracle_linf_error"]
            row.update(
                status="ok",
                decay_slope=slopes[0] if slopes else float("nan"),
                Ntilde_rmin=summ["Ntilde_min_r"],
                phi_margin=summ["phi_monotonicity_margin"],
                weiss_margin=summ["weiss_monotonicity_margin"],
                Kprime=summ["Kprime"],
                C_weiss=summ["C_weiss"],
                oracle_linf_error=float("nan") if err is None else err,
            )
        rows.append(row)
    _write(out, {"sweep.csv": (SWEEP_COLUMNS, ([r[k] for k in SWEEP_COLUMNS] for r in rows))})
    if not quiet:
        print(f"sweep complete: {out/'sweep.csv'} ({len(rows)} rows)")
    return rows


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
        sp.add_argument("--quiet", action="store_true")

    for verb, stages in VERBS.items():
        common(sub.add_parser(verb, help="stages: " + ", ".join(stages)))
    bp = sub.choices["blowup"]
    bp.add_argument("--x0", default="0", help="thin point, comma-separated")
    bp.add_argument("--scale", type=float, required=True, help="rescaling radius")

    op = sub.add_parser("oracle", help="tabulate a reference solution")
    op.add_argument("--kind", required=True)
    op.add_argument("--a", type=float, required=True)
    op.add_argument("--out", required=True)
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
            OutOfDomainError, UnsupportedRadiusError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NonconvergedError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 3


def _oracle(args) -> None:
    ref = exact_solution(args.kind, args.a)
    theta = np.linspace(0, np.pi, 721)
    xy = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    xy[-1, 1] = 0.0  # on the contact ray itself: np.sin(np.pi) is 1.2e-16
    phi = ref(xy)
    _write(args.out, {
        "angular_profile.csv": (("theta", "phi"), zip(theta, phi)),
        "oracle.json": {"a": args.a, "kind": args.kind, "residual": 0.0, "kappa": ref.kappa},
    })
    if not args.quiet:
        print(f"oracle written: {args.out}")


def _blowup_at(cfg: ExperimentConfig, text: str, scale: float) -> tuple:
    """(--x0, --scale): n thin coordinates inside the box [-R, R]^n and a
    finite positive radius."""
    if not (np.isfinite(scale) and scale > 0):
        raise InvalidParameterError(f"--scale must be a finite radius > 0, got {scale}")
    try:
        x0 = np.array([float(t) for t in str(text).split(",")])
    except ValueError:
        raise InvalidParameterError(f"--x0 must be comma-separated numbers, got {text!r}")
    if len(x0) != cfg.n:
        raise InvalidParameterError(f"--x0 needs n = {cfg.n} components, got {text!r}")
    if not np.all(np.abs(x0) <= cfg.R):
        raise OutOfDomainError(f"--x0 {text!r} lies outside the box [-{cfg.R}, {cfg.R}]^{cfg.n}")
    return x0, scale


def _dispatch(args) -> int:
    if args.verb == "oracle":
        _oracle(args)
        return 0

    cfg = ExperimentConfig.from_json(args.config)
    out = args.out if args.out is not None else cfg.output
    if out is None:
        raise InvalidConfigurationError(
            "no output directory: pass --out or set the config 'output' field"
        )

    if args.verb == "sweep":
        try:
            values = json.loads("[" + args.values + "]") if args.values.strip() else []
        except ValueError as exc:
            raise InvalidConfigurationError(f"--values is not comma-separated JSON: {exc}")
        sweep(cfg, args.param, values, out, quiet=args.quiet)
    else:
        blowup_at = _blowup_at(cfg, args.x0, args.scale) if args.verb == "blowup" else None
        _pipeline(cfg, out, args.verb, quiet=args.quiet, blowup_at=blowup_at)
    return 0


def _console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _console_entry()
