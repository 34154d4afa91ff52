"""Workload table and seed -> experiment-config generation.

Each workload is one fixed `signorini` diagnose experiment. The seed draws
the variable-coefficient perturbations (b11's slope and the tilt) from
small stated ranges; seed 0 gives the nominal values. The program receives
only the generated config dict.
"""

from __future__ import annotations

import random

# name -> why; the "why" column is repeated in BENCHMARK.json and README.md
WORKLOADS = {
    "diag1d_fine": "solver-bound: PSOR on 132k nodes at h=1/256, identity A so the ODE oracle is exact",
    "diag2d_tilt": "diagnostics-bound: n=2 radial profile and 16 point classifications, off-diagonal non-M-matrix B",
}

# Stated perturbation ranges (seed != 0); seed 0 takes the nominal value.
SLOPE_NOMINAL, SLOPE_RANGE = 0.1, (0.0995, 0.1005)
TILT_NOMINAL, TILT_RANGE = 0.25, (0.245, 0.255)

_BASE = {
    "n": 1,
    "a": 0.5,
    "R": 1.0,
    "obstacle": 0.0,
    "source": 0.0,
    "boundary": "oracle:signorini_profile",
    "solver": {"method": "psor", "omega": 1.95, "tol": 1e-10},
    "r_grid": {"count": 40, "r_min": 0.1},
    "Kprime": "calibrate",
    "delta": 0.5,
    "C_weiss": "calibrate",
}


def _poly(*terms):
    """{"poly": [[coef, exponents], ...]} scalar description."""
    return {"poly": [[c, list(e)] for c, e in terms]}


def perturbations(workload: str, seed: int) -> dict:
    """The seed's draws for one workload: {} when it has no variable coefficients."""
    if workload == "diag1d_fine":
        return {}
    if seed == 0:
        return {"slope": SLOPE_NOMINAL, "tilt": TILT_NOMINAL, "tilt_slope": SLOPE_NOMINAL}
    rng = random.Random(f"{workload}:{seed}")
    return {
        "slope": rng.uniform(*SLOPE_RANGE),
        "tilt": rng.uniform(*TILT_RANGE),
        "tilt_slope": rng.uniform(*SLOPE_RANGE),
    }


def make_config(workload: str, seed: int) -> dict:
    """Experiment config (schema 1 dict) for `signorini.cli.ExperimentConfig`."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    p = perturbations(workload, seed)
    cfg = dict(_BASE, seed=seed)
    if workload == "diag1d_fine":
        cfg.update(hx=1 / 256, hy=1 / 256, coefficients=None)
    else:
        # B = [[1 + s x2, t + s' x1], [t + s' x1, 1]]; default r grid (h=1/16 floor)
        off = _poly((p["tilt"], (0, 0)), (p["tilt_slope"], (1, 0)))
        cfg.update(
            n=2, hx=1 / 16, hy=1 / 16, r_grid={"count": 40},
            coefficients=[[_poly((1.0, (0, 0)), (p["slope"], (0, 1))), off], [off, 1.0]],
        )
    return cfg
