"""Shared fixtures: cached solves of standard test problems."""

from functools import lru_cache

import numpy as np
import pytest

import signorini as sg
from signorini.solver import near_optimal_omega


def profile_boundary(grid, a: float, mix: float = 0.0) -> np.ndarray:
    """Boundary data of the regular contact profile, optionally mixed with
    the next Signorini-compatible homogeneous mode (a=0 only)."""
    pts = np.stack(grid.node_mesh(), axis=-1)
    ref = sg.exact_solution("signorini_profile", a)
    g = ref(pts)
    if mix:
        x1 = pts[..., 0]
        y = pts[..., -1]
        r = np.hypot(x1, y)
        th = np.arctan2(y, x1)
        g = g + mix * r**2.5 * np.cos(2.5 * th)
    return g


@lru_cache(maxsize=32)
def solved_profile(a: float, h: float, mix: float = 0.0, b11_slope: float = 0.0):
    """PSOR solve with profile boundary data, zero obstacle and source."""
    grid = sg.build_grid(1, 1.0, h, h, a)
    coeff = None
    if b11_slope:
        coeff = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [b11_slope, [1]]]}]])
    else:
        coeff = sg.build_coefficients(grid, None)
    g = profile_boundary(grid, a, mix)
    problem = sg.make_problem(grid, coeff=coeff, psi=0.0, f=0.0, boundary=g)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    return grid, problem, form, sol, g


@pytest.fixture(scope="session")
def profile_a0():
    return solved_profile(0.0, 1.0 / 96)


@pytest.fixture(scope="session")
def profile_a05():
    return solved_profile(0.5, 1.0 / 96)
