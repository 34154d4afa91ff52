"""Shared fixtures: cached solves of standard test problems."""

import dataclasses
import multiprocessing
from functools import lru_cache

import numpy as np
import pytest

import signorini as sg
from signorini.grid import _layer_transmissibilities, _weighted_layer_integrals
from signorini.solver import near_optimal_omega


# the benchmark's tilted B: off-diagonal, so K is not an M-matrix
TILTED_B = [[{"poly": [[1.0, [0, 0]], [0.1, [0, 1]]]}, {"poly": [[0.25, [0, 0]], [0.1, [1, 0]]]}],
            [{"poly": [[0.25, [0, 0]], [0.1, [1, 0]]]}, 1.0]]


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


def graded_grid(n: int, h: float, a: float):
    """build_grid(n, 1, h, h, a) with the quadratically graded layers
    y_j = R (j/M)^2 in place of the uniform ones."""
    grid = sg.build_grid(n, 1.0, h, h, a)
    ys = grid.ys[-1] * (np.arange(len(grid.ys)) / (len(grid.ys) - 1)) ** 2
    return dataclasses.replace(grid, ys=ys, cell_y_weights=_weighted_layer_integrals(ys, a),
                               cell_y_trans=_layer_transmissibilities(ys, a))


@pytest.fixture(autouse=True)
def no_process_left():
    """No test leaves a child process running (the free-boundary report forks)."""
    yield
    assert multiprocessing.active_children() == []


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
