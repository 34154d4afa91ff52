"""Seeded randomized property checks across the solve/diagnostics chain."""

import numpy as np
import pytest

import signorini as sg
from signorini.errors import NonconvergedError
from signorini.operator import energy
from signorini.solver import near_optimal_omega


def random_problem(seed, n=1, a=None):
    rng = np.random.default_rng(seed)
    if a is None:
        a = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
    grid = sg.build_grid(n, 1.0, 1 / 24, 1 / 24, a)
    # random SPD constant thin block
    M = rng.standard_normal((n, n)) * 0.3
    B = M @ M.T + np.eye(n)
    coeff = sg.build_coefficients(grid, B.tolist(), seed=seed)
    mesh = np.stack(grid.node_mesh(), axis=-1)
    # random low-order polynomial boundary data, nonnegative on the thin set
    c = rng.uniform(-0.5, 0.5, size=3)
    x1 = mesh[..., 0]
    y = mesh[..., -1]
    g = 0.7 + c[0] * x1 + c[1] * (x1**2 - y**2 / (1 + a)) + c[2] * y ** (1 - a)
    g = g - min(0.0, g[..., 0].min()) + 0.05
    psi = float(rng.uniform(0.0, 0.6))
    problem = sg.make_problem(grid, coeff=coeff, psi=psi, boundary=g)
    return grid, problem


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_solve_chain_invariants(seed):
    grid, problem = random_problem(seed)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    # feasibility on the solver's unknowns (Dirichlet corners carry the
    # boundary datum even when it sits below the obstacle)
    free_thin = grid.thin_mask & ~grid.dirichlet_mask
    slack = (sol.U - np.broadcast_to(problem.psi[..., None], grid.node_shape))[free_thin]
    assert np.all(slack >= -1e-14)
    comp = sg.complementarity_report(sol, problem, form)
    scale = max(1.0, float(np.abs(sol.U).max()))
    assert comp["min_gap_max"] <= 10 * sol.tol * scale
    # energy decreases sweep over sweep: cold PSOR stopped after k sweeps
    # (at least 374 converge) hands back its iterate
    e = []
    for k in 2 ** np.arange(9):
        with pytest.raises(NonconvergedError) as stop:
            sg.solve_psor(form, problem, omega=near_optimal_omega(grid), warm_start=False,
                          max_iter=k)
        e.append(energy(form, stop.value.last_iterate))
    assert np.all(np.diff(e) <= 1e-11 * (abs(e[0]) + abs(e[-1])))
    # free boundary inside the extended free boundary
    masks = sg.contact_set(sol, problem)
    inner = np.abs(grid.xs[0]) < 0.9
    assert np.all(masks["gamma_star"][masks["gamma"] & inner])


@pytest.mark.parametrize("seed", [0, 1])
def test_g_ratio_band_random_coefficients(seed):
    grid, problem = random_problem(seed, a=0.25)
    rng = np.random.default_rng(seed + 100)
    U = rng.standard_normal(grid.node_shape)
    rs = np.geomspace(0.2, 0.8, 8)
    G = sg.radial_profile(U, problem, r_grid=rs, Kprime=0.0, C_weiss=0.0, n_angles=48).G
    beta = np.abs(G - (grid.n + 0.25) / rs).max()
    assert np.isfinite(beta)
    lam, Lam, _ = sg.ellipticity_report(problem.coeff)
    # crude magnitude bound implied by ellipticity: G stays within an O(1)
    # band around (n+a)/r on fixed radii
    assert beta <= 2.0 * (Lam / lam) * (grid.n + 1.25) / rs[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_psi_sigma_product_identity_random(seed):
    rng = np.random.default_rng(seed)
    r = np.geomspace(0.05, 1.0, 35)
    n, a = 1, float(rng.uniform(0, 0.9))
    G = (n + a) / r + rng.uniform(-0.3, 0.3) * np.cos(4 * r)
    ps = sg.integrate_psi_sigma(r, G, n, a)
    assert np.allclose(ps.sigma * r ** (n - 1 + a), ps.psi, rtol=1e-13)
    assert ps.psi[-1] == pytest.approx(1.0)
    b = ps.beta_est
    assert np.all(np.abs(ps.sigma / r - ps.alpha) <= b * np.exp(b) * r + 1e-10)
