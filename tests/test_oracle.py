"""Reference solutions: closed forms checked against the angular ODE, predicted columns."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import signorini as sg
import signorini.cli as cli
from signorini.errors import InvalidConfigurationError
from conftest import (
    angular_ode, angular_system, apply_operator, homogeneous_functionals, interior_mask,
)


def test_y_power_evaluation():
    ref = sg.exact_solution("y_power", 0.5)
    assert ref(np.array([0.3, 0.4])) == pytest.approx(0.4**0.5)


def test_even_poly_harmonic_at_a0():
    ref = sg.exact_solution("even_poly", 0.0)
    pts = np.array([[0.3, 0.2], [0.1, 0.7]])
    assert np.allclose(ref(pts), pts[:, 0] ** 2 - pts[:, 1] ** 2)


def test_profile_dirichlet_side_value():
    ref = sg.exact_solution("signorini_profile", 0.0)
    # theta = pi: on the contact ray the profile vanishes
    assert ref(np.array([-0.7, 0.0])) == pytest.approx(0.0, abs=1e-14)


def test_unsupported_kind():
    with pytest.raises(InvalidConfigurationError):
        sg.exact_solution("bogus", 0.0)


def _angular(a, theta):
    """The contact profile on the unit circle, phi(theta) = U(cos theta, sin theta)."""
    return sg.exact_solution("signorini_profile", a)(
        np.stack([np.cos(theta), np.sin(theta)], axis=-1))


def _near_contact(a, s):
    """phi(pi - s), from the unit-circle point (-cos s, sin s)."""
    return sg.exact_solution("signorini_profile", a)(np.stack([-np.cos(s), np.sin(s)], axis=-1))


def test_profile_ode_matches_cosine_at_a0():
    # the angular equation's profile at a = 0 is cos(3 theta/2)
    th = np.linspace(0, np.pi, 721)
    assert np.abs(_angular(0.0, th) - np.cos(1.5 * th)).max() <= 1e-14


@pytest.mark.parametrize("a", [-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
def test_profile_ode_boundary_conditions(a):
    ref = sg.exact_solution("signorini_profile", a)
    assert ref.kappa == (3 - a) / 2
    # Dirichlet on the contact ray, normalised to 1 on the Neumann ray
    assert ref(np.array([-1.0, 0.0])) == 0.0
    assert ref(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    # weighted Neumann on the Neumann ray: phi is even there, so
    # (sin t)^a phi' = phi''(0) t^{1+a} (1 + O(t^2)), where the equation
    # fixes phi''(0) = -lam / (1 + a)
    _, lam, _ = angular_system(a)
    t, h = np.geomspace(1e-4, 1e-3, 5), 1e-7
    q = np.sin(t) ** a * (_angular(a, t + h) - _angular(a, t - h)) / (2 * h)
    assert np.allclose(q / t ** (1 + a), -lam / (1 + a), rtol=1e-5, atol=0.0)
    # sign condition near the Neumann ray
    assert np.all(_angular(a, np.linspace(0, 0.5, 50)) > 0)
    # kappa-homogeneous
    pts = np.array([[0.3, 0.4], [-0.5, 0.1], [0.2, 0.0]])
    assert np.allclose(ref(2.5 * pts), 2.5 ** ref.kappa * ref(pts), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a", [-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
def test_profile_satisfies_the_angular_equation(a):
    # an independent integration of the angular ODE in both directions from
    # theta = pi/2, started from the closed form's value and weighted
    # derivative; it stops short of the rays, where (sin t)^a degenerates
    from scipy.integrate import solve_ivp

    rhs, _, _ = angular_system(a)
    mid, h = np.pi / 2, 1e-6
    z0 = [_angular(a, mid), (_angular(a, mid + h) - _angular(a, mid - h)) / (2 * h)]
    for end in (1e-2, np.pi - 1e-2):
        sol = solve_ivp(rhs, [mid, end], z0, method="LSODA", rtol=1e-12, atol=1e-14,
                        dense_output=True)
        t = np.linspace(mid, end, 2001)
        assert np.abs(sol.sol(t)[0] - _angular(a, t)).max() <= 1e-8


@pytest.mark.parametrize("a", [-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
def test_profile_regular_part_matches_series_start(a):
    _, _, c2 = angular_system(a)
    s = np.geomspace(1e-6, 1e-2, 40)
    regular = _near_contact(a, s) / s ** (1 - a)
    series = 1 + c2 * s**2
    assert np.abs(regular / regular[0] * series[0] - series).max() <= 1e-8


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_profile_matches_ode_dense_output(a):
    # an independent integration of the angular ODE from the contact ray
    phi, defect = angular_ode(a)
    _, _, c2 = angular_system(a)
    assert defect <= 1e-6
    s0 = 1e-6
    s = np.linspace(s0, np.pi - 1e-12, 10007)
    assert np.abs(_near_contact(a, s) - phi(s)).max() <= 1e-8
    # inside the first step: the series itself, in phi's normalisation
    near = np.geomspace(1e-10, s0, 50)

    def series(s):
        return s ** (1 - a) + c2 * s ** (3 - a)

    assert np.abs(_near_contact(a, near) - series(near) * phi(s0) / series(s0)).max() <= 1e-8


def test_profile_ode_flags_wrong_homogeneity():
    # integrated from the contact ray, the angular equation meets its
    # weighted Neumann end only at the closed form's kappa = (3-a)/2
    a = 0.5
    assert angular_ode(a, sg.exact_solution("signorini_profile", a).kappa)[1] <= 1e-6
    assert angular_ode(a, kappa=1.4)[1] > 1e-1


def test_exact_solution_accepts_the_grid_range_of_a():
    for a in (-0.99, -0.5, 0.0, 0.99):
        for kind in sg.oracle.KINDS:
            assert sg.exact_solution(kind, a).a == a
    for a in (-1.0, 1.0, 1.5):
        with pytest.raises(InvalidConfigurationError):
            sg.exact_solution("signorini_profile", a)


@pytest.mark.parametrize("a", [0.25, 0.5])
def test_profile_field_residual_decay_off_contact_ray(a):
    ref = sg.exact_solution("signorini_profile", a)
    norms = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = sg.build_grid(1, 1.0, h, h, a)
        problem = sg.make_problem(grid)
        form = sg.assemble_energy(grid, problem)
        pts = np.stack(grid.node_mesh(), axis=-1)
        U = ref(pts)
        r = apply_operator(form, U)
        X, Y = grid.node_mesh()
        keep = interior_mask(grid) & ~((X <= 0.1) & (Y <= 0.1))  # off the contact ray
        norms.append(np.sqrt((r[keep] ** 2).sum() * grid.hx * grid.hy))
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert orders.min() >= 1.9


def test_profile_solves_signorini_sign_conditions():
    a = 0.5
    ref = sg.exact_solution("signorini_profile", a)
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    pts = np.stack(grid.node_mesh(), axis=-1)
    U = ref(pts)
    xs = grid.xs[0]
    thin = U[:, 0]
    assert np.all(thin[xs > 0] > 0)  # detached side positive
    assert np.abs(thin[xs <= 0]).max() <= 1e-10  # contact side zero
    tr = sg.neumann_trace(grid, U)
    assert np.all(tr[xs < -2 * grid.hx] < 0)  # flux pushes down on contact


def test_homogeneous_functionals_critical_weiss():
    a = 0.25
    cols = homogeneous_functionals((3 - a) / 2, 1, a, H1=2.0)
    r = np.geomspace(0.1, 1.0, 10)
    assert np.allclose(cols["W"](r), 0.0)
    assert np.allclose(cols["Ntilde"](r), (3 - a) / 2)


def test_homogeneous_functionals_profile_height():
    cols = homogeneous_functionals(1.5, 1, 0.0, H1=np.pi)
    r = np.array([0.25, 0.5, 1.0])
    assert np.allclose(cols["H"](r), np.pi * r**4)
    assert np.allclose(cols["I"](r), 1.5 * np.pi * r**3)
    assert np.allclose(cols["psi"](r), r)
    assert np.allclose(cols["Phi"](r), 1.5)


def test_profile_ode_csv_roundtrip(tmp_path):
    # the oracle verb tabulates the profile on 721 angles, the contact ray included
    assert cli.main(["oracle", "--kind", "signorini_profile", "--a", "0.5",
                     "--out", str(tmp_path), "--quiet"]) == 0
    data = np.loadtxt(tmp_path / "angular_profile.csv", delimiter=",", skiprows=1)
    th = np.linspace(0, np.pi, 721)
    assert np.array_equal(data[:, 0], th)
    assert data[0, 1] == pytest.approx(1.0, abs=1e-15) and data[-1, 1] == 0.0
    assert np.abs(data[:-1, 1] - _angular(0.5, th[:-1])).max() <= 1e-15


HEAVY_SCIPY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.special", "scipy.integrate",
               "scipy.interpolate")


def test_diagnose_loads_no_scipy_beyond_sparse(tmp_path):
    # a fresh interpreter imports signorini and runs diagnose on an n = 2
    # oracle config: the oracle is a closed form, the sphere rules come from
    # numpy and CG runs in the solver module, so no heavy scipy subpackage loads
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = {"n": 2, "a": 0.5, "hx": 1 / 8, "hy": 1 / 8, "boundary": "oracle:signorini_profile",
           "r_grid": {"count": 8}}
    code = ("import json, sys; import signorini, signorini.cli as cli; "
            "cli.run(cli.ExperimentConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2], quiet=True); "
            f"print(json.dumps([m for m in {HEAVY_SCIPY!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(cfg), str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
    assert (tmp_path / "freeboundary.json").is_file()
