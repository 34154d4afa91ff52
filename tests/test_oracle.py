"""Reference solutions: closed forms, the angular profile ODE, predicted columns."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import signorini as sg
import signorini.cli as cli
from signorini.errors import InvalidConfigurationError, OracleFailureError
from signorini.operator import interior_mask

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


def test_profile_ode_matches_cosine_at_a0():
    prof = sg.profile_ode(0.0)
    th = np.linspace(0, np.pi, 500)
    assert np.abs(prof(th) - np.cos(1.5 * th)).max() <= 1e-6
    assert prof.residual <= 1e-6


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_profile_ode_boundary_conditions(a):
    prof = sg.profile_ode(a)
    assert prof.residual <= 1e-6
    assert prof(np.pi) == pytest.approx(0.0, abs=1e-10)
    assert prof(0.0) == pytest.approx(1.0, abs=1e-12)
    # sign condition near the Neumann ray
    th = np.linspace(0, 0.5, 50)
    assert np.all(prof(th) > 0)



def _series_start(a):
    """(lam, c2) of the start phi ~ s^{1-a}(1 + c2 s^2), s = pi - theta."""
    kappa = (3 - a) / 2
    lam = kappa * (kappa + a)
    return lam, (a * (1 - a) / 3 - lam) / (2 * (3 - a))


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_profile_regular_part_matches_series_start(a):
    prof = sg.profile_ode(a)
    _, c2 = _series_start(a)
    s = np.geomspace(1e-6, 1e-2, 40)
    regular = prof(np.pi - s) / s ** (1 - a)
    series = 1 + c2 * s**2
    assert np.abs(regular / regular[0] * series[0] - series).max() <= 1e-8


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_profile_matches_ode_dense_output(a):
    # an independent integration of the angular ODE from the contact ray
    from scipy.integrate import solve_ivp

    lam, c2 = _series_start(a)
    s0, s_end = 1e-6, np.pi - 1e-12

    def rhs(s, z):
        return [z[1] / np.sin(s) ** a, -lam * np.sin(s) ** a * z[0]]

    z0 = [s0 ** (1 - a) + c2 * s0 ** (3 - a),
          np.sin(s0) ** a * ((1 - a) * s0 ** -a + c2 * (3 - a) * s0 ** (2 - a))]
    sol = solve_ivp(rhs, [s0, s_end], z0, method="LSODA", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    scale = sol.y[0, -1]
    s = np.linspace(s0, s_end, 10007)
    near = np.geomspace(1e-10, s0, 50)  # inside the first step: the series itself
    prof = sg.profile_ode(a)
    assert np.abs(prof(np.pi - s) - sol.sol(s)[0] / scale).max() <= 1e-8
    assert np.abs(prof(np.pi - near) - (near ** (1 - a) + c2 * near ** (3 - a)) / scale).max() <= 1e-8

def test_profile_ode_flags_wrong_homogeneity():
    with pytest.raises(OracleFailureError):
        sg.profile_ode(0.5, kappa=1.4)


def test_profile_ode_tightened_tolerance_failure():
    with pytest.raises(OracleFailureError):
        sg.profile_ode(0.5, residual_tol=1e-18)


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
        r = sg.apply_operator(form, U)
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
    cols = sg.homogeneous_functionals((3 - a) / 2, 1, a, H1=2.0)
    r = np.geomspace(0.1, 1.0, 10)
    assert np.allclose(cols["W"](r), 0.0)
    assert np.allclose(cols["Ntilde"](r), (3 - a) / 2)


def test_homogeneous_functionals_profile_height():
    cols = sg.homogeneous_functionals(1.5, 1, 0.0, H1=np.pi)
    r = np.array([0.25, 0.5, 1.0])
    assert np.allclose(cols["H"](r), np.pi * r**4)
    assert np.allclose(cols["I"](r), 1.5 * np.pi * r**3)
    assert np.allclose(cols["psi"](r), r)
    assert np.allclose(cols["Phi"](r), 1.5)


def test_profile_ode_csv_roundtrip(tmp_path):
    # the oracle verb writes the ODE profile's knots as angular_profile.csv
    prof = sg.profile_ode(0.5)
    assert cli.main(["oracle", "--kind", "signorini_profile", "--a", "0.5",
                     "--out", str(tmp_path), "--quiet"]) == 0
    data = np.loadtxt(tmp_path / "angular_profile.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 2
    assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(np.pi)
    assert np.array_equal(data, np.column_stack([prof.theta, prof.phi]))


def test_import_keeps_scipy_interpolate_unloaded():
    # the oracle imports scipy.interpolate and scipy.integrate lazily, inside profile_ode
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, signorini; "
            "print([m in sys.modules for m in ('scipy.interpolate', 'scipy.integrate')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[False, False]"
