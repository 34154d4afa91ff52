"""Reference solutions used as ground truth in solver and functional tests.

Three families: the pure extension power y^{1-a}, the even polynomial
x_1^2 - y^2/(1+a) (both annihilated by div(y^a grad .) away from y=0),
and the (3-a)/2-homogeneous contact profile vanishing on one half of the
thin set with zero weighted flux on the other half. At a=0 the profile
has the closed form r^{3/2} cos(3 theta/2); for a>0 its angular factor
is computed by integrating the weighted angular equation from the
degenerate contact end, and the integration residual is always reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, OracleFailureError

KINDS = ("y_power", "even_poly", "signorini_profile")


@dataclass(frozen=True)
class AngularProfile:
    """Angular factor phi(theta) on (0, pi), normalized with phi(0)=1."""

    a: float
    kappa: float
    theta: np.ndarray
    phi: np.ndarray
    residual: float  # weighted-derivative defect at theta=0, relative
    _spline: object

    def __call__(self, theta):
        th = np.clip(np.asarray(theta, dtype=float), 0.0, np.pi)
        return self._spline(th)


def profile_ode(a: float, kappa: float | None = None,
                residual_tol: float = 1e-6) -> AngularProfile:
    """Angular equation ((sin t)^a phi')' + k(k+n-1+a)(sin t)^a phi = 0, n=1.

    Integrates from the contact (Dirichlet) endpoint theta=pi using the
    series start phi ~ s^{1-a}(1 + c s^2), s = pi - theta, and checks the
    weighted derivative (sin t)^a phi' at theta=0 against zero. A residual
    above residual_tol raises, never silently passes.
    """
    # imported here to keep the ODE and spline modules off the `import signorini` path
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    if not (0.0 <= a < 1.0):
        raise InvalidConfigurationError(f"a must lie in [0,1), got {a}")
    if kappa is None:
        kappa = (3.0 - a) / 2.0
    lam = kappa * (kappa + a)
    c2 = (a * (1.0 - a) / 3.0 - lam) / (2.0 * (3.0 - a))

    def rhs(s, z):
        p, q = z  # q = (sin s)^a p'
        ws = np.sin(s) ** a
        return [q / ws, -lam * ws * p]

    s0 = 1e-6
    p0 = s0 ** (1.0 - a) + c2 * s0 ** (3.0 - a)
    dp0 = (1.0 - a) * s0 ** (-a) + c2 * (3.0 - a) * s0 ** (2.0 - a)
    z0 = [p0, np.sin(s0) ** a * dp0]
    s_end = np.pi - 1e-12
    sol = solve_ivp(rhs, [s0, s_end], z0, method="LSODA", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    if not sol.success:
        raise OracleFailureError(f"angular integration failed: {sol.message}")
    pmax = float(np.abs(sol.y[0]).max())
    residual = float(abs(sol.y[1, -1]) / pmax)
    if residual > residual_tol:
        raise OracleFailureError(
            f"weighted Neumann defect {residual:g} exceeds {residual_tol:g} "
            f"(a={a}, kappa={kappa})"
        )
    # tabulate on theta in [0, pi]; theta = pi - s
    ss = np.linspace(s0, s_end, 2000)
    pv = sol.sol(ss)[0]
    theta = np.pi - ss[::-1]
    phi = pv[::-1]
    scale = sol.y[0, -1]  # value at theta -> 0
    phi = phi / scale
    theta = np.concatenate([[0.0], theta, [np.pi]])
    phi = np.concatenate([[1.0], phi, [0.0]])
    spline = CubicSpline(theta, phi)
    return AngularProfile(a=a, kappa=float(kappa), theta=theta, phi=phi,
                          residual=residual, _spline=spline)


@dataclass(frozen=True)
class ReferenceSolution:
    """Closed-form or ODE-backed reference field with contact metadata."""

    kind: str
    a: float
    kappa: float | None
    angular: AngularProfile | None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at thick points (..., n+1); depends on (x_1, y) only."""
        pts = np.asarray(points, dtype=float)
        x1 = pts[..., 0]
        y = np.abs(pts[..., -1])
        if self.kind == "y_power":
            return y ** (1.0 - self.a)
        if self.kind == "even_poly":
            return x1**2 - y**2 / (1.0 + self.a)
        r = np.hypot(x1, y)
        theta = np.arctan2(y, x1)
        if self.a == 0.0:
            return r**1.5 * np.cos(1.5 * theta)
        return r**self.kappa * self.angular(theta)

    def contact_indicator(self, thin_points: np.ndarray):
        """True where the reference touches the zero obstacle."""
        if self.kind == "signorini_profile":
            return np.asarray(thin_points, dtype=float)[..., 0] <= 0.0
        if self.kind == "even_poly":
            return np.abs(np.asarray(thin_points, dtype=float)[..., 0]) == 0.0
        return np.zeros(np.asarray(thin_points).shape[:-1], dtype=bool)


def exact_solution(kind: str, a: float) -> ReferenceSolution:
    if kind not in KINDS:
        raise InvalidConfigurationError(f"unsupported reference kind {kind!r}; known: {KINDS}")
    if not (0.0 <= a < 1.0):
        raise InvalidConfigurationError(f"a must lie in [0,1), got {a}")
    if kind == "signorini_profile":
        kappa = (3.0 - a) / 2.0
        angular = None if a == 0.0 else profile_ode(a)
        return ReferenceSolution(kind=kind, a=a, kappa=kappa, angular=angular)
    kappa = {"y_power": 1.0 - a, "even_poly": 2.0}[kind]
    return ReferenceSolution(kind=kind, a=a, kappa=kappa, angular=None)


def homogeneous_functionals(kappa: float, n: int, a: float, H1: float) -> dict:
    """Predicted radial columns of a kappa-homogeneous field with A=I, f=0.

    H = H1 r^{n+a+2k}, I = D = k H / r, psi = r^{n+a}, sigma = r,
    M = H1 r^{2k}, J = k M / r, Phi = Ntilde = k,
    W = (k - (3-a)/2) H1 r^{2k-(3-a)}.
    """
    k = float(kappa)

    def H(r):
        return H1 * np.asarray(r, dtype=float) ** (n + a + 2 * k)

    cols = {
        "H": H,
        "D": lambda r: k * H(r) / np.asarray(r, dtype=float),
        "I": lambda r: k * H(r) / np.asarray(r, dtype=float),
        "psi": lambda r: np.asarray(r, dtype=float) ** (n + a),
        "sigma": lambda r: np.asarray(r, dtype=float),
        "M": lambda r: H1 * np.asarray(r, dtype=float) ** (2 * k),
        "J": lambda r: k * H1 * np.asarray(r, dtype=float) ** (2 * k - 1),
        "Phi": lambda r: np.full_like(np.asarray(r, dtype=float), k),
        "Ntilde": lambda r: np.full_like(np.asarray(r, dtype=float), k),
        "W": lambda r: (k - (3.0 - a) / 2.0)
        * H1
        * np.asarray(r, dtype=float) ** (2 * k - (3.0 - a)),
    }
    return cols
