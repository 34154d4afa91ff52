"""Reference solutions used as ground truth in solver and functional tests.

Three families: the pure extension power y^{1-a}, the even polynomial
x_1^2 - y^2/(1+a) (both annihilated by div(y^a grad .) away from y=0),
and the (3-a)/2-homogeneous contact profile vanishing on one half of the
thin set with zero weighted flux on the other half. With s = (1-a)/2 the
profile is (r + x_1)^s (x_1 - s r) / (2^s (1 - s)), the (1+s)-homogeneous
solution of the extension problem (Caffarelli and Silvestre, Comm. PDE
32, 2007; Caffarelli, Salsa and Silvestre, Invent. Math. 171, 2008); at
a=0 it is r^{3/2} cos(3 theta/2). Every family is exact for a in (-1,1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError

KINDS = ("y_power", "even_poly", "signorini_profile")


@dataclass(frozen=True)
class ReferenceSolution:
    """Closed-form reference field."""

    kind: str
    a: float
    kappa: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at thick points (..., n+1); depends on (x_1, |y|) only."""
        pts = np.asarray(points, dtype=float)
        x1 = pts[..., 0]
        y = np.abs(pts[..., -1])
        if self.kind == "y_power":
            return y ** (1.0 - self.a)
        if self.kind == "even_poly":
            return x1**2 - y**2 / (1.0 + self.a)
        s = (1.0 - self.a) / 2.0
        r = np.hypot(x1, y)
        # r + x_1, as y^2 / (r - x_1) on the contact side to avoid cancellation
        contact = x1 < 0.0
        rp = np.where(contact, y**2 / np.where(contact, r - x1, 1.0), r + x1)
        return rp**s * (x1 - s * r) / (2.0**s * (1.0 - s))


def exact_solution(kind: str, a: float) -> ReferenceSolution:
    if kind not in KINDS:
        raise InvalidConfigurationError(f"unsupported reference kind {kind!r}; known: {KINDS}")
    if not (-1.0 < a < 1.0):
        raise InvalidConfigurationError(f"a must lie in (-1,1), got {a}")
    kappa = {"y_power": 1.0 - a, "even_poly": 2.0, "signorini_profile": (3.0 - a) / 2.0}[kind]
    return ReferenceSolution(kind=kind, a=a, kappa=kappa)

