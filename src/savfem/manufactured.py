"""Manufactured stationary solution on the unit sphere for convergence runs.

The target concentration is an equilibrium-like tanh band around the equator,

    c*(x) = (1 + tanh(x3 / (2 sqrt(2) eps))) / 2,

held constant in time.  The matching source term for the degenerate-mobility
flow is

    f = -div_G( M(c*) grad_G mu* ),   mu* = f0'(c*) - eps^2 lap_G c*.

Since c* depends on x3 only, the surface operators on the unit sphere reduce
to one-dimensional expressions in u = x3:

    lap_G g           = (1 - u^2) g'' - 2 u g'
    div_G(A grad_G g) = A lap_G g + (1 - u^2) A' g'

With a = 1 / (2 sqrt(2) eps), t = tanh(a u) and s = 1 - t^2, so that
t' = a s and s' = -2 a t s, these give the closed forms

    c* = (1 + t) / 2,   M(c*) = s / 4,   mu* = s g,
    g  = eps u / (2 sqrt 2) - u^2 t / 8,

and f follows from the derivatives of s, g and M below, evaluated with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ManufacturedSolution", "manufactured_solution"]


@dataclass(frozen=True)
class ManufacturedSolution:
    """Vectorized exact fields; every method maps (n, 3) points to (n,)."""

    epsilon: float

    def _band(self, points: np.ndarray):
        """u = x3, a, t = tanh(a u) and s = 1 - t^2 at the points."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 3:
            raise ValueError("points must have shape (n, 3)")
        u = pts[..., 2]
        a = 1.0 / (2.0 * np.sqrt(2.0) * self.epsilon)
        t = np.tanh(a * u)
        return u, a, t, 1.0 - t * t

    def concentration(self, points: np.ndarray) -> np.ndarray:
        _, _, t, _ = self._band(points)
        return 0.5 * (1.0 + t)

    def chemical_potential(self, points: np.ndarray) -> np.ndarray:
        u, _, t, s = self._band(points)
        return s * (self.epsilon / (2.0 * np.sqrt(2.0)) * u - 0.125 * u * u * t)

    def forcing(self, points: np.ndarray) -> np.ndarray:
        u, a, t, s = self._band(points)
        b = self.epsilon / (2.0 * np.sqrt(2.0))
        u2 = u * u
        g = b * u - 0.125 * u2 * t
        dg = b - 0.25 * u * t - 0.125 * a * u2 * s
        ddg = -0.25 * t - 0.5 * a * u * s + 0.25 * a * a * u2 * t * s
        ds = -2.0 * a * t * s
        dds = -2.0 * a * a * s * (s - 2.0 * t * t)
        dmu = ds * g + s * dg
        lap_mu = (1.0 - u2) * (dds * g + 2.0 * ds * dg + s * ddg) - 2.0 * u * dmu
        # M = s / 4 and M' = s' / 4
        return -0.25 * (s * lap_mu + (1.0 - u2) * ds * dmu)


@lru_cache(maxsize=None)
def manufactured_solution(epsilon: float) -> ManufacturedSolution:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return ManufacturedSolution(epsilon=float(epsilon))
