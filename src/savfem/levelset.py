"""Analytic level-set descriptions of implicit surfaces.

A surface is the zero set of a scalar field phi.  The discretization only
ever sees the P1 nodal interpolant of phi on the background mesh, so a
LevelSetField is a vectorized evaluator plus (optionally) its gradient.
Built-in fields: the unit sphere and an idealized cell shape (a flattened
ellipsoid whose vertical semi-axis is modulated along x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "LevelSetField",
    "sphere",
    "idealized_cell",
    "from_callable",
    "interpolate_p1",
]

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LevelSetField:
    """Scalar field whose zero level set is the surface.

    ``evaluate`` maps an (n, 3) array of points to (n,) values;
    ``gradient`` maps it to (n, 3).  When no analytic gradient is supplied
    a central-difference fallback is used.
    """

    name: str
    evaluate: Evaluator
    _gradient: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None)
    fd_step: float = 1e-6

    def gradient(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._gradient is not None:
            return self._gradient(pts)
        g = np.empty_like(pts)
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = self.fd_step
            g[:, k] = (self.evaluate(pts + dp) - self.evaluate(pts - dp)) / (2 * self.fd_step)
        return g


def sphere(radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> LevelSetField:
    """Signed-distance field of a sphere."""
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    c = np.asarray(center, dtype=float)

    def _eval(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - c, axis=1) - radius

    def _grad(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = pts - c
        n = np.linalg.norm(d, axis=1)
        n = np.where(n == 0.0, 1.0, n)
        return d / n[:, None]

    return LevelSetField(name="sphere", evaluate=_eval, _gradient=_grad)


def idealized_cell() -> LevelSetField:
    """Flattened ellipsoid with an x-modulated vertical axis.

    phi(x) = x1^2/4 + x2^2 + 4*x3^2/(1 + sin(pi*x1)/2)^2 - 1
    """

    def _g(x1):
        return 1.0 + 0.5 * np.sin(np.pi * x1)

    def _eval(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
        return 0.25 * x1**2 + x2**2 + 4.0 * x3**2 / _g(x1) ** 2 - 1.0

    def _grad(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
        g = _g(x1)
        gp = 0.5 * np.pi * np.cos(np.pi * x1)
        out = np.empty_like(pts)
        out[:, 0] = 0.5 * x1 - 8.0 * x3**2 * gp / g**3
        out[:, 1] = 2.0 * x2
        out[:, 2] = 8.0 * x3 / g**2
        return out

    return LevelSetField(name="idealized_cell", evaluate=_eval, _gradient=_grad)


def from_callable(func: Evaluator, grad: Optional[Callable] = None, name: str = "user") -> LevelSetField:
    """Wrap a user-supplied phi (and optional gradient) as a LevelSetField."""
    return LevelSetField(name=name, evaluate=func, _gradient=grad)


def interpolate_p1(levelset: LevelSetField, mesh) -> np.ndarray:
    """Nodal values of phi on the background mesh (the P1 interpolant).

    Raises if any value is non-finite; the surface seen by the rest of the
    pipeline is the zero set of this interpolant.
    """
    values = np.asarray(levelset.evaluate(mesh.nodes), dtype=float)
    if values.shape != (len(mesh.nodes),):
        raise ValueError("level-set evaluator returned a wrong shape")
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError(f"level-set values are not finite at {bad} mesh nodes")
    return values
