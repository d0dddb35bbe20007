"""Analytic level-set descriptions of implicit surfaces.

A surface is the zero set of a scalar field phi.  The discretization only
samples phi at points of the background mesh, so a LevelSetField is a
named vectorized evaluator.  Built-in fields: the unit sphere and an
idealized cell shape (a flattened ellipsoid whose vertical semi-axis is
modulated along x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LevelSetField",
    "sphere",
    "idealized_cell",
    "interpolate_p1",
]

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LevelSetField:
    """Scalar field whose zero level set is the surface.

    ``evaluate`` maps an (n, 3) array of points to (n,) values.
    """

    name: str
    evaluate: Evaluator


def sphere(radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> LevelSetField:
    """Signed-distance field of a sphere."""
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    c = np.asarray(center, dtype=float)

    def _eval(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - c, axis=1) - radius

    return LevelSetField(name="sphere", evaluate=_eval)


def idealized_cell() -> LevelSetField:
    """Flattened ellipsoid with an x-modulated vertical axis.

    phi(x) = x1^2/4 + x2^2 + 4*x3^2/(1 + sin(pi*x1)/2)^2 - 1
    """

    def _eval(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
        g = 1.0 + 0.5 * np.sin(np.pi * x1)
        return 0.25 * x1**2 + x2**2 + 4.0 * x3**2 / g**2 - 1.0

    return LevelSetField(name="idealized_cell", evaluate=_eval)


def interpolate_p1(levelset: LevelSetField, mesh) -> np.ndarray:
    """Nodal values of phi on the background mesh (the P1 interpolant).

    Returns a fresh array, which the caller may modify.  Raises if the
    evaluator returns a wrong shape or any value is non-finite.
    """
    values = np.array(levelset.evaluate(mesh.nodes), dtype=float)
    if values.shape != (len(mesh.nodes),):
        raise ValueError("level-set evaluator returned a wrong shape")
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError(f"level-set values are not finite at {bad} mesh nodes")
    return values
