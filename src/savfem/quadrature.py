"""Quadrature rule on the reference triangle.

The rule is stored in barycentric form: ``triangle_bary_rule()`` gives the
points as barycentric coordinates and weights that sum to 1, so the rule on
a physical triangle is the points mapped by the barycentric coordinates and
the weights scaled by the triangle's area.  The cut-polygon surface
quadrature applies it to each sub-triangle of a polygon.
"""

from __future__ import annotations

import numpy as np

__all__ = ["triangle_bary_rule"]

# Six-point Dunavant rule, exact for quartics.
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
_TRI_DEG4_BARY = np.array(
    [
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A2, _A2, 1.0 - 2.0 * _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [1.0 - 2.0 * _A2, _A2, _A2],
    ]
)
_TRI_DEG4_W = np.array([_W1, _W1, _W1, _W2, _W2, _W2])


def triangle_bary_rule() -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and unit weights of the degree-4 triangle rule."""
    return _TRI_DEG4_BARY, _TRI_DEG4_W
