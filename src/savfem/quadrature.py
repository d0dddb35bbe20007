"""Quadrature rules on the reference triangle.

Rules are stored in barycentric form: ``triangle_bary_rule(degree)`` gives
the points as barycentric coordinates and weights that sum to 1, so a rule
on a physical triangle is the points mapped by the barycentric coordinates
and the weights scaled by the triangle's area.  The cut-polygon surface
quadrature applies them to each sub-triangle of a polygon.
"""

from __future__ import annotations

import numpy as np

__all__ = ["triangle_bary_rule"]

# Edge-midpoint rule, exact for quadratics.
_TRI_DEG2_BARY = np.array(
    [
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]
)
_TRI_DEG2_W = np.full(3, 1.0 / 3.0)

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

_TRI_RULES = {2: (_TRI_DEG2_BARY, _TRI_DEG2_W), 4: (_TRI_DEG4_BARY, _TRI_DEG4_W)}


def triangle_bary_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and unit weights of the triangle rule."""
    try:
        return _TRI_RULES[degree]
    except KeyError:
        raise ValueError(
            f"unsupported triangle quadrature degree {degree}; available: {sorted(_TRI_RULES)}"
        ) from None
