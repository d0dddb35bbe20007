"""Per-point surface quadrature tables, rebuilt from the per-triangle data:
the oracle for the polygon-vertex operators of ``savfem.assembly``.

The mesh stores the surface rule by triangle: point 6 t + k is rule point k
of triangle t, at the rule's barycentric combination of the triangle's
polygon vertices ``tri_index[t]``.  These helpers form, point by point, the
parent barycentric coordinates, parent elements and physical coordinates of
the surface quadrature points, the tables the mesh once stored.
"""

from __future__ import annotations

import numpy as np

from savfem.quadrature import triangle_bary_rule

__all__ = ["point_bary", "point_elem", "point_coords"]


def point_bary(active) -> np.ndarray:
    """(Q, 4) parent barycentric coordinates of the surface points."""
    rule_bary, _ = triangle_bary_rule()
    return np.matmul(rule_bary, active.poly_bary[active.tri_index]).reshape(-1, 4)


def point_elem(active) -> np.ndarray:
    """(Q,) parent element of each surface point; the three vertices of a
    triangle share one element."""
    return np.repeat(active.poly_elem[active.tri_index[:, 0]], len(triangle_bary_rule()[1]))


def point_coords(active) -> np.ndarray:
    """(Q, 3) physical surface points."""
    rule_bary, _ = triangle_bary_rule()
    return np.matmul(rule_bary, active.poly_points[active.tri_index]).reshape(-1, 3)
