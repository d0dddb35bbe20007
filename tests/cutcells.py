"""Single-tetrahedron classification and cut-polygon extraction: the oracle
for the batched extraction in ``savfem.mesh``.

The zero set of a P1 field restricted to one tetrahedron is either empty,
a triangle (3-1 sign split) or a planar quadrilateral (2-2 split).  Polygon
vertices are the zero crossings of the field along tetrahedron edges,

    x = x_a + phi_a / (phi_a - phi_b) * (x_b - x_a),

and carry their barycentric coordinates with respect to the parent
tetrahedron so that P1 basis functions can be evaluated on the polygon
without solving for the affine map again.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from savfem.mesh import ZERO_SHIFT_SCALE
from savfem.quadrature import triangle_bary_rule

__all__ = [
    "TetClass",
    "CutPolygon",
    "classify_tet",
    "extract_cut_polygon",
    "surface_quadrature",
    "DEGENERATE_AREA_SCALE",
]

log = logging.getLogger(__name__)

# Sub-triangles with area below DEGENERATE_AREA_SCALE * h^2 are kept with
# their (essentially zero) quadrature weights but logged.
DEGENERATE_AREA_SCALE = 1e-14


class TetClass(enum.Enum):
    NEGATIVE = -1
    CUT = 0
    POSITIVE = 1


@dataclass(frozen=True)
class CutPolygon:
    """Intersection of the P1 zero set with one tetrahedron.

    vertices : (m, 3) crossing points, m in {3, 4}
    bary     : (m, 4) barycentric coordinates w.r.t. the parent tet
    triangles: (t, 3) vertex indices of the fan triangulation
    normal   : unit normal grad(phi_h)/|grad(phi_h)| of the cut plane
    """

    vertices: np.ndarray
    bary: np.ndarray
    triangles: np.ndarray
    normal: np.ndarray


def classify_tet(values) -> TetClass:
    """Sign classification of one tetrahedron from its 4 nodal values.

    A value of exactly 0 counts as surface contact, so any tetrahedron
    whose values are not uniformly positive or uniformly negative is Cut.
    Invariant under vertex relabeling.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (4,):
        raise ValueError("classify_tet expects exactly 4 nodal values")
    if np.min(v) > 0.0:
        return TetClass.POSITIVE
    if np.max(v) < 0.0:
        return TetClass.NEGATIVE
    return TetClass.CUT


def _shift_zeros(values: np.ndarray, h: float) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[out == 0.0] = ZERO_SHIFT_SCALE * h
    return out


def _plane_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic in-plane frame: project the axis least aligned with the
    # normal, so the frame does not depend on vertex labeling.
    k = int(np.argmin(np.abs(normal)))
    t1 = np.zeros(3)
    t1[k] = 1.0
    t1 = t1 - np.dot(t1, normal) * normal
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(normal, t1)


def extract_cut_polygon(coords, values) -> CutPolygon | None:
    """Cut polygon of one tetrahedron, or None when the zero set misses it.

    Exact zero values are shifted by +1e-13*h (h = longest edge) before the
    sign split, matching the mesh pipeline; a tetrahedron that merely
    touches the surface in a point or edge therefore yields None.
    """
    x = np.asarray(coords, dtype=float)
    if x.shape != (4, 3):
        raise ValueError("extract_cut_polygon expects (4, 3) coordinates")
    h = max(np.linalg.norm(x[i] - x[j]) for i in range(4) for j in range(i + 1, 4))
    v = _shift_zeros(np.asarray(values, dtype=float), h)
    neg = np.flatnonzero(v < 0.0)
    pos = np.flatnonzero(v > 0.0)
    if len(neg) == 0 or len(pos) == 0:
        return None

    grad_phi = _p1_gradient(x, v)
    norm = np.linalg.norm(grad_phi)
    if norm == 0.0:
        return None
    normal = grad_phi / norm

    def crossing(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        t = v[a] / (v[a] - v[b])
        bary = np.zeros(4)
        bary[a] = 1.0 - t
        bary[b] = t
        return x[a] + t * (x[b] - x[a]), bary

    if len(neg) == 1 or len(pos) == 1:
        lone = neg[0] if len(neg) == 1 else pos[0]
        others = pos if len(neg) == 1 else neg
        pts, bary = zip(*(crossing(lone, o) for o in others))
        vertices = np.array(pts)
        barys = np.array(bary)
        triangles = np.array([[0, 1, 2]])
    else:
        pairs = [(a, b) for a in neg for b in pos]
        pts, bary = zip(*(crossing(a, b) for a, b in pairs))
        vertices = np.array(pts)
        barys = np.array(bary)
        centroid = vertices.mean(axis=0)
        t1, t2 = _plane_frame(normal)
        d = vertices - centroid
        order = np.argsort(np.arctan2(d @ t2, d @ t1))
        vertices = vertices[order]
        barys = barys[order]
        triangles = np.array([[0, 1, 2], [0, 2, 3]])

    for tri in triangles:
        tv = vertices[tri]
        area = 0.5 * np.linalg.norm(np.cross(tv[1] - tv[0], tv[2] - tv[0]))
        if area < DEGENERATE_AREA_SCALE * h**2:
            log.debug("degenerate cut sub-triangle, area %.3e (h=%.3e)", area, h)
    return CutPolygon(vertices=vertices, bary=barys, triangles=triangles, normal=normal)


def _p1_gradient(coords: np.ndarray, values: np.ndarray) -> np.ndarray:
    d = (coords[1:] - coords[0]).T  # columns are edge vectors
    rhs = values[1:] - values[0]
    return np.linalg.solve(d.T, rhs)


def surface_quadrature(polygon: CutPolygon):
    """Quadrature on a cut polygon: (points, weights, tet-barycentric points).

    Weights sum to the polygon area; the rule is the degree-4 triangle rule
    mapped onto each sub-triangle of the fan.
    """
    rule_bary, rule_w = triangle_bary_rule()
    pts, wts, bary = [], [], []
    for tri in polygon.triangles:
        tv = polygon.vertices[tri]
        tb = polygon.bary[tri]
        area = 0.5 * np.linalg.norm(np.cross(tv[1] - tv[0], tv[2] - tv[0]))
        pts.append(rule_bary @ tv)
        bary.append(rule_bary @ tb)
        wts.append(rule_w * area)
    return np.vstack(pts), np.concatenate(wts), np.vstack(bary)
