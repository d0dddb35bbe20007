"""Exactness of the triangle quadrature rule against monomial oracles.

The oracle is the closed-form triangle integral of a barycentric monomial,

    int_T  b1^p1 b2^p2 b3^p3 dT = |T| * 2! * p1! p2! p3! / (2 + p1 + p2 + p3)!

so the rule is checked against an independent formula rather than
against another quadrature.  The rule is mapped onto a physical triangle
the way the cut-polygon quadrature maps it: points through the barycentric
coordinates, weights scaled by the area.
"""

import itertools
import math

import numpy as np
import pytest

from savfem.quadrature import triangle_bary_rule

TRI = np.array([[0.2, -0.1, 0.4], [1.3, 0.2, -0.3], [0.4, 1.1, 0.9]])


def triangle_area(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    return 0.5 * float(np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0])))


def mapped_rule(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physical points and weights of the rule on a (possibly 3D) triangle."""
    bary, w = triangle_bary_rule()
    return bary @ vertices, w * triangle_area(vertices)


def bary_monomial_integral(measure: float, powers, dim: int) -> float:
    num = math.factorial(dim) * np.prod([math.factorial(p) for p in powers])
    return measure * num / math.factorial(dim + sum(powers))


def eval_bary_monomial(bary: np.ndarray, powers) -> np.ndarray:
    out = np.ones(len(bary))
    for k, p in enumerate(powers):
        out = out * bary[:, k] ** p
    return out


@pytest.mark.parametrize("degree", [4])
def test_triangle_rule_exact_for_declared_degree(degree):
    bary, w = triangle_bary_rule()
    area = triangle_area(TRI)
    for powers in itertools.product(range(degree + 1), repeat=3):
        if sum(powers) > degree:
            continue
        exact = bary_monomial_integral(area, powers, dim=2)
        approx = area * np.dot(w, eval_bary_monomial(bary, powers))
        assert approx == pytest.approx(exact, rel=1e-13), powers


def test_weights_positive_and_sum_to_measure():
    _, weights = mapped_rule(TRI)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(triangle_area(TRI), rel=1e-14)


def test_rule_points_inside_simplex():
    points, _ = mapped_rule(TRI)
    bary, _ = triangle_bary_rule()
    assert np.all(bary > 0) and np.allclose(bary.sum(axis=1), 1.0)
    # the barycentric coordinates of the mapped points, recovered by least
    # squares from the triangle's vertices, are the rule's own
    recovered, *_ = np.linalg.lstsq(
        np.vstack([TRI.T, np.ones(3)]), np.vstack([points.T, np.ones(len(points))]), rcond=None
    )
    np.testing.assert_allclose(recovered.T, bary, atol=1e-13)
