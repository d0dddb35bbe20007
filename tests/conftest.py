"""Shared fixtures: small sphere and cell meshes reused across test modules."""

import numpy as np
import pytest

from savfem import linsolve
from savfem.assembly import assemble_forms
from savfem.levelset import idealized_cell, sphere
from savfem.mesh import build_active_mesh, build_mesh
from savfem.config import CELL_BOX, SPHERE_BOX
from savfem.physics import PhysicsParams


@pytest.fixture(scope="session")
def sphere_l2():
    mesh = build_mesh(sphere(1.0), SPHERE_BOX, 2)
    return build_active_mesh(mesh, levelset=sphere(1.0))


@pytest.fixture(scope="session")
def sphere_l2_forms(sphere_l2):
    return assemble_forms(sphere_l2)


@pytest.fixture(scope="session")
def sphere_l3():
    mesh = build_mesh(sphere(1.0), SPHERE_BOX, 3)
    return build_active_mesh(mesh, levelset=sphere(1.0))


@pytest.fixture(scope="session")
def sphere_l3_forms(sphere_l3):
    return assemble_forms(sphere_l3)


@pytest.fixture(scope="session")
def sphere_l2_flat():
    """Interpolant geometry (divisions = 1) of the level-2 sphere."""
    mesh = build_mesh(sphere(1.0), SPHERE_BOX, 2)
    return build_active_mesh(mesh, levelset=sphere(1.0), geometry_divisions=1)


@pytest.fixture(scope="session")
def cell_l2():
    """Idealized-cell active mesh: a curved surface with varying curvature."""
    mesh = build_mesh(idealized_cell(), CELL_BOX, 2)
    return build_active_mesh(mesh, levelset=idealized_cell())


@pytest.fixture()
def physics_eps005():
    return PhysicsParams(epsilon=0.05)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def pattern_builds(monkeypatch):
    """The dof counts of the BlockPatterns built while the test runs."""
    builds = []
    build = linsolve.BlockPattern.build

    def counted(coords, block):
        builds.append(len(coords))
        return build(coords, block)

    monkeypatch.setattr(linsolve.BlockPattern, "build", staticmethod(counted))
    return builds
