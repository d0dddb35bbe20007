"""Manufactured tanh-band solution against finite-difference oracles.

All fields depend only on u = x3, so the surface operators reduce to ODE
expressions in u.  The oracles below difference those 1d reductions directly:

    lap_G g           = ((1 - u^2) g')'          (conservative form)
    div_G(A grad_G g) = ((1 - u^2) A g')'

evaluated with central differences on a fine grid, which is independent of
the hand-derived closed forms of the implementation.  A second oracle
differentiates the same 1d reductions symbolically with sympy, a test-only
dependency.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import savfem
from savfem.manufactured import manufactured_solution


def c_closed_form(u, eps):
    return 0.5 * (1.0 + np.tanh(u / (2.0 * np.sqrt(2.0) * eps)))


def conservative_fd(values_fn, u, h):
    """((1 - u^2) g')' via the standard three-point conservative stencil."""
    up, um = u + h, u - h
    flux_p = (1.0 - (u + 0.5 * h) ** 2) * (values_fn(up) - values_fn(u)) / h
    flux_m = (1.0 - (u - 0.5 * h) ** 2) * (values_fn(u) - values_fn(um)) / h
    return (flux_p - flux_m) / h


@pytest.fixture(scope="module")
def ms():
    return manufactured_solution(1.0)


class TestConcentration:
    def test_pole_value(self, ms):
        # c(eps=1, x3=1) = (1 + tanh(1 / (2 sqrt 2))) / 2
        val = ms.concentration(np.array([[0.0, 0.0, 1.0]]))[0]
        assert val == pytest.approx((1.0 + np.tanh(1.0 / (2.0 * np.sqrt(2.0)))) / 2.0, rel=1e-14)

    def test_equator_value(self, ms):
        val = ms.concentration(np.array([[1.0, 0.0, 0.0]]))[0]
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_antisymmetry(self, ms, rng):
        pts = rng.standard_normal((50, 3))
        mirrored = pts * np.array([1.0, 1.0, -1.0])
        np.testing.assert_allclose(
            ms.concentration(pts) + ms.concentration(mirrored), 1.0, atol=1e-14
        )

    def test_depends_on_x3_only(self, ms, rng):
        u = rng.uniform(-1.0, 1.0, 20)
        a = np.column_stack([rng.standard_normal(20), rng.standard_normal(20), u])
        b = np.column_stack([np.zeros(20), np.zeros(20), u])
        np.testing.assert_allclose(ms.concentration(a), ms.concentration(b), atol=1e-15)

    def test_closed_form_everywhere(self, rng):
        for eps in (0.05, 0.3, 1.0):
            ms = manufactured_solution(eps)
            pts = rng.standard_normal((30, 3))
            np.testing.assert_allclose(
                ms.concentration(pts), c_closed_form(pts[:, 2], eps), rtol=1e-14
            )


class TestChemicalPotential:
    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_fd_oracle(self, eps):
        # mu = f0'(c) - eps^2 ((1 - u^2) c')' with c from the closed form
        ms = manufactured_solution(eps)
        u = np.linspace(-0.9, 0.9, 41)
        # second-difference roundoff is ~eps_mach/h^2, so h near eps_mach^(1/4)
        h = 1e-4

        def c(uu):
            return c_closed_form(uu, eps)

        f0p = 0.5 * c(u) * (1.0 - c(u)) * (1.0 - 2.0 * c(u))
        lap_c = conservative_fd(c, u, h)
        expected = f0p - eps**2 * lap_c
        pts = np.column_stack([np.zeros_like(u), np.zeros_like(u), u])
        np.testing.assert_allclose(ms.chemical_potential(pts), expected, atol=2e-7)


class TestForcing:
    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_fd_oracle_from_symbolic_mu(self, eps):
        # f = -((1 - u^2) M(c) mu')' with mu taken from the implementation,
        # so only the outer divergence is re-derived independently
        ms = manufactured_solution(eps)
        u = np.linspace(-0.9, 0.9, 41)
        h = 1e-5

        def mu(uu):
            pts = np.column_stack([np.zeros_like(uu), np.zeros_like(uu), uu])
            return ms.chemical_potential(pts)

        def mob(uu):
            c = c_closed_form(uu, eps)
            return c * (1.0 - c)

        flux_p = (
            (1.0 - (u + 0.5 * h) ** 2) * mob(u + 0.5 * h) * (mu(u + h) - mu(u)) / h
        )
        flux_m = (
            (1.0 - (u - 0.5 * h) ** 2) * mob(u - 0.5 * h) * (mu(u) - mu(u - h)) / h
        )
        expected = -(flux_p - flux_m) / h
        pts = np.column_stack([np.zeros_like(u), np.zeros_like(u), u])
        scale = np.abs(expected).max()
        np.testing.assert_allclose(ms.forcing(pts), expected, atol=5e-7 * max(scale, 1.0))

    @pytest.mark.parametrize("eps", [0.05, 1.0])
    def test_forcing_conserves_mass(self, eps):
        # int_Gamma f ds = 2 pi int_-1^1 f(u) du = 0: the source moves mass
        # around but adds none.  Gauss-Legendre integrates the band well.
        ms = manufactured_solution(eps)
        nodes, weights = np.polynomial.legendre.leggauss(400)
        pts = np.column_stack([np.zeros_like(nodes), np.zeros_like(nodes), nodes])
        total = 2.0 * np.pi * np.dot(weights, ms.forcing(pts))
        assert abs(total) < 1e-10

    def test_forcing_antisymmetric(self, ms, rng):
        pts = rng.standard_normal((40, 3))
        mirrored = pts * np.array([1.0, 1.0, -1.0])
        np.testing.assert_allclose(ms.forcing(pts) + ms.forcing(mirrored), 0.0, atol=1e-12)


class TestInterface:
    def test_cache_returns_same_object(self):
        assert manufactured_solution(0.25) is manufactured_solution(0.25)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="positive"):
            manufactured_solution(0.0)

    def test_shape_mapping(self, ms):
        pts = np.zeros((7, 3))
        assert ms.concentration(pts).shape == (7,)
        with pytest.raises(ValueError, match="shape"):
            ms.concentration(np.zeros((7, 2)))

    def test_scalar_broadcast_row(self, ms):
        one = ms.forcing(np.array([[0.3, -0.2, 0.4]]))
        assert one.shape == (1,)
        many = ms.forcing(np.tile([0.3, -0.2, 0.4], (5, 1)))
        np.testing.assert_allclose(many, one[0], atol=1e-15)


def sympy_fields(epsilon):
    """c*, mu* and f as numpy callables of u = x3, by symbolic
    differentiation of the 1d reductions."""
    import sympy as sp

    u = sp.symbols("u", real=True)
    eps = sp.nsimplify(epsilon, rational=True)

    c = (1 + sp.tanh(u / (2 * sp.sqrt(2) * eps))) / 2

    def lap(g):
        return (1 - u**2) * sp.diff(g, u, 2) - 2 * u * sp.diff(g, u)

    mu = c * (1 - c) * (1 - 2 * c) / 2 - eps**2 * lap(c)
    mob = c * (1 - c)
    f = -(mob * lap(mu) + (1 - u**2) * sp.diff(mob, u) * sp.diff(mu, u))
    return [sp.lambdify(u, expr, modules="numpy") for expr in (c, mu, f)]


@pytest.mark.parametrize("eps", [0.05, 0.25, 1.0])
def test_closed_forms_match_sympy(eps):
    ms = manufactured_solution(eps)
    u = np.linspace(-1.0, 1.0, 2001)
    pts = np.column_stack([np.zeros_like(u), np.zeros_like(u), u])
    fields = (ms.concentration, ms.chemical_potential, ms.forcing)
    for field, oracle in zip(fields, sympy_fields(eps)):
        ref = oracle(u)
        np.testing.assert_allclose(field(pts), ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


def test_import_loads_no_sympy():
    # a fresh interpreter, so that the sympy this module's oracle imports is not seen
    code = "import sys, savfem; print('sympy' in sys.modules)"
    src = str(Path(savfem.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=src, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
