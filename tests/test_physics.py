"""Double-well density, mobility, and auxiliary-variable guards.

The derivative is checked against an independent finite-difference oracle;
the special values are hand computation: f0(1/2) = (1/4)(1/4)(1/4) = 1/64,
f0(-0.1) = 0.25 * 0.01 * 1.21 = 0.003025, f0'(1/4) = 0.5 * 0.25 * 0.75 * 0.5.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savfem.physics import (
    E1_FLOOR,
    EnergyFloorError,
    PhysicsParams,
    f0,
    f0_prime,
    guarded_shifted_energy,
    mobility,
    r_init,
)


def test_f0_special_values():
    assert f0(0.0) == 0.0
    assert f0(1.0) == 0.0
    assert f0(0.5) == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert f0(-0.1) == pytest.approx(0.003025, rel=1e-13)
    assert f0(1.1) == pytest.approx(0.003025, rel=1e-13)


def test_f0_prime_special_values():
    assert f0_prime(0.0) == 0.0
    assert f0_prime(0.5) == 0.0
    assert f0_prime(1.0) == 0.0
    assert f0_prime(0.25) == pytest.approx(0.046875, rel=1e-14)
    assert f0_prime(0.75) == pytest.approx(-0.046875, rel=1e-14)


@given(st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_f0_prime_matches_fd_oracle(c):
    step = 1e-6
    fd = (f0(c + step) - f0(c - step)) / (2 * step)
    # FD roundoff grows like |f0| * eps / step, so the floor is scale-aware
    assert f0_prime(c) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_f0_symmetry_about_half():
    c = np.linspace(-1, 2, 101)
    assert np.allclose(f0(c), f0(1.0 - c), atol=1e-15)
    assert np.allclose(f0_prime(c), -f0_prime(1.0 - c), atol=1e-15)


def test_degenerate_mobility_clamps():
    c = np.array([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
    m = mobility(c)
    assert np.all(m >= 0.0)
    assert m[3] == pytest.approx(0.25)
    assert m[0] == 0.0 and m[5] == 0.0  # clamped outside [0, 1]
    assert m[2] == pytest.approx(0.1875)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicsParams(epsilon=0.0)
    with pytest.raises(ValueError):
        PhysicsParams(epsilon=1.0, rho=-1.0)
    with pytest.raises(ValueError):
        PhysicsParams(epsilon=1.0, c_shift=-0.1)


def test_r_init_and_guard():
    assert r_init(0.25, 0.0) == pytest.approx(0.5)
    assert r_init(0.21, 1.0) == pytest.approx(np.sqrt(1.21), rel=1e-15)
    assert guarded_shifted_energy(0.5, 1.0) == pytest.approx(1.5)
    with pytest.raises(EnergyFloorError):
        guarded_shifted_energy(0.0, 0.0)
    with pytest.raises(EnergyFloorError):
        guarded_shifted_energy(E1_FLOOR / 2, 0.0)
    with pytest.raises(EnergyFloorError):
        guarded_shifted_energy(np.nan, 0.0)
    # At the floor itself the guard passes.
    assert guarded_shifted_energy(E1_FLOOR, 0.0) == E1_FLOOR
