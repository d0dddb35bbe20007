"""Free energy, mobility, and auxiliary-variable bookkeeping.

Double-well density f0(c) = c^2 (1-c)^2 / 4 and degenerate mobility
M(c) = c(1-c), clamped at zero so interpolation over/undershoots cannot
produce negative diffusion.  The scalar auxiliary variable is
r = sqrt(E1 + C) with E1 = int_Gamma f0(c) ds and a configurable shift C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicsParams",
    "EnergyFloorError",
    "E1_FLOOR",
    "f0",
    "f0_prime",
    "r_init",
    "guarded_shifted_energy",
]

E1_FLOOR = 1e-12


class EnergyFloorError(RuntimeError):
    """Raised when E1 + C falls below the floor and sqrt denominators degenerate."""


@dataclass(frozen=True)
class PhysicsParams:
    """Model constants for one run.

    epsilon : interface width
    rho     : time-relaxation density in rho * dc/dt
    c_shift : constant C added under the square root of the auxiliary variable
    """

    epsilon: float
    rho: float = 1.0
    c_shift: float = 0.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.c_shift < 0:
            raise ValueError("c_shift must be nonnegative")

    def mobility(self, c):
        """Pointwise degenerate mobility max(c(1-c), 0); vectorized over arrays."""
        c = np.asarray(c, dtype=float)
        return np.maximum(c * (1.0 - c), 0.0)


def f0(c):
    """Double-well density 0.25 c^2 (1-c)^2, minima at c = 0 and c = 1."""
    c = np.asarray(c, dtype=float)
    return 0.25 * c**2 * (1.0 - c) ** 2


def f0_prime(c):
    """Derivative 0.5 c (1-c)(1-2c) of the double-well density."""
    c = np.asarray(c, dtype=float)
    return 0.5 * c * (1.0 - c) * (1.0 - 2.0 * c)


def guarded_shifted_energy(e1: float, c_shift: float) -> float:
    """E1 + C with the floor guard; every sqrt denominator goes through here."""
    s = e1 + c_shift
    if not np.isfinite(s) or s < E1_FLOOR:
        raise EnergyFloorError(
            f"E1 + C = {s:.3e} fell below the floor {E1_FLOOR:.0e}; "
            "the auxiliary-variable denominators are no longer well defined"
        )
    return float(s)


def r_init(e1: float, c_shift: float = 0.0) -> float:
    """Initial auxiliary variable r(0) = sqrt(E1(c0) + C)."""
    return float(np.sqrt(guarded_shifted_energy(e1, c_shift)))
