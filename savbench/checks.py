"""Output checks of the benchmark workloads.

Every check returns a list of failure messages, empty when it holds.  The
checks test properties the method must have (energy decay, mass
conservation, the uniform BDF2 energy identity, controller limits, surface
geometry) or compare against figures computed apart from this program; none
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# The energy CSV columns documented in the package README.
ENERGY_CSV_HEADER = "t,dt,modified_energy,E1,r,r_consistency,mass,balance_residual"

# L2(Gamma_h) errors of c at t = 1 for epsilon = 1 and BDF2, and the observed
# rate between levels 3 and 4, of an independent implementation of the same
# discretization.  They are the reference values of tests/test_acceptance.py
# (REF_EPS1["bdf2"] and REF_EPS1_RATES[(3, 4)]), with the same allowances:
# a factor 2 on each error and +-0.4 on the rate.
REFERENCE_ERRORS = {3: 0.3474e-2, 4: 0.0767e-2}
REFERENCE_RATE = 2.18
ERROR_FACTOR = 2.0
RATE_TOL = 0.4

# Slacks for round-off: the criteria 3 and 4 tolerances of the acceptance
# tests, and the solver's 1e-10 relative residual gate for the identity.
ENERGY_RISE_TOL = 1e-9
MASS_DRIFT_TOL = 1e-8
BALANCE_TOL = 1e-9


def parse_energy_csv(text: str) -> tuple[str, np.ndarray]:
    """Header line and the (rows, 8) array of an energy CSV."""
    lines = text.splitlines()
    if not lines:
        return "", np.zeros((0, 8))
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return lines[0], np.array(rows, dtype=float).reshape(-1, 8)


def check_header(header: str) -> list[str]:
    if header != ENERGY_CSV_HEADER:
        return [f"energy CSV header {header!r} differs from {ENERGY_CSV_HEADER!r}"]
    return []


def check_energy_decay(energy: np.ndarray) -> list[str]:
    """The modified energy does not increase from one row to the next."""
    rises = np.diff(energy) / np.abs(energy[:-1])
    bad = np.flatnonzero(rises > ENERGY_RISE_TOL)
    return [f"modified energy rises by {rises[k]:.3e} (relative) at row {k + 1}" for k in bad]


def check_mass(mass: np.ndarray, initial_mass: float) -> list[str]:
    """Every row's mass equals the initial mass to round-off."""
    drift = np.abs(mass - initial_mass) / abs(initial_mass)
    bad = np.flatnonzero(drift > MASS_DRIFT_TOL)
    return [f"relative mass drift {drift[k]:.3e} at row {k}" for k in bad]


def check_balance(residual: np.ndarray, energy: np.ndarray) -> list[str]:
    """The energy-balance residual sits at solver-tolerance level, relative
    to the modified energy."""
    rel = residual / np.abs(energy)
    bad = np.flatnonzero(rel > BALANCE_TOL)
    return [f"balance residual {rel[k]:.3e} (relative) at row {k}" for k in bad]


def check_uniform_steps(t: np.ndarray, dt: np.ndarray, step: float, n_steps: int) -> list[str]:
    """One row per step of a fixed-step run: row k is at time (k + 1) step."""
    if len(t) != n_steps:
        return [f"{len(t)} rows for {n_steps} steps"]
    failures = []
    expected = step * np.arange(1, n_steps + 1)
    if np.max(np.abs(t - expected)) > 1e-9 * step * n_steps:
        failures.append("row times are not consecutive multiples of dt")
    if np.max(np.abs(dt - step)) > 1e-12 * step:
        failures.append("dt column differs from the fixed step")
    return failures


def check_adaptive_steps(
    t: np.ndarray, dt: np.ndarray, t_end: float, dt_max: float, ratio_max: float
) -> list[str]:
    """The run reaches t_end, and the accepted steps respect dt_max and the
    growth-ratio limit."""
    failures = []
    if len(t) == 0 or t[-1] < t_end:
        failures.append(f"run stops at t={t[-1] if len(t) else 0.0:.6g} before t_end={t_end}")
    elif len(t) > 1 and t[-2] >= t_end:
        failures.append("rows continue after t_end was reached")
    if np.any(np.abs(np.diff(t) - dt[1:]) > 1e-9 * np.maximum(dt[1:], 1.0)):
        failures.append("row times do not advance by the dt column")
    for k in np.flatnonzero(dt > dt_max * (1 + 1e-12)):
        failures.append(f"dt {dt[k]:.6g} above dt_max {dt_max} at row {k}")
    ratios = dt[1:] / dt[:-1]
    for k in np.flatnonzero(ratios > ratio_max * (1 + 1e-12)):
        failures.append(f"step growth ratio {ratios[k]:.6g} above {ratio_max} at row {k + 1}")
    return failures


def parse_vtk_surface(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points (P, 3), triangles (T, 3) and point scalars (P,) of a legacy
    ASCII POLYDATA file of triangles, as write_vtk_surface lays it out."""
    text = Path(path).read_text()

    def block(keyword, next_keyword):
        head_start = text.index(keyword)
        body_start = text.index("\n", head_start) + 1
        body_end = text.index(next_keyword, body_start) if next_keyword else len(text)
        head = text[head_start:body_start].split()
        return head, np.fromstring(text[body_start:body_end], dtype=float, sep=" ")

    head, points = block("POINTS", "POLYGONS")
    n_points = int(head[1])
    head, cells = block("POLYGONS", "POINT_DATA")
    n_cells = int(head[1])
    _, values = block("LOOKUP_TABLE", None)
    if points.size != 3 * n_points or cells.size != 4 * n_cells:
        raise ValueError(f"{path}: section sizes do not match their headers")
    cells = cells.reshape(n_cells, 4).astype(np.int64)
    if np.any(cells[:, 0] != 3):
        raise ValueError(f"{path}: polygons are not all triangles")
    return points.reshape(n_points, 3), cells[:, 1:], values


def check_sphere_snapshot(
    points: np.ndarray, triangles: np.ndarray, values: np.ndarray, h: float
) -> list[str]:
    """The reconstructed unit sphere: vertices within h^2 of the sphere,
    total triangle area within h^2 of 4 pi, one finite value per vertex."""
    failures = []
    off = float(np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)))
    if off > h * h:
        failures.append(f"surface vertex {off:.3e} off the unit sphere (h^2 = {h * h:.3e})")
    a, b, c = (points[triangles[:, i]] for i in range(3))
    area = 0.5 * float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())
    if abs(area - 4.0 * math.pi) > h * h:
        failures.append(f"surface area {area:.6f} differs from 4 pi by more than h^2 = {h * h:.3e}")
    if values.shape != (len(points),) or not np.all(np.isfinite(values)):
        failures.append("concentration is not one finite value per surface vertex")
    return failures


def check_convergence(errors: dict[int, float]) -> list[str]:
    """Errors within a factor 2 of the reference and the level 3 -> 4 rate
    within REFERENCE_RATE +- RATE_TOL."""
    failures = []
    for level, ref in REFERENCE_ERRORS.items():
        if level not in errors:
            failures.append(f"no error for level {level}")
            continue
        ratio = errors[level] / ref
        if not (1.0 / ERROR_FACTOR <= ratio <= ERROR_FACTOR):
            failures.append(
                f"level {level}: error {errors[level]:.4e} is {ratio:.2f}x the reference"
            )
    if not failures:
        rate = math.log2(errors[3] / errors[4])
        if abs(rate - REFERENCE_RATE) > RATE_TOL:
            failures.append(f"rate l3->l4 {rate:.3f} outside {REFERENCE_RATE} +- {RATE_TOL}")
    return failures
