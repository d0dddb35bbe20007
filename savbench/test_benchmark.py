"""Tests of the benchmark's own output checks and span arithmetic.

    python3 -m pytest savbench
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def energy_csv(energy, mass=None, residual=None, dt=0.005, header=checks.ENERGY_CSV_HEADER):
    n = len(energy)
    mass = [6.18] * n if mass is None else mass
    residual = [1e-16] * n if residual is None else residual
    lines = [header]
    for k in range(n):
        lines.append(",".join(
            f"{v:.16e}" for v in ((k + 1) * dt, dt, energy[k], 0.18, 1.1, 0.0, mass[k], residual[k])
        ))
    return "\n".join(lines) + "\n"


def run_energy_checks(text, initial_mass=6.18, n_steps=4):
    header, rows = checks.parse_energy_csv(text)
    t, dt, energy, _, _, _, mass, balance = rows.T
    return (
        checks.check_header(header)
        + checks.check_energy_decay(energy)
        + checks.check_mass(mass, initial_mass)
        + checks.check_uniform_steps(t, dt, 0.005, n_steps)
        + checks.check_balance(balance, energy)
    )


def test_decaying_energy_csv_passes():
    assert run_energy_checks(energy_csv([9.25, 2.56, 2.49, 2.48])) == []


def test_one_energy_increase_is_rejected():
    failures = run_energy_checks(energy_csv([9.25, 2.56, 2.57, 2.48]))
    assert len(failures) == 1 and "rises" in failures[0] and "row 2" in failures[0]


def test_mass_drift_is_rejected():
    failures = run_energy_checks(energy_csv([4.0, 3.0, 2.0, 1.0], mass=[6.18, 6.18, 6.181, 6.18]))
    assert failures == ["relative mass drift 1.618e-04 at row 2"]


def test_balance_residual_above_solver_level_is_rejected():
    failures = run_energy_checks(energy_csv([4.0, 3.0, 2.0, 1.0], residual=[0, 0, 1e-6, 0]))
    assert len(failures) == 1 and "balance residual" in failures[0]


def test_header_and_row_count_are_exact():
    text = energy_csv([4.0, 3.0, 2.0], header=checks.ENERGY_CSV_HEADER.replace("E1", "e1"))
    failures = run_energy_checks(text)
    assert any("header" in f for f in failures)
    assert any("3 rows for 4 steps" in f for f in failures)


def test_adaptive_limits():
    dt = np.array([0.005, 0.005, 0.0175, 0.01, 0.035, 0.1])
    t = np.cumsum(dt)
    assert checks.check_adaptive_steps(t, dt, t[-1], 10.0, 3.5) == []
    assert "before t_end" in checks.check_adaptive_steps(t, dt, t[-1] + 1, 10.0, 3.5)[0]
    grown = dt.copy()
    grown[2] = 0.02  # ratio 4 over the previous step
    failures = checks.check_adaptive_steps(np.cumsum(grown), grown, np.sum(grown), 10.0, 3.5)
    assert failures == ["step growth ratio 4 above 3.5 at row 2"]
    failures = checks.check_adaptive_steps(t, dt, t[-1], 0.05, 3.5)
    assert failures == ["dt 0.1 above dt_max 0.05 at row 5"]


def octahedron_vtk(path, scale=1.0):
    points = scale * np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )
    tris = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    lines = ["# vtk DataFile Version 3.0", "trace surface", "ASCII", "DATASET POLYDATA",
             f"POINTS {len(points)} float"]
    lines += [" ".join(f"{x:.9g}" for x in p) for p in points]
    lines += [f"POLYGONS {len(tris)} {4 * len(tris)}"] + [f"3 {a} {b} {c}" for a, b, c in tris]
    lines += [f"POINT_DATA {len(points)}", "SCALARS concentration float 1", "LOOKUP_TABLE default"]
    lines += ["0.5"] * len(points)
    path.write_text("\n".join(lines) + "\n")


def test_surface_snapshot_geometry(tmp_path):
    path = tmp_path / "s.vtk"
    octahedron_vtk(path)
    points, tris, values = checks.parse_vtk_surface(path)
    assert points.shape == (6, 3) and tris.shape == (8, 3) and values.shape == (6,)
    # The octahedron's area 4 sqrt(3) is 5.7 short of 4 pi: a coarse "mesh"
    # with h^2 = 6 passes, a fine one fails on area only.
    assert checks.check_sphere_snapshot(points, tris, values, h=math.sqrt(6.0)) == []
    failures = checks.check_sphere_snapshot(points, tris, values, h=0.1)
    assert len(failures) == 1 and "area" in failures[0]
    octahedron_vtk(path, scale=1.2)
    failures = checks.check_sphere_snapshot(*checks.parse_vtk_surface(path), h=0.1)
    assert any("off the unit sphere" in f for f in failures)


def test_convergence_against_reference():
    assert checks.check_convergence({3: 5.96e-3, 4: 1.35e-3}) == []
    failures = checks.check_convergence({3: 8e-3, 4: 1.35e-3})
    assert failures == ["level 3: error 8.0000e-03 is 2.30x the reference"]
    # Both errors within the factor 2, but the rate 3.1 is outside 2.18 +- 0.4.
    assert "rate" in checks.check_convergence({3: 6.9e-3, 4: 0.8e-3})[0]


def spans(*items):
    return [Span(name, parent, start, end) for name, parent, start, end in items]


def test_self_time_subtracts_children():
    trace = spans(
        ("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("b", 1, 2.0, 3.0), ("c", 0, 5.0, 6.0)
    )
    assert tracing.self_times(trace) == [6.0, 2.0, 1.0, 1.0]


def test_loop_self_time_skips_setup_gaps():
    trace = spans(
        ("root", -1, 0.0, 20.0),
        ("mesh.build_mesh", 0, 1.0, 2.0),  # gap 0-1 and 2-3: setup
        ("integrators.step", 0, 3.0, 4.0),
        ("integrators.step", 0, 4.5, 5.0),  # gap 0.5 in the loop
        ("mesh.build_mesh", 0, 6.0, 7.0),  # gap 1.0 ends the first loop
        ("integrators.step", 0, 9.0, 10.0),  # gap 2.0 is setup
        ("output.csv", 0, 10.0, 11.0),
    )
    assert tracing.loop_self_time(trace, 0) == pytest.approx(0.5 + 1.0 + 9.0)


def test_tracer_wraps_by_importing_module_and_reports_missing(monkeypatch):
    def solve(x):
        return x + 1

    def step(x):
        return owner.solve(x) * 2

    owner = types.ModuleType("fake_integrators")
    owner.solve, owner.step = solve, step
    monkeypatch.setitem(sys.modules, "fake_integrators", owner)
    tracer = tracing.Tracer()
    missing = tracer.install([
        tracing.Target("fake_integrators", "step", "integrators.step"),
        tracing.Target("fake_integrators", "solve", "linsolve.solve"),
        tracing.Target("fake_integrators", "gone", "integrators.gone"),
    ])
    try:
        assert owner.step(1) == 4
    finally:
        tracer.restore()
    assert missing == ["fake_integrators:gone"]
    assert owner.step is step and owner.solve is solve
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("integrators.step", -1),
        ("linsolve.solve", 0),
    ]
    metrics = tracing.layer_metrics(tracer.spans, tracer.installed)
    assert metrics["linsolve.solves"] == 1
    # Absent, not zero: attempts also need the adapt_step span.
    assert "integrators.attempts" not in metrics and "linsolve.factor_s" not in metrics
