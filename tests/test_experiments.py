"""Experiment drivers: initial data, convergence harness, phase-separation runs."""

import re

import numpy as np
import pytest

from savfem.assembly import compute_E1
from savfem.config import RunConfig
from savfem.experiments import (
    bernoulli_ic,
    build_problem,
    initial_state,
    observed_rate,
    run_convergence,
    run_phase_separation,
)
from savfem.output import ENERGY_CSV_HEADER
from savfem.physics import PhysicsParams


class TestInitialData:
    def test_bernoulli_deterministic(self, sphere_l2):
        a = bernoulli_ic(sphere_l2, 0.5, seed=42)
        b = bernoulli_ic(sphere_l2, 0.5, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, bernoulli_ic(sphere_l2, 0.5, seed=43))

    def test_bernoulli_values_and_mean(self, sphere_l2):
        c = bernoulli_ic(sphere_l2, 0.3, seed=0)
        assert set(np.unique(c)) <= {0.0, 1.0}
        # n ~ 300 dofs: the sample mean should be well inside +-4 sigma
        sigma = np.sqrt(0.3 * 0.7 / sphere_l2.n_dofs)
        assert abs(c.mean() - 0.3) < 4.0 * sigma

    def test_bernoulli_mean_validation(self, sphere_l2):
        with pytest.raises(ValueError, match="mean"):
            bernoulli_ic(sphere_l2, 1.0, seed=0)

    def test_initial_state_r(self, sphere_l2_forms):
        physics = PhysicsParams(epsilon=0.05, c_shift=1.0)
        c0 = np.full(sphere_l2_forms.active.n_dofs, 0.5)
        state = initial_state(sphere_l2_forms, physics, c0)
        e1 = compute_E1(sphere_l2_forms.active, c0)
        assert state.r == pytest.approx(np.sqrt(e1 + 1.0), rel=1e-14)
        assert state.t == 0.0 and state.dt_used == 0.0
        assert np.all(state.mu == 0.0)


class TestObservedRate:
    def test_known_pair(self):
        # halving h: log2(2.8247e-2 / 0.9720e-2) = 1.539
        assert observed_rate(2.8247e-2, 0.9720e-2) == pytest.approx(1.539, abs=5e-3)

    def test_zero_fine_error(self):
        assert observed_rate(1.0, 0.0) == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            observed_rate(-1.0, 1.0)


class TestConvergenceHarness:
    def test_smoke_level2(self):
        rows = run_convergence([2], epsilon=1.0, scheme="bdf1", t_end=0.2)
        assert len(rows) == 1
        assert rows[0].level == 2
        assert rows[0].dt == pytest.approx(0.04)
        assert rows[0].rate is None
        assert 0.0 < rows[0].error < 0.5

    def test_two_levels_report_rate(self, pattern_builds):
        rows = run_convergence([2, 3], epsilon=1.0, scheme="bdf2", t_end=0.08)
        assert rows[1].rate is not None
        assert rows[1].error < rows[0].error
        # one BlockSolver per level, which orders its pattern once
        assert pattern_builds == [row.n_dofs for row in rows]

    def test_non_multiple_t_end_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            run_convergence([2], epsilon=1.0, t_end=0.05)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="bdf1 or bdf2"):
            run_convergence([2], epsilon=1.0, scheme="adaptive")


def quick_config(**overrides):
    base = dict(
        surface="sphere",
        level=2,
        epsilon=0.05,
        scheme="bdf1",
        dt=0.005,
        t_end=0.025,
        ic_mean=0.5,
        seed=3,
        run_name="quick",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestPhaseSeparation:
    def test_bdf1_run_and_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path))
        result = run_phase_separation(quick_config())
        assert result.accepted == 5
        assert result.rejected == 0
        assert len(result.reports) == 5
        assert result.state.t == pytest.approx(0.025)
        lines = result.energy_csv.read_text().splitlines()
        assert lines[0] == ENERGY_CSV_HEADER
        assert len(lines) == 6
        energies = [float(row.split(",")[2]) for row in lines[1:]]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))

    def test_bdf2_bootstraps_with_bdf1(self, tmp_path, monkeypatch, caplog, pattern_builds):
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path))
        with caplog.at_level("INFO", logger="savfem.experiments"):
            result = run_phase_separation(quick_config(scheme="bdf2", run_name="quick2"))
        assert result.accepted == 5
        assert result.state.t == pytest.approx(0.025)
        assert all(np.isfinite(r.balance_residual) for r in result.reports)
        assert pattern_builds == [result.active.n_dofs]
        # the solver totals line: one solve per step, each factored or reused
        [line] = [r.getMessage() for r in caplog.records if r.name == "savfem.experiments"]
        match = re.fullmatch(
            r"quick2: 5 solves, (\d+) factorizations, (\d+) reused, \d+ abandoned reuses, "
            r"\d+ refreshed, \d+ GMRES iterations, \d+ refined, 0 promoted to float64, "
            r"0 fallbacks",
            line,
        )
        assert match and int(match[1]) + int(match[2]) == 5

    def test_adaptive_run(self, tmp_path, monkeypatch, pattern_builds):
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path))
        config = quick_config(scheme="adaptive", t_end=0.05, dt=0.002, run_name="ad")
        result = run_phase_separation(config)
        assert pattern_builds == [result.active.n_dofs]
        assert result.state.t >= 0.05
        assert result.accepted == len(result.reports)
        dts = [r.dt for r in result.reports]
        assert all(d > 0 for d in dts)

    def test_vtk_snapshots(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path))
        config = quick_config(vtk_interval=2, run_name="snap")
        result = run_phase_separation(config)
        assert result.vtk_files, "expected VTK snapshots at the configured interval"
        for path in result.vtk_files:
            assert path.exists()
            assert "DATASET POLYDATA" in path.read_text()

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2", "adaptive"])
    @pytest.mark.parametrize("t_end", [0.004, 0.012])
    def test_snapshot_after_every_accepted_step(self, scheme, t_end, tmp_path, monkeypatch):
        # with vtk_interval = 1 every accepted step writes one snapshot,
        # including an adaptive run's BDF1 bootstrap step, also when that
        # step already reaches t_end
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path))
        config = quick_config(scheme=scheme, dt=0.004, t_end=t_end, vtk_interval=1)
        result = run_phase_separation(config)
        names = [path.name for path in result.vtk_files]
        assert names == [f"quick_{k:06d}.vtk" for k in range(result.accepted + 1)]
        assert sorted(p.name for p in tmp_path.glob("*.vtk")) == names
        if scheme != "adaptive":
            assert result.accepted == round(t_end / 0.004)

    def test_reproducible_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path / "a"))
        first = run_phase_separation(quick_config())
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path / "b"))
        second = run_phase_separation(quick_config())
        assert first.energy_csv.read_bytes() == second.energy_csv.read_bytes()
        np.testing.assert_array_equal(first.state.c, second.state.c)

    def test_non_multiple_t_end_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path))
        with pytest.raises(ValueError, match="multiple"):
            run_phase_separation(quick_config(t_end=0.024))


class TestBuildProblem:
    def test_smoke(self):
        mesh, active, forms = build_problem(quick_config())
        assert active.n_dofs > 0
        assert forms.mass.shape == (active.n_dofs, active.n_dofs)
        assert active.geometry_divisions == 2

    def test_respects_base_scale(self):
        small = build_problem(quick_config())[1]
        big = build_problem(quick_config(base_scale=2))[1]
        assert big.n_dofs > 2 * small.n_dofs
