"""CLI subcommands end to end through main()."""

import dataclasses
import re

import numpy as np
import pytest

from savfem import cli, experiments
from savfem.cli import main
from savfem.experiments import ConvergenceRow
from savfem.linsolve import BlockSolver
from savfem.output import format_convergence_table


@pytest.fixture()
def sphere_cfg(tmp_path):
    path = tmp_path / "sphere.cfg"
    path.write_text(
        """
        surface = sphere
        level = 2
        epsilon = 0.05
        scheme = bdf1
        dt = 0.005
        t_end = 0.02
        ic_mean = 0.5
        seed = 3
        run_name = clitest
        """
    )
    return path


class TestSolve:
    def test_run_with_config(self, sphere_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(out))
        code = main(["solve", "--config", str(sphere_cfg)])
        captured = capsys.readouterr()
        assert code == 0
        assert "done: t=0.02" in captured.out
        assert (out / "clitest_energy.csv").exists()

    def test_override_changes_run(self, sphere_cfg, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path / "out"))
        code = main(
            ["solve", "--config", str(sphere_cfg), "--override", "t_end=0.01"]
        )
        assert code == 0
        assert "steps=2" in capsys.readouterr().out

    def test_export_surface(self, sphere_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(out))
        code = main(["solve", "--config", str(sphere_cfg), "--export-surface"])
        assert code == 0
        vtk = out / "clitest_surface.vtk"
        assert vtk.exists()
        assert "SCALARS concentration float 1" in vtk.read_text()

    def test_export_surface_equals_final_snapshot(self, sphere_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(out))
        args = ["--config", str(sphere_cfg), "--override", "vtk_interval=3", "--export-surface"]
        code = main(["solve", *args])
        assert code == 0
        # 4 steps: snapshots at steps 0 and 3, and after the last one
        assert sorted(p.name for p in out.glob("clitest_0*.vtk")) == [
            "clitest_000000.vtk", "clitest_000003.vtk", "clitest_000004.vtk"
        ]
        final = (out / "clitest_000004.vtk").read_bytes()
        assert (out / "clitest_surface.vtk").read_bytes() == final
        assert final != (out / "clitest_000000.vtk").read_bytes()


class TestConverge:
    def test_single_level_table(self, sphere_cfg, tmp_path, capsys):
        code = main(
            [
                "converge",
                "--config",
                str(sphere_cfg),
                "--levels",
                "2",
                "--epsilon",
                "1.0",
                "--t-end",
                "0.2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0].split() == ["level", "h", "dt", "dofs", "error", "rate"]
        fields = lines[1].split()
        assert fields[0] == "2"
        assert float(fields[4]) > 0.0

    # the bytes the table printer of the CLI wrote line by line
    TABLE_ROWS = [
        ConvergenceRow(level=3, h=0.2083333333, dt=0.02, n_dofs=664, error=3.453e-3, rate=None),
        ConvergenceRow(level=4, h=0.1041666667, dt=0.01, n_dofs=2764, error=7.654321e-4, rate=2.17456),
        ConvergenceRow(level=10, h=1 / 768, dt=0.0003125, n_dofs=1234567, error=1.5e-9, rate=12.0),
    ]
    TABLE = (
        "level        h        dt    dofs       error   rate\n"
        "    3 0.208333 0.02     664 3.45300e-03     -\n"
        "    4 0.104167 0.01    2764 7.65432e-04  2.17\n"
        "   10 0.001302 0.0003125 1234567 1.50000e-09  12.00\n"
    )

    def test_table_format(self):
        assert format_convergence_table(self.TABLE_ROWS) + "\n" == self.TABLE

    def test_printed_table(self, sphere_cfg, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_convergence", lambda **kwargs: self.TABLE_ROWS)
        assert main(["converge", "--config", str(sphere_cfg)]) == 0
        assert capsys.readouterr().out == self.TABLE

    def test_adaptive_config_scheme_is_refused(self, sphere_cfg, capsys):
        # the config's scheme reaches the study, which runs only fixed steps,
        # instead of turning into a BDF1 table
        args = ["--override", "scheme=adaptive", "--levels", "2", "--t-end", "0.04"]
        code = main(["converge", "--config", str(sphere_cfg), *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: convergence runs support bdf1 or bdf2\n"

    def test_csv_output(self, sphere_cfg, tmp_path, capsys):
        out_csv = tmp_path / "conv.csv"
        code = main(
            [
                "converge",
                "--config",
                str(sphere_cfg),
                "--levels",
                "2",
                "--epsilon",
                "1.0",
                "--t-end",
                "0.2",
                "--output",
                str(out_csv),
            ]
        )
        assert code == 0
        assert out_csv.read_text().splitlines()[0] == "level,h,dt,n_dofs,error,rate"


@pytest.mark.parametrize(
    "command",
    [["solve"], ["converge", "--levels", "2", "--epsilon", "1.0", "--t-end", "0.2"]],
    ids=["solve", "converge"],
)
def test_verbose_run_logs_the_solver_totals(command, sphere_cfg, tmp_path, caplog, monkeypatch):
    solvers = []

    class Recorded(BlockSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(experiments, "BlockSolver", Recorded)
    monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path / "out"))
    with caplog.at_level("INFO", logger="savfem.experiments"):
        assert main(["-v", command[0], "--config", str(sphere_cfg), *command[1:]]) == 0
    lines = [r.getMessage() for r in caplog.records if "factorizations" in r.getMessage()]
    assert len(lines) == len(solvers) == 1
    counts = [int(k) for k in re.findall(r"(\d+) [a-zA-Z]", lines[0].split(": ", 1)[1])]
    totals = solvers[0].totals
    assert counts == list(dataclasses.astuple(totals))
    assert totals.solves > 0 and totals.factorizations > 0


class TestMeshInfo:
    def test_reports_stats(self, sphere_cfg, capsys):
        code = main(["mesh-info", "--config", str(sphere_cfg)])
        captured = capsys.readouterr()
        assert code == 0
        entries = dict(
            line.split(": ", 1) for line in captured.out.splitlines() if ": " in line
        )
        assert entries["surface"] == "sphere"
        assert int(entries["dofs"]) > 0
        assert int(entries["geometry divisions"]) == 2
        # level-2 sphere area is already close to 4 pi
        assert float(entries["surface area"]) == pytest.approx(4.0 * np.pi, rel=0.02)

    def test_reports_the_closed_surface(self, sphere_cfg, capsys, sphere_l2):
        # the level-2 sphere: one vertex per crossed lattice edge, chi = 2
        assert main(["mesh-info", "--config", str(sphere_cfg)]) == 0
        entries = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines() if ": " in line)
        assert int(entries["surface vertices"]) == len(sphere_l2.poly_bary)
        assert int(entries["surface triangles"]) == len(sphere_l2.tri_index)
        assert int(entries["euler characteristic"]) == 2

    def test_override_applies(self, sphere_cfg, capsys):
        code = main(["mesh-info", "--config", str(sphere_cfg), "--override", "level=1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "level: 1" in captured.out


class TestFailureModes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["mesh-info", "--config", str(tmp_path / "absent.cfg")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("levle = 3\n")
        code = main(["mesh-info", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown config key" in captured.err

    def test_bad_override_value(self, sphere_cfg, capsys):
        code = main(["solve", "--config", str(sphere_cfg), "--override", "dt=zero"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_invalid_run_parameters(self, sphere_cfg, capsys):
        # t_end not a multiple of dt aborts with a diagnostic, not a traceback
        code = main(["solve", "--config", str(sphere_cfg), "--override", "t_end=0.013"])
        captured = capsys.readouterr()
        assert code == 1
        assert "multiple" in captured.err
