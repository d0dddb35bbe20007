"""Diagnostics CSV format and legacy VTK surface output."""

import numpy as np
import pytest

from pointwise import poly_elem
from savfem.experiments import ConvergenceRow
from savfem.integrators import EnergyReport
from savfem.output import (
    ENERGY_CSV_HEADER,
    EnergyCsvSink,
    _format_distinct,
    write_convergence_csv,
    write_vtk_surface,
)


def report(t=0.005):
    return EnergyReport(
        t=t,
        dt=0.005,
        modified_energy=2.25,
        e1=1.25,
        r=1.5,
        r_consistency=1e-14,
        mass=6.28,
        balance_residual=3e-13,
    )


class TestEnergyCsv:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "energy.csv"
        with EnergyCsvSink(path):
            pass
        first = path.read_text().splitlines()[0]
        assert first == "t,dt,modified_energy,E1,r,r_consistency,mass,balance_residual"
        assert first == ENERGY_CSV_HEADER

    def test_row_roundtrip_full_precision(self, tmp_path):
        path = tmp_path / "energy.csv"
        with EnergyCsvSink(path) as sink:
            sink.write(report())
            sink.write(report(t=0.01))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert len(fields) == 8
        assert float(fields[0]) == 0.005
        assert float(fields[2]) == 2.25
        assert float(fields[7]) == 3e-13

    def test_rows_flushed_while_open(self, tmp_path):
        # a crashed run must leave every accepted step on disk
        path = tmp_path / "energy.csv"
        sink = EnergyCsvSink(path)
        sink.write(report())
        on_disk = path.read_text().splitlines()
        assert len(on_disk) == 2
        sink.close()

    def test_close_idempotent(self, tmp_path):
        sink = EnergyCsvSink(tmp_path / "energy.csv")
        sink.close()
        sink.close()


class TestVtkSurface:
    def test_structure(self, tmp_path, sphere_l2):
        path = tmp_path / "surf.vtk"
        c = np.linspace(0.0, 1.0, sphere_l2.n_dofs)
        write_vtk_surface(path, sphere_l2, c)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET POLYDATA"
        n_pts = int(lines[4].split()[1])
        assert n_pts == len(sphere_l2.poly_bary)

        poly_at = 5 + n_pts
        n_tri, n_ints = (int(s) for s in lines[poly_at].split()[1:])
        assert n_tri == len(sphere_l2.tri_index)
        assert n_ints == 4 * n_tri
        for row in lines[poly_at + 1 : poly_at + 1 + n_tri]:
            ids = [int(s) for s in row.split()]
            assert ids[0] == 3
            assert all(0 <= i < n_pts for i in ids[1:])

        data_at = poly_at + 1 + n_tri
        assert lines[data_at] == f"POINT_DATA {n_pts}"
        assert lines[data_at + 1] == "SCALARS concentration float 1"
        assert lines[data_at + 2] == "LOOKUP_TABLE default"
        values = np.array([float(s) for s in lines[data_at + 3 : data_at + 3 + n_pts]])
        assert len(values) == n_pts
        assert values.min() >= -1e-6 and values.max() <= 1.0 + 1e-6

    def test_points_near_surface(self, tmp_path, sphere_l2):
        path = tmp_path / "surf.vtk"
        write_vtk_surface(path, sphere_l2, np.zeros(sphere_l2.n_dofs))
        lines = path.read_text().splitlines()
        n_pts = int(lines[4].split()[1])
        pts = np.array([[float(x) for x in row.split()] for row in lines[5 : 5 + n_pts]])
        radii = np.linalg.norm(pts, axis=1)
        # vertices of the reconstructed surface lie within O(h^2) of the sphere
        assert np.abs(radii - 1.0).max() < 0.05

    def test_constant_field_roundtrip(self, tmp_path, sphere_l2):
        path = tmp_path / "surf.vtk"
        write_vtk_surface(path, sphere_l2, np.full(sphere_l2.n_dofs, 0.25))
        lines = path.read_text().splitlines()
        n_pts = int(lines[4].split()[1])
        tail = lines[-n_pts:]
        assert all(float(v) == pytest.approx(0.25, abs=1e-7) for v in tail)

    @staticmethod
    def line_by_line(active, c):
        """The writer's earlier formatter, one f-string per value: the oracle.
        The values sum the four products of each vertex in column order, the
        order of B_P's row sums, so that exact cancellations round alike."""
        dofs = active.elem_dofs[poly_elem(active)]
        values = sum(active.poly_bary[:, k] * c[dofs[:, k]] for k in range(4))
        points = active.polygon_points
        lines = [
            "# vtk DataFile Version 3.0",
            "trace surface",
            "ASCII",
            "DATASET POLYDATA",
            f"POINTS {len(points)} float",
        ]
        lines.extend(" ".join(f"{x:.9g}" for x in p) for p in points)
        tri = active.tri_index
        lines.append(f"POLYGONS {len(tri)} {4 * len(tri)}")
        lines.extend(f"3 {a} {b} {d}" for a, b, d in tri)
        lines.append(f"POINT_DATA {len(points)}")
        lines.append("SCALARS concentration float 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.9g}" for v in values)
        return ("\n".join(lines) + "\n").encode()

    def test_bytes_match_line_by_line_formatter(self, tmp_path, sphere_l2):
        n = sphere_l2.n_dofs
        mixed = np.resize([0.0, 1.0, -0.75, 1e-20, 0.3, -1e-20, 2.5], n)
        rng = np.random.default_rng(3)
        for c in (np.zeros(n), np.ones(n), np.full(n, 1e-20), mixed, rng.uniform(-1.0, 2.0, n)):
            path = tmp_path / "surf.vtk"
            write_vtk_surface(path, sphere_l2, c)
            assert path.read_bytes() == self.line_by_line(sphere_l2, c)

    def test_meshes_keep_their_own_geometry(self, tmp_path, sphere_l2, sphere_l3):
        # alternate meshes and fields: a stale or shared geometry cache shows here
        rng = np.random.default_rng(5)
        written = []
        for k, active in enumerate((sphere_l2, sphere_l3, sphere_l2, sphere_l3)):
            c = rng.uniform(-0.5, 1.5, active.n_dofs)
            path = tmp_path / f"surf_{k}.vtk"
            write_vtk_surface(path, active, c)
            written.append((path, active, c))
        for path, active, c in written:
            assert path.read_bytes() == self.line_by_line(active, c)

    def test_distinct_formatter_matches_fstring(self):
        a = np.array([0.0, -0.0, 1e-20, -1e-20, 1 / 3, 2.5, 0.0, -0.0, 1 / 3, 2.5, -1e-20, 1e-20])
        assert _format_distinct(a) == [f"{x:.9g}" for x in a]
        assert _format_distinct(a)[:2] == ["0", "-0"]

    def test_wrong_length_rejected(self, tmp_path, sphere_l2):
        with pytest.raises(ValueError, match="dof"):
            write_vtk_surface(tmp_path / "bad.vtk", sphere_l2, np.zeros(3))


class TestConvergenceCsv:
    def test_format_and_blank_rate(self, tmp_path):
        rows = [
            ConvergenceRow(level=3, h=0.2083, dt=0.02, n_dofs=664, error=5.9e-3, rate=None),
            ConvergenceRow(level=4, h=0.1042, dt=0.01, n_dofs=2764, error=1.3e-3, rate=2.14),
        ]
        path = tmp_path / "conv.csv"
        write_convergence_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,h,dt,n_dofs,error,rate"
        first = lines[1].split(",")
        assert first[0] == "3" and first[5] == ""
        second = lines[2].split(",")
        assert float(second[5]) == pytest.approx(2.14)
        assert int(second[3]) == 2764
