"""CSV diagnostics and legacy-VTK surface output."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .integrators import EnergyReport
from .mesh import ActiveMesh

__all__ = [
    "ENERGY_CSV_HEADER",
    "EnergyCsvSink",
    "write_vtk_surface",
    "write_convergence_csv",
    "format_convergence_table",
]

ENERGY_CSV_HEADER = "t,dt,modified_energy,E1,r,r_consistency,mass,balance_residual"


class EnergyCsvSink:
    """Append-per-step CSV writer; each row is flushed so partial runs are readable."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")
        self._fh.write(ENERGY_CSV_HEADER + "\n")
        self._fh.flush()

    def write(self, report: EnergyReport) -> None:
        row = (
            f"{report.t:.16e},{report.dt:.16e},{report.modified_energy:.16e},"
            f"{report.e1:.16e},{report.r:.16e},{report.r_consistency:.16e},"
            f"{report.mass:.16e},{report.balance_residual:.16e}"
        )
        self._fh.write(row + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _format_distinct(a: np.ndarray) -> list[str]:
    """``[f"{x:.9g}" for x in a]``, formatting each distinct value once.

    Values are told apart by their bits, so -0.0 ("-0") and 0.0 ("0") stay
    distinct; "%.9g" gives the same text as f"{x:.9g}".
    """
    keys, inverse = np.unique(np.asarray(a, dtype=np.float64).view(np.int64), return_inverse=True)
    text = np.array(["%.9g" % x for x in keys.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _vtk_geometry(active: ActiveMesh) -> bytes:
    """The snapshot text up to the point data, encoded once per active mesh."""
    geometry = active._cache.get("vtk_geometry")
    if geometry is None:
        points, tri = active.polygon_points, active.tri_index
        n, m = len(points), len(tri)
        text = "".join(
            [
                f"# vtk DataFile Version 3.0\ntrace surface\nASCII\nDATASET POLYDATA\nPOINTS {n} float\n",
                ("%s %s %s\n" * n) % tuple(_format_distinct(points.ravel())),
                f"POLYGONS {m} {4 * m}\n",
                ("3 %d %d %d\n" * m) % tuple(tri.ravel().tolist()),
                f"POINT_DATA {n}\nSCALARS concentration float 1\nLOOKUP_TABLE default\n",
            ]
        )
        geometry = active._cache["vtk_geometry"] = text.encode("ascii")
    return geometry


def write_vtk_surface(path: str | Path, active: ActiveMesh, c: np.ndarray) -> None:
    """Write the reconstructed surface triangulation as legacy ASCII VTK.

    Points are the cut-polygon vertices, connectivity the per-polygon fans,
    and ``concentration`` is attached as point data, the P1 field at each
    vertex by the mesh's polygon-vertex operator B_P.  The text before the
    point data is built on the mesh's first snapshot and reused, so a later
    snapshot formats only its values; coordinates and values are formatted
    once per distinct value.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (active.n_dofs,):
        raise ValueError(f"expected {active.n_dofs} dof values, got shape {c.shape}")
    values = active.poly_interp @ c
    geometry = _vtk_geometry(active)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(geometry)
        fh.write((("%s\n" * len(values)) % tuple(_format_distinct(values))).encode("ascii"))


def write_convergence_csv(path: str | Path, rows) -> None:
    """Rows carry (level, h, dt, n_dofs, error, rate); rate is blank on the first row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    out = ["level,h,dt,n_dofs,error,rate"]
    for row in rows:
        rate = "" if row.rate is None else f"{row.rate:.6f}"
        out.append(f"{row.level},{row.h:.16e},{row.dt:.16e},{row.n_dofs},{row.error:.16e},{rate}")
    path.write_text("\n".join(out) + "\n")


def format_convergence_table(rows) -> str:
    """The error/rate table of a convergence study, one line per row."""
    lines = ["level        h        dt    dofs       error   rate"]
    for row in rows:
        rate = "   -" if row.rate is None else f"{row.rate:.2f}"
        lines.append(
            f"{row.level:5d} {row.h:.6f} {row.dt:.6g} {row.n_dofs:7d} {row.error:.5e}  {rate}"
        )
    return "\n".join(lines)
