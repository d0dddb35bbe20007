"""Flat key=value run configuration.

Config files are plain text, one ``key = value`` per line, '#' comments.
CLI overrides use the same ``key=value`` syntax and are applied after the
file.  Keys mirror the RunConfig fields; unknown keys are an error so typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .integrators import TimeController
from .levelset import LevelSetField, idealized_cell, sphere
from .linsolve import SolverConfig
from .physics import PhysicsParams

__all__ = [
    "RunConfig",
    "ConfigError",
    "load_config",
    "parse_overrides",
    "SPHERE_BOX",
    "CELL_BOX",
]

# Bounding boxes chosen so the background cube grids stay commensurate with
# the surfaces: unit sphere in a (10/3)^3 cube, idealized cell elongated
# along x1.
SPHERE_BOX = np.array([[-5.0 / 3.0, 5.0 / 3.0]] * 3)
CELL_BOX = np.array([[-2.0, 2.0], [-4.0 / 3.0, 4.0 / 3.0], [-4.0 / 3.0, 4.0 / 3.0]])

_SURFACES = ("sphere", "cell")
_SCHEMES = ("bdf1", "bdf2", "adaptive")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one phase-separation or manufactured run needs."""

    surface: str = "sphere"
    level: int = 3
    base_scale: int = 1
    geometry_divisions: int = 2
    epsilon: float = 0.05
    rho: float = 1.0
    c_shift: float = 1.0
    scheme: str = "bdf2"
    dt: float = 0.005
    t_end: float = 1.0
    ic_mean: float = 0.5
    seed: int = 0
    tol: float = TimeController.tol
    zeta: float = TimeController.zeta
    dt_min: float = TimeController.dt_min
    dt_max: float = TimeController.dt_max
    ratio_max: float = TimeController.ratio_max
    max_retries: int = TimeController.max_retries
    solver_rel_tolerance: float = SolverConfig.rel_tolerance
    output_dir: str = "out"
    run_name: str = "run"
    vtk_interval: int = 0

    def __post_init__(self):
        if self.surface not in _SURFACES:
            raise ConfigError(f"surface must be one of {_SURFACES}, got {self.surface!r}")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not 0.0 < self.ic_mean < 1.0:
            raise ConfigError("ic_mean must lie in (0, 1)")
        if self.level < 1:
            raise ConfigError("level must be >= 1")
        if self.base_scale < 1:
            raise ConfigError("base_scale must be >= 1")
        if self.geometry_divisions not in (1, 2):
            raise ConfigError("geometry_divisions must be 1 or 2")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if self.vtk_interval < 0:
            raise ConfigError("vtk_interval must be >= 0 (0 disables VTK output)")

    def box(self) -> np.ndarray:
        return SPHERE_BOX.copy() if self.surface == "sphere" else CELL_BOX.copy()

    def levelset(self) -> LevelSetField:
        return sphere(1.0) if self.surface == "sphere" else idealized_cell()

    def physics(self) -> PhysicsParams:
        return PhysicsParams(epsilon=self.epsilon, rho=self.rho, c_shift=self.c_shift)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(rel_tolerance=self.solver_rel_tolerance)

    def controller(self) -> TimeController:
        return TimeController(
            dt=self.dt,
            dt_min=self.dt_min,
            dt_max=self.dt_max,
            tol=self.tol,
            zeta=self.zeta,
            ratio_max=self.ratio_max,
            max_retries=self.max_retries,
        )

    def resolved_output_dir(self) -> Path:
        """Output directory, overridable by the SAVFEM_OUTPUT_DIR env var."""
        return Path(os.environ.get("SAVFEM_OUTPUT_DIR", self.output_dir))


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    typ = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if typ in ("int", int):
            return int(raw)
        if typ in ("float", float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from exc
    return raw


def _parse_line(line: str, where: str) -> tuple[str, str] | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    if "=" not in body:
        raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
    key, raw = body.split("=", 1)
    return key.strip(), raw


def parse_overrides(overrides) -> dict:
    out = {}
    for item in overrides:
        parsed = _parse_line(item, "override")
        if parsed is None:
            raise ConfigError(f"empty override {item!r}")
        key, raw = parsed
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str | Path | None = None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file plus key=value overrides."""
    values: dict = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            parsed = _parse_line(line, f"{path}:{lineno}")
            if parsed is None:
                continue
            key, raw = parsed
            values[key] = _coerce(key, raw)
    values.update(parse_overrides(overrides))
    return RunConfig(**values)
