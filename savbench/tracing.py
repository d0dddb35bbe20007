"""Spans recorded around calls into the savfem modules, and the per-layer
metrics derived from them.

The savfem modules import each other's functions by name (``integrators``
calls its own ``solve_rank_one_system`` binding, ``experiments`` its own
``bdf1_step``), so a function is wrapped in the namespace of the module that
calls it, under the name that module imported it as.  ``TARGETS`` is the one
table of wrapped functions.  A name that no longer exists is skipped and the
metrics that need it are reported as absent.

Spans live in memory (name, start, end, parent, attributes) and are written
out once the run ends.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 for a root
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def call(self, name, fn, args, kwargs, on_return=None):
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_return is not None:
            span.attrs.update(on_return(result, args, kwargs))
        return result

    def wrap(self, fn, name, on_return=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's (args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, on_return)

        return traced

    def install(self, targets) -> list[str]:
        """Patch every target; returns the ``module:attribute`` names not found."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                head, _, attr = target.attribute.rpartition(".")
                owner = getattr(module, head) if head else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}:{target.attribute}")
                continue
            if inspect.isclass(original):
                replacement = self._wrap_class(original, target.span)
            else:
                replacement = self.wrap(original, target.span, target.on_return)
            if head:
                # A copy of e.g. ``linsolve.spla``, so that only calls made
                # through this module's binding are traced.
                proxy = types.ModuleType(getattr(owner, "__name__", head))
                proxy.__dict__.update(vars(owner))
                setattr(proxy, attr, replacement)
                self._patches.append((module, head, owner))
                setattr(module, head, proxy)
            else:
                self._patches.append((module, attr, original))
                setattr(module, attr, replacement)
            self.installed.update(target.provides or (target.span,))
        return self.missing

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_class(self, cls, name):
        methods = {
            m: self.wrap(fn, name)
            for m, fn in vars(cls).items()
            if inspect.isfunction(fn) and (m == "__init__" or not m.startswith("_"))
        }
        return type(cls.__name__, (cls,), methods)

    def as_json(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in self.spans
        ]


@dataclass(frozen=True)
class Target:
    module: str
    attribute: str
    span: object  # span name, or a function of (args, kwargs) giving it
    on_return: object = None  # (result, args, kwargs) -> span attributes
    provides: tuple = ()  # the span names a callable ``span`` can give


def _stiffness_span(args, kwargs) -> str:
    coefficient = args[1] if len(args) > 1 else kwargs.get("coefficient")
    return "assembly.stiffness" if coefficient is None else "assembly.mobility"


def _vtk_bytes(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _adapt_counts(result, args, kwargs):
    _, attempts = result
    return {"attempts": len(attempts), "rejected": sum(1 for a in attempts if not a.accepted)}


STIFFNESS_SPANS = ("assembly.stiffness", "assembly.mobility")
LOOP_SPANS = ("integrators.step", "integrators.adapt")
SETUP_SPANS = (
    "mesh.build_mesh",
    "mesh.build_active_mesh",
    "assembly.forms",
    "manufactured.solution",
    "manufactured.forcing",
)

TARGETS = (
    [
        Target("savfem.experiments", "build_mesh", "mesh.build_mesh"),
        Target("savfem.experiments", "build_active_mesh", "mesh.build_active_mesh",
               lambda active, a, k: {"dofs": active.n_dofs}),
        Target("savfem.experiments", "assemble_forms", "assembly.forms"),
        Target("savfem.experiments", "manufactured_solution", "manufactured.solution"),
        Target("savfem.experiments", "assemble_load", "manufactured.forcing"),
        Target("savfem.assembly", "assemble_surface_stiffness", _stiffness_span,
               provides=STIFFNESS_SPANS),
        Target("savfem.integrators", "assemble_surface_stiffness", _stiffness_span,
               provides=STIFFNESS_SPANS),
        Target("savfem.assembly", "assemble_f0prime_load", "assembly.f0prime_load"),
        Target("savfem.integrators", "solve_rank_one_system", "linsolve.solve",
               lambda result, a, k: {"rel_residual": result[2].rel_residual}),
        Target("savfem.linsolve", "spla.splu", "linsolve.factor",
               lambda lu, a, k: {"nnz": lu.nnz}),
        Target("savfem.experiments", "adapt_step", "integrators.adapt", _adapt_counts),
        Target("savfem.experiments", "energy_balance_residual_bdf1", "integrators.diagnostics"),
        Target("savfem.experiments", "energy_balance_residual_bdf2", "integrators.diagnostics"),
        Target("savfem.experiments", "make_energy_report", "integrators.diagnostics"),
        Target("savfem.experiments", "EnergyCsvSink", "output.csv"),
        Target("savfem.experiments", "write_vtk_surface", "output.vtk", _vtk_bytes),
    ]
    + [Target("savfem.integrators", f, "assembly.energy")
       for f in ("compute_E1", "compute_mass", "l2_norm_gamma")]
    + [Target("savfem.experiments", f, "assembly.energy") for f in ("compute_E1", "l2_norm_gamma")]
    + [Target("savfem.integrators", f, "integrators.step")
       for f in ("bdf1_step", "bdf2_variable_step")]
    + [Target("savfem.experiments", f, "integrators.step") for f in ("bdf1_step", "bdf2_step")]
)


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def loop_self_time(spans: list[Span], root: int) -> float:
    """Self time of the root span inside its time loops.  A loop starts at
    the first step span after setup and ends at the next setup span (the
    next mesh level) or at the root's end."""
    total = 0.0
    in_loop = False
    cursor = spans[root].start
    for child in (s for s in spans if s.parent == root):
        if child.name in SETUP_SPANS:
            counted, in_loop = in_loop, False
        elif child.name in LOOP_SPANS and not in_loop:
            counted, in_loop = False, True
        else:
            counted = in_loop
        if counted:
            total += child.start - cursor
        cursor = child.end
    if in_loop:
        total += spans[root].end - cursor
    return total


# Per-layer metric -> (unit, span names it needs).
LAYER_METRICS = {
    "mesh.build_mesh_s": ("s", ["mesh.build_mesh"]),
    "mesh.build_active_mesh_s": ("s", ["mesh.build_active_mesh"]),
    "mesh.dofs": ("count", ["mesh.build_active_mesh"]),
    "assembly.forms_s": ("s", ["assembly.forms"]),
    "manufactured.forcing_s": ("s", ["manufactured.solution", "manufactured.forcing"]),
    "assembly.mobility_s": ("s", ["assembly.mobility"]),
    "assembly.mobility_calls": ("count", ["assembly.mobility"]),
    "assembly.f0prime_load_s": ("s", ["assembly.f0prime_load"]),
    "assembly.f0prime_load_calls": ("count", ["assembly.f0prime_load"]),
    "assembly.energy_s": ("s", ["assembly.energy"]),
    "assembly.energy_calls": ("count", ["assembly.energy"]),
    "linsolve.solves": ("count", ["linsolve.solve"]),
    "linsolve.factor_s": ("s", ["linsolve.factor"]),
    "linsolve.factor_nnz": ("count", ["linsolve.factor"]),
    "linsolve.solve_self_s": ("s", ["linsolve.solve", "linsolve.factor"]),
    "linsolve.rel_residual_max": ("1", ["linsolve.solve"]),
    "integrators.step_self_s": ("s", ["integrators.step", "integrators.adapt"]),
    "integrators.diagnostics_s": ("s", ["integrators.diagnostics"]),
    "integrators.attempts": ("count", ["integrators.step", "integrators.adapt"]),
    "integrators.rejected": ("count", ["integrators.adapt"]),
    "integrators.accept_ratio": ("1", ["integrators.step", "integrators.adapt"]),
    "output.csv_s": ("s", ["output.csv"]),
    "output.vtk_s": ("s", ["output.vtk"]),
    "output.vtk_bytes": ("bytes", ["output.vtk"]),
    "experiments.loop_self_s": ("s", ["integrators.step", "integrators.adapt"] + list(SETUP_SPANS)),
}


def layer_metrics(spans: list[Span], installed: set[str], root: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced run whose root span is ``spans[root]``.
    A metric is left out when a span it needs could not be installed."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, t_self in zip(spans, own):
        dur[span.name] = dur.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + t_self

    def attr_values(name, key):
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    adapt = [i for i, s in enumerate(spans) if s.name == "integrators.adapt"]
    adapt_set = set(adapt)
    direct_steps = sum(
        1 for s in spans if s.name == "integrators.step" and s.parent not in adapt_set
    )
    attempts = direct_steps + sum(attr_values("integrators.adapt", "attempts"))
    rejected = sum(attr_values("integrators.adapt", "rejected"))
    nnz = attr_values("linsolve.factor", "nnz")
    residuals = attr_values("linsolve.solve", "rel_residual")

    values = {
        "mesh.build_mesh_s": dur.get("mesh.build_mesh", 0.0),
        "mesh.build_active_mesh_s": dur.get("mesh.build_active_mesh", 0.0),
        "mesh.dofs": sum(attr_values("mesh.build_active_mesh", "dofs")),
        "assembly.forms_s": dur.get("assembly.forms", 0.0),
        "manufactured.forcing_s": dur.get("manufactured.solution", 0.0)
        + dur.get("manufactured.forcing", 0.0),
        "assembly.mobility_s": dur.get("assembly.mobility", 0.0),
        "assembly.mobility_calls": calls.get("assembly.mobility", 0),
        "assembly.f0prime_load_s": dur.get("assembly.f0prime_load", 0.0),
        "assembly.f0prime_load_calls": calls.get("assembly.f0prime_load", 0),
        "assembly.energy_s": dur.get("assembly.energy", 0.0),
        "assembly.energy_calls": calls.get("assembly.energy", 0),
        "linsolve.solves": calls.get("linsolve.solve", 0),
        "linsolve.factor_s": dur.get("linsolve.factor", 0.0),
        "linsolve.factor_nnz": statistics.median_low(nnz) if nnz else 0,
        "linsolve.solve_self_s": self_s.get("linsolve.solve", 0.0),
        "linsolve.rel_residual_max": max(residuals) if residuals else 0.0,
        "integrators.step_self_s": self_s.get("integrators.step", 0.0)
        + self_s.get("integrators.adapt", 0.0),
        "integrators.diagnostics_s": dur.get("integrators.diagnostics", 0.0),
        "integrators.attempts": attempts,
        "integrators.rejected": rejected,
        "integrators.accept_ratio": (attempts - rejected) / attempts if attempts else 0.0,
        "output.csv_s": dur.get("output.csv", 0.0),
        "output.vtk_s": dur.get("output.vtk", 0.0),
        "output.vtk_bytes": sum(attr_values("output.vtk", "bytes")),
        "experiments.loop_self_s": loop_self_time(spans, root),
    }
    return {
        name: value
        for name, value in values.items()
        if all(span in installed for span in LAYER_METRICS[name][1])
    }
