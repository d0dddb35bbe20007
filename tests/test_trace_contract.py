"""Contract between savfem and the benchmark in savbench/.

The benchmark wraps savfem functions under the names the savfem modules
bind them to (``tracing.TARGETS``) and derives its per-layer metrics from the
spans; it times set-up through ``experiments.build_mesh`` and
``experiments.initial_state`` (``workloads.SetupClock``).  These tests run
small problems through that machinery without changing it, and restore every
name it patches.
"""

import importlib
import sys
from pathlib import Path

import pytest

from savfem import experiments
from savfem.config import RunConfig

SAVBENCH = Path(__file__).resolve().parents[1] / "savbench"
SAVFEM_MODULES = ("assembly", "experiments", "integrators", "linsolve")

# TARGETS entries whose savfem names are gone: their spans are provided by
# other entries, so no metric depends on them alone.  The test asserts the
# missing set equals this one, so an allowance outlives no name.
NOT_TRACED = {
    "savfem.integrators:assemble_surface_stiffness",
    "savfem.integrators:l2_norm_gamma",
    "savfem.experiments:energy_balance_residual_bdf1",
    "savfem.experiments:energy_balance_residual_bdf2",
    # adapt_step's BDF2 trials call bdf2_step: their time counts in the
    # integrators.adapt span, and their solves and assembly calls are counted
    # by the spans nested in it
    "savfem.integrators:bdf2_variable_step",
}


@pytest.fixture(scope="module")
def savbench():
    """savbench's ``tracing`` and ``workloads`` modules, imported as its
    scripts import them (by top-level name from its directory)."""
    added = [name for name in ("checks", "tracing", "workloads") if name not in sys.modules]
    sys.path.insert(0, str(SAVBENCH))
    try:
        modules = importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(SAVBENCH))
    yield modules
    for name in added:
        sys.modules.pop(name, None)


def bindings() -> dict:
    """Every name bound in the savfem modules the benchmark patches."""
    out = {}
    for name in SAVFEM_MODULES:
        module = importlib.import_module(f"savfem.{name}")
        out.update({(name, key): value for key, value in vars(module).items()})
    return out


def run_config(**overrides) -> RunConfig:
    base = dict(
        surface="sphere", level=2, epsilon=0.05, scheme="bdf2", dt=0.005, t_end=0.02,
        ic_mean=0.5, seed=1, run_name="traced",
    )
    base.update(overrides)
    return RunConfig(**base)


def traced_run(tracing, config):
    before = bindings()
    tracer = tracing.Tracer()
    try:
        missing = tracer.install(tracing.TARGETS)
        result = tracer.call("experiments.run", experiments.run_phase_separation, (config,), {})
    finally:
        tracer.restore()
    assert bindings() == before
    metrics = tracing.layer_metrics(tracer.spans, tracer.installed, root=0)
    factorizations = sum(1 for span in tracer.spans if span.name == "linsolve.factor")
    return result, missing, metrics, factorizations


@pytest.mark.parametrize(
    "overrides",
    [{}, {"scheme": "adaptive", "dt": 0.002, "t_end": 0.05}],
    ids=["bdf2", "adaptive"],
)
def test_traced_run_reports_every_layer(savbench, overrides, tmp_path, monkeypatch):
    tracing, _ = savbench
    monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path))
    result, missing, metrics, factorizations = traced_run(tracing, run_config(**overrides))

    assert set(missing) == NOT_TRACED
    assert sorted(set(tracing.LAYER_METRICS) - set(metrics)) == []
    # one mobility matrix and one f0' load per solve: the energy balance
    # reuses the mobility of the step it checks
    solves = metrics["linsolve.solves"]
    assert metrics["assembly.mobility_calls"] == metrics["assembly.f0prime_load_calls"] == solves
    attempts = metrics["integrators.attempts"]
    assert attempts == result.accepted + result.rejected
    assert metrics["integrators.rejected"] == result.rejected
    # adaptive attempts solve BDF1 and BDF2; the bootstrap step solves once
    assert solves == (2 * attempts - 1 if overrides else attempts)
    if overrides:
        # BDF1 and BDF2 attempts alternate alpha and the controller changes
        # dt, but the LU serves any system on the pattern until a reuse is
        # abandoned: at most one solve in five factors (4 of 39 here)
        assert factorizations <= solves / 5
    else:
        # the later uniform BDF2 steps reuse the LU of the first one
        assert factorizations < solves
    # E1 of the initial data, E1 and mass per report; a step's E1 comes with
    # its coefficient forms and the adaptive error from the mass matrix
    assert metrics["assembly.energy_calls"] == 1 + 2 * result.accepted


def test_setup_clock_stops_both_run_paths(savbench, tmp_path):
    _, workloads = savbench
    before = bindings()
    clock = workloads.SetupClock(experiments, stop=True)
    try:
        # the clock is opened by the probed build_mesh and closed by the
        # probed initial_state, which stops the run before its time loop
        with pytest.raises(workloads.StopAfterSetup):
            experiments.run_phase_separation(run_config(output_dir=str(tmp_path)))
        first = clock.total
        with pytest.raises(workloads.StopAfterSetup):
            experiments.run_convergence([2], epsilon=1.0, scheme="bdf2", t_end=0.08)
    finally:
        experiments.build_mesh = before[("experiments", "build_mesh")]
        experiments.initial_state = before[("experiments", "initial_state")]
    assert 0.0 < first < clock.total
    assert clock.opened is None
    assert bindings() == before
