"""scripts/rss_stages.py: every probed function exists where it is wrapped,
and the traced columns of ``--traced``."""

import importlib
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rss_stages.py"
spec = importlib.util.spec_from_file_location("rss_stages", SCRIPT)
rss_stages = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rss_stages)


@pytest.mark.parametrize("module_name", sorted(rss_stages.PROBES))
def test_probes_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in rss_stages.PROBES[module_name]:
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_missing_probe_stops_the_script():
    with pytest.raises(SystemExit, match="has no no_such_stage"):
        rss_stages.install({"savfem.mesh": ("no_such_stage",)})


def test_convergence_study_probes_the_forcing_load(monkeypatch, capsys):
    # --levels runs the convergence study, whose set-up assembles the
    # forcing load; every probe is restored at teardown
    for module_name, names in rss_stages.PROBES.items():
        module = importlib.import_module(module_name)
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name))
    config = Path(rss_stages.ROOT) / "configs" / "table1_eps005.cfg"
    overrides = ["epsilon=1", "scheme=bdf2", "t_end=0.04"]
    rss_stages.main([str(config), *[f"--override={o}" for o in overrides], "--levels", "2"])
    probed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert probed[probed.index("assemble_forms") + 1] == "assemble_load"
    assert probed.index("assemble_load") < probed.index("initial_state")
    assert "_lu_solver" in probed


def test_traced_lines_give_memory_and_peak_since_the_last(monkeypatch, capsys):
    # --traced adds tracemalloc's memory and its peak since the previous
    # line to every line, and stops tracing at the end
    for module_name, names in rss_stages.PROBES.items():
        module = importlib.import_module(module_name)
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name))
    config = Path(rss_stages.ROOT) / "configs" / "table1_eps005.cfg"
    overrides = ["epsilon=1", "scheme=bdf2", "t_end=0.04"]
    rss_stages.main([str(config), *[f"--override={o}" for o in overrides], "--levels", "2", "--traced"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["traced_mib", "tpeak_mib"]
    assert [line.split()[0] for line in lines[:2]] == ["build_mesh", "_classify"]
    traced = np.array([[float(v) for v in line.split()[-2:]] for line in lines])  # MiB to 0.1
    assert np.all((0.0 <= traced[:, 0]) & (traced[:, 0] <= traced[:, 1]))
    assert traced[:, 1].max() > 0.0
    assert not tracemalloc.is_tracing()
