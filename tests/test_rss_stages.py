"""scripts/rss_stages.py: every probed function exists where it is wrapped."""

import importlib
import importlib.util
from pathlib import Path

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
