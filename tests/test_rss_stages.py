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
