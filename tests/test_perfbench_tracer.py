"""The benchmark tracer's wrap targets must exist in the package.

``perfbench/tracer.py`` wraps the package functions named in its
``TARGETS`` by ``getattr``, so deleting or renaming one of them breaks
every traced benchmark run.  This test makes that a tier-1 failure.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls_cleanly():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
