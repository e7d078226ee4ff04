"""Every function the benchmark's tracer wraps (perfbench/tracing.py, TRACED)
still exists under its name.  A traced name that went missing would break only
runs with --trace 1, and the one traced test run never loads fdsolver."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import bondtaylor

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_name_resolves():
    modules = {info.name: importlib.import_module(f"bondtaylor.{info.name}")
               for info in pkgutil.iter_modules(bondtaylor.__path__)}
    assert "fdsolver" in modules
    missing = [f"{short}.{name}" for short, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(modules.get(short), name, None))]
    assert missing == []
