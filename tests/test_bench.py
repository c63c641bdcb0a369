"""The benchmark's per-layer spans still name the package's functions."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracing_targets_exist():
    # a renamed function would drop its span, and its metrics, silently
    tracing = _load_tracing()
    assert tracing.TARGETS
    for span, modname, attr, _ in tracing.TARGETS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), (span, modname, attr)
    probes = importlib.import_module("bdcutoff.lab.probes").PROBES
    assert probes and all(callable(fn) for fn in probes.values())
