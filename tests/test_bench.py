"""The benchmark's spans and constants still match the package."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracing_targets_exist():
    # a renamed function would drop its span, and its metrics, silently
    tracing = _load_bench("tracing")
    assert tracing.TARGETS
    for span, modname, attr, _ in tracing.TARGETS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), (span, modname, attr)
    probes = importlib.import_module("bdcutoff.lab.probes").PROBES
    assert probes and all(callable(fn) for fn in probes.values())


def test_checks_constants_match_package():
    # bench/checks.py keeps its own copies; a drift would misjudge rows
    checks = _load_bench("checks")
    analysis = importlib.import_module("bdcutoff.analysis")
    ensemble = importlib.import_module("bdcutoff.lab.ensemble")
    tableio = importlib.import_module("bdcutoff.lab.tableio")
    assert checks.EXACT_STATE_LIMIT == analysis.EXACT_TAU_LIMIT
    assert checks.RECORD_FIELDS == list(ensemble.RECORD_FIELDS)
    assert checks.SCHEMA_TAG == tableio.SCHEMA_TAG
