"""The benchmark's spans and constants still match the package."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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


def test_oracle_rebuilds_the_sampled_kernel():
    # the traced gap and tau oracles re-sample each row from its seed_sub;
    # they must get the ensemble's kernel bit for bit, whatever route the
    # sampler takes
    from bdcutoff.lab.config import ExperimentConfig
    from bdcutoff.lab.ensemble import sampled_kernel

    checks = _load_bench("checks")
    if_flags = ["--family", "if", "--a", "2", "--eps", "0.25"]
    for args, n in ((["ensemble", "--family", "uniform", "--n", "256,1024",
                      "--reps", "1"], 256),
                    (["ensemble", *if_flags, "--n", "2048", "--reps", "1"],
                     2048)):
        family = checks.flag_value(args, "--family")
        a, eps = checks.flag_value(args, "--a"), checks.flag_value(args, "--eps")
        cfg = ExperimentConfig(family=family, n_list=(n,), seed=17,
                               a=None if a is None else float(a),
                               eps=None if eps is None else float(eps))
        for rep in range(2):
            seed_sub, kern = sampled_kernel(cfg, n, rep)
            row = {"family": family, "n": str(n), "seed_sub": str(seed_sub)}
            got = checks.rebuild_kernel(args, row)
            want = kern.lazy(0.5)
            for name in ("c", "sub", "diag"):
                assert np.array_equal(getattr(got, name).view(np.uint64),
                                      getattr(want, name).view(np.uint64))
