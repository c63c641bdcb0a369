"""Checks on the CLI's outputs, and independent oracles for the traced run.

The checks read only what a job wrote (CSV text and summary JSON). The
oracles rebuild a row's kernel from its seed_sub and recompute tau and
the spectral gap with dense linear algebra, a different algorithm from
the library's tridiagonal evolution and bisection eigensolver.
"""

import csv
import io
import json
import math
import re

import numpy as np

SCHEMA_TAG = "# bdcutoff-v1"
RECORD_FIELDS = ["n", "family", "rep_id", "seed_sub", "gap", "B_plus",
                 "B_minus", "tau_or_proxy", "proxy_flag", "cutoff_product",
                 "max_recip_superdiag", "runtime_ms", "error"]
ERROR_CLASS = re.compile(r"^([A-Za-z_]\w*): ")
EXACT_STATE_LIMIT = 512      # the CLI computes exact tau up to this size
SANDWICH_SLACK = 1e-9
MARGINAL_KS_LIMIT = 0.1      # generous: retained samples are correlated
GAP_ORACLE_MAX_STATES = 1100
TV_SLACK = 1e-9


def flag_value(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def state_count(family: str, n: int) -> int:
    return 2 * n - 1 if family == "if" else n


def _table(text: str, problems: list, where: str):
    first, _, body = text.partition("\n")
    if first != SCHEMA_TAG:
        problems.append(f"{where}: schema line {first!r}")
        return []
    return list(csv.DictReader(io.StringIO(body)))


def check_ensemble(args, text: str, problems: list, errors: dict):
    """Validate one ensemble CSV; returns (attempted, succeeded, rows)."""
    n_list = [int(v) for v in flag_value(args, "--n").split(",")]
    reps = int(flag_value(args, "--reps"))
    family = flag_value(args, "--family")
    exact = "--exact-tau" in args
    horizon = flag_value(args, "--horizon")
    rows = _table(text, problems, "ensemble")
    if rows and list(rows[0]) != RECORD_FIELDS:
        problems.append(f"ensemble: header {list(rows[0])}")
        return 0, 0, []
    if len(rows) != reps * len(n_list):
        problems.append(f"ensemble: {len(rows)} rows, expected "
                        f"{reps * len(n_list)}")
    good = []
    for row in rows:
        tag = f"ensemble n={row['n']} seed_sub={row['seed_sub']}"
        if row["error"]:
            m = ERROR_CLASS.match(row["error"])
            if not m:
                problems.append(f"{tag}: error without a class")
                continue
            # a horizon stop is the configured cap, not a failure to mix
            key = m.group(1)
            if horizon and row["error"].endswith(f" after {horizon} steps"):
                key += "@horizon"
            errors[key] = errors.get(key, 0) + 1
            if not math.isnan(float(row["gap"])):
                problems.append(f"{tag}: failed row carries a gap")
            continue
        gap = float(row["gap"])
        b = max(float(row["B_plus"]), float(row["B_minus"]))
        if not (1.0 / (4.0 * b) * (1 - SANDWICH_SLACK) <= gap
                <= 2.0 / b * (1 + SANDWICH_SLACK)):
            problems.append(f"{tag}: gap {gap} outside [1/(4B), 2/B], B={b}")
        if float(row["cutoff_product"]) != float(row["tau_or_proxy"]) * gap:
            problems.append(f"{tag}: cutoff_product != tau_or_proxy * gap")
        states = state_count(family, int(row["n"]))
        want = "False" if exact and states <= EXACT_STATE_LIMIT else "True"
        if row["proxy_flag"] != want:
            problems.append(f"{tag}: proxy_flag {row['proxy_flag']}")
        good.append(row)
    return len(rows), len(good), good


def check_marginal(args, stdout: str, text: str, problems: list) -> bool:
    start = len(problems)
    summary = json.loads(stdout)["summary"]
    if summary["samples"] != int(flag_value(args, "--probe-samples")):
        problems.append(f"marginal: {summary['samples']} samples")
    ks, ks_int = summary["ks"], summary["ks_interior"]
    if not ks_int < MARGINAL_KS_LIMIT or not ks_int < ks:
        problems.append(f"marginal: ks_interior {ks_int} (sine ks {ks})")
    if len(_table(text, problems, "marginal")) != 20:
        problems.append("marginal: table does not have 20 rows")
    return len(problems) == start


def check_contraction(args, stdout: str, text: str, problems: list) -> bool:
    start = len(problems)
    n_list = sorted(int(v) for v in flag_value(args, "--n").split(","))
    reps = int(flag_value(args, "--reps"))
    summary = json.loads(stdout)["summary"]
    if summary["n_values"] != n_list:
        problems.append(f"contraction: n_values {summary['n_values']}")
    rows = _table(text, problems, "contraction")
    if len(rows) != len(n_list):
        problems.append(f"contraction: {len(rows)} rows")
    for row in rows:
        if int(row["coalesced"]) + int(row["censored"]) != reps:
            problems.append(f"contraction n={row['n']}: counts do not add up")
        if int(row["censored"]) != 0:
            problems.append(f"contraction n={row['n']}: "
                            f"{row['censored']} runs censored")
    return len(problems) == start


def rebuild_kernel(args, row):
    """The lazy kernel of one ensemble row, re-sampled from its seed_sub."""
    from bdcutoff.kernel import kernel_from_superdiagonal
    from bdcutoff.lab.config import ExperimentConfig
    from bdcutoff.sampler import SamplerConfig, run_gibbs

    a, eps = flag_value(args, "--a"), flag_value(args, "--eps")
    cfg = ExperimentConfig(family=row["family"], n_list=(int(row["n"]),),
                           a=None if a is None else float(a),
                           eps=None if eps is None else float(eps))
    dist = cfg.make_dist(int(row["n"]))
    trace = run_gibbs(SamplerConfig(
        dist=dist, steps=0, burnin=cfg.equilibration_budget(dist.n),
        seed=int(row["seed_sub"])))
    return kernel_from_superdiagonal(dist, trace.final).lazy(0.5)


def dense_gap(kern) -> float:
    """1 - lambda_2 from a dense symmetric eigensolve."""
    s = np.diag(kern.diag)
    off = np.sqrt(kern.c * kern.sub)
    idx = np.arange(kern.n - 1)
    s[idx, idx + 1] = off
    s[idx + 1, idx] = off
    return 1.0 - float(np.linalg.eigvalsh(s)[-2])


def _endpoint_tv(rows: np.ndarray, pi: np.ndarray) -> float:
    return float(0.5 * np.abs(rows - pi).sum(axis=1).max())


def dense_tau_bracket(kern, tau: int) -> tuple[float, float]:
    """Worst endpoint TV at tau-1 and tau, by dense repeated squaring."""
    p = kern.dense()
    pi = kern.dist.mass
    rows = np.zeros((2, kern.n))
    rows[0, 0] = rows[1, -1] = 1.0
    power, t = p, tau - 1
    while t:
        if t & 1:
            rows = rows @ power
        t >>= 1
        if t:
            power = power @ power
    return _endpoint_tv(rows, pi), _endpoint_tv(rows @ p, pi)


def oracle_row(args, row, problems: list) -> tuple[int, int]:
    """Check one successful row; returns (tau checks, gap checks) done."""
    tag = f"oracle n={row['n']} seed_sub={row['seed_sub']}"
    kern = rebuild_kernel(args, row)
    gaps = taus = 0
    if kern.n <= GAP_ORACLE_MAX_STATES:
        gap, want = float(row["gap"]), dense_gap(kern)
        if not math.isclose(gap, want, rel_tol=1e-6):
            problems.append(f"{tag}: gap {gap} vs dense {want}")
        gaps = 1
    if row["proxy_flag"] == "False":
        tau = int(float(row["tau_or_proxy"]))
        before, at = dense_tau_bracket(kern, tau)
        if not (at < 0.25 + TV_SLACK and before >= 0.25 - TV_SLACK):
            problems.append(f"{tag}: tau {tau} but TV(tau-1)={before}, "
                            f"TV(tau)={at}")
        taus = 1
    return taus, gaps
