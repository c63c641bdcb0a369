"""Ensemble runner: sample many kernels, analyze each, collect records."""

import time
from dataclasses import dataclass, fields

from ..analysis import AnalysisReport, analyze
from ..errors import ParameterError
from ..kernel import BDKernel, kernel_from_superdiagonal
from ..sampler import SamplerConfig, run_gibbs, stream_fingerprint
from .config import ExperimentConfig

NAN = float("nan")


@dataclass(frozen=True)
class EnsembleRecord:
    """One sampled kernel's summary statistics.

    Field order is the on-disk column order. seed_sub is the derived
    per-replicate seed, recorded so any single row can be reproduced in
    isolation. error is empty on success; on a run-time failure the
    numeric fields are NaN and the row is kept so a long run is never
    lost to one bad replicate. A ParameterError is raised instead.
    """

    n: int
    family: str
    rep_id: int
    seed_sub: int
    gap: float
    B_plus: float
    B_minus: float
    tau_or_proxy: float
    proxy_flag: bool
    cutoff_product: float
    max_recip_superdiag: float
    runtime_ms: float
    error: str = ""


RECORD_FIELDS = tuple(f.name for f in fields(EnsembleRecord))


def replicate_seed(seed: int, n: int, rep_id: int) -> int:
    """Derived seed for one (n, rep) cell, independent of scheduling."""
    return int(stream_fingerprint(seed, n, rep_id))


def _failed_record(cfg: ExperimentConfig, n: int, rep_id: int,
                   exc: Exception) -> EnsembleRecord:
    return EnsembleRecord(
        n=n, family=cfg.family, rep_id=rep_id,
        seed_sub=replicate_seed(cfg.seed, n, rep_id),
        gap=NAN, B_plus=NAN, B_minus=NAN, tau_or_proxy=NAN,
        proxy_flag=True, cutoff_product=NAN, max_recip_superdiag=NAN,
        runtime_ms=0.0, error=f"{type(exc).__name__}: {exc}")


def sampled_kernel(cfg: ExperimentConfig, n: int, rep_id: int,
                   dist=None) -> tuple[int, BDKernel]:
    """The sampled kernel of replicate rep_id at size n, an exact draw,
    with the derived seed that reproduces it. dist, when given, is
    cfg.make_dist(n), built once for a run's replicates."""
    seed_sub = replicate_seed(cfg.seed, n, rep_id)
    dist = cfg.make_dist(n) if dist is None else dist
    trace = run_gibbs(SamplerConfig(dist, seed=seed_sub))
    return seed_sub, kernel_from_superdiagonal(dist, trace.final)


def analyze_kernel(cfg: ExperimentConfig, kernel: BDKernel) -> AnalysisReport:
    """The configured analysis of one kernel; exact tau only with
    exact_tau, and then up to EXACT_TAU_LIMIT states."""
    return analyze(
        kernel, lazy=not cfg.raw_kernel, delta=cfg.delta,
        exact_tau=cfg.exact_tau, horizon=cfg.horizon,
        exhaustive=cfg.exhaustive_starts)


def run_replicate(cfg: ExperimentConfig, n: int, rep_id: int,
                  dist) -> EnsembleRecord:
    """Sample one kernel at size n from dist, cfg.make_dist(n), and
    analyze it."""
    started = time.perf_counter()
    try:
        seed_sub, kern = sampled_kernel(cfg, n, rep_id, dist)
        report = analyze_kernel(cfg, kern)
    except ParameterError:
        raise  # a bad setting fails every replicate alike: not a row
    except Exception as exc:
        return _failed_record(cfg, n, rep_id, exc)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    tau_or_proxy = float(report.tau) if report.tau is not None \
        else float(report.tau_proxy)
    return EnsembleRecord(
        n=n, family=cfg.family, rep_id=rep_id, seed_sub=seed_sub,
        gap=float(report.gap),
        B_plus=float(report.miclo.B_plus),
        B_minus=float(report.miclo.B_minus),
        tau_or_proxy=tau_or_proxy,
        proxy_flag=bool(report.proxy_flag),
        cutoff_product=float(report.cutoff_product),
        max_recip_superdiag=float(kern.max_recip_superdiag),
        runtime_ms=elapsed_ms if cfg.timings else 0.0)


def _replicate_task(task) -> EnsembleRecord:
    cfg, n, rep_id = task
    return run_replicate(cfg, n, rep_id, cfg.make_dist(n))


def run_ensemble(cfg: ExperimentConfig) -> list[EnsembleRecord]:
    """Run reps independent replicates for each n in cfg.n_list.

    Results are deterministic in cfg.seed and invariant to the worker
    count: every replicate draws from its own derived stream, and the
    output is sorted by (n, rep_id) regardless of completion order.
    """
    # one distribution per size, for the serial replicates; a bad family
    # setting fails here even with no reps
    dists = {n: cfg.make_dist(n) for n in cfg.n_list}
    tasks = [(cfg, n, rep) for n in sorted(cfg.n_list)
             for rep in range(cfg.reps)]
    if cfg.workers > 1 and len(tasks) > 1:
        # imported here: the pool's modules take 0.5 MB that a serial run
        # never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunk = max(1, len(tasks) // (4 * cfg.workers))
            records = list(pool.map(_replicate_task, tasks, chunksize=chunk))
    else:
        records = [run_replicate(cfg, n, rep, dists[n]) for _, n, rep in tasks]
    records.sort(key=lambda r: (r.n, r.rep_id))
    return records


def record_rows(records) -> list[dict]:
    """Records as flat dicts in on-disk field order."""
    return [{name: getattr(r, name) for name in RECORD_FIELDS}
            for r in records]
