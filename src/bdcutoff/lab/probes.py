"""Statistical probes of the sampled-kernel ensemble.

Each probe runs equilibrated samples through one distributional check
and returns a ProbeResult: a flat summary dict plus per-row statistics,
every row carrying its sample count and a standard error. The module
also exposes the reusable interval/tail/conditional checks that the
test suite applies to both Gibbs output and the small-n rejection
oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..sampler import (SamplerConfig, _check_scan_weight, _start_sites,
                       _window_chains, collect_window, oracle_samples,
                       run_coupled_pair, run_gibbs, stream_fingerprint,
                       substream)
from .config import ExperimentConfig

SIN_REFERENCE_MEDIAN = 1.0 / 3.0

# The limit laws describe coordinates far from both ends: a probed
# coordinate or levy window closer than this to a boundary is flagged.
_EDGE = 20


def sin_reference_cdf(x):
    """The sine limit curve for a superdiagonal entry under flat mass.

    Exact for the EDGE coordinate (or given a neighbor pinned at zero);
    interior coordinates equilibrate to interior_reference_cdf instead.
    The marginal probe reports distance to both.
    """
    return np.sin(0.5 * np.pi * np.clip(x, 0.0, 1.0))


def interior_reference_cdf(x):
    """Equilibrium law of an interior superdiagonal entry, flat mass.

    Density 1 + cos(pi x) on [0, 1]: the square of the transfer
    operator's top eigenfunction, against the sine curve's single
    power at the boundary. Median ~0.26, against the sine curve's 1/3.
    """
    x = np.clip(x, 0.0, 1.0)
    return x + np.sin(np.pi * x) / np.pi


def coupon_miss_reference(c: float) -> float:
    """Limit fraction of runs with an untouched coordinate at t = n(ln n - c)/k."""
    return 1.0 - math.exp(-math.exp(c))


@dataclass(frozen=True)
class ProbeResult:
    """A probe's summary and table. Every probe returns at least one
    row, and each row's keys are the table's columns in order."""

    probe: str
    summary: dict
    rows: list
    flags: tuple = ()

    @property
    def fieldnames(self) -> tuple:
        return tuple(self.rows[0])


def _coordinate_window(cfg: ExperimentConfig, tag: int, reach: int = 0,
                       per_sweep: int = 4, exact_states: int = 0):
    """Samples of coordinates coord - reach .. coord + reach, one row
    per retained state; the one sampling path of the marginal, tail and
    markov probes. Returns (dist, coord, values, thin, chains).

    The law is built for n_list[0]. coord is cfg.coord, else the middle
    coordinate, and needs reach neighbours on each side. On m
    coordinates a coordinate refreshes about every m/k block updates,
    so unless cfg.probe_thin is set, retained states are spaced a
    per_sweep-th of that apart. The rows come from collect_window: at
    k = 1 from chains = _window_chains(rows) chains, chain by chain; at
    k >= 2 from one chain (chains = 1). Every chain starts from an exact
    draw and runs no burn-in, so each summary's burnin reads 0. Up to
    exact_states states the rows are exact rejection draws instead, with
    thin = 0 and every row its own chain. tag keys the random stream.
    """
    dist = cfg.make_dist(cfg.n_list[0])
    m = dist.n - 1
    coord = cfg.coord if cfg.coord is not None else m // 2
    if not reach <= coord < m - reach:
        raise ParameterError(
            f"coordinate {coord} outside [{reach}, {m - 1 - reach}]")
    coords = list(range(coord - reach, coord + reach + 1))
    if dist.n <= exact_states:
        _check_scan_weight(cfg.k, cfg.w)
        draws = oracle_samples(dist, cfg.probe_samples, substream(cfg.seed, tag))
        return dist, coord, draws[:, coords], 0, cfg.probe_samples
    thin = cfg.probe_thin or max(1, m // (per_sweep * cfg.k))
    sampler = cfg.sampler_config(
        dist, stream_fingerprint(cfg.seed, tag),
        steps=cfg.probe_samples * thin, thin=thin)
    chains = _window_chains(cfg.probe_samples) if cfg.k == 1 else 1
    return dist, coord, collect_window(sampler, coords), thin, chains


def _edge_flags(coord: int, m: int) -> list:
    if min(coord, m - 1 - coord) < _EDGE:
        return [f"coordinate {coord} is within {_EDGE} of a boundary"]
    return []


def _chain_se(values: np.ndarray, stat) -> np.ndarray:
    """Standard error of stat over values from its spread over
    _window_chains(len(values)) consecutive groups, cut as collect_window
    deals rows to chains: the groups' sample SD over the root of their
    number; nan below two groups."""
    per = np.array([stat(g) for g in
                    np.array_split(values, _window_chains(len(values)))])
    if len(per) < 2:
        return np.full(per.shape[1:], np.nan)
    return per.std(axis=0, ddof=1) / math.sqrt(len(per))


def _quantile_se(sorted_vals: np.ndarray, q: float) -> float:
    """Order-statistic standard error via the binomial band at q."""
    n = len(sorted_vals)
    if n < 4:
        return float("inf")
    half = math.sqrt(q * (1.0 - q) / n)
    lo = float(np.quantile(sorted_vals, max(0.0, q - half)))
    hi = float(np.quantile(sorted_vals, min(1.0, q + half)))
    return 0.5 * (hi - lo)


def batch_means_ess(chain) -> float:
    """Effective sample size of a chain of values by batch means.

    The first a*b values are cut into a batches of b = isqrt(len)
    consecutive values; ESS = len * var(values) / (b * var(batch
    means)), capped at len. I.i.d. values give about len; positively
    autocorrelated ones give less.
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    size = math.isqrt(n)
    batches = n // size
    means = x[:batches * size].reshape(batches, size).mean(axis=1)
    spread = float(means.var(ddof=1))
    if spread == 0.0:
        return float(n)
    return min(float(n), n * float(x.var(ddof=1)) / (size * spread))


def _ks_against(sorted_samples: np.ndarray, cdf) -> float:
    ref = cdf(sorted_samples)
    n = len(sorted_samples)
    hi = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(hi - ref, ref - (hi - 1.0 / n))))


def probe_marginal(cfg: ExperimentConfig) -> ProbeResult:
    """Empirical CDF of one coordinate against the sine limit curve.

    Uses n_list[0]; flat mass is the family the reference law belongs
    to. The KS distance is computed from the full sorted sample, not
    the table grid. ks is against the sine curve; ks_interior against
    the interior law, which is what a mid-chain coordinate actually
    follows (the sine curve matches the edge; see the reference-cdf
    docstrings). A row's se is the spread of the empirical CDF at x over
    _window_chains(samples) consecutive groups of rows, over the root of
    their number: at k = 1 the groups are the window's independent
    chains, at k >= 2 batches of its one chain. ess is the batch-means
    effective sample size of the rows.
    """
    dist, coord, vals, thin, chains = _coordinate_window(cfg, 3)
    flags = _edge_flags(coord, dist.n - 1)
    ess = batch_means_ess(vals[:, 0])
    samples = np.sort(vals[:, 0])
    count = len(samples)

    ks = _ks_against(samples, sin_reference_cdf)
    ks_interior = _ks_against(samples, interior_reference_cdf)

    grid = np.linspace(0.05, 1.0, 20)
    ses = _chain_se(vals[:, 0], lambda g: np.searchsorted(
        np.sort(g), grid, side="right") / g.size)
    rows = []
    for x, se in zip(grid, ses):
        r = float(sin_reference_cdf(x))
        emp = float(np.searchsorted(samples, x, side="right")) / count
        rows.append({
            "x": round(float(x), 10), "empirical": emp, "reference": r,
            "reference_interior": float(interior_reference_cdf(x)),
            "abs_gap": abs(emp - r), "se": float(se), "count": count})
    summary = {
        "n": dist.n, "coord": coord, "samples": count, "chains": chains,
        "ess": ess, "burnin": 0, "thin": thin, "ks": ks,
        "ks_interior": ks_interior,
        "empirical_median": float(np.quantile(samples, 0.5)),
        "reference_median": SIN_REFERENCE_MEDIAN}
    return ProbeResult(
        probe="marginal", summary=summary,
        rows=rows, flags=tuple(flags))


def probe_tail(cfg: ExperimentConfig) -> ProbeResult:
    """Tail regularity f(x) = x P[c < 1/x] on the configured grid.

    f should be nondecreasing and bounded by 16 times the coordinate
    cap. For flat mass its large-x limit is the marginal density at 0:
    pi/2 at the edge coordinate, 2 at interior coordinates. A row's se
    is x times the spread of P[c < 1/x] over _window_chains(samples)
    consecutive groups of rows, over the root of their number (the
    groups as in probe_marginal), and the monotonicity and cap checks
    allow 3 of it; a nan se, below two groups, flags nothing. ess is
    the batch-means effective sample size of the rows.
    """
    grid = sorted(float(x) for x in cfg.tail_grid)
    if not grid or grid[0] <= 0:
        raise ParameterError("tail grid must be positive")
    dist, coord, vals, thin, chains = _coordinate_window(cfg, 4)
    flags = _edge_flags(coord, dist.n - 1)
    samples = vals[:, 0]
    count = len(samples)
    bound = 16.0 * float(dist.caps[coord])
    xs = np.asarray(grid)
    cuts = 1.0 / xs
    ses = xs * _chain_se(samples, lambda g: np.mean(g[:, None] < cuts, axis=0))
    rows = []
    for x, se in zip(grid, ses.tolist()):
        p = float(np.mean(samples < 1.0 / x))
        rows.append({"x": x, "prob": p, "f": x * p, "se": se,
                     "count": count, "bound": bound,
                     "bound_ok": not x * p > bound + 3.0 * se,
                     "monotone_ok": True})
    for prev, row in zip(rows, rows[1:]):
        slack = 3.0 * math.hypot(prev["se"], row["se"])
        if row["f"] < prev["f"] - slack:
            row["monotone_ok"] = False
    monotone_violations = sum(not r["monotone_ok"] for r in rows)
    bound_violations = sum(not r["bound_ok"] for r in rows)
    if monotone_violations:
        flags.append(f"{monotone_violations} monotonicity violations over 3 SE")
    if bound_violations:
        flags.append(f"{bound_violations} cap-bound violations over 3 SE")
    summary = {
        "n": dist.n, "coord": coord, "samples": count, "chains": chains,
        "ess": batch_means_ess(samples), "burnin": 0, "thin": thin,
        "f_last": rows[-1]["f"], "x_last": rows[-1]["x"],
        "limit_target": math.pi / 2.0, "limit_target_interior": 2.0,
        "monotone_violations": monotone_violations,
        "bound_violations": bound_violations}
    return ProbeResult(
        probe="tail", summary=summary,
        rows=rows, flags=tuple(flags))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) < 4 or np.std(x) == 0.0 or np.std(y) == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def _partial_corr(left, mid, right) -> float:
    """Correlation of the flanks with the middle regressed out.

    Plain within-bin correlation would not vanish under conditional
    independence: the middle value still varies inside a bin and drives
    both flanks. Each flank is residualized on [1, mid, mid^2], which
    removes that leakage through quadratic order; the linear-only
    version leaves a visible ~0.01 floor at realistic bin widths.
    """
    design = np.column_stack([np.ones(mid.size), mid, mid * mid])
    try:
        res_l = left - design @ np.linalg.lstsq(design, left, rcond=None)[0]
        res_r = right - design @ np.linalg.lstsq(design, right, rcond=None)[0]
    except np.linalg.LinAlgError:
        return float("nan")
    return _pearson(res_l, res_r)


def _binned_rho(mid, left, right, edges, min_count):
    """Per-bin partial correlation of the flanking coordinates."""
    rows = []
    which = np.digitize(mid, edges)
    for b in range(len(edges) + 1):
        sel = which == b
        count = int(np.sum(sel))
        lo = float(edges[b - 1]) if b > 0 else float("-inf")
        hi = float(edges[b]) if b < len(edges) else float("inf")
        excluded = count < min_count
        rho = float("nan") if excluded \
            else _partial_corr(left[sel], mid[sel], right[sel])
        if not excluded and math.isnan(rho):
            excluded = True
        # Fisher-style error for a partial correlation with two
        # regressors controlled (mid and its square)
        se = float("nan") if excluded else 1.0 / math.sqrt(count - 5)
        rows.append({"bin": b, "lo": lo, "hi": hi, "count": count,
                     "rho": rho, "se": se, "excluded": excluded})
    return rows


def probe_markov(cfg: ExperimentConfig) -> ProbeResult:
    """Conditional independence of c[i-1] and c[i+1] given c[i].

    Sampled states should show near-zero correlation of the flanks
    within bins of the middle value, while raw adjacent coordinates are
    genuinely anticorrelated. A shuffled control (permuting the right
    flank across samples) calibrates the noise floor.
    """
    n = cfg.n_list[0]
    if n < 6:
        raise ParameterError(f"markov probe needs n >= 6, got {n}")
    # max-over-bins statistics are sensitive to residual chain
    # autocorrelation, so default to a full sweep per retained sample
    # rather than the quarter sweep the scalar probes use; up to 12
    # states the draws are exact
    dist, coord, trio, thin, chains = _coordinate_window(
        cfg, 5, reach=1, per_sweep=1, exact_states=12)
    count = cfg.probe_samples
    left, mid, right = trio[:, 0], trio[:, 1], trio[:, 2]

    bins = 10
    min_count = 100
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.unique(np.quantile(mid, qs))
    rows = _binned_rho(mid, left, right, edges, min_count)

    perm = substream(cfg.seed, 5, 1).permutation(count)
    control_rows = _binned_rho(mid, left, right[perm], edges, min_count)
    for row, ctl in zip(rows, control_rows):
        row["control_rho"] = ctl["rho"]

    kept = [r for r in rows if not r["excluded"]]
    max_abs = max((abs(r["rho"]) for r in kept), default=float("nan"))
    control_max = max((abs(r["control_rho"]) for r in kept
                       if not math.isnan(r["control_rho"])),
                      default=float("nan"))
    flags = []
    excluded = sum(r["excluded"] for r in rows)
    if excluded:
        flags.append(f"{excluded} bins excluded below {min_count} samples")
    summary = {
        "n": dist.n, "coord": coord, "samples": count,
        "sampler": "gibbs" if thin else "oracle", "chains": chains,
        "burnin": 0, "thin": thin,
        "bins": len(rows), "max_abs_rho": max_abs,
        "control_max_abs_rho": control_max,
        "adjacent_corr": _pearson(mid, right), "excluded_bins": excluded}
    return ProbeResult(
        probe="markov", summary=summary,
        rows=rows, flags=tuple(flags))


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic of sorted samples of equal size: the largest
    gap between their empirical CDF counts over the pooled sample."""
    pooled = np.concatenate((a, b))
    gap = np.searchsorted(a, pooled, "right") - np.searchsorted(b, pooled, "right")
    return int(np.abs(gap).max()) / a.size


def probe_levy_sum(cfg: ExperimentConfig) -> ProbeResult:
    """Stability of centered reciprocal sums over nested windows.

    For each replicate, S(n') = sum(W)/(2n') - ln(2n') with W = 1/c
    over an interior window of n' coordinates, computed at window
    lengths n' and 2n' (the spectral-sum scale is heavy tailed, so the
    recentered sums should share one limit shape). Reports the
    two-sample KS distance, medians, and the median growth ratio of the
    raw sums. n' is cfg.window, else min(64, (m - 40) // 2) on m
    coordinates, which keeps _EDGE = 20 coordinates clear of each end;
    below 2 that falls back to m // 2, and the boundary flag is raised.
    """
    if cfg.reps < 1:
        raise ParameterError(f"levy needs reps >= 1, got {cfg.reps}")
    dist = cfg.make_dist(cfg.n_list[0])
    m = dist.n - 1
    if cfg.window is not None:
        nprime = int(cfg.window)
    else:
        nprime = min(64, (m - 2 * _EDGE) // 2)
        if nprime < 2:
            nprime = m // 2
    if nprime < 2:
        raise ParameterError(f"window must be >= 2, got {nprime}")
    if 2 * nprime > m:
        raise ParameterError(
            f"window 2*{nprime} does not fit {m} coordinates")
    lo = (m - 2 * nprime) // 2
    flags = []
    if lo < _EDGE:
        flags.append(f"window start {lo} is within {_EDGE} of a boundary")

    reps = cfg.reps
    s_half = np.empty(reps)
    s_full = np.empty(reps)
    sums_half = np.empty(reps)
    sums_full = np.empty(reps)
    for r in range(reps):
        seed = int(stream_fingerprint(cfg.seed, 7, r))
        run = run_gibbs(SamplerConfig(dist, seed=seed))
        window = run.final[lo:lo + 2 * nprime]
        with np.errstate(divide="ignore"):
            w = 1.0 / window
        sums_half[r] = np.sum(w[:nprime])
        sums_full[r] = np.sum(w)
        s_half[r] = sums_half[r] / (2.0 * nprime) - math.log(2.0 * nprime)
        s_full[r] = sums_full[r] / (4.0 * nprime) - math.log(4.0 * nprime)

    sh, sf = np.sort(s_half), np.sort(s_full)
    ks = _ks_statistic(sh, sf) if reps > 1 else float("nan")
    ratio = float(np.median(sums_full) / np.median(sums_half))
    rows = []
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        rows.append({
            "q": q,
            "s_short": float(np.quantile(sh, q)),
            "se_short": _quantile_se(sh, q),
            "s_long": float(np.quantile(sf, q)),
            "se_long": _quantile_se(sf, q),
            "count": reps})
    summary = {
        "n": dist.n, "window": nprime, "window_start": lo, "reps": reps,
        "burnin": 0, "ks": ks,
        "median_short": float(np.median(s_half)),
        "median_long": float(np.median(s_full)),
        "sum_ratio": ratio}
    return ProbeResult(
        probe="levy", summary=summary,
        rows=rows, flags=tuple(flags))


def _coverage_misses(starts: np.ndarray, k: int, m: int) -> int:
    """Runs (rows of block starts) that leave some of the m coordinates
    in no block s..s+k-1."""
    covered = np.zeros((starts.shape[0], m), dtype=bool)
    runs = np.arange(starts.shape[0])[:, None]
    for t in range(k):
        covered[runs, starts + t] = True
    return int(np.count_nonzero(~covered.all(axis=1)))


def probe_contraction(cfg: ExperimentConfig) -> ProbeResult:
    """Coalescence scaling of the coupled pair across chain sizes.

    Per n: coalescence-time statistics over cfg.reps coupled runs
    (censored at 80 n ln n updates), plus a coupon-collector check that
    the fraction of runs of t = n(ln n - c)/k random block picks that
    leave a coordinate untouched matches the classical limit law. A
    chain's block starts are i.i.d. draws of the start picker (endpoints
    weighted by w) whatever its state, so the picks are drawn straight
    from one stream per n, run by run, and no chain runs.
    """
    if cfg.reps < 1:
        raise ParameterError(f"contraction needs reps >= 1, got {cfg.reps}")
    results = []
    flags = []
    expected = coupon_miss_reference(cfg.coupon_c)
    # check every size before any run: past the pair horizon is unbounded
    plans = []
    for n in sorted(cfg.n_list):
        dist = cfg.make_dist(n)
        horizon = max(1, int(round(80.0 * dist.n * math.log(dist.n))))
        t = dist.n * (math.log(dist.n) - cfg.coupon_c) / cfg.k
        if t > horizon:
            raise ParameterError(
                f"coupon_c {cfg.coupon_c} puts the coverage check at "
                f"{t:.6g} updates for {dist.n} states, past the pair "
                f"horizon of {horizon}")
        plans.append((dist, horizon, max(1, int(round(t)))))
    for dist, horizon, t_coupon in plans:
        m = dist.n - 1
        times = []
        censored = 0
        for r in range(cfg.reps):
            seed = int(stream_fingerprint(cfg.seed, 11, dist.n, r))
            trace = run_coupled_pair(cfg.sampler_config(
                dist, seed, steps=horizon))
            if trace.coalesced_at is None:
                censored += 1
            else:
                times.append(trace.coalesced_at)
        times = np.asarray(times, dtype=float)
        got = len(times)
        if censored:
            flags.append(f"n={dist.n}: {censored} runs hit the horizon")

        picks = substream(cfg.seed, 13, dist.n)
        per = max(1, (1 << 16) // t_coupon)  # runs per draw
        misses = 0
        for r in range(0, cfg.coupon_runs, per):
            us = picks.random((min(per, cfg.coupon_runs - r), t_coupon))
            misses += _coverage_misses(
                _start_sites(us, m - cfg.k + 1, cfg.w), cfg.k, m)
        frac = misses / cfg.coupon_runs
        coupon_se = math.sqrt(max(frac * (1.0 - frac), 1e-12)
                              / cfg.coupon_runs)

        scale = dist.n * math.log(dist.n)
        results.append({
            "n": dist.n, "reps": cfg.reps, "coalesced": got,
            "censored": censored,
            "mean": float(np.mean(times)) if got else float("nan"),
            "se": float(np.std(times) / math.sqrt(got)) if got
            else float("nan"),
            "median": float(np.median(times)) if got else float("nan"),
            "q10": float(np.quantile(times, 0.1)) if got else float("nan"),
            "q90": float(np.quantile(times, 0.9)) if got else float("nan"),
            "normalized": float(np.mean(times)) / scale if got
            else float("nan"),
            "coupon_T": t_coupon, "coupon_runs": cfg.coupon_runs,
            "coupon_fraction": frac, "coupon_se": coupon_se,
            "coupon_expected": expected})

    exponent = None
    fit = [(math.log(r["n"] * math.log(r["n"])), math.log(r["mean"]))
           for r in results if r["coalesced"] and r["mean"] > 0]
    if len({x for x, _ in fit}) >= 2:
        xs, ys = zip(*fit)
        exponent = float(np.polyfit(xs, ys, 1)[0])
    summary = {
        "k": cfg.k, "w": cfg.w, "n_values": list(int(r["n"]) for r in results),
        "fitted_exponent": exponent, "coupon_c": cfg.coupon_c,
        "coupon_expected": expected}
    return ProbeResult(
        probe="contraction", summary=summary,
        rows=results, flags=tuple(flags))


PROBES = {
    "marginal": probe_marginal,
    "tail": probe_tail,
    "markov": probe_markov,
    "levy": probe_levy_sum,
    "contraction": probe_contraction,
}


# Reusable interval/tail/conditional checks. The test suite applies
# them to both Gibbs windows and the small-n rejection oracle; each
# returns (rows, violation_count) with violations judged at z SEs.

def half_interval_rows(values, intervals=None, z: float = 3.0):
    """Lower-half mass of each interval should dominate the upper half."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if intervals is None:
        intervals = [(j / 10.0, j / 10.0 + 0.2) for j in range(9)]
        intervals += [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)]
    rows = []
    bad = 0
    for a, b in intervals:
        if not 0.0 <= a < b <= 1.0:
            raise ParameterError(f"bad interval ({a}, {b})")
        mid = 0.5 * (a + b)
        p_lo = float(np.mean((values > a) & (values < mid)))
        p_hi = float(np.mean((values > mid) & (values < b)))
        # disjoint indicators: Var(p1 - p2) has a +2 p1 p2 covariance term
        se = math.sqrt((p_lo * (1 - p_lo) + p_hi * (1 - p_hi)
                        + 2 * p_lo * p_hi) / n)
        ok = p_lo >= p_hi - z * se
        bad += not ok
        rows.append({"a": a, "b": b, "p_lower": p_lo, "p_upper": p_hi,
                     "se": se, "count": n, "ok": ok})
    return rows, bad


def uniform_domination_rows(values, cap: float, xs=None, z: float = 3.0):
    """Tail of c/cap should sit below the uniform tail 1 - x."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if xs is None:
        xs = [j / 10.0 for j in range(1, 10)]
    rows = []
    bad = 0
    for x in xs:
        p = float(np.mean(values >= x * cap))
        se = math.sqrt(p * (1.0 - p) / n)
        ok = p <= (1.0 - x) + z * se
        bad += not ok
        rows.append({"x": x, "tail": p, "limit": 1.0 - x, "se": se,
                     "count": n, "ok": ok})
    return rows, bad


def small_value_rows(left, mid, right, cap_mid: float, ratio_mid: float,
                     d_values=(4, 8, 16), bins: int = 3,
                     min_count: int = 200, z: float = 3.0):
    """Conditional small-value bound for the middle of five coordinates.

    left and right are the entries two sites away on each side; the
    conditioning is on coarse quantile bins of the pair. The bound is
    (16/D) * cap; when the mass ratio at the middle site is >= 1 the
    sharper 3/(D-1) form applies as well and is reported, but only the
    16/D form counts as a violation.
    """
    left = np.asarray(left, dtype=float)
    mid = np.asarray(mid, dtype=float)
    right = np.asarray(right, dtype=float)
    edges_l = np.unique(np.quantile(left, np.linspace(0, 1, bins + 1)[1:-1]))
    edges_r = np.unique(np.quantile(right, np.linspace(0, 1, bins + 1)[1:-1]))
    bin_l = np.digitize(left, edges_l)
    bin_r = np.digitize(right, edges_r)
    rows = []
    bad = 0
    for bl in range(len(edges_l) + 1):
        for br in range(len(edges_r) + 1):
            sel = (bin_l == bl) & (bin_r == br)
            count = int(np.sum(sel))
            if count < min_count:
                rows.append({"bin_left": bl, "bin_right": br, "count": count,
                             "D": float("nan"), "prob": float("nan"),
                             "bound": float("nan"), "sharp_bound": float("nan"),
                             "se": float("nan"), "ok": True,
                             "excluded": True})
                continue
            sub = mid[sel]
            for d in d_values:
                p = float(np.mean(sub < 1.0 / d))
                se = math.sqrt(p * (1.0 - p) / count)
                bound = (16.0 / d) * cap_mid
                sharp = 3.0 / (d - 1.0) if ratio_mid >= 1.0 else float("nan")
                ok = p <= bound + z * se
                bad += not ok
                rows.append({"bin_left": bl, "bin_right": br, "count": count,
                             "D": float(d), "prob": p, "bound": bound,
                             "sharp_bound": sharp, "se": se, "ok": ok,
                             "excluded": False})
    return rows, bad
