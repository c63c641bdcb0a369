"""Acceptance gate: one test per release criterion, run at full scale.

Each test prints its measured statistic before asserting, so a failing
run still reports the number that was actually observed. Criteria 4 and
5 probe coordinate 0, whose limit law is the sine curve (CDF sin(pi x/2),
density pi/2 at 0); a mid-chain coordinate follows the interior law
instead, which test_probes.py covers. Only the `if` half of criterion 7
is expected to fail: it asks the interior-flat family's median cutoff
product to more than double from n=256 to n=1024, and the test reads
1.145. On the same kernels exact tau times the gap grows by 1.203 and
the gap times Kemeny's constant by 1.213, so the hitting-time proxy is
not what holds the ratio down. Whether the threshold or the program is
wrong is still open (ROADMAP item 11), so the criterion stays as
written.
"""

import math

import numpy as np
from scipy import stats

from conftest import (dense_gap, equilibrated_kernel, equilibration_budget,
                      solve_hitting)

from bdcutoff.analysis import (expected_hitting_time, miclo_bounds,
                               mixing_profile, pairwise_distance_profile,
                               spectral_gap)
from bdcutoff.dist import make_distribution
from bdcutoff.lab.config import ExperimentConfig
from bdcutoff.lab.ensemble import RECORD_FIELDS, record_rows, run_ensemble
from bdcutoff.lab.probes import (half_interval_rows, probe_marginal,
                                 probe_markov, probe_tail, small_value_rows,
                                 uniform_domination_rows)
from bdcutoff.lab.tableio import (parse_value, read_csv_rows, render_csv,
                                  render_json, write_table)
from bdcutoff.sampler import (SamplerConfig, collect_window, oracle_samples,
                              stream_fingerprint, substream)

TRIO = (("uniform", {}), ("geometric", {"a": 2.0}), ("binomial", {}))


def sampled_kernel(family, kw, n, seed):
    return equilibrated_kernel(make_distribution(family, n, **kw), seed)


def test_criterion_01_gap_sandwich_thousand_kernels():
    violations = 0
    worst = (0.0, 0.0, 0.0)
    for fi, (family, kw) in enumerate(TRIO):
        reps = 334 if fi == 0 else 333
        for rep in range(reps):
            kern = sampled_kernel(family, kw, 64,
                                  stream_fingerprint(1, fi, rep)).lazy(0.5)
            b = miclo_bounds(kern)
            gap = spectral_gap(kern)
            if not b.lower <= gap <= b.upper:
                violations += 1
                worst = (b.lower, gap, b.upper)
    print(f"criterion 1: {violations}/1000 kernels violate "
          f"1/(4B) <= gap <= 2/B (worst {worst})")
    assert violations == 0


def test_criterion_02_hitting_times_match_oracles():
    worst = 0.0
    for ni, n in enumerate((8, 64, 256)):
        dist = make_distribution("uniform", n)
        up_target = dist.quantile(0.75)
        down_target = dist.quantile(0.25)
        for rep in range(34 if ni == 0 else 33):
            kern = sampled_kernel("uniform", {}, n,
                                  stream_fingerprint(2, ni, rep))
            for start, target in ((0, up_target), (n - 1, down_target)):
                exact = expected_hitting_time(kern, start, target)
                ref = solve_hitting(kern, target)[start]
                worst = max(worst, abs(exact - ref) / ref)

    dist = make_distribution("uniform", 50)
    kern = sampled_kernel("uniform", {}, 50, stream_fingerprint(2, 99))
    target = dist.quantile(0.75)
    exact = expected_hitting_time(kern, 0, target)
    K = kern.dense()
    down = np.concatenate([[0.0], np.diag(K, -1)])
    up = np.concatenate([np.diag(K, 1), [0.0]])
    rng = substream(2, 100, 1)
    walkers = 10_000
    pos = np.zeros(walkers, dtype=np.int64)
    steps = np.zeros(walkers, dtype=np.int64)
    active = pos != target
    guard = 0
    while active.any():
        idx = np.nonzero(active)[0]
        u = rng.random(idx.size)
        p = pos[idx]
        pos[idx] = p + np.where(u < down[p], -1,
                                np.where(u >= 1.0 - up[p], 1, 0))
        steps[idx] += 1
        active[idx] = pos[idx] != target
        guard += 1
        assert guard < 10_000_000
    se = steps.std(ddof=1) / math.sqrt(walkers)
    z = (steps.mean() - exact) / se

    print(f"criterion 2: worst linear-solve relative error {worst:.3e} "
          f"(<= 1e-9); Monte Carlo z = {z:+.2f} (|z| <= 3)")
    assert worst <= 1e-9
    assert abs(z) <= 3.0


def test_criterion_03_small_n_sampler_exactness():
    # 2D grid test: under the triangle's area measure, (c0*(2-c0),
    # c1/(1-c0)) is a uniform pair on the unit square
    uni3 = make_distribution("uniform", 3)
    vals = collect_window(SamplerConfig(
        uni3, steps=100_000 * 2, burnin=1000, thin=2,
        seed=int(stream_fingerprint(3, 0))), [0, 1])
    c0, c1 = vals[:, 0], vals[:, 1]
    f = c0 * (2.0 - c0)
    v = c1 / (1.0 - c0)
    cells = (np.minimum((f * 5).astype(int), 4) * 4
             + np.minimum((v * 4).astype(int), 3))
    counts = np.bincount(cells, minlength=20)
    chi2 = float(((counts - 5000.0) ** 2 / 5000.0).sum())
    p_grid = float(stats.chi2.sf(chi2, 19))
    se0 = c0.std(ddof=1) / math.sqrt(len(c0))
    z_mean = (c0.mean() - 1.0 / 3.0) / se0

    p_two = {}
    for n, thin, coord in ((3, 10, 0), (6, 15, 2)):
        dist = make_distribution("uniform", n)
        gib = collect_window(SamplerConfig(
            dist, steps=60_000 * thin, burnin=1000, thin=thin,
            seed=int(stream_fingerprint(3, n))), [coord])[:, 0]
        ora = oracle_samples(dist, 60_000, substream(3, n, 1))[:, coord]
        edges = np.linspace(0.0, 1.0, 21)
        h1 = np.histogram(gib, edges)[0]
        h2 = np.histogram(ora, edges)[0]
        keep = (h1 + h2) > 0
        p_two[n] = float(stats.chi2_contingency(
            np.vstack([h1[keep], h2[keep]]))[1])

    print(f"criterion 3: grid chi2 = {chi2:.2f} (p = {p_grid:.3f}), "
          f"E[c0] z = {z_mean:+.2f}, sampler-vs-oracle p = "
          f"{p_two[3]:.3f} (n=3) / {p_two[6]:.3f} (n=6)")
    assert p_grid > 0.001
    assert abs(z_mean) <= 3.0
    assert p_two[3] > 0.001 and p_two[6] > 0.001


def test_criterion_04_limit_marginal_sine_law():
    res = probe_marginal(ExperimentConfig(
        n_list=(200,), coord=0, probe_samples=100_000, seed=4))
    ks = res.summary["ks"]
    print(f"criterion 4: coordinate 0 KS vs the edge law sin(pi x/2) = "
          f"{ks:.4f} (required <= 0.03; distance to the interior law is "
          f"{res.summary['ks_interior']:.4f})")
    assert ks <= 0.03


def test_criterion_05_tail_constant_and_monotonicity():
    res = probe_tail(ExperimentConfig(
        n_list=(200,), coord=0, probe_samples=20_000, seed=5))
    f_last = res.summary["f_last"]
    print(f"criterion 5: coordinate 0 f(20) = {f_last:.3f} (required "
          f"[1.42, 1.72] around the edge density pi/2 at 0), "
          f"monotonicity violations = {res.summary['monotone_violations']}")
    assert res.summary["monotone_violations"] == 0
    assert 1.42 <= f_last <= 1.72


def _structural_checks(dist, vals, start):
    mid = start + 2
    cap = float(dist.caps[mid])
    ratio = float(dist.ratios[mid])
    _, bad_half = half_interval_rows(vals[:, 2])
    _, bad_dom = uniform_domination_rows(vals[:, 2], cap)
    _, bad_small = small_value_rows(vals[:, 0], vals[:, 2], vals[:, 4],
                                    cap_mid=cap, ratio_mid=ratio)
    return bad_half + bad_dom + bad_small


def test_criterion_06_structural_bounds_and_markov_property():
    oracle = probe_markov(ExperimentConfig(
        n_list=(8,), probe_samples=1_000_000, seed=3))
    gibbs = probe_markov(ExperimentConfig(
        n_list=(200,), probe_samples=600_000, seed=6))
    rho_oracle = oracle.summary["max_abs_rho"]
    rho_gibbs = gibbs.summary["max_abs_rho"]

    bad = 0
    for fi, (family, kw) in enumerate(TRIO):
        n = 10 if family == "binomial" else 8
        dist = make_distribution(family, n, **kw)
        start = 4 if family == "binomial" else 1
        full = oracle_samples(dist, 200_000, substream(77, fi, n))
        bad += _structural_checks(dist, full[:, start:start + 5], start)

        dist = make_distribution(family, 200, **kw)
        start = 130 if family == "binomial" else 97
        vals = collect_window(SamplerConfig(
            dist, steps=200_000 * 199, burnin=equilibration_budget(200),
            thin=199, seed=int(stream_fingerprint(78, fi))),
            list(range(start, start + 5)))
        bad += _structural_checks(dist, vals, start)

    print(f"criterion 6: max binned |rho| = {rho_oracle:.4f} (oracle) / "
          f"{rho_gibbs:.4f} (n=200 sampler), tolerance 0.02; "
          f"interval/tail/small-value violations = {bad}")
    assert rho_oracle <= 0.02
    assert rho_gibbs <= 0.02
    assert bad == 0


def _median_products(cfg):
    records = run_ensemble(cfg)
    assert all(r.error == "" for r in records)
    return {n: float(np.median([r.cutoff_product for r in records
                                if r.n == n]))
            for n in cfg.n_list}


def test_criterion_07_cutoff_product_trend_dichotomy():
    med_u = _median_products(ExperimentConfig(
        n_list=(256, 512, 1024), reps=200, seed=7))
    med_if = _median_products(ExperimentConfig(
        family="if", n_list=(256, 512, 1024), eps=0.25, a=2.0,
        reps=200, seed=7))
    ratio_u = med_u[1024] / med_u[256]
    ratio_if = med_if[1024] / med_if[256]
    print(f"criterion 7: flat-mass medians "
          f"{med_u[256]:.3f}/{med_u[512]:.3f}/{med_u[1024]:.3f} "
          f"(ratio {ratio_u:.3f}, required < 3); interior-flat medians "
          f"{med_if[256]:.3f}/{med_if[512]:.3f}/{med_if[1024]:.3f} "
          f"(ratio {ratio_if:.3f}, required > 2)")
    assert ratio_u < 3.0
    assert ratio_if > 2.0


def test_criterion_08_interior_flat_mixing_window():
    records = run_ensemble(ExperimentConfig(
        family="if", n_list=(2048,), eps=0.25, a=2.0, reps=200, seed=8))
    assert all(r.error == "" for r in records)
    scale = 2048.0 * math.log(2048.0)
    vals = np.array([r.tau_or_proxy / scale for r in records])
    lo = 1.0 / (12.0 * math.sqrt(2.0) * math.pi) - 0.01
    hi = 96.0 + 1.0
    frac = float(np.mean((vals >= lo) & (vals <= hi)))
    print(f"criterion 8: {frac:.3f} of 200 replicates inside "
          f"[{lo:.4f}, {hi}] (required >= 0.95); "
          f"min {vals.min():.2f}, median {np.median(vals):.2f}, "
          f"max {vals.max():.2f}")
    assert frac >= 0.95


def test_criterion_09_window_shape_constant():
    worst = 0.0
    for rep in range(100):
        kern = sampled_kernel("uniform", {}, 64,
                              stream_fingerprint(9, 64, rep)).lazy(0.5)
        prof = mixing_profile(kern, [0.1, 0.25, 0.9])
        gap = spectral_gap(kern)
        stat = (prof[0.1] - prof[0.9]) / math.sqrt(prof[0.25] / gap)
        worst = max(worst, stat)
    print(f"criterion 9: max (tau(0.1) - tau(0.9)) / sqrt(tau(1/4)/gap) "
          f"= {worst:.3f} (required <= 50)")
    assert worst <= 50.0


def test_criterion_10_submultiplicative_and_monotone():
    tmax = 1500
    worst_excess = -1.0
    worst_step = -1.0
    for rep in range(20):
        kern = sampled_kernel("uniform", {}, 32,
                              stream_fingerprint(10, rep)).lazy(0.5)
        d = pairwise_distance_profile(kern, tmax)
        for s in range(1, tmax):
            excess = np.max(d[s + 1:tmax + 1] - d[s] * d[1:tmax + 1 - s])
            worst_excess = max(worst_excess, float(excess))
        K = kern.dense()
        pi = kern.dist.mass
        for start in (0, kern.n - 1):
            v = np.zeros(kern.n)
            v[start] = 1.0
            prev = 0.5 * np.abs(v - pi).sum()
            for _ in range(tmax):
                v = v @ K
                tv = 0.5 * np.abs(v - pi).sum()
                worst_step = max(worst_step, tv - prev)
                prev = tv
    print(f"criterion 10: worst submultiplicativity excess "
          f"{worst_excess:.2e} (<= 1e-10); worst TV increase "
          f"{worst_step:.2e} (<= 1e-12)")
    assert worst_excess <= 1e-10
    assert worst_step <= 1e-12


def test_criterion_11_deterministic_output(tmp_path):
    cfg = dict(n_list=(16,), reps=4, exact_tau=True, seed=11)
    rows1 = record_rows(run_ensemble(ExperimentConfig(**cfg)))
    rows2 = record_rows(run_ensemble(ExperimentConfig(**cfg)))
    rows3 = record_rows(run_ensemble(ExperimentConfig(**cfg, workers=3)))
    csv1 = render_csv(RECORD_FIELDS, rows1)
    assert csv1 == render_csv(RECORD_FIELDS, rows2)
    assert csv1 == render_csv(RECORD_FIELDS, rows3)
    assert render_json(RECORD_FIELDS, rows1) == render_json(RECORD_FIELDS,
                                                            rows3)

    path = tmp_path / "ensemble.csv"
    write_table(str(path), RECORD_FIELDS, rows1)
    back = read_csv_rows(str(path))
    assert len(back) == len(rows1)
    for raw, orig in zip(back, rows1):
        for key, value in orig.items():
            got = parse_value(raw[key], type(value))
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(got)
            else:
                assert got == value
    print("criterion 11: byte-identical CSV/JSON across reruns and "
          "worker counts; lossless round-trip of every field")
