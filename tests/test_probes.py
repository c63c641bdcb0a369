"""Diagnostic probes: marginal law, tails, conditional independence,
reciprocal sums, coalescence scaling, and the reusable row checkers."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import flat_marginal_cdf

from bdcutoff.dist import make_distribution
from bdcutoff.errors import ParameterError
from bdcutoff.lab.config import ExperimentConfig
from bdcutoff.lab.probes import (PROBES, SIN_REFERENCE_MEDIAN,
                                 _coverage_misses, _ks_statistic,
                                 batch_means_ess,
                                 coupon_miss_reference, half_interval_rows,
                                 interior_reference_cdf, probe_contraction,
                                 probe_levy_sum, probe_marginal,
                                 probe_markov, probe_tail,
                                 sin_reference_cdf, small_value_rows,
                                 uniform_domination_rows)
from bdcutoff import sampler
from bdcutoff.sampler import oracle_samples, substream


def test_sine_reference_curve():
    assert sin_reference_cdf(0.0) == 0.0
    assert sin_reference_cdf(1.0) == pytest.approx(1.0)
    assert sin_reference_cdf(SIN_REFERENCE_MEDIAN) == pytest.approx(0.5)
    assert sin_reference_cdf(1.5) == pytest.approx(1.0)  # clipped
    xs = np.linspace(0, 1, 50)
    assert np.all(np.diff(sin_reference_cdf(xs)) > 0)


def test_interior_reference_curve():
    assert interior_reference_cdf(0.0) == 0.0
    assert interior_reference_cdf(1.0) == pytest.approx(1.0)
    assert interior_reference_cdf(0.5) == pytest.approx(0.5 + 1.0 / math.pi)
    # median sits near 0.26, well below the sine curve's 1/3
    assert interior_reference_cdf(0.26) < 0.5 < interior_reference_cdf(0.27)


def test_quadrature_marginal_matches_oracle_and_limit_curves():
    # n = 12: the sampler-free quadrature law against exact rejection
    # samples, coordinate 0 (edge) and 5 (middle of 11)
    dist = make_distribution("uniform", 12)
    full = oracle_samples(dist, 20000, substream(71))
    edges = np.linspace(0.0, 1.0, 21)
    cdfs = {coord: flat_marginal_cdf(12, coord) for coord in (0, 5)}
    for coord in (0, 5):
        counts = np.histogram(full[:, coord], edges)[0]
        for law, cdf in cdfs.items():
            expected = np.diff(cdf(edges)) * counts.sum()
            p = stats.chisquare(counts, expected).pvalue
            if law == coord:
                assert p > 0.001
            else:  # the other coordinate's law is told apart
                assert p < 1e-6
    # n = 200: the edge law is the sine curve, the middle one the
    # interior curve, each up to quadrature error
    x = np.linspace(0.0, 1.0, 1001)
    edge = flat_marginal_cdf(200, 0)(x)
    middle = flat_marginal_cdf(200, 99)(x)
    assert np.max(np.abs(edge - sin_reference_cdf(x))) < 1e-8
    assert np.max(np.abs(middle - interior_reference_cdf(x))) < 1e-8
    assert np.max(np.abs(edge - interior_reference_cdf(x))) > 0.1


def test_coupon_reference_values():
    assert coupon_miss_reference(1.0) == pytest.approx(
        1.0 - math.exp(-math.e), rel=1e-12)
    assert coupon_miss_reference(0.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert coupon_miss_reference(5.0) > coupon_miss_reference(1.0)


def test_probes_registry():
    assert set(PROBES) == {"marginal", "tail", "markov", "levy",
                           "contraction"}


def test_marginal_edge_coordinate_follows_sine_curve():
    res = probe_marginal(ExperimentConfig(
        n_list=(64,), coord=0, probe_samples=40_000, seed=301))
    assert res.summary["ks"] < 0.07
    assert res.summary["ks_interior"] > 0.10
    assert abs(res.summary["empirical_median"] - SIN_REFERENCE_MEDIAN) < 0.04
    assert any("boundary" in f for f in res.flags)
    assert len(res.rows) == 20
    assert all(r["abs_gap"] == pytest.approx(
        abs(r["empirical"] - r["reference"])) for r in res.rows)


def test_marginal_interior_coordinate_follows_interior_curve():
    res = probe_marginal(ExperimentConfig(
        n_list=(64,), probe_samples=4000, seed=302))
    assert res.summary["coord"] == 31
    assert res.summary["ks_interior"] < 0.05
    assert res.summary["ks"] > 0.10
    assert res.flags == ()


def test_marginal_coordinate_validation():
    with pytest.raises(ParameterError):
        probe_marginal(ExperimentConfig(n_list=(64,), coord=63))


def test_probe_windows_share_coordinate_and_thin_rules():
    # 63 coordinates at k = 2: a quarter refresh interval is 63 // 8,
    # markov's full one 63 // 2; probe_thin overrides both
    base = dict(n_list=(64,), k=2, probe_samples=200, seed=306)
    for probe_thin, thins in ((None, (7, 7, 31)), (5, (5, 5, 5))):
        cfg = ExperimentConfig(probe_thin=probe_thin, **base)
        got = [probe(cfg).summary
               for probe in (probe_marginal, probe_tail, probe_markov)]
        assert tuple(s["thin"] for s in got) == thins
        assert {s["coord"] for s in got} == {31}
        assert {s["burnin"] for s in got} == {0}
        assert {s["samples"] for s in got} == {200}
    for bad in (dict(k=0), dict(probe_thin=0)):
        with pytest.raises(ParameterError):
            ExperimentConfig(**bad)


def test_tail_interior_density_limit():
    res = probe_tail(ExperimentConfig(
        n_list=(64,), probe_samples=8000, seed=303))
    assert res.summary["monotone_violations"] == 0
    assert res.summary["bound_violations"] == 0
    assert 1.7 <= res.summary["f_last"] <= 2.4
    assert res.summary["limit_target_interior"] == 2.0
    assert res.summary["limit_target"] == pytest.approx(math.pi / 2.0)
    assert res.flags == ()
    for row in res.rows:
        assert row["bound"] == 16.0  # flat mass: cap is 1
        assert row["f"] == pytest.approx(row["x"] * row["prob"])


def test_batch_means_ess():
    # independent draws: close to the sample count
    draws = oracle_samples(make_distribution("uniform", 12), 20000,
                           substream(7))
    for coord in (0, 5):
        ess = batch_means_ess(draws[:, coord])
        assert 0.8 * 20000 <= ess <= 20000
    # a chain that repeats each value 10 times: about a tenth
    assert batch_means_ess(np.repeat(draws[:2000, 5], 10)) < 0.2 * 20000
    assert batch_means_ess(np.ones(100)) == 100.0
    assert batch_means_ess(np.arange(3.0)) == 3.0


def test_probe_ess_reflects_autocorrelation():
    cfg = ExperimentConfig(n_list=(64,), probe_samples=4000, seed=304)
    for probe in (probe_marginal, probe_tail):
        summary = probe(cfg).summary
        # a quarter-sweep thin leaves the coordinate unchanged most steps
        assert 0.0 < summary["ess"] < 0.5 * summary["samples"]


def _se_over_spread(**settings):
    """Coordinate 0: the mean reported se of f(20) over 96 seeds, over
    the spread of f(20) itself."""
    f, se = [], []
    for seed in range(96):
        row = probe_tail(ExperimentConfig(coord=0, seed=seed,
                                          **settings)).rows[-1]
        assert row["x"] == 20.0
        f.append(row["f"])
        se.append(row["se"])
    return float(np.mean(se)) / float(np.std(f, ddof=1))


def test_probe_se_matches_seed_to_seed_spread():
    # n = 200. The sample SD of s seeds is off by about 1/sqrt(2(s - 1)):
    # 15% at 24 seeds, where blocks of 24 seeds gave ratios of 0.76-1.21
    # (0.985 over 240), and 7% at 96, so that the 20% band is about 3 of
    # its errors wide
    ratio = _se_over_spread(n_list=(200,))
    assert 0.8 <= ratio <= 1.2, ratio


def test_block_probe_se_matches_seed_to_seed_spread():
    # the same band for a k = 2 window of block chains, n = 40
    ratio = _se_over_spread(n_list=(40,), k=2, probe_samples=2000)
    assert 0.8 <= ratio <= 1.2, ratio


@pytest.mark.parametrize("samples", [1, sampler._WINDOW_CHAINS - 1])
def test_probes_run_with_fewer_rows_than_chains(samples):
    # one chain a row, none empty, at every k; se is nan below two chains
    for k in (1, 2):
        cfg = ExperimentConfig(n_list=(64,), k=k, probe_samples=samples,
                               seed=307)
        for probe in (probe_marginal, probe_tail, probe_markov):
            res = probe(cfg)
            assert res.summary["samples"] == samples
            assert res.summary["chains"] == samples
        for probe in (probe_marginal, probe_tail):
            ses = [r["se"] for r in probe(cfg).rows]
            assert all(math.isnan(v) for v in ses) == (samples == 1)
            assert all(v >= 0.0 for v in ses if not math.isnan(v))
        # a nan se flags no cap or monotonicity violation
        assert probe_tail(cfg).summary["bound_violations"] == 0


def test_tail_grid_validation():
    with pytest.raises(ParameterError):
        probe_tail(ExperimentConfig(n_list=(64,), tail_grid=()))
    with pytest.raises(ParameterError):
        probe_tail(ExperimentConfig(n_list=(64,), tail_grid=(0.0, 5.0)))


def test_markov_oracle_conditional_independence():
    res = probe_markov(ExperimentConfig(
        n_list=(8,), probe_samples=30000, seed=304))
    assert res.summary["sampler"] == "oracle"
    assert res.summary["excluded_bins"] == 0
    assert res.summary["max_abs_rho"] < 0.08
    assert res.summary["control_max_abs_rho"] < 0.08
    # raw neighbors are genuinely anticorrelated, so the small binned
    # correlations are not a triviality
    assert res.summary["adjacent_corr"] < -0.2


def test_markov_validation():
    with pytest.raises(ParameterError):
        probe_markov(ExperimentConfig(n_list=(5,)))
    with pytest.raises(ParameterError):
        probe_markov(ExperimentConfig(n_list=(8,), coord=0))


def test_levy_sum_windows_share_shape():
    res = probe_levy_sum(ExperimentConfig(
        n_list=(200,), window=32, reps=60, seed=305))
    assert res.summary["ks"] < 0.3
    assert 2.0 <= res.summary["sum_ratio"] <= 3.0
    assert len(res.rows) == 5
    assert all(r["count"] == 60 for r in res.rows)
    assert res.flags == ()


def test_levy_ks_statistic_equals_scipy():
    # bit-equal to ks_2samp, whose exact mode rounds to a multiple of 1/reps
    rng = np.random.default_rng(12)
    for size in (2, 3, 10, 101, 2000):
        cont = rng.normal(size=size)
        pairs = [(cont, rng.normal(0.2, 1.3, size)), (cont, cont),
                 (rng.integers(0, 4, size) * 0.5, rng.integers(1, 5, size) * 0.5),
                 (np.append(cont[1:], np.inf), cont + 0.01)]
        for a, b in pairs:
            got = _ks_statistic(np.sort(a), np.sort(b))
            assert got == stats.ks_2samp(a, b).statistic


def test_levy_window_validation():
    with pytest.raises(ParameterError):
        probe_levy_sum(ExperimentConfig(n_list=(64,), window=32))
    with pytest.raises(ParameterError):
        probe_levy_sum(ExperimentConfig(n_list=(200,), window=1))


def test_contraction_scaling_and_coverage():
    res = probe_contraction(ExperimentConfig(
        n_list=(32, 64), reps=30, coupon_runs=100, seed=77))
    assert res.summary["n_values"] == [32, 64]
    assert 0.7 <= res.summary["fitted_exponent"] <= 1.4
    for row in res.rows:
        assert row["censored"] == 0
        assert row["coalesced"] == 30
        assert 0.3 <= row["normalized"] <= 5.0
        assert abs(row["coupon_fraction"] - row["coupon_expected"]) < 0.11
    assert res.flags == ()


def test_coverage_misses_count_uncovered_runs():
    # 4 coordinates, blocks of 2 (starts 0..2): a run misses when some
    # coordinate is in no block s..s+1
    starts = np.array([[0, 2], [1, 1], [0, 0], [2, 0]])
    assert _coverage_misses(starts, 2, 4) == 2
    assert _coverage_misses(np.array([[0, 1, 2], [2, 0, 0]]), 1, 3) == 1


def test_contraction_coverage_from_picks_at_k2():
    # k = 2 on 31 coordinates: the coupon miss fraction against its limit
    # 1 - exp(-e) = 0.934 at c = 1 (finite n sits a little below it)
    res = probe_contraction(ExperimentConfig(
        n_list=(32,), k=2, reps=2, coupon_runs=4000, seed=78))
    row = res.rows[0]
    assert row["coupon_T"] == 39
    assert abs(row["coupon_fraction"] - row["coupon_expected"]) < 0.03
    assert row["coupon_se"] < 0.005


UNI8 = make_distribution("uniform", 8)


def test_half_interval_checker_on_oracle():
    full = oracle_samples(UNI8, 40000, substream(70))
    rows, bad = half_interval_rows(full[:, 3])
    assert bad == 0 and len(rows) == 12
    with pytest.raises(ParameterError):
        half_interval_rows(full[:, 3], intervals=[(0.5, 0.5)])


def test_uniform_domination_checker_on_oracle():
    full = oracle_samples(UNI8, 40000, substream(70))
    rows, bad = uniform_domination_rows(full[:, 3], 1.0)
    assert bad == 0 and len(rows) == 9
    for row in rows:
        assert row["limit"] == pytest.approx(1.0 - row["x"])


def test_small_value_checker_on_oracle():
    full = oracle_samples(UNI8, 40000, substream(70))
    rows, bad = small_value_rows(full[:, 1], full[:, 3], full[:, 5],
                                 cap_mid=1.0, ratio_mid=1.0)
    assert bad == 0
    kept = [r for r in rows if not r["excluded"]]
    assert kept
    for row in kept:
        assert row["sharp_bound"] == pytest.approx(3.0 / (row["D"] - 1.0))
