"""Gibbs sampler: conditionals, block updates, oracle, coupled pairs."""

import math

import numpy as np
import pytest
from scipy import stats

from bdcutoff import sampler
from bdcutoff.dist import make_distribution
from bdcutoff.errors import ParameterError, StallError
from bdcutoff.kernel import SuperDiagState, check_feasibility
from bdcutoff.sampler import (CoupledTrace, SamplerConfig, acceptance_rate,
                              collect_window, conditional_interval,
                              default_initial_state, greedy_max_state,
                              oracle_sample, oracle_samples, run_coupled_pair,
                              run_gibbs, site_update, block_update,
                              stream_fingerprint, substream)

UNI3 = make_distribution("uniform", 3)
UNI4 = make_distribution("uniform", 4)


def triangle_cells(c0, c1):
    """Map triangle points to 20 equal-probability cells.

    F(c0) = c0*(2 - c0) is the exact marginal CDF and c1/(1 - c0) the
    conditional quantile, so a uniform triangle sample lands uniformly
    on the 5x4 grid.
    """
    fu = c0 * (2.0 - c0)
    v = c1 / (1.0 - c0)
    cell = (np.minimum((fu * 5).astype(int), 4) * 4
            + np.minimum((v * 4).astype(int), 3))
    return np.bincount(cell, minlength=20)


# conditional intervals

def test_conditional_interval_free_site():
    state = SuperDiagState(UNI4, np.zeros(3))
    assert conditional_interval(state, 1) == (0.0, 1.0)


def test_conditional_interval_uniform_neighbors():
    state = SuperDiagState(UNI4, np.array([0.3, 0.0, 0.5]))
    lo, hi = conditional_interval(state, 1)
    assert lo == 0.0 and hi == pytest.approx(0.5, abs=1e-15)


def test_conditional_interval_geometric():
    geo = make_distribution("geometric", 4, a=2.0)
    state = SuperDiagState(geo, np.array([0.4, 0.0, 0.8]))
    lo, hi = conditional_interval(state, 1)
    assert lo == 0.0 and hi == pytest.approx(0.4, abs=1e-15)


def test_conditional_interval_bounds():
    state = SuperDiagState(UNI4, np.zeros(3))
    with pytest.raises(IndexError):
        conditional_interval(state, 3)
    with pytest.raises(IndexError):
        conditional_interval(state, -1)


# single-site updates

def test_site_update_pinched_interval_is_deterministic():
    state = SuperDiagState(UNI3, np.array([1.0, 0.0]))
    out = site_update(state, 1, substream(30))
    assert out.c[1] == 0.0


def test_site_update_chain_mean():
    # triangle marginal has mean 1/3
    vals = collect_window(SamplerConfig(UNI3, steps=30000 * 3, burnin=300,
                                        thin=3, seed=31), [0])
    mean = float(vals.mean())
    se = float(vals.std()) / math.sqrt(vals.size)
    assert abs(mean - 1.0 / 3.0) <= 3.0 * se


def test_site_update_uniform_on_interval():
    base = SuperDiagState(UNI4, np.array([0.3, 0.0, 0.5]))
    rng = substream(32)
    vals = np.array([site_update(base, 1, rng).c[1] for _ in range(100_000)])
    ks = stats.kstest(vals, stats.uniform(loc=0.0, scale=0.5).cdf).statistic
    assert ks <= 0.01


# block updates

def test_block_size_one_matches_site_update_law():
    base = SuperDiagState(UNI4, np.array([0.3, 0.0, 0.5]))
    r1, r2 = substream(33), substream(33, 1)
    a = np.array([site_update(base, 1, r1).c[1] for _ in range(50_000)])
    b = np.array([block_update(base, 1, 1, r2).c[1] for _ in range(50_000)])
    edges = np.linspace(0.0, 0.5, 21)
    table = np.vstack([np.histogram(a, edges)[0], np.histogram(b, edges)[0]])
    assert stats.chi2_contingency(table).pvalue > 0.001


def test_full_block_respects_triangle():
    base = SuperDiagState(UNI3, np.zeros(2))
    rng = substream(34)
    draws = np.array([block_update(base, 0, 2, rng).c for _ in range(20_000)])
    assert np.all(draws.sum(axis=1) <= 1.0)


def test_full_block_matches_triangle_geometry():
    base = SuperDiagState(UNI3, np.zeros(2))
    rng = substream(35)
    draws = np.array([block_update(base, 0, 2, rng).c for _ in range(100_000)])
    counts = triangle_cells(draws[:, 0], draws[:, 1])
    assert stats.chisquare(counts).pvalue > 0.001


def test_block_update_stall_reports_block():
    # c0 = 1 pins coordinate 1 to a zero-width slab; box proposals for
    # the block (1, 2) can never land on it
    state = SuperDiagState(UNI4, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(StallError) as err:
        block_update(state, 1, 2, substream(36), max_tries=25)
    assert err.value.block_index == 1
    assert err.value.tries == 25


def test_block_update_argument_checks():
    state = SuperDiagState(UNI4, np.zeros(3))
    with pytest.raises(ParameterError):
        block_update(state, 0, 4, substream(0))
    with pytest.raises(IndexError):
        block_update(state, 2, 2, substream(0))


# full runs

def test_run_gibbs_zero_steps_keeps_initial():
    init = np.array([0.2, 0.1])
    trace = run_gibbs(SamplerConfig(dist=UNI3, steps=0), initial=init)
    assert trace.samples.shape == (0, 2)
    assert np.array_equal(trace.final, init)


def test_run_gibbs_deterministic_in_seed():
    cfg = SamplerConfig(dist=make_distribution("uniform", 9), steps=500,
                        burnin=50, thin=7, seed=123)
    t1, t2 = run_gibbs(cfg), run_gibbs(cfg)
    assert np.array_equal(t1.samples, t2.samples)
    assert np.array_equal(t1.final, t2.final)
    t3 = run_gibbs(SamplerConfig(dist=cfg.dist, steps=500, burnin=50,
                                 thin=7, seed=124))
    assert not np.array_equal(t1.final, t3.final)


@pytest.mark.parametrize("family,kw,k", [
    ("uniform", {}, 1),
    ("geometric", {"a": 2.0}, 3),
    ("binomial", {}, 2),
])
def test_run_gibbs_samples_stay_feasible(family, kw, k):
    dist = make_distribution(family, 12, **kw)
    cfg = SamplerConfig(dist=dist, k=k, w=2.0, steps=3000, burnin=200,
                        thin=30, seed=5)
    trace = run_gibbs(cfg)
    assert trace.samples.shape == (100, 11)
    for row in trace.samples:
        assert check_feasibility(dist, row) is None
    assert check_feasibility(dist, trace.final) is None
    assert trace.update_counts.sum() == 3200
    assert trace.block_tries >= trace.block_updates


def test_run_gibbs_collector_bypasses_storage():
    got = []
    cfg = SamplerConfig(dist=UNI3, steps=40, thin=4, seed=9)
    trace = run_gibbs(cfg, collector=lambda s: got.append(list(s)))
    assert trace.samples.shape == (0, 2)
    assert len(got) == 10


def test_endpoint_weighting():
    # first block start carries probability w / (nstarts - 2 + 2w)
    cfg = SamplerConfig(dist=make_distribution("uniform", 8), w=5.0,
                        steps=20000, seed=77)
    trace = run_gibbs(cfg)
    p = 5.0 / (5 + 2 * 5.0)
    freq = trace.update_counts[0] / trace.update_counts.sum()
    assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / 20000)
    assert trace.update_counts[0] == pytest.approx(
        trace.update_counts[-1], rel=0.1)


def test_sampler_config_validation():
    with pytest.raises(ParameterError):
        SamplerConfig(dist=UNI3, k=0)
    with pytest.raises(ParameterError):
        SamplerConfig(dist=UNI3, k=3)     # only 2 coordinates
    with pytest.raises(ParameterError):
        SamplerConfig(dist=UNI3, w=0.0)
    with pytest.raises(ParameterError):
        SamplerConfig(dist=UNI3, steps=-1)
    with pytest.raises(ParameterError):
        SamplerConfig(dist=UNI3, thin=0)
    with pytest.raises(ParameterError):
        run_gibbs(SamplerConfig(dist=UNI3), initial=np.zeros(5))


def test_default_states_are_feasible():
    for family, kw in (("uniform", {}), ("geometric", {"a": 3.0}),
                       ("binomial", {}), ("if", {"eps": 0.3, "a": 2.0})):
        dist = make_distribution(family, 15, **kw)
        assert check_feasibility(dist, default_initial_state(dist)) is None
        assert check_feasibility(dist, greedy_max_state(dist)) is None


def test_collect_window_shape():
    vals = collect_window(SamplerConfig(UNI4, steps=50 * 2, burnin=10,
                                        thin=2, seed=1), [0, 2])
    assert vals.shape == (50, 2)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# numpy replay of the k = 1 chain

def _both_paths(monkeypatch, run):
    """run() on the scalar loop, then on the numpy replay, whatever the
    coordinate count."""
    out = []
    for threshold in (1 << 62, 1):
        monkeypatch.setattr(sampler, "_REPLAY_MIN_SITES", threshold)
        out.append(run())
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _sized(family, m):
    """A family's distribution with about m coordinates (if: m even)."""
    if family == "if":
        return make_distribution("if", m // 2 + 1, a=2.0, eps=0.25)
    if family == "geometric":
        return make_distribution("geometric", m + 1, a=1.5)
    if family == "explicit":
        mass = substream(4, m).random(m + 1) + 0.05
        return make_distribution("explicit", m + 1, mass=mass / mass.sum())
    return make_distribution(family, m + 1)


@pytest.mark.parametrize("family,m", [
    (family, m)
    for family in ("uniform", "geometric", "binomial", "if", "explicit")
    for m in (1, 2, 3, sampler._REPLAY_MIN_SITES - 1,
              sampler._REPLAY_MIN_SITES + 1, 255)
    if not (family == "if" and m == 1)])  # if: m is even
def test_replay_is_bit_identical_to_scalar_loop(monkeypatch, family, m):
    dist = _sized(family, m)
    for w in (0.25, 1.0, 4.0):
        # 69 001 updates cross the 65 536-update batch; 9001 % 7 != 0
        cfg = SamplerConfig(dist, w=w, burnin=60000, steps=9001, thin=7,
                            seed=int(m * 10 + 4 * w))
        scalar, replay = _both_paths(monkeypatch, lambda: run_gibbs(cfg))
        assert _same_bits(scalar.final, replay.final)
        assert _same_bits(scalar.samples, replay.samples)
        assert scalar.samples.shape == (9001 // 7, dist.n - 1)
        assert np.array_equal(scalar.update_counts, replay.update_counts)
        assert scalar.update_counts.dtype == replay.update_counts.dtype
        assert np.array_equal(scalar.acceptance_stats,
                              replay.acceptance_stats)
        assert scalar.block_tries == replay.block_tries == 69001


def test_replay_collector_and_start_match_scalar_loop(monkeypatch):
    dist = make_distribution("uniform", 200)
    cfg = SamplerConfig(dist, burnin=5000, steps=49 * 2000, thin=49, seed=8)
    start = greedy_max_state(dist)
    scalar, replay = _both_paths(
        monkeypatch, lambda: collect_window(cfg, [0, 99, 198], initial=start))
    assert scalar.shape == (2000, 3)
    assert _same_bits(scalar, replay)


def test_start_sites_match_picker():
    edge = np.nextafter(1.0, 0.0)
    us = np.concatenate(([0.0, edge], substream(2).random(2000)))
    # at nstarts 19, w 7.3 the largest uniform rounds one past the
    # interior range, so the clamp is exercised
    for nstarts, w in [(n, w) for n in (1, 2, 3, 7, 300)
                       for w in (0.25, 1.0, 4.0)] + [(19, 7.3)]:
        pick = sampler._start_picker(nstarts, w)
        want = [pick(float(u)) for u in us]
        assert sampler._start_sites(us, nstarts, w).tolist() == want


# rejection oracle

def test_oracle_two_states_is_uniform_on_cap():
    dist = make_distribution("explicit", 2, mass=(0.6, 0.4))
    vals = oracle_samples(dist, 40_000, substream(43))[:, 0]
    cap = 2.0 / 3.0
    ks = stats.kstest(vals, stats.uniform(loc=0.0, scale=cap).cdf).statistic
    assert ks <= 0.01


def test_oracle_triangle_mean():
    vals = oracle_samples(UNI3, 100_000, substream(44))[:, 0]
    se = float(vals.std()) / math.sqrt(vals.size)
    assert abs(float(vals.mean()) - 1.0 / 3.0) <= 3.0 * se


def test_oracle_acceptance_rate_near_half():
    rate = acceptance_rate(UNI3, 100_000, substream(45))
    assert abs(rate - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)


def test_acceptance_rate_matches_scalar_reference():
    # the same box draws, judged one proposal at a time by the chained
    # row constraints; m = 1 has none, so every draw is accepted
    for dist in (make_distribution("explicit", 2, mass=(0.6, 0.4)), UNI4,
                 make_distribution("geometric", 6, a=2.0),
                 make_distribution("binomial", 6),
                 make_distribution("if", 3, a=2.0, eps=0.5)):
        m = dist.n - 1
        rec = [1.0 / r for r in dist.ratios.tolist()]
        box = substream(47).random((4000, m)) * dist.caps
        hits = sum(all(c[i] <= 1.0 - c[i - 1] * rec[i - 1]
                       for i in range(1, m)) for c in box.tolist())
        assert acceptance_rate(dist, 4000, substream(47)) == hits / 4000


def test_oracle_sample_is_feasible():
    state = oracle_sample(make_distribution("binomial", 8), substream(46))
    assert check_feasibility(state.dist, state.c) is None


# coupled pairs

def test_coupled_identical_start_coalesces_immediately():
    dist = make_distribution("uniform", 6)
    init = default_initial_state(dist)
    trace = run_coupled_pair(
        SamplerConfig(dist=dist, steps=50, seed=8),
        initial_pair=(init, init.copy()))
    assert isinstance(trace, CoupledTrace)
    assert trace.coalesced_at == 0
    assert trace.distances.size == 0
    assert np.array_equal(trace.final_pair[0], trace.final_pair[1])


def test_coupled_distance_is_bounded_coordinate_count():
    dist = make_distribution("uniform", 16)
    trace = run_coupled_pair(
        SamplerConfig(dist=dist, steps=2000, thin=5, seed=11))
    assert np.all(trace.distances <= 15)
    assert np.all(trace.distances >= 0)


def test_coupled_coalescence_scales_like_coupon_collection():
    """Mean merge time over 200 runs stays within a fixed O(n log n) band."""
    for n in (32, 64, 128):
        dist = make_distribution("uniform", n)
        horizon = int(80 * n * math.log(n))
        times = []
        for rep in range(200):
            trace = run_coupled_pair(SamplerConfig(
                dist=dist, steps=horizon, thin=horizon,
                seed=stream_fingerprint(12, n, rep)))
            assert trace.coalesced_at is not None
            times.append(trace.coalesced_at)
        normalized = float(np.mean(times)) / (n * math.log(n))
        assert 0.3 <= normalized <= 5.0, (n, normalized)


def test_stream_fingerprint_stability():
    assert substream(7, 1).random() == substream(7, 1).random()
    assert substream(7, 1).random() != substream(7, 2).random()
    assert stream_fingerprint(7, 1) == stream_fingerprint(7, 1)
    assert stream_fingerprint(7, 1) != stream_fingerprint(7, 2)
