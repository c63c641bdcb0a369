"""Gibbs sampler: conditionals, block updates, oracle, coupled pairs."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from conftest import site_chain_reference

from bdcutoff import sampler
from bdcutoff.dist import make_distribution
from bdcutoff.errors import ParameterError, StallError
from bdcutoff.kernel import _bounds, check_feasibility
from bdcutoff.sampler import (CoupledTrace, SamplerConfig, collect_window,
                              default_initial_state, greedy_max_state,
                              oracle_samples, run_coupled_pair, run_gibbs,
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


# single-site updates

def test_site_update_pinched_interval_is_deterministic():
    # c0 = 1 pins site 1 to [0, 0], so an update there writes exactly 0
    picked = 0
    for seed in range(8):
        trace = run_gibbs(SamplerConfig(UNI3, steps=1, seed=seed),
                          initial=[1.0, 0.0])
        if trace.update_counts[1]:
            picked += 1
            assert trace.final.tolist() == [1.0, 0.0]
    assert picked


def test_site_update_chain_mean():
    # triangle marginal has mean 1/3
    vals = collect_window(SamplerConfig(UNI3, steps=30000 * 3, burnin=300,
                                        thin=3, seed=31), [0])
    mean = float(vals.mean())
    se = float(vals.std()) / math.sqrt(vals.size)
    assert abs(mean - 1.0 / 3.0) <= 3.0 * se


def test_site_update_uniform_on_interval():
    # each k = 1 update redraws one site uniformly on [0, hi], where hi is
    # the tighter of the two diagonal constraints that site enters, taken
    # at the neighbours before the update
    for dist in (UNI4, make_distribution("geometric", 4, a=2.0)):
        samples = run_gibbs(SamplerConfig(dist, steps=50_000,
                                          seed=32)).samples
        before, after = samples[:-1], samples[1:]
        rows, sites = np.nonzero(before != after)
        assert np.array_equal(rows, np.arange(len(before)))
        # zero neighbours past both ends
        pad = np.pad(before, ((0, 0), (1, 1)))
        r = dist.ratios
        left = 1.0 - pad[rows, sites] / np.r_[1.0, r[:-1]][sites]
        right = r[sites] * (1.0 - pad[rows, sites + 2])
        u = after[rows, sites] / np.minimum(left, right)
        assert np.bincount(sites).min() > 10_000
        assert u.max() <= 1.0
        assert stats.kstest(u, "uniform").statistic <= 0.01


# block updates

def test_full_block_respects_triangle():
    # at k = m every update redraws the whole vector, so samples are iid
    draws = run_gibbs(SamplerConfig(UNI3, k=2, steps=20_000, seed=34)).samples
    assert np.all(draws.sum(axis=1) <= 1.0)


def test_full_block_matches_triangle_geometry():
    draws = run_gibbs(SamplerConfig(UNI3, k=2, steps=100_000,
                                    seed=35)).samples
    counts = triangle_cells(draws[:, 0], draws[:, 1])
    assert stats.chisquare(counts).pvalue > 0.001


def test_block_update_stall_reports_block():
    # from (1, 0, 1) each block, (0, 1) or (1, 2), needs c1 <= 0, which no
    # box proposal meets; the first uniform picks the block (seed 36
    # picks 0, seed 37 picks 1)
    for seed in (36, 37):
        start = sampler._start_picker(2, 1.0)(substream(seed).random())
        cfg = SamplerConfig(UNI4, k=2, steps=10, seed=seed,
                            max_rejection_tries=25)
        with pytest.raises(StallError) as err:
            run_gibbs(cfg, initial=[1.0, 0.0, 1.0])
        assert err.value.block_index == start
        assert err.value.tries == 25


def _features(dist, c):
    """Each coordinate, and each interior diagonal entry (a function of
    two neighbouring coordinates)."""
    sub = c / dist.ratios
    return np.hstack([c, 1.0 - c[:, 1:] - sub[:, :-1]])


@pytest.mark.parametrize("family,kw,k", [
    (family, kw, k)
    for family, kw in (("geometric", {"a": 2.0}), ("binomial", {}))
    for k in (1, 2)])
def test_chain_matches_oracle_on_nonflat_mass(family, kw, k):
    # 4000 states 25 updates apart against 20 000 rejection-oracle draws,
    # binned at the oracle's deciles, one chi-square test per feature
    dist = make_distribution(family, 6, **kw)
    chain = run_gibbs(SamplerConfig(dist, k=k, burnin=200, steps=4000 * 25,
                                    thin=25, seed=38 + k)).samples
    ref = oracle_samples(dist, 20_000, substream(38, k))
    fc, fr = _features(dist, chain), _features(dist, ref)
    for j in range(fc.shape[1]):
        edges = np.quantile(fr[:, j], np.linspace(0.0, 1.0, 11))
        edges[0], edges[-1] = -np.inf, np.inf
        table = [np.histogram(fc[:, j], edges)[0],
                 np.histogram(fr[:, j], edges)[0]]
        assert stats.chi2_contingency(table).pvalue > 0.001, j


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


def test_run_gibbs_coords_select_columns():
    dist = make_distribution("uniform", 12)
    cfg = SamplerConfig(dist, k=2, steps=600, burnin=50, thin=3, seed=9)
    full = run_gibbs(cfg).samples
    sub = run_gibbs(cfg, coords=[10, 0, 4, 4]).samples
    assert sub.shape == (200, 4)
    assert np.array_equal(sub.view(np.uint64),
                          full[:, [10, 0, 4, 4]].view(np.uint64))
    assert run_gibbs(cfg, coords=[]).samples.shape == (200, 0)


@pytest.mark.parametrize("m", [2, sampler._REPLAY_MIN_SITES])
def test_run_gibbs_rejects_bad_coords(m):
    cfg = SamplerConfig(make_distribution("uniform", m + 1), steps=10)
    for bad in ([m], [-1], [0, m], [[0, 1]]):
        with pytest.raises(ParameterError, match="coords"):
            run_gibbs(cfg, coords=bad)


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
    for m in (1, 2, 3, 47, 49, sampler._REPLAY_MIN_SITES - 1,
              sampler._REPLAY_MIN_SITES + 1, 255)
    if not (family == "if" and m == 1)])  # if: m is even
def test_replay_is_bit_identical_to_scalar_loop(monkeypatch, family, m):
    dist = _sized(family, m)
    for w in (0.25, 1.0, 4.0):
        # 69 001 updates cross several 16 384-update batches of both
        # loops; 9001 % 7 != 0
        cfg = SamplerConfig(dist, w=w, burnin=60000, steps=9001, thin=7,
                            seed=int(m * 10 + 4 * w))
        scalar, replay = _both_paths(monkeypatch, lambda: run_gibbs(cfg))
        assert _same_bits(scalar.final, replay.final)
        assert _same_bits(scalar.samples, replay.samples)
        size = dist.n - 1  # m, or m - 1 for if at odd m
        sub = sorted({0, size // 2, size - 1})
        for picked in _both_paths(
                monkeypatch, lambda: run_gibbs(cfg, coords=sub).samples):
            assert _same_bits(picked, scalar.samples[:, sub])
        assert scalar.samples.shape == (9001 // 7, dist.n - 1)
        assert np.array_equal(scalar.update_counts, replay.update_counts)
        assert scalar.update_counts.dtype == replay.update_counts.dtype
        assert scalar.block_tries == replay.block_tries == 69001


@pytest.mark.parametrize("family", ["uniform", "geometric"])
@pytest.mark.parametrize("m", [1, 2, 3, 31, 47])
def test_site_chain_matches_per_update_reference(family, m):
    dist = _sized(family, m)
    sub = sorted({0, m // 2, m - 1})
    for w in (0.25, 1.0, 4.0):
        # the burn-in and the retention each cross 16 384-update batch
        # boundaries; 70 001 % 7 != 0
        cfg = SamplerConfig(dist, w=w, burnin=66000, steps=70001, thin=7,
                            seed=int(m * 10 + 4 * w))
        final, samples, counts = site_chain_reference(cfg)
        got = run_gibbs(cfg)
        assert _same_bits(got.final, final)
        assert _same_bits(got.samples, samples)
        assert got.samples.shape == (70001 // 7, m)
        assert np.array_equal(got.update_counts, counts)
        assert _same_bits(run_gibbs(cfg, coords=sub).samples,
                          site_chain_reference(cfg, sub)[1])


def test_replay_window_and_start_match_scalar_loop(monkeypatch):
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


def test_acceptance_rate_matches_scalar_reference():
    # the same box draws, judged in one batch by kernel._bounds (the
    # predicate of oracle_samples and check_feasibility) and one proposal
    # at a time by the chained row constraints; m = 1 has none, so every
    # draw is accepted
    for dist in (make_distribution("explicit", 2, mass=(0.6, 0.4)), UNI4,
                 make_distribution("geometric", 6, a=2.0),
                 make_distribution("binomial", 6),
                 make_distribution("if", 3, a=2.0, eps=0.5)):
        m = dist.n - 1
        rec = [1.0 / r for r in dist.ratios.tolist()]
        box = substream(47).random((4000, m)) * dist.caps
        hits = [all(c[i] <= 1.0 - c[i - 1] * rec[i - 1] for i in range(1, m))
                for c in box.tolist()]
        assert np.all(box <= _bounds(dist, box), axis=1).tolist() == hits


def test_oracle_acceptance_rate_near_half():
    # the triangle fills half of the uniform box
    box = substream(45).random((100_000, 2)) * UNI3.caps
    rate = float(np.all(box <= _bounds(UNI3, box), axis=1).mean())
    assert abs(rate - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)


def test_oracle_samples_are_feasible():
    dist = make_distribution("binomial", 8)
    for row in oracle_samples(dist, 200, substream(46)):
        assert check_feasibility(dist, row) is None


# coupled pairs

def test_coupled_identical_start_coalesces_immediately():
    dist = make_distribution("uniform", 6)
    init = default_initial_state(dist)
    trace = run_coupled_pair(
        SamplerConfig(dist=dist, steps=50, seed=8),
        initial_pair=(init, init.copy()))
    assert isinstance(trace, CoupledTrace)
    assert trace.coalesced_at == 0


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


# golden digests of the rejection chains

def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes()
                 if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _rejection_digests():
    small = {"uniform": make_distribution("uniform", 12),
             "geometric": make_distribution("geometric", 10, a=2.0),
             "binomial": make_distribution("binomial", 12),
             "if": make_distribution("if", 8, a=2.0, eps=0.25)}
    # large enough that a pair runs a few hundred updates before merging
    pairs = {"uniform": make_distribution("uniform", 40),
             "geometric": make_distribution("geometric", 40, a=1.1),
             "binomial": make_distribution("binomial", 40),
             "if": make_distribution("if", 20, a=2.0, eps=0.25)}
    out = {}
    for i, name in enumerate(small):
        for k in (2, 3):
            t = run_gibbs(SamplerConfig(small[name], k=k, w=2.0, burnin=3000,
                                        steps=7000, thin=7,
                                        seed=100 + 10 * i + k))
            out[f"gibbs-{name}-{k}"] = _digest(
                t.final, t.samples, t.update_counts.astype(np.int64),
                t.block_updates, t.block_tries)
        for k in (1, 2):
            t = run_coupled_pair(SamplerConfig(pairs[name], k=k, w=0.5,
                                               steps=20000, thin=3,
                                               seed=200 + 10 * i + k))
            out[f"coupled-{name}-{k}"] = _digest(t.coalesced_at)
    t = run_gibbs(SamplerConfig(UNI3, k=2, steps=500, thin=5, seed=300))
    out["gibbs-uniform3-2"] = _digest(t.final, t.samples, t.block_tries)
    v = collect_window(SamplerConfig(small["binomial"], k=2, burnin=100,
                                     steps=4000, thin=4, seed=301), [0, 5, 10])
    out["collect-binomial-2"] = _digest(v)
    return out


# sha256 of each run's outputs: a change to a draw, an acceptance decision
# or the bookkeeping of either caller of the block rejection loop shows here
REJECTION_DIGESTS = {
    "gibbs-uniform-2":
        "cd66ed4964538f546dedac8aebbf3aefffdec311ef1cc08225bcfd5a88289fab",
    "gibbs-uniform-3":
        "a3c83a0c7dc9a0df76cc7ffb3b11e5e987b24fdc5bb9de8d19fa931a72a76f52",
    "coupled-uniform-1":
        "0dfcddb0440e967f05bb68ca09a5e2188b8abc36bfb5b95b83b88be59c42c6e7",
    "coupled-uniform-2":
        "9bdb2af6799204a299c603994b8e400e4b1fd625efdb74066cc869fee42c9df3",
    "gibbs-geometric-2":
        "d041c94480047a6d1d91341f30f5dd89f6ee27c31ff871114fe37f2306bb8581",
    "gibbs-geometric-3":
        "2638d8220bd9d7bde3ba6621d5f741b7c986542cdd66d61e67454aa41ba9c859",
    "coupled-geometric-1":
        "560aa3e6e94314c78236109e209ac79e15e05ec8bf2dcb78300ae65e720edf9e",
    "coupled-geometric-2":
        "2abaca4911e68fa9bfbf3482ee797fd5b9045b841fdff7253557c5fe15de6477",
    "gibbs-binomial-2":
        "b53a8e69769b399709a65f37a0466673c139a59b8c4a60d4cbb237ea1c4f991e",
    "gibbs-binomial-3":
        "017b03c46facfb0ec53ce3978806fdc5ff45807e6cb73521bd01e6cabb922512",
    "coupled-binomial-1":
        "c76b405781134be1dab7fe45adfb8c32104805a01de7b863e1004b66d56edf9f",
    "coupled-binomial-2":
        "81b8a03f97e8787c53fe1a86bda042b6f0de9b0ec9c09357e107c99ba4d6948a",
    "gibbs-if-2":
        "5cc8fc9789d3d3b6455157800bbd6c1ea60e907821164d50a1bca491c6e8fe10",
    "gibbs-if-3":
        "1e48680fab4432a5468306e70b7794c5251f6b8e2f2020ea8d3a3dfb09c9791b",
    "coupled-if-1":
        "d874e4e4a5df21173b0f83e313151f813bea4f488686efe670ae47f87c177595",
    "coupled-if-2":
        "d48ff4b2f68a10fd7c86f185a6ccede0dc0f2c48538d697cb33b6ada3f1e85db",
    "gibbs-uniform3-2":
        "4e3103bfbe24f208de5a50c9351e2f40751ff886189564c25ff45a87eaa43550",
    "collect-binomial-2":
        "cab37f4b889b40e53d7e5444af1b2d9c5753207c585bc7570e91de5e5d7ac507",
}


def test_rejection_chains_match_golden_digests():
    assert _rejection_digests() == REJECTION_DIGESTS
