"""Gibbs sampler: conditionals, block updates, oracle, coupled pairs."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from scipy import stats

from conftest import (block_chain_reference, interior_state,
                      site_chain_reference)

from bdcutoff import sampler
from bdcutoff.dist import make_distribution
from bdcutoff.errors import NotCoalescedError, ParameterError, StallError
from bdcutoff.kernel import _bounds, check_feasibility
from bdcutoff.lab.cli import cli_main
from bdcutoff.sampler import (CoupledTrace, SamplerConfig, collect_window,
                              greedy_max_state, oracle_samples,
                              run_coupled_pair, run_gibbs, stream_fingerprint,
                              substream)

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
    # c1 = 1 pins site 0 to [0, 0], so the first update, which is at
    # site 0, writes exactly 0 whatever its uniform; c0 starts off the
    # polytope at 0.25 so that the write shows
    for seed in range(8):
        trace = run_gibbs(SamplerConfig(UNI3, steps=1, seed=seed),
                          initial=[0.25, 1.0])
        assert trace.update_counts.tolist() == [1, 0]
        assert trace.final.tolist() == [0.0, 1.0]


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
    for k in (1, 2)] + [(name, None, 2)
                        for name in ("uniform-6", "uniform-12", "if-9")])
def test_chain_matches_oracle_on_nonflat_mass(family, kw, k):
    # 4000 states 25 updates apart against 20 000 rejection-oracle draws,
    # binned at the oracle's deciles, one chi-square test per feature; a
    # block chain needs no burn-in, as it starts from an exact draw
    if kw is None:
        dist, burnin = EXACT_CASES[family], 0
    else:
        dist, burnin = make_distribution(family, 6, **kw), 200
    chain = run_gibbs(SamplerConfig(dist, k=k, burnin=burnin,
                                    steps=4000 * 25, thin=25,
                                    seed=38 + k)).samples
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
    # the k = 1 scan takes no endpoint weight
    cfg = SamplerConfig(dist=dist, k=k, w=2.0 if k > 1 else 1.0, steps=3000,
                        burnin=200, thin=30, seed=5)
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


@pytest.mark.parametrize("m", [2, 128])  # scalar and numpy sweeps
def test_run_gibbs_rejects_bad_coords(m):
    cfg = SamplerConfig(make_distribution("uniform", m + 1), steps=10)
    for bad in ([m], [-1], [0, m], [[0, 1]]):
        with pytest.raises(ParameterError, match="coords"):
            run_gibbs(cfg, coords=bad)


def test_endpoint_weighting():
    # first block start carries probability w / (nstarts - 2 + 2w); at
    # k = 2 on 7 coordinates there are 6 starts
    cfg = SamplerConfig(dist=make_distribution("uniform", 8), k=2, w=5.0,
                        steps=20000, seed=77)
    trace = run_gibbs(cfg)
    p = 5.0 / (4 + 2 * 5.0)
    freq = trace.update_counts[0] / trace.update_counts.sum()
    assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / 20000)
    assert trace.update_counts[0] == pytest.approx(
        trace.update_counts[-1], rel=0.1)


def test_site_scan_rejects_endpoint_weight():
    # the k = 1 scan visits every site once a sweep: no block start to
    # weight; the coupled pair still reads w at k = 1
    for w in (0.5, 2.0):
        cfg = SamplerConfig(make_distribution("uniform", 8), w=w, steps=10)
        with pytest.raises(ParameterError, match="w must be 1"):
            run_gibbs(cfg)
        assert isinstance(run_coupled_pair(cfg), CoupledTrace)


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
    with pytest.raises(ParameterError, match="finite"):
        run_gibbs(SamplerConfig(dist=UNI3), initial=[np.nan, 0.0])


def test_default_states_are_feasible():
    for family, kw in (("uniform", {}), ("geometric", {"a": 3.0}),
                       ("binomial", {}), ("if", {"eps": 0.3, "a": 2.0})):
        dist = make_distribution(family, 15, **kw)
        assert check_feasibility(dist, interior_state(dist)) is None
        assert check_feasibility(dist, greedy_max_state(dist)) is None


def test_collect_window_shape():
    vals = collect_window(SamplerConfig(UNI4, steps=50 * 2, burnin=10,
                                        thin=2, seed=1), [0, 2])
    assert vals.shape == (50, 2)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# the k = 1 scan: scalar and numpy sweeps against the per-update reference

def _both_paths(monkeypatch, run):
    """run() on the scalar sweeps, then on the numpy half-sweeps,
    whatever the coordinate count."""
    out = []
    for threshold in (1 << 62, 1):
        monkeypatch.setattr(sampler, "_VECTOR_MIN_SITES", threshold)
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


def _scan_configs(dist, seed):
    """Runs across several 16 384-uniform chunks that end inside a
    sweep, retaining more and less often than once a sweep."""
    m = dist.n - 1
    return [SamplerConfig(dist, burnin=60000, steps=9001, thin=7, seed=seed),
            SamplerConfig(dist, burnin=33333, steps=21 * (2 * m + 3),
                          thin=2 * m + 3, seed=seed + 1)]


@pytest.mark.parametrize("family,m", [
    (family, m)
    for family in ("uniform", "geometric", "binomial", "if", "explicit")
    for m in (1, 2, 3, 47, 49, 127, 129, 255)
    if not (family == "if" and m == 1)])  # if: m is even
def test_replay_is_bit_identical_to_scalar_loop(monkeypatch, family, m):
    # the numpy half-sweeps replay the scalar loop's chain
    dist = _sized(family, m)
    size = dist.n - 1  # m, or m - 1 for if at odd m
    sub = sorted({0, size // 2, size - 1})
    for cfg in _scan_configs(dist, m):
        scalar, vector = _both_paths(monkeypatch, lambda: run_gibbs(cfg))
        assert _same_bits(scalar.final, vector.final)
        assert _same_bits(scalar.samples, vector.samples)
        for picked in _both_paths(
                monkeypatch, lambda: run_gibbs(cfg, coords=sub).samples):
            assert _same_bits(picked, scalar.samples[:, sub])
        assert scalar.samples.shape == (cfg.steps // cfg.thin, size)
        assert np.array_equal(scalar.update_counts, vector.update_counts)
        assert scalar.update_counts.dtype == vector.update_counts.dtype
        total = cfg.burnin + cfg.steps
        assert scalar.block_tries == vector.block_tries == total


@pytest.mark.parametrize("family", ["uniform", "geometric"])
@pytest.mark.parametrize("m", [
    1, 2, 3, 31, 47, sampler._VECTOR_MIN_SITES - 1,
    sampler._VECTOR_MIN_SITES + 1, 199, 255])
def test_site_chain_matches_per_update_reference(monkeypatch, family, m):
    dist = _sized(family, m)
    sub = sorted({0, m // 2, m - 1})
    start = interior_state(dist)  # the reference's start
    for cfg in _scan_configs(dist, 10 * m):
        final, samples, counts = site_chain_reference(cfg)
        assert samples.shape == (cfg.steps // cfg.thin, m)
        for got in _both_paths(monkeypatch,
                               lambda: run_gibbs(cfg, initial=start)):
            assert _same_bits(got.final, final)
            assert _same_bits(got.samples, samples)
            assert np.array_equal(got.update_counts, counts)
        for picked in _both_paths(
                monkeypatch,
                lambda: run_gibbs(cfg, start, coords=sub).samples):
            assert _same_bits(picked, samples[:, sub])


def test_sweep_threshold_splits_benchmark_sizes():
    # a chain on the 31 coordinates of n = 32 stays on the scalar
    # sweeps; 199 and more (probe marginal) go to numpy
    assert 31 < sampler._VECTOR_MIN_SITES <= 199


def test_replay_window_and_start_match_scalar_loop(monkeypatch):
    dist = make_distribution("uniform", 200)
    cfg = SamplerConfig(dist, burnin=5000, steps=49 * 2000, thin=49, seed=8)
    # a vertex, and a start off the polytope (odd sites at 1.5) whose
    # first half-sweep meets empty intervals: hi < 0, clipped to 0
    for start in (greedy_max_state(dist), 1.5 * (np.arange(199) % 2)):
        scalar, vector = _both_paths(
            monkeypatch,
            lambda: collect_window(cfg, [0, 99, 198], initial=start))
        assert scalar.shape == (2000, 3)
        assert _same_bits(scalar, vector)
        assert _same_bits(scalar, site_chain_reference(
            cfg, [0, 99, 198], initial=start)[1])


class _Recorder:
    """A generator that keeps what it draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, shape):
        out = self.rng.random(shape)
        self.draws.append(out)
        return out


class _Replay:
    """Stands in for a generator: hands out given uniforms in order."""

    def __init__(self, us):
        self.us, self.at = us, 0

    def random(self, shape):
        size = int(np.prod(shape))
        self.at += size
        return self.us[self.at - size:self.at].reshape(shape)


@pytest.mark.parametrize("family,m", [("uniform", 2), ("geometric", 31),
                                      ("uniform", 199)])
def test_window_chains_replay_single_chain_scans(monkeypatch, family, m):
    # chain j of a k = 1 window is the single-chain scan from its exact
    # start on row j of each chunk the window draws; rows % R != 0, so
    # the first chains give one row more
    dist = _sized(family, m)
    chains = sampler._WINDOW_CHAINS
    cfg = SamplerConfig(dist, burnin=37, steps=(5 * chains + 3) * 7, thin=7,
                        seed=m)
    rows = cfg.steps // cfg.thin
    sub = sorted({0, m // 2, m - 1})
    starts = sampler._exact_start(dist, cfg.seed, (chains,))
    stream = sampler.substream
    scan = []

    def spy(*key):
        rng = stream(*key)
        if key == (cfg.seed,):  # the scan's stream, not an exact start's
            scan.append(_Recorder(rng))
            return scan[-1]
        return rng

    for threshold in (1 << 62, 1):  # scalar, then numpy sweeps
        monkeypatch.setattr(sampler, "_VECTOR_MIN_SITES", threshold)
        scan.clear()
        monkeypatch.setattr(sampler, "substream", spy)
        window = collect_window(cfg, sub)
        assert window.shape == (rows, len(sub))
        uniforms = np.concatenate(scan[0].draws, axis=1)
        assert uniforms.shape[0] == chains
        at = 0
        for j in range(chains):
            got = rows // chains + (j < rows % chains)
            monkeypatch.setattr(sampler, "substream",
                                lambda *key: _Replay(uniforms[j]))
            one = run_gibbs(SamplerConfig(
                dist, burnin=cfg.burnin, steps=got * cfg.thin, thin=cfg.thin,
                seed=cfg.seed), initial=starts[j], coords=sub)
            assert _same_bits(window[at:at + got], one.samples)
            at += got
        assert at == rows
    monkeypatch.setattr(sampler, "substream", stream)


@pytest.mark.parametrize("name", ["uniform-3", "uniform-6", "uniform-12",
                                  "if-9"])
def test_window_chain_rows_match_rejection_oracle(name):
    # one row per chain, a sweep after its exact start: 100 windows of R
    # independent rows against as many oracle draws, a two-sample KS
    # test per coordinate and per diagonal entry at 0.01 / (features)
    dist = EXACT_CASES[name]
    m = dist.n - 1
    chains = sampler._WINDOW_CHAINS
    draws = np.concatenate([collect_window(SamplerConfig(
        dist, steps=chains * m, thin=m, seed=811 * s + m), None)
        for s in range(100)])
    ref = oracle_samples(dist, len(draws), substream(62, m))
    fd, fr = _features(dist, draws), _features(dist, ref)
    for j in range(fd.shape[1]):
        p = stats.ks_2samp(fd[:, j], fr[:, j]).pvalue
        assert p > 0.01 / fd.shape[1], (name, j, p)


def test_window_chain_counts():
    # no empty chain below R rows; burnin and thin count one chain's
    # updates, so each chain keeps every thin-th state after its burnin
    chains = sampler._WINDOW_CHAINS
    assert [sampler._window_chains(r) for r in (0, 1, chains - 1, chains,
                                               10 * chains)] == \
        [1, 1, chains - 1, chains, chains]
    dist = make_distribution("uniform", 40)
    for rows in (0, 1, chains - 1, chains + 1):
        cfg = SamplerConfig(dist, burnin=5, steps=rows * 3 + 2, thin=3,
                            seed=rows)
        vals = collect_window(cfg, [0, 38])
        assert vals.shape == (rows, 2)
        for row in vals:
            assert 0.0 <= row[0] <= 1.0 and 0.0 <= row[1] <= 1.0
    with pytest.raises(ParameterError, match="coords"):
        collect_window(SamplerConfig(dist, steps=4), [39])
    with pytest.raises(ParameterError, match="w must be 1"):
        collect_window(SamplerConfig(dist, w=2.0, steps=4), [0])


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


# the exact start: monotone coupling from the past

def _spy_half_sweeps(monkeypatch):
    """Record the updated sites of both bounding chains, (2, sites), after
    every half-sweep of the exact start."""
    seen = []
    run = sampler._pair_half_sweep

    def spy(half, p, u2):
        run(half, p, u2)
        seen.append(half[1].copy())

    monkeypatch.setattr(sampler, "_pair_half_sweep", spy)
    return seen


def test_bounding_pair_stays_ordered_and_meets(monkeypatch):
    # a single pair below _VECTOR_MIN_SITES runs site by site; the spy
    # needs the numpy half-sweeps
    monkeypatch.setattr(sampler, "_VECTOR_MIN_SITES", 0)
    seen = _spy_half_sweeps(monkeypatch)
    keys = []
    stream = sampler.substream
    monkeypatch.setattr(sampler, "substream",
                        lambda *key: keys.append(key) or stream(*key))
    retried = 0
    for dist in (make_distribution("uniform", 32),
                 make_distribution("if", 16, a=2.0, eps=0.25),
                 make_distribution("geometric", 9, a=3.0)):
        first = 2 * (dist.n - 1).bit_length()  # half-sweeps of one pass
        for seed in range(20):
            seen.clear()
            keys.clear()
            draw = sampler._exact_start(dist, seed)
            # pass p starts p + 1 blocks back and redraws block j (j = 0
            # ends at time 0) from the same substream, earliest block first;
            # the first block is first / 2 sweeps long and each pass
            # doubles the depth
            passes = int(math.log2(len(seen) // first + 1))
            assert keys == [(seed, sampler._CFTP_KEY, j)
                            for p in range(passes) for j in range(p, -1, -1)]
            assert len(seen) == first * (2 ** passes - 1)
            # half-sweeps alternate even, odd: the top chain is above the
            # bottom one at even sites and below it at odd sites
            for h, (top, bottom) in enumerate(seen):
                assert np.all(top >= bottom if h % 2 == 0 else top <= bottom)
            even, odd = seen[-2], seen[-1]
            assert _same_bits(even[0], even[1]) and _same_bits(odd[0], odd[1])
            assert _same_bits(draw[0::2], even[0])
            assert _same_bits(draw[1::2], odd[0])
            retried += len(seen) > first
    assert retried  # passes after the first are covered


EXACT_CASES = {
    "uniform-3": make_distribution("uniform", 3),
    "uniform-6": make_distribution("uniform", 6),
    "uniform-12": make_distribution("uniform", 12),
    "if-9": make_distribution("if", 5, a=2.0, eps=0.25),
    "geometric-8": make_distribution("geometric", 8, a=2.0),
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_exact_start_matches_rejection_oracle(name):
    # 3000 draws against 3000 oracle draws: a two-sample KS test per
    # coordinate and per diagonal entry, each at 0.01 / (features)
    dist = EXACT_CASES[name]
    draws = np.array([sampler._exact_start(dist, 7919 * s + len(name))
                      for s in range(3000)])
    for row in draws[::50]:
        assert check_feasibility(dist, row) is None
    ref = oracle_samples(dist, 3000, substream(61, len(name)))
    fd, fr = _features(dist, draws), _features(dist, ref)
    for j in range(fd.shape[1]):
        p = stats.ks_2samp(fd[:, j], fr[:, j]).pvalue
        assert p > 0.01 / fd.shape[1], (name, j, p)


def test_exact_start_edge_law_on_three_states():
    # the triangle c0 + c1 <= 1: c0 has CDF 1 - (1 - x)^2
    draws = np.array([sampler._exact_start(UNI3, s)[0] for s in range(4000)])
    assert stats.kstest(draws, lambda x: 1.0 - (1.0 - x) ** 2).pvalue > 0.01


def test_exact_start_is_keyed_by_seed():
    dist = make_distribution("if", 40, a=2.0, eps=0.25)
    a, b = sampler._exact_start(dist, 5), sampler._exact_start(dist, 5)
    assert _same_bits(a, b)
    assert not np.array_equal(a, sampler._exact_start(dist, 6))
    assert check_feasibility(dist, a) is None
    # run_gibbs at k = 1 starts there; burnin runs scan updates after it
    trace = run_gibbs(SamplerConfig(dist, seed=5))
    assert _same_bits(trace.final, a) and trace.block_updates == 0
    trace = run_gibbs(SamplerConfig(dist, burnin=300, seed=5))
    assert _same_bits(trace.final, run_gibbs(
        SamplerConfig(dist, burnin=300, seed=5), initial=a).final)


def test_exact_start_chain_axis():
    # one chain on a leading axis draws the bits of the plain draw; R
    # chains give R distinct feasible draws
    dist = make_distribution("geometric", 30, a=1.5)
    for seed in range(5):
        assert _same_bits(sampler._exact_start(dist, seed, (1,))[0],
                          sampler._exact_start(dist, seed))
    draws = sampler._exact_start(dist, 3, (8,))
    assert draws.shape == (8, 29)
    assert len({row.tobytes() for row in draws}) == 8
    for row in draws:
        assert check_feasibility(dist, row) is None


def _draw_or_error(dist, seed):
    try:
        return sampler._exact_start(dist, seed)
    except NotCoalescedError as err:
        return str(err)


@pytest.mark.parametrize("family", ["uniform", "geometric", "binomial", "if"])
def test_exact_start_scalar_pair_matches_numpy_pair(monkeypatch, family):
    # a single draw on fewer than _VECTOR_MIN_SITES coordinates runs its
    # pair site by site: the same bits as the numpy half-sweeps, on
    # first-pass draws, on draws that retry, and on the same seeds with
    # room for one pass only, where a draw that retries raises
    stream, ceiling = sampler.substream, sampler._MAX_CFTP_SWEEPS
    retried = raised = 0
    for m in (1, 2, 31, 75):
        if family == "if" and m == 1:  # if: m is even
            continue
        dist = _sized(family, m)
        first = (dist.n - 1).bit_length()
        for seed in range(30):
            keys = []
            monkeypatch.setattr(sampler, "substream",
                                lambda *key: keys.append(key) or stream(*key))
            scalar, vector = _both_paths(
                monkeypatch, lambda: sampler._exact_start(dist, seed))
            monkeypatch.setattr(sampler, "substream", stream)
            assert scalar.shape == (dist.n - 1,)
            assert _same_bits(scalar, vector), (m, seed)
            retried += len(keys) > 2  # one key per path on a first pass
            monkeypatch.setattr(sampler, "_MAX_CFTP_SWEEPS", first)
            scalar, vector = _both_paths(
                monkeypatch, lambda: _draw_or_error(dist, seed))
            monkeypatch.setattr(sampler, "_MAX_CFTP_SWEEPS", ceiling)
            if isinstance(scalar, str):
                assert scalar == vector
                raised += 1
            else:
                assert _same_bits(scalar, vector), (m, seed)
    assert 0 < raised == retried


def test_exact_start_depth_ceiling(monkeypatch):
    dist = make_distribution("uniform", 32)
    first = (dist.n - 1).bit_length()
    want = {s: sampler._exact_start(dist, s) for s in range(12)}
    # with room for the first pass only, a draw that needs a deeper start
    # raises instead of going on
    monkeypatch.setattr(sampler, "_MAX_CFTP_SWEEPS", first)
    raised = 0
    for seed, draw in want.items():
        try:
            assert _same_bits(sampler._exact_start(dist, seed), draw)
        except NotCoalescedError:
            raised += 1
    assert 0 < raised < len(want)
    monkeypatch.setattr(sampler, "_MAX_CFTP_SWEEPS", 0)
    with pytest.raises(NotCoalescedError):
        run_gibbs(SamplerConfig(dist, seed=1))


# sha256 of the dtype, shape and bits of 32-chain window draws: at 200
# uniform states every window needs a second pass, on the if law with
# 199 states seed 1 needs one for a single chain
WINDOW_DIGESTS = {
    ("uniform", 0):
        "a33583d6cb970be23ce861f1a37247e53017fc302f30fc99e3e588f224eb6c17",
    ("uniform", 1):
        "4e23244a8f8dcc3fb2e273fec4b3437aa11e1508d9ee27f5363478e29ebcc4ac",
    ("if", 1):
        "80ff523dbf5d7706dd8176e536afe994ba46602f36c8c6c69ea5bc1323e810be",
}


def _window_law(family):
    return (make_distribution("uniform", 200) if family == "uniform"
            else make_distribution("if", 100, a=2.0, eps=0.25))


def test_window_retries_run_only_unmet_chains(monkeypatch):
    # after a pass, the pairs that met keep their rows and the deeper
    # pass runs a pair array holding only the others; the rows are the
    # ones every chain gets when all of them run again
    half_sweep = sampler._pair_half_sweep
    for (family, seed), want in WINDOW_DIGESTS.items():
        dist = _window_law(family)
        pairs = []  # each pass's [0 | top | 0] over [0 | bottom | 0]

        def spy(half, p, u2):
            if not pairs or pairs[-1] is not half[1].base:
                pairs.append(half[1].base)
            half_sweep(half, p, u2)

        monkeypatch.setattr(sampler, "_pair_half_sweep", spy)
        draws = sampler._exact_start(dist, seed, (32,))
        monkeypatch.undo()
        assert _digest(draws.dtype.str, draws.shape, draws) == want
        assert len(pairs) == 2 and pairs[0].shape[1] == 32
        top, bottom = pairs[0].view(np.uint64)
        unmet = np.flatnonzero((top != bottom).any(axis=1))
        assert pairs[1].shape[1] == unmet.size
        met = np.setdiff1d(np.arange(32), unmet)
        assert _same_bits(draws[met], top[met, 1:-1].view(float))
        # with room for the first pass only, the window raises
        monkeypatch.setattr(sampler, "_MAX_CFTP_SWEEPS",
                            (dist.n - 1).bit_length())
        with pytest.raises(NotCoalescedError) as err:
            sampler._exact_start(dist, seed, (32,))
        monkeypatch.undo()
        assert str(err.value) == "no meeting from 8 sweeps back"


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
    init = interior_state(dist)
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


def _pair_and_chain(dist, k, w, seed):
    """A coupled pair's merge time, then at k >= 2 a block chain's
    final state, samples and proposal count."""
    out = [run_coupled_pair(SamplerConfig(dist, k=k, w=w, steps=20000,
                                          seed=seed)).coalesced_at]
    if k >= 2:
        t = run_gibbs(SamplerConfig(dist, k=k, w=w, burnin=200, steps=600,
                                    thin=3, seed=seed))
        out += [t.final.tobytes(), t.samples.tobytes(), t.block_tries]
    return out


def test_block_plans_do_not_leak_between_laws(monkeypatch):
    # four laws of 24 states, run in an interleaved order with k and w
    # changing between calls, give what each run gives on an empty plan
    # cache
    laws = [make_distribution("uniform", 24),
            make_distribution("geometric", 24, a=1.1),
            make_distribution("binomial", 24), _sized("explicit", 23)]
    runs = [(d, k, w, 500 + 10 * i + k) for i, d in enumerate(laws)
            for k in (1, 2, 3) for w in (0.5, 1.0)]
    alone = []
    for run in runs:
        monkeypatch.setattr(sampler, "_PLANS", weakref.WeakKeyDictionary())
        alone.append(_pair_and_chain(*run))
    monkeypatch.setattr(sampler, "_PLANS", weakref.WeakKeyDictionary())
    for i in substream(9).permutation(len(runs)).tolist() * 2:
        assert _pair_and_chain(*runs[i]) == alone[i], runs[i][1:]
    # one plan per (law, k, w), and none outlives its law
    assert {d: set(sampler._PLANS[d]) for d in laws} == {
        d: {(k, w) for k in (1, 2, 3) for w in (0.5, 1.0)} for d in laws}
    gone, kept = weakref.ref(laws[0]), laws[1:]
    del laws, runs, run
    gc.collect()
    assert gone() is None and list(sampler._PLANS) == kept


def test_contraction_builds_one_plan_per_size(monkeypatch):
    # every rep of a size shares the size's plan and far start
    built, greedy = [], sampler.greedy_max_state
    monkeypatch.setattr(sampler, "greedy_max_state",
                        lambda dist: built.append(dist.n) or greedy(dist))
    assert cli_main("probe contraction --k 2 --n 16,32 --reps 4 "
                    "--coupon-runs 10 --seed 1".split()) == 0
    assert built == [16, 32]


# the block rejection loop against the per-chain reference

def _outcome(run):
    """run()'s result, or the text of the StallError it raises."""
    try:
        return run()
    except StallError as err:
        return str(err)


def _block_runs(dist, k, w, seed):
    """Callables for each block loop caller, the coupled pair's merge
    time and every run_gibbs field at k >= 2, and then each of them at
    1, 2 and 3 proposals per update, where most stall."""
    horizon = int(80 * dist.n * math.log(dist.n))

    def pair(**kw):
        return run_coupled_pair(SamplerConfig(dist, k=k, w=w, steps=horizon,
                                              seed=seed, **kw)).coalesced_at

    def gibbs(**kw):
        t = run_gibbs(SamplerConfig(dist, k=k, w=w, burnin=500, steps=1500,
                                    thin=3, seed=seed + 1, **kw))
        return (t.final.tobytes(), t.samples.tobytes(),
                t.update_counts.tolist(), t.block_updates, t.block_tries)

    callers = [pair, gibbs][:1 + (k >= 2)]
    stalls = [lambda n=n, f=f: f(max_rejection_tries=n)
              for n in (1, 2, 3) for f in callers]
    return callers, stalls


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("family", ["uniform", "geometric", "binomial", "if"])
def test_block_loop_matches_per_chain_reference(monkeypatch, family, k):
    # the loop tests each proposal within the block once for all chains;
    # the reference tests it in full for each chain, so every accept and
    # reject, every stall and every output bit must agree
    dist = _sized(family, 14)
    for w in (0.5, 1.0, 3.0):
        runs, stalls = _block_runs(dist, k, w, 1000 * k + int(10 * w))
        got = [_outcome(run) for run in runs + stalls]
        monkeypatch.setattr(sampler, "_run_block", block_chain_reference)
        want = [_outcome(run) for run in runs + stalls]
        monkeypatch.undo()
        assert got == want
        assert isinstance(got[0], int)  # the pair merged
        # each caller stalls at one proposal per update
        assert all(isinstance(g, str) for g in got[-len(stalls):][:len(runs)])


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("family", ["uniform", "geometric", "binomial", "if",
                                    "explicit"])
def test_block_loop_matches_reference_at_edge_starts(monkeypatch, family, k):
    # m = k leaves one block start with both ends open (the picker's
    # single-start case); m = k + 1 leaves two, each an endpoint
    for m in (k, k + 1):
        if family == "if" and m % 2:
            continue
        dist = _sized(family, m)
        assert dist.n - 1 == m
        for w in (0.5, 3.0):
            runs, stalls = _block_runs(dist, k, w, 100 * m + int(10 * w))
            got = [_outcome(run) for run in runs + stalls]
            monkeypatch.setattr(sampler, "_run_block", block_chain_reference)
            want = [_outcome(run) for run in runs + stalls]
            monkeypatch.undo()
            assert got == want, (m, w)


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
    # the block runs start from interior_state, where they were recorded
    out = {}
    for i, name in enumerate(small):
        for k in (2, 3):
            t = run_gibbs(SamplerConfig(small[name], k=k, w=2.0, burnin=3000,
                                        steps=7000, thin=7,
                                        seed=100 + 10 * i + k),
                          initial=interior_state(small[name]))
            out[f"gibbs-{name}-{k}"] = _digest(
                t.final, t.samples, t.update_counts.astype(np.int64),
                t.block_updates, t.block_tries)
        for k in (1, 2):
            t = run_coupled_pair(SamplerConfig(pairs[name], k=k, w=0.5,
                                               steps=20000, thin=3,
                                               seed=200 + 10 * i + k))
            out[f"coupled-{name}-{k}"] = _digest(t.coalesced_at)
    t = run_gibbs(SamplerConfig(UNI3, k=2, steps=500, thin=5, seed=300),
                  initial=interior_state(UNI3))
    out["gibbs-uniform3-2"] = _digest(t.final, t.samples, t.block_tries)
    v = collect_window(SamplerConfig(small["binomial"], k=2, burnin=100,
                                     steps=4000, thin=4, seed=301), [0, 5, 10],
                       initial=interior_state(small["binomial"]))
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


# sha256 of the stdout of whole CLI calls, seed 0 unless given: the
# exact-tau ensemble (exact starts at 2 and 3 states, whose odd
# half-sweeps have no site and one, then the gap, spectral or stepped tau
# and the CSV), the proxy ensemble, one exact-tau analyze report, and
# exact starts on 75 coordinates (site by site) and 76 (numpy)
CLI_DIGESTS = {
    "ensemble --exact-tau --horizon 100000 --n 2,3,32 --reps 6":
        "08dcc7499f986ea8bfb79a7727eec0f9fdfabcf0181ad547b36b2e2545438627",
    "ensemble --family if --a 2 --eps 0.25 --n 64,600 --reps 2":
        "6cbf22ac1a1e6ca03268b2723bd307655b1121652a6c35e25c833ecf6d15be27",
    "analyze --exact-tau --n 64":
        "243bd791a7fcdedc8c675e8edd9f3df856f04a7fca51d03593c0874113877bc1",
    "ensemble --exact-tau --horizon 100000 --n 76,77 --reps 4 --seed 6":
        "5f53295c58d101220ba41b8a22d2a96e6a4fa1b3e6ea22eac3718fe7d3c9fd6e",
}


def test_cli_outputs_match_golden_digests(capsys):
    got = {}
    for call in CLI_DIGESTS:
        assert cli_main(call.split()) == 0, call
        got[call] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert got == CLI_DIGESTS


# sha256 of the stdout and the --out CSV, each followed by a NUL byte, of
# the benchmark's two probe calls (a k = 1 window at 200 uniform states,
# whose exact start always retries; k = 2 coupled pairs) and a k = 1
# window on the if law with 199 states, where most pairs meet at once
PROBE_DIGESTS = {
    "probe marginal --n 200 --probe-samples 10000 --seed 3":
        "bd592c6291e0a5053a39afeb0bbb856a308cb2d2c49a7f48495a20e9cfd1726f",
    "probe contraction --k 2 --n 16,32 --reps 16 --coupon-runs 80 --seed 3":
        "6e614a8c4e57171c54f8e3dc52622c9a032c727d2961ed8c3374f43c5ec514f8",
    "probe marginal --family if --a 2 --eps 0.25 --n 100 "
    "--probe-samples 4000 --seed 3":
        "01ae1ceb4621185b6096a1219d55b73083af951f398b6e8bee748d9d58e4d066",
}


# the same digests of coupled pairs at the two ends of the block size:
# k = 1, and k = 8, where 9 states leave a single block start
EDGE_K_PROBE_DIGESTS = {
    "probe contraction --k 1 --n 16,32 --reps 4 --coupon-runs 40 --seed 4":
        "1c8dd2ebcfdc773d6e692bd4ba1108b926b1eefefc021c2c9a7f0ecfddd27340",
    "probe contraction --k 8 --n 9,16 --reps 4 --coupon-runs 40 --seed 4":
        "3019446d44753b4d934a71524d6424795b581b58af45aa5b2a33f34cc183be8a",
}


def _probe_digests(calls, out, capsys):
    got = {}
    for call in calls:
        assert cli_main(call.split() + ["--out", str(out)]) == 0, call
        got[call] = hashlib.sha256(
            capsys.readouterr().out.encode() + b"\0"
            + out.read_bytes() + b"\0").hexdigest()
    return got


def test_probe_outputs_match_golden_digests(tmp_path, capsys):
    got = _probe_digests(PROBE_DIGESTS, tmp_path / "probe.csv", capsys)
    assert got == PROBE_DIGESTS


def test_edge_k_probe_outputs_match_golden_digests(tmp_path, capsys):
    got = _probe_digests(EDGE_K_PROBE_DIGESTS, tmp_path / "probe.csv", capsys)
    assert got == EDGE_K_PROBE_DIGESTS


# a run with no updates, as every sampled kernel's exact draw is

def _trace_fields(t):
    out = []
    for a in (t.samples, t.update_counts, t.final):
        out += [a.dtype.str, a.shape, a]
    return out + [t.block_updates, t.block_tries]


# sha256 of every field, with each array's dtype and shape, of run_gibbs
# with burnin + steps == 0 when it still set up the scan
NO_UPDATE_DIGESTS = {
    "uniform32-exact":
        "a80031850b96b1ea2c7959f314fb1c569ceb6ca12bf282ea575b52c29a05345f",
    "if8-exact-coords":
        "ff86edc4bc88384738671c9cf78537acf960a3e86a06f4261c404007e8b6bd97",
    "uniform32-initial":
        "928ffcd77ba44678edb2504d0865b56b5c3708db8b0c460fe49f13e24f94695a",
    "geometric10-k2":
        "29bcf5f5648204e9b42af5629feba65590fb0d6d8eeed2586ff60545d6112711",
    "geometric10-k3-coords":
        "e7d9de7c65564dd7d171949c99f8fbd5d2dbf1088a787a0bbf9f3cfd243404d0",
}


def test_run_without_updates_matches_golden_digests():
    uni = make_distribution("uniform", 32)
    geo = make_distribution("geometric", 10, a=2.0)
    initial = np.linspace(0.1, 0.2, 31)
    traces = {
        "uniform32-exact": run_gibbs(SamplerConfig(uni, seed=17)),
        "if8-exact-coords": run_gibbs(
            SamplerConfig(make_distribution("if", 8, a=2.0, eps=0.25),
                          thin=3, seed=5), coords=[0, 5]),
        "uniform32-initial": run_gibbs(SamplerConfig(uni, seed=17),
                                       initial=initial),
        # the block runs with interior_state, where they were recorded
        "geometric10-k2": run_gibbs(SamplerConfig(geo, k=2, w=2.0, seed=3),
                                    initial=interior_state(geo)),
        "geometric10-k3-coords": run_gibbs(SamplerConfig(geo, k=3, seed=3),
                                           interior_state(geo), coords=[8]),
    }
    assert {name: _digest(*_trace_fields(t))
            for name, t in traces.items()} == NO_UPDATE_DIGESTS
    # the final state is the caller's start, but not the caller's array
    assert not np.shares_memory(traces["uniform32-initial"].final, initial)
