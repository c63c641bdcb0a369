"""Hitting times, spectral gap, gap sandwich, mixing profiles, diagnostics."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (dense_gap, equilibrated_kernel, solve_hitting,
                      stepwise_profile)

from bdcutoff import analysis
from bdcutoff.analysis import (_MIN_BLOCK, _advance, _block_tv,
                               _coefficients, analyze, expected_hitting_time,
                               miclo_bounds, mixing_profile, mixing_time,
                               pairwise_distance_profile, spectral_gap)
from bdcutoff.dist import StationaryDist, make_distribution
from bdcutoff.errors import (DomainError, NonErgodicError, NotMixedError,
                             ParameterError)
from bdcutoff.kernel import (BDKernel, kernel_from_superdiagonal,
                             metropolis_kernel)
from bdcutoff.lab.config import ExperimentConfig
from bdcutoff.lab.ensemble import sampled_kernel
from bdcutoff.sampler import stream_fingerprint

FAMILIES = (("uniform", {}), ("geometric", {"a": 2.0}), ("binomial", {}))


def sampled(family, kw, n, seed):
    return equilibrated_kernel(make_distribution(family, n, **kw), seed)


def full_mixing_two_state():
    return kernel_from_superdiagonal(make_distribution("uniform", 2), [0.5])


def brute_force_bound(kern):
    """Direct evaluation of the two weighted-path maxima in plain floats.

    Inner sums run from just past the median out to the cut x; the
    outer factor is the stationary mass of the far side including x.
    """
    dist = kern.dist
    K = kern.dense()
    pi = dist.mass
    n = kern.n
    m = dist.quantile(0.5)
    b_minus = 0.0
    for x in range(m):
        inner = sum(1.0 / (pi[y] * K[y, y + 1]) for y in range(x, m))
        b_minus = max(b_minus, inner * pi[:x + 1].sum())
    b_plus = 0.0
    for x in range(m + 1, n):
        inner = sum(1.0 / (pi[z] * K[z, z - 1]) for z in range(m + 1, x + 1))
        b_plus = max(b_plus, inner * pi[x:].sum())
    return max(b_minus, b_plus)


# hitting times

def test_hitting_same_state_is_zero():
    kern = metropolis_kernel(make_distribution("uniform", 5))
    assert expected_hitting_time(kern, 2, 2) == 0.0


def test_hitting_uniform_metropolis_path():
    kern = metropolis_kernel(make_distribution("uniform", 4))
    assert expected_hitting_time(kern, 0, 3) == pytest.approx(24.0, rel=1e-12)
    assert expected_hitting_time(kern, 3, 0) == pytest.approx(24.0, rel=1e-12)
    oracle = solve_hitting(kern, 3)
    assert expected_hitting_time(kern, 0, 3) == pytest.approx(
        oracle[0], rel=1e-10)


def test_hitting_two_state_geometric_wait():
    kern = full_mixing_two_state()
    assert expected_hitting_time(kern, 0, 1) == pytest.approx(2.0, rel=1e-12)


def test_hitting_matches_linear_solve_oracle():
    for rep, (family, kw) in enumerate(FAMILIES):
        kern = sampled(family, kw, 16, stream_fingerprint(50, rep)).lazy(0.5)
        for target in (0, 9, 15):
            oracle = solve_hitting(kern, target)
            for start in (0, 4, 15):
                got = expected_hitting_time(kern, start, target)
                assert got == pytest.approx(oracle[start], rel=1e-9)


def test_hitting_blocked_path():
    kern = kernel_from_superdiagonal(
        make_distribution("uniform", 4), [0.5, 0.0, 0.2])
    assert expected_hitting_time(kern, 0, 1) > 0
    with pytest.raises(NonErgodicError) as err:
        expected_hitting_time(kern, 0, 2)
    assert err.value.edge == 1
    with pytest.raises(NonErgodicError):
        expected_hitting_time(kern, 3, 1)
    with pytest.raises(IndexError):
        expected_hitting_time(kern, 0, 4)


# gap sandwich

def test_bound_matches_brute_force_at_small_n():
    for family, kw in FAMILIES:
        kern = metropolis_kernel(make_distribution(family, 8, **kw))
        got = miclo_bounds(kern)
        assert got.B == pytest.approx(brute_force_bound(kern), rel=1e-12)
        assert got.B == max(got.B_plus, got.B_minus)
        assert got.lower == pytest.approx(1.0 / (4.0 * got.B), rel=1e-12)
        assert got.upper == pytest.approx(2.0 / got.B, rel=1e-12)


def test_gap_sandwich_on_sampled_kernels():
    for rep in range(30):
        family, kw = FAMILIES[rep % 3]
        kern = sampled(family, kw, 16, stream_fingerprint(51, rep)).lazy(0.5)
        b = miclo_bounds(kern)
        gap = spectral_gap(kern)
        assert not b.degenerate
        assert b.lower <= gap <= b.upper, (family, rep, b, gap)


def test_gap_sandwich_holds_at_three_states():
    # both sides of the median carry at least the cut state, so the
    # bound is informative even this small
    kern = metropolis_kernel(make_distribution("uniform", 3))
    b = miclo_bounds(kern)
    assert not b.degenerate and b.B > 0.0
    assert b.lower <= spectral_gap(kern) <= b.upper


def test_bound_requires_ergodicity():
    kern = kernel_from_superdiagonal(
        make_distribution("uniform", 5), [0.5, 0.0, 0.2, 0.1])
    with pytest.raises(NonErgodicError):
        miclo_bounds(kern)


# spectral gap

def test_gap_two_state_full_mixing():
    assert spectral_gap(full_mixing_two_state()) == pytest.approx(1.0, abs=1e-12)


def test_gap_identity_kernel():
    kern = kernel_from_superdiagonal(make_distribution("uniform", 4),
                                     np.zeros(3))
    assert spectral_gap(kern) == pytest.approx(0.0, abs=1e-12)


def test_gap_matches_dense_eigensolver():
    kern = metropolis_kernel(make_distribution("uniform", 16))
    assert spectral_gap(kern) == pytest.approx(dense_gap(kern), abs=1e-9)
    for rep in range(6):
        family, kw = FAMILIES[rep % 3]
        k = sampled(family, kw, 12, stream_fingerprint(52, rep)).lazy(0.5)
        assert spectral_gap(k) == pytest.approx(dense_gap(k), abs=1e-9)


def test_gap_rejects_non_finite_kernels():
    dist = make_distribution("uniform", 4)
    for bad in (np.nan, np.inf):
        kern = kernel_from_superdiagonal(dist, [0.2, bad, 0.2], check=False)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            spectral_gap(kern)


# mixing times

def test_mixing_time_two_state_full_mixing():
    assert mixing_time(full_mixing_two_state(), 0.25) == 1


def test_mixing_time_identity_never_mixes():
    kern = kernel_from_superdiagonal(make_distribution("uniform", 3),
                                     np.zeros(2))
    with pytest.raises(NotMixedError) as err:
        mixing_time(kern, 0.25, horizon=500)
    assert err.value.horizon == 500


def test_mixing_profile_rejects_nan_kernels():
    # a nan passes every gate of the spectral route, and its eigensolve
    # refuses it rather than stepping to the horizon
    kern = kernel_from_superdiagonal(make_distribution("uniform", 4),
                                     [0.2, np.nan, 0.2], check=False)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        mixing_profile(kern, [0.25], horizon=1000)


def test_mixing_time_rejects_growing_tv():
    # diagonal inflated past stochasticity: row sums 1.1, so mass grows
    # and TV rises from 0.05 at t=1 to 0.105 at t=2
    grown = BDKernel(dist=make_distribution("uniform", 2), c=np.array([0.5]),
                     sub=np.array([0.5]), diag=np.array([0.6, 0.6]))
    with pytest.raises(DomainError, match="increased"):
        mixing_time(grown, 0.01)


def test_default_starts_match_exhaustive():
    """Endpoint starts realize the worst case over all starts."""
    met = metropolis_kernel(make_distribution("uniform", 8))
    assert mixing_time(met, 0.25) == mixing_time(met, 0.25, exhaustive=True)
    for rep in range(100):
        family, kw = FAMILIES[rep % 3]
        kern = sampled(family, kw, 16, stream_fingerprint(53, rep)).lazy(0.5)
        assert mixing_time(kern, 0.25) == mixing_time(kern, 0.25,
                                                      exhaustive=True), rep


def test_mixing_profile_levels_and_validation():
    kern = sampled("uniform", {}, 12, stream_fingerprint(54)).lazy(0.5)
    prof = mixing_profile(kern, [0.1, 0.25, 0.5])
    assert prof[0.5] <= prof[0.25] <= prof[0.1]
    with pytest.raises(ParameterError):
        mixing_profile(kern, [0.0])


def test_slow_start_from_a_thin_flank_mixes():
    """TV rounds to 1 (within rounding) for hundreds of steps from a
    flank of mass about 2**-250, yet the chain mixes; tau is checked
    against dense powers of the lazy kernel."""
    cfg = ExperimentConfig(family="if", a=2.0, eps=0.25, seed=11)
    for rep_id, want in ((7, 94_635), (8, 10_198)):
        _, kern = sampled_kernel(cfg, 256, rep_id)
        lazy = kern.lazy(0.5)
        tau = mixing_time(lazy, 0.25, horizon=200_000)
        assert tau == want
        pi, dense = lazy.dist.mass, lazy.dense()
        v = np.eye(lazy.n)[[0, -1]]
        for _ in range(500):
            v = lazy.evolve(v)
        tv = 0.5 * np.abs(v - pi).sum(axis=1).max()
        assert abs(tv - 1.0) < 1e-13, (rep_id, tv)
        before = np.linalg.matrix_power(dense, tau - 1)
        at = before @ dense
        for p, mixed in ((before, False), (at, True)):
            tv = 0.5 * np.abs(p[[0, -1]] - pi).sum(axis=1).max()
            assert (tv < 0.25) == mixed, (rep_id, tv)


# exact tau: the blocked evaluator against the per-start definition

ORACLE_DISTS = {
    "uniform": lambda n: make_distribution("uniform", n),
    "geometric": lambda n: make_distribution("geometric", n, a=1.5),
    "binomial": lambda n: make_distribution("binomial", n),
    "if": lambda n: make_distribution("if", n, a=2.0, eps=0.25),
    "explicit": lambda n: make_distribution(
        "explicit", n, mass=1.0 + np.arange(n) % 3),
}
ORACLE_HORIZON = 20_000


@functools.lru_cache(maxsize=None)
def oracle_kernel(family, n):
    dist = ORACLE_DISTS[family](n)
    return equilibrated_kernel(dist, stream_fingerprint(59, n)).lazy(0.5)


def single_state_kernel():
    dist = StationaryDist(n=1, family="explicit", params={},
                          log_mass=np.zeros(1), log_prefix=np.zeros(1),
                          log_suffix=np.zeros(1), ratios=np.ones(0))
    return BDKernel(dist=dist, c=np.empty(0), sub=np.empty(0),
                    diag=np.ones(1))


def hand_built(diag, c, sub):
    return BDKernel(dist=make_distribution("uniform", len(diag)),
                    c=np.array(c, float), sub=np.array(sub, float),
                    diag=np.array(diag, float))


def outcome(fn, *args, **kwargs):
    """The result, or the error's class, message and last TV. Messages
    carry floats by repr, which round-trips, so equal text means equal
    bits."""
    try:
        return fn(*args, **kwargs)
    except (DomainError, NotMixedError) as err:
        return (type(err).__name__, str(err),
                repr(getattr(err, "last_tv", None)))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_side_by_side_step_matches_evolve_bitwise():
    rng = np.random.default_rng(60)
    kernels = [single_state_kernel(), oracle_kernel("if", 2)]
    kernels += [oracle_kernel(f, 16) for f in ORACLE_DISTS]
    for kern in kernels:
        n = kern.n
        for k in (1, 2, 3):
            laws = rng.random((k, n))
            laws[0] = 0.0
            laws[0, -1] = 1.0
            buf = np.empty((3, k * n))
            buf[0] = laws.ravel()
            _advance(buf, _coefficients(kern, k))
            one = kern.evolve(laws)
            assert (bits(buf[1].reshape(k, n)) == bits(one)).all()
            assert (bits(buf[2].reshape(k, n))
                    == bits(kern.evolve(one))).all()
        # a law's next row ignores the laws beside it, however large
        laws = np.vstack([rng.random(n), np.full(n, 1e300), rng.random(n)])
        buf = np.empty((2, 3 * n))
        buf[0] = laws.ravel()
        _advance(buf, _coefficients(kern, 3))
        for i in (0, 2):
            assert (bits(buf[1, i * n:(i + 1) * n])
                    == bits(kern.evolve(laws[i]))).all()


def test_block_tv_matches_stepwise_sum_bitwise():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 7, 8, 9, 16, 64, 129, 511):
        pi = rng.random(n)
        pi /= pi.sum()
        for k in (1, 2, 5):
            buf = rng.random((4, k * n))
            want = [[0.5 * float(np.abs(v - pi).sum())
                     for v in row.reshape(k, n)] for row in buf[1:]]
            assert (bits(_block_tv(buf, pi)) == bits(want)).all(), (n, k)


def test_single_state_profile_matches_stepwise():
    kern = single_state_kernel()
    for exhaustive in (False, True):
        assert (mixing_profile(kern, [0.25], exhaustive=exhaustive)
                == stepwise_profile(kern, [0.25], exhaustive=exhaustive,
                                    horizon=10) == {0.25: 1})


@pytest.mark.parametrize("n", (2, 3, 16, 64))
@pytest.mark.parametrize("family", sorted(ORACLE_DISTS))
def test_mixing_profile_matches_stepwise(family, n):
    kern = oracle_kernel(family, n)
    for levels in ([0.25], [0.1, 0.25, 0.9]):
        for exhaustive in (False, True) if n <= 16 else (False,):
            want = outcome(stepwise_profile, kern, levels,
                           exhaustive=exhaustive, horizon=ORACLE_HORIZON)
            got = outcome(mixing_profile, kern, levels,
                          exhaustive=exhaustive, horizon=ORACLE_HORIZON)
            assert got == want, (levels, exhaustive)


def test_mixing_profile_matches_stepwise_at_511_states():
    for kern, horizon in ((oracle_kernel("uniform", 511), 300),
                          (oracle_kernel("if", 256), 300),
                          (oracle_kernel("uniform", 511), 3)):
        assert kern.n == 511
        for levels in ([0.25], [0.1, 0.25, 0.9]):
            for exhaustive in (False, True) if horizon < 10 else (False,):
                want = outcome(stepwise_profile, kern, levels,
                               exhaustive=exhaustive, horizon=horizon)
                assert want[0] == "NotMixedError"
                assert outcome(mixing_profile, kern, levels,
                               exhaustive=exhaustive,
                               horizon=horizon) == want


def test_horizon_at_block_edges_matches_stepwise():
    kern = oracle_kernel("uniform", 16)
    for edge in (1, _MIN_BLOCK, 2 * _MIN_BLOCK):
        for horizon in (edge - 1, edge, edge + 1):
            for exhaustive in (False, True):
                want = outcome(stepwise_profile, kern, [0.01],
                               exhaustive=exhaustive, horizon=horizon)
                assert want[0] == "NotMixedError"
                assert outcome(mixing_profile, kern, [0.01],
                               exhaustive=exhaustive,
                               horizon=horizon) == want


def test_crossing_on_a_block_edge():
    kern = oracle_kernel("uniform", 16)
    pi = kern.dist.mass
    seqs = []
    for s in (0, kern.n - 1):
        v = np.zeros(kern.n)
        v[s] = 1.0
        seq = []
        for _ in range(2 * _MIN_BLOCK + 1):
            v = kern.evolve(v)
            seq.append(0.5 * float(np.abs(v - pi).sum()))
        seqs.append(seq)
    for t in (_MIN_BLOCK, _MIN_BLOCK + 1, 2 * _MIN_BLOCK):
        # just above the worse endpoint's TV at t: crossed at t, not before
        level = float(np.nextafter(max(seq[t - 1] for seq in seqs), 1.0))
        want = stepwise_profile(kern, [level], horizon=t)
        assert want == {level: t}
        assert mixing_profile(kern, [level], horizon=t) == want


def test_first_start_failure_wins():
    """Starts step together, but the error raised is the one a loop over
    the starts in order meets first, whichever start fails sooner."""
    cases = (
        # state 0 is held forever, while the last row sums to 1.1 and TV
        # from there grows at step 2: start 0's NotMixedError wins
        (hand_built([1.0, 0.5, 0.6], [0.0, 0.5], [0.0, 0.5]),
         "NotMixedError"),
        # start 0 mixes; the growth from the last state is raised
        (hand_built([0.99, 0.51, 0.6], [0.01, 0.5], [0.0, 0.5]),
         "DomainError"),
        # both grow, the last start at step 6 and start 0 at step 20:
        # start 0's message wins
        (hand_built([0.99, 1.04, 0.5, 0.6], [0.01, 0.0, 0.0],
                    [0.01, 0.0, 0.5]), "DomainError"),
    )
    for kern, kind in cases:
        for exhaustive in (False, True):
            want = outcome(stepwise_profile, kern, [0.25],
                           exhaustive=exhaustive, horizon=1000)
            assert want[0] == kind
            assert outcome(mixing_profile, kern, [0.25],
                           exhaustive=exhaustive, horizon=1000) == want


def test_growth_checks_span_blocks_and_precede_crossings():
    # a conveyor: every state passes its mass one step up, and the top
    # state doubles it, so TV from state 0 first grows at step n, on
    # the first step of the second and of the third block
    for n in (_MIN_BLOCK + 1, 2 * _MIN_BLOCK + 1):
        conveyor = hand_built([0.0] * (n - 1) + [2.0], [1.0] * (n - 1),
                              [0.0] * (n - 1))
        want = outcome(stepwise_profile, conveyor, [0.25], horizon=1000)
        assert want[0] == "DomainError" and f"at step {n};" in want[1]
        assert outcome(mixing_profile, conveyor, [0.25],
                       horizon=1000) == want
    # stochastic, but stationary for (9, 10)/19 rather than the declared
    # uniform law: TV to it oscillates, grows at step 3 and falls below
    # 0.25 a few steps later, in the same block
    swing = hand_built([0.0, 0.1], [1.0], [0.9])
    want = outcome(stepwise_profile, swing, [0.25], horizon=1000)
    assert want[0] == "DomainError" and "at step 3;" in want[1]
    assert outcome(mixing_profile, swing, [0.25], horizon=1000) == want


def test_overflowing_start_leaves_the_others_exact():
    """The last start's law overflows to inf within a block; inf * 0 is
    nan, so sharing a row with it would spoil start 0, which crosses
    0.6 only at step 179."""
    kern = hand_built([0.999, 0.999, 0.5, 1e100], [0.001, 0.0, 0.0],
                      [0.001, 0.0, 0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        want = outcome(stepwise_profile, kern, [0.9, 0.6], horizon=1000)
        got = outcome(mixing_profile, kern, [0.9, 0.6], horizon=1000)
    assert want[0] == "DomainError" and "at step 2;" in want[1]
    assert got == want


# exact tau: the spectral evaluator, and where it must leave tau to stepping

def spectral_results(monkeypatch):
    """Record what every call of the spectral evaluator returns."""
    seen = []
    spectral = analysis._spectral_crossing_times

    def spy(*args):
        seen.append(spectral(*args))
        return seen[-1]

    monkeypatch.setattr(analysis, "_spectral_crossing_times", spy)
    return seen


def test_spectral_tau_matches_stepwise_without_stepping(monkeypatch):
    def no_stepping(*args):
        raise AssertionError("stepped where the spectral route applies")

    monkeypatch.setattr(analysis, "_crossing_times", no_stepping)
    # log pi spreads over 0, 0, 12.6 and 19.5 nats; the uniform 64
    # kernel takes 148 450 steps to reach TV 0.1
    for family, n in (("uniform", 32), ("uniform", 64), ("geometric", 32),
                      ("binomial", 32)):
        kern = oracle_kernel(family, n)
        for levels in ([0.25], [0.1, 0.25, 0.9]):
            want = stepwise_profile(kern, levels, horizon=200_000)
            assert mixing_profile(kern, levels, horizon=200_000) == want


def test_spectral_tau_declines_where_it_may_differ(monkeypatch):
    seen = spectral_results(monkeypatch)
    # log pi spreads over 174, 25.5 and 41 nats
    for kern in (oracle_kernel("if", 256), oracle_kernel("geometric", 64),
                 oracle_kernel("binomial", 64)):
        assert analysis._spectral_crossing_times(
            kern, (0, kern.n - 1), [0.25], 10_000_000) is None
    kern = oracle_kernel("if", 256)
    seen.clear()
    assert outcome(mixing_profile, kern, [0.25], horizon=300) == outcome(
        stepwise_profile, kern, [0.25], horizon=300)
    assert seen == [None]
    # zero transitions (twice), rows summing to 1.1, rows summing to 1.1
    # and 0.8 around a top eigenvalue of 1, a law that is not stationary,
    # an overflowing diagonal, and a single state
    for kern in (hand_built([1.0, 0.5, 0.6], [0.0, 0.5], [0.0, 0.5]),
                 hand_built([0.99, 0.51, 0.6], [0.01, 0.5], [0.0, 0.5]),
                 hand_built([0.6, 0.6], [0.5], [0.5]),
                 hand_built([0.9, 0.6], [0.2], [0.2]),
                 hand_built([0.0, 0.1], [1.0], [0.9]),
                 hand_built([0.999, 0.999, 0.5, 1e100], [0.001, 0.0, 0.0],
                            [0.001, 0.0, 0.5]),
                 single_state_kernel()):
        seen.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            assert outcome(mixing_profile, kern, [0.9, 0.25],
                           horizon=1000) == outcome(
                stepwise_profile, kern, [0.9, 0.25], horizon=1000)
        assert seen == [None], kern.diag
    # a level within an ulp of the worse endpoint's TV at step 40, taken
    # from dense powers
    kern = oracle_kernel("uniform", 16)
    tv40 = max(0.5 * float(np.abs(np.linalg.matrix_power(
        kern.dense(), 40)[s] - kern.dist.mass).sum()) for s in (0, 15))
    assert 0.1 < tv40 < 0.9
    for toward in (0.0, 1.0):
        levels = [0.9, float(np.nextafter(tv40, toward)), 0.1]
        seen.clear()
        want = stepwise_profile(kern, levels, horizon=ORACLE_HORIZON)
        assert mixing_profile(kern, levels, horizon=ORACLE_HORIZON) == want
        assert seen == [None]
        assert analysis._spectral_crossing_times(
            kern, (0, 15), [0.9, 0.1], ORACLE_HORIZON) is not None


def test_spectral_tau_on_ensemble_exact_kernels():
    """tau of 200 uniform n = 32 kernels drawn as the exact-tau ensemble
    draws them, at its horizon of 100 000 steps, against stepping."""
    for job in range(200):
        cfg = ExperimentConfig(n_list=(32,), seed=7 * 65536 + job)
        kern = sampled_kernel(cfg, 32, 0)[1].lazy(0.5)
        assert outcome(mixing_profile, kern, [0.25],
                       horizon=100_000) == outcome(
            stepwise_profile, kern, [0.25], horizon=100_000), job


def forbid_stepping(monkeypatch):
    def no_stepping(*args):
        raise AssertionError("stepped where the spectral route applies")

    monkeypatch.setattr(analysis, "_crossing_times", no_stepping)


def test_spectral_tau_fallback_search_matches_stepwise(monkeypatch):
    """With no window around the slowest-mode estimate, every level is
    found by the doubling grid and the bracket scan alone, at the usual
    scan width and at one point per product (bisection)."""
    forbid_stepping(monkeypatch)
    # a negative half-width leaves t = horizon alone in the first product
    monkeypatch.setattr(analysis, "_WINDOW", -1)
    scans = (analysis._SCAN, 1)
    for family, n in (("uniform", 32), ("uniform", 64), ("geometric", 32),
                      ("binomial", 32)):
        kern = oracle_kernel(family, n)
        for levels in ([0.25], [0.1, 0.25, 0.9]):
            want = stepwise_profile(kern, levels, horizon=200_000)
            for scan in scans:
                monkeypatch.setattr(analysis, "_SCAN", scan)
                assert mixing_profile(kern, levels,
                                      horizon=200_000) == want, scan


def test_spectral_exhaustive_profile_stays_small(monkeypatch):
    """Every start of a 256-state kernel: each product is capped at
    _BLOCK_ENTRIES entries, so batching the times does not multiply the
    memory (about 80 MB for the first batch in one product)."""
    forbid_stepping(monkeypatch)
    kern = oracle_kernel("uniform", 256)
    levels = [0.9, 0.25, 0.1]
    want = mixing_profile(kern, levels)  # loads scipy.linalg untraced
    tracemalloc.start()
    try:
        got = mixing_profile(kern, levels, exhaustive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 6 * 2**20, peak


# standardized distance

def test_pairwise_profile_two_state():
    prof = pairwise_distance_profile(full_mixing_two_state(), 3)
    assert prof.shape == (4,)
    assert prof[0] == 1.0
    assert np.allclose(prof[1:], 0.0, atol=1e-15)


def test_pairwise_profile_submultiplicative_smoke():
    kern = sampled("uniform", {}, 8, stream_fingerprint(55)).lazy(0.5)
    d = pairwise_distance_profile(kern, 60)
    for s in range(1, 30):
        for t in range(1, 30):
            assert d[s + t] <= d[s] * d[t] + 1e-10


# full report

def test_analyze_exact_path():
    kern = sampled("uniform", {}, 10, stream_fingerprint(57))
    rep = analyze(kern)
    lazy = kern.lazy(0.5)
    assert rep.gap == pytest.approx(spectral_gap(lazy), rel=1e-12)
    assert not rep.proxy_flag and rep.tau is not None
    assert rep.tau == mixing_time(lazy, 0.25)
    assert rep.cutoff_product == pytest.approx(rep.tau * rep.gap, rel=1e-12)
    assert rep.dlp_scale == pytest.approx(math.sqrt(rep.tau / rep.gap),
                                          rel=1e-12)
    assert rep.tau_proxy == max(rep.hit_up, rep.hit_down)
    q = kern.dist.quantile(0.75)
    assert rep.hit_up == pytest.approx(
        expected_hitting_time(lazy, 0, q), rel=1e-12)
    assert rep.miclo.lower <= rep.gap <= rep.miclo.upper


def test_analyze_proxy_path():
    kern = sampled("uniform", {}, 10, stream_fingerprint(57))
    rep = analyze(kern, exact_tau=False)
    assert rep.proxy_flag and rep.tau is None and rep.dlp_scale is None
    assert rep.cutoff_product == pytest.approx(rep.tau_proxy * rep.gap,
                                               rel=1e-12)


def test_analyze_raw_kernel_and_validation():
    kern = sampled("geometric", {"a": 2.0}, 10, stream_fingerprint(58))
    rep = analyze(kern, lazy=False)
    assert rep.gap == pytest.approx(spectral_gap(kern), rel=1e-12)
    with pytest.raises(ParameterError):
        analyze(kern, delta=0.4)
    dead = kernel_from_superdiagonal(make_distribution("uniform", 4),
                                     np.zeros(3))
    with pytest.raises(NonErgodicError):
        analyze(dead)
    two = analyze(full_mixing_two_state(), lazy=False)
    assert not two.proxy_flag
    assert two.cutoff_product == pytest.approx(1.0, rel=1e-12)
    assert two.tau_proxy * two.gap == pytest.approx(2.0, rel=1e-12)
