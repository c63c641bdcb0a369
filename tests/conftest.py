"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately use different algorithms from the library
code they check: hitting times via a dense first-step linear solve and
the spectral gap via a dense symmetric eigensolver, and marginal laws
by transfer-operator quadrature with no sampler at all, so agreement is
evidence rather than an identity. The exceptions are exact tau, whose
reference is the definition itself, one start and one step at a time,
which the library's blocked evaluator must match bit for bit, and the
k = 1 Gibbs chain, whose reference runs the scan one update at a time,
which the library's numpy half-sweeps must match bit for bit, and the
block rejection loop, whose reference checks each proposal against each
chain in full, which the library's loop must match bit for bit.
"""

import math

import numpy as np

from bdcutoff.errors import DomainError, NotMixedError, StallError
from bdcutoff.kernel import kernel_from_superdiagonal
from bdcutoff.sampler import (SamplerConfig, _start_picker, run_gibbs,
                              substream)


def interior_state(dist) -> np.ndarray:
    """A strictly interior point, an eighth of the per-site caps: the
    start of the reference chains here and of the pinned block runs."""
    return 0.125 * dist.caps


def equilibration_budget(n: int) -> int:
    return max(1, int(round(20.0 * n * math.log(max(n, 2)))))


def equilibrated_kernel(dist, seed: int, budget: int | None = None):
    """One sampled kernel: the site chain from interior_state after a
    20 n ln n burn-in."""
    if budget is None:
        budget = equilibration_budget(dist.n)
    trace = run_gibbs(
        SamplerConfig(dist=dist, steps=0, burnin=budget, seed=seed),
        initial=interior_state(dist))
    return kernel_from_superdiagonal(dist, trace.final)


def site_chain_reference(config, coords=None, initial=None):
    """The k = 1 chain one update at a time: update j (from 0) redraws
    site order[j % m], where order lists the even sites ascending and
    then the odd ones, as uniform j times the site's conditional
    interval. Draws every uniform in one call, where the library draws
    them a chunk at a time (split Philox draws equal one long draw).
    initial defaults to interior_state. Returns (final, samples) as
    run_gibbs would."""
    dist = config.dist
    m = dist.n - 1
    rat = [float(v) for v in dist.ratios]
    rec = [1.0 / v for v in rat]
    order = list(range(0, m, 2)) + list(range(1, m, 2))
    keep = list(range(m)) if coords is None else list(coords)
    total = config.burnin + config.steps
    us = substream(config.seed).random(total).tolist()
    if initial is None:
        initial = interior_state(dist)
    c = [float(v) for v in initial]
    rows = []
    for done in range(1, total + 1):
        i = order[(done - 1) % m]
        left = 1.0 - rec[i - 1] * c[i - 1] if i else 1.0
        right = rat[i] * (1.0 - c[i + 1]) if i < m - 1 else rat[m - 1]
        hi = left if left < right else right
        if hi < 0.0:
            hi = 0.0
        c[i] = us[done - 1] * hi
        if done > config.burnin and (done - config.burnin) % config.thin == 0:
            rows.append([c[s] for s in keep])
    samples = np.array(rows, dtype=float).reshape(len(rows), len(keep))
    return np.array(c), samples


def _block_ok(c, s, prop, k, rec, m) -> bool:
    """Feasibility of a proposed block for chain c, neighbours frozen:
    proposals respect the per-site caps, so only the chained diagonal
    constraints and the right boundary need testing."""
    prev = c[s - 1] if s else 0.0
    for t in range(k):
        j = s + t
        if j and prop[t] > 1.0 - rec[j - 1] * prev:
            return False
        prev = prop[t]
    j = s + k
    if j <= m - 1 and c[j] > 1.0 - rec[j - 1] * prev:
        return False
    return True


def _uniform_stream(rng, size=1000):
    """rng's uniforms one at a time, drawn size at a time; split Philox
    draws equal one long draw, so the chunking is free."""
    while True:
        yield from rng.random(size).tolist()


def block_chain_reference(dist, chains, total, config, rng, step):
    """sampler._run_block with each proposal checked in full against
    each chain still waiting, one uniform drawn at a time; it takes the
    same arguments, so a test can put it in the library's place."""
    m = dist.n - 1
    k = config.k
    caps = [float(v) for v in dist.caps]
    rec = [1.0 / float(v) for v in dist.ratios]
    pick = _start_picker(m - k + 1, config.w)
    draw = _uniform_stream(rng).__next__
    for done in range(1, total + 1):
        s = pick(draw())
        box = caps[s:s + k]
        waiting = chains
        tries = 0
        while waiting:
            tries += 1
            if tries > config.max_rejection_tries:
                raise StallError(s, tries - 1)
            prop = [draw() * b for b in box]
            rest = []
            for c in waiting:
                if _block_ok(c, s, prop, k, rec, m):
                    c[s:s + k] = prop
                else:
                    rest.append(c)
            waiting = rest
        if step(done, s, tries):
            return


def solve_hitting(kern, target: int) -> np.ndarray:
    """First-step-analysis oracle for expected hitting times of `target`.

    Solves the dense linear system (I - Q) h = 1 where Q is the kernel
    with the target row and column removed; h[target] = 0.
    """
    n = kern.n
    K = kern.dense()
    keep = [s for s in range(n) if s != target]
    Q = K[np.ix_(keep, keep)]
    h = np.linalg.solve(np.eye(n - 1) - Q, np.ones(n - 1))
    out = np.zeros(n)
    out[keep] = h
    return out


def dense_gap(kern) -> float:
    """Spectral gap via a dense symmetric eigensolve.

    Symmetrizes with sqrt(K[i,i+1] * K[i+1,i]) off-diagonals, the same
    similarity the library uses, but hands the full matrix to the dense
    LAPACK driver instead of tridiagonal bisection.
    """
    K = kern.dense()
    off = np.sqrt(K.diagonal(1) * K.diagonal(-1))
    S = np.diag(np.diag(K)) + np.diag(off, 1) + np.diag(off, -1)
    vals = np.linalg.eigvalsh(S)
    return float(1.0 - vals[-2])


def flat_marginal_cdf(n: int, coord: int):
    """Exact finite-n CDF of superdiagonal entry `coord` under flat mass.

    Uses no sampler. Flat mass leaves the polytope {c in [0, 1]^m :
    c_i + c_{i+1} <= 1} with m = n - 1 coordinates. With L_0 = 1 and
    L_j(x) = int_0^{1-x} L_{j-1}, the slice {c_coord = x} has volume
    L_coord(x) * L_{m-1-coord}(x), which is the unnormalized density.
    Integrals use the trapezoid rule on a uniform grid, where 1 - x is
    again a grid point, so no interpolation enters. Returns the CDF as
    a callable, interpolated linearly between grid points.
    """
    m = n - 1
    x = np.linspace(0.0, 1.0, 20_001)
    h = x[1]

    def cumulative(f):
        return np.concatenate([[0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))])

    left = right = None
    L = np.ones_like(x)
    for j in range(max(coord, m - 1 - coord) + 1):
        if j == coord:
            left = L
        if j == m - 1 - coord:
            right = L
        L = cumulative(L)[::-1]
        L = L / L[0]  # rescaling only; keeps long chains from underflowing
    cdf = cumulative(left * right)
    cdf = cdf / cdf[-1]
    return lambda q: np.interp(q, x, cdf)


def stepwise_crossing_times(kernel, start: int, levels, horizon: int) -> dict:
    """First t >= 1 with TV(start law at t, pi) < level, per level.

    levels must be sorted descending. Evolves one start one step at a
    time; returns once the last level is crossed, raises DomainError
    when TV grows and NotMixedError at the horizon.
    """
    pi = kernel.dist.mass
    v = np.zeros(kernel.n)
    v[start] = 1.0
    times = {}
    idx = 0
    prev = np.inf
    tv = 1.0
    for t in range(1, horizon + 1):
        v = kernel.evolve(v)
        tv = 0.5 * float(np.abs(v - pi).sum())
        if tv > prev + 1e-12:
            raise DomainError(
                f"total variation to stationarity increased from {prev!r} "
                f"to {tv!r} at step {t}; the kernel is not stochastic "
                "with stationary law pi")
        while idx < len(levels) and tv < levels[idx]:
            times[levels[idx]] = t
            idx += 1
        if idx == len(levels):
            return times
        prev = tv
    raise NotMixedError(tv, horizon)


def stepwise_profile(kernel, levels, *, exhaustive: bool = False,
                     horizon: int) -> dict:
    """Worst-start crossing times, one start after another in order."""
    desc = sorted(set(float(e) for e in levels), reverse=True)
    out = {e: 0 for e in desc}
    n = kernel.n
    for s in range(n) if exhaustive else (0, n - 1):
        for e, t in stepwise_crossing_times(kernel, s, desc, horizon).items():
            out[e] = max(out[e], t)
    return out
