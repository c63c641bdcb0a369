"""Exact and bounding computations on a single kernel.

Hitting times and the gap sandwich are evaluated in log space
throughout, so families whose masses span thousands of orders of
magnitude stay inside double range: every exponentiated quantity is a
ratio of a cumulative mass to a nearby point mass.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, NonErgodicError, NotMixedError,
                     ParameterError, SpectrumError)
from .kernel import BDKernel

EXACT_TAU_LIMIT = 512       # above this the hitting proxy stands in for tau
DEFAULT_HORIZON = 10_000_000
# exact tau's stepping buffer, in float64 entries: 512 KB stays in cache
# (uniform 256 steps 13% faster than with 2 MB), and the allocator leaves
# less of it resident between calls; also the cap on one spectral product
_BLOCK_ENTRIES = 1 << 16
_MIN_BLOCK = 32             # steps in its first block
# spectral tau's first product: steps either side of the estimated crossing
_WINDOW = 25
_SCAN = 63                  # points per product once a crossing is bracketed


def _first_cut(kernel: BDKernel):
    z = np.nonzero(kernel.c == 0.0)[0]
    return int(z[0]) if z.size else None


def expected_hitting_time(kernel: BDKernel, i: int, j: int) -> float:
    """Expected steps from state i to first visit of state j.

    On a path graph the walk must cross every intermediate edge, and
    each crossing time has a closed form: the expected time from v to
    v+1 is (mass of states <= v) / (pi(v) K(v, v+1)), and the mirror
    statement holds going down.
    """
    n = kernel.n
    for s in (i, j):
        if not 0 <= s <= n - 1:
            raise IndexError(f"state {s} out of range [0, {n - 1}]")
    if i == j:
        return 0.0
    dist = kernel.dist
    c = kernel.c
    if i < j:
        vs = np.arange(i, j)
        edges = vs
        logout = dist.log_prefix[vs] - dist.log_mass[vs]
    else:
        vs = np.arange(j + 1, i + 1)
        edges = vs - 1
        logout = dist.log_suffix[vs] - dist.log_mass[vs - 1]
    ce = c[edges]
    blocked = np.nonzero(ce == 0.0)[0]
    if blocked.size:
        raise NonErgodicError(int(edges[blocked[0]]))
    return float(np.exp(logout - np.log(ce)).sum())


class MicloBounds(NamedTuple):
    """Gap sandwich data: 1/(4B) <= gap <= 2/B with B = max(B_plus, B_minus)."""

    B_plus: float
    B_minus: float
    B: float
    lower: float
    upper: float
    degenerate: bool


def _miclo_log_curves(kernel: BDKernel):
    """Log values of the two weighted-path maxima, per candidate cut x.

    Returns (m, vals_minus, vals_plus) where vals_minus[x] covers
    x in [0, m) and vals_plus[x - m - 1] covers x in (m, n). The outer
    factor is the mass of the side INCLUDING the cut state itself:
    with the exclusive reading the lower gap bound demonstrably fails
    on sharply varying mass (factor 16 seen on sampled binomial
    kernels), while the inclusive form holds with margin.
    """
    dist = kernel.dist
    n = kernel.n
    m = dist.quantile(0.5)
    cut = _first_cut(kernel)
    if cut is not None:
        raise NonErgodicError(cut)
    lc = np.log(kernel.c)
    lm = dist.log_mass

    if m >= 1:
        terms = -lm[:m] - lc[:m]
        inner = np.logaddexp.accumulate(terms[::-1])[::-1]
        vals_minus = inner + dist.log_prefix[:m]
    else:
        vals_minus = np.empty(0)

    if m <= n - 2:
        terms = -lm[m:n - 1] - lc[m:n - 1]
        inner = np.logaddexp.accumulate(terms)
        vals_plus = inner + dist.log_suffix[m + 1:]
    else:
        vals_plus = np.empty(0)
    return m, vals_minus, vals_plus


def miclo_bounds(kernel: BDKernel) -> MicloBounds:
    """Weighted-path bounds on the spectral gap around the median state.

    A single-state chain has no candidate cut on either side; that
    degenerate case reports bounds (0, inf) with a flag rather than
    failing, since the kernel itself is fine.
    """
    _, vals_minus, vals_plus = _miclo_log_curves(kernel)
    b_minus = float(np.exp(vals_minus.max())) if vals_minus.size else 0.0
    b_plus = float(np.exp(vals_plus.max())) if vals_plus.size else 0.0
    b = max(b_plus, b_minus)
    if b == 0.0:
        return MicloBounds(b_plus, b_minus, 0.0, 0.0, np.inf, True)
    return MicloBounds(b_plus, b_minus, b, 1.0 / (4.0 * b), 2.0 / b, False)


def spectral_gap(kernel: BDKernel) -> float:
    """Exact gap 1 - lambda_2 via the symmetrized tridiagonal form.

    The symmetrization keeps the same diagonal and replaces each
    off-diagonal pair by its geometric mean, which stays order one even
    when the mass ratios do not. Only the top two eigenvalues are
    extracted (bisection), so cost is O(n) per call.
    """
    # scipy.linalg costs about 0.3 s and 20 MB to import; sample and the
    # probes never get here
    from scipy.linalg.lapack import dstebz
    n = kernel.n
    e = np.sqrt(kernel.c * kernel.sub)
    # eigh_tridiagonal's bisection call for values n - 1 and n (1-based)
    count, vals, _, _, info = dstebz(
        np.asarray_chkfinite(kernel.diag), np.asarray_chkfinite(e),
        2, 0.0, 1.0, n - 1, n, 0.0, "E")
    if info or count != 2:
        raise SpectrumError(f"dstebz returned info {info}, {count} values")
    lam2, lam1 = float(vals[0]), float(vals[1])
    if abs(lam1 - 1.0) > 1e-8:
        raise SpectrumError(
            f"top eigenvalue {lam1!r} differs from 1 beyond 1e-8")
    return 1.0 - lam2


def _coefficients(kernel: BDKernel, k: int) -> np.ndarray:
    """diag, c shifted right and sub over a row of k start laws side by
    side, with the neighbour coefficients zero between two laws."""
    n = kernel.n
    rows = np.zeros((3, k, n))
    rows[0] = kernel.diag
    rows[1, :, 1:] = kernel.c
    rows[2, :, :-1] = kernel.sub
    return rows.reshape(3, k * n)


def _advance(buf: np.ndarray, coef: np.ndarray) -> None:
    """Fill rows 1.. of a block, each one step on from the row before, in
    BDKernel.evolve's order: (v*diag + v_left*c) + v_right*sub. Between
    two laws the neighbour coefficient is zero, so a law's edge entries
    gain an exact 0.0 and each law is bit for bit the one evolve gives."""
    diag, left, right = coef[0], coef[1, 1:], coef[2, :-1]
    tmp = np.empty(buf.shape[1] - 1)
    for v, vl, vr, out, up, down in zip(buf[:-1], buf[:-1, :-1],
                                        buf[:-1, 1:], buf[1:], buf[1:, 1:],
                                        buf[1:, :-1]):
        np.multiply(v, diag, out=out)
        np.multiply(vl, left, out=tmp)
        np.add(up, tmp, out=up)
        np.multiply(vr, right, out=tmp)
        np.add(down, tmp, out=down)


def _block_tv(buf: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """TV to pi of every start law in rows 1.. of a block, shape
    (rows - 1, k); overwrites those laws. Each law is summed alone along
    its contiguous axis, the same pairwise sum as a 1-D .sum()."""
    diff = buf[1:].reshape(len(buf) - 1, -1, pi.size)
    np.subtract(diff, pi, out=diff)
    np.abs(diff, out=diff)
    tv = diff.sum(axis=2)
    tv *= 0.5
    return tv


def _crossing_times(kernel: BDKernel, starts, levels, horizon: int):
    """First t >= 1 with TV(law at t from s, pi) < level, per start s and
    level: an int array of shape (len(starts), len(levels)).

    levels must be sorted descending. All starts step side by side in
    one row [v_s0 | v_s1 | ...] (_advance), in blocks of rows of one
    buffer of at most _BLOCK_ENTRIES entries: a block has _MIN_BLOCK
    steps or a quarter of the steps so far, whichever is more. After a
    block, one reduction gives TV at each of its steps and starts
    (_block_tv), and the checks run on the whole block.

    A start is done once its last level is crossed. It fails with
    DomainError when its TV grows, which no stochastic kernel with
    stationary law pi allows, and with NotMixedError only at the
    horizon, so a cut or periodic kernel runs to its horizon. As in a
    loop over the starts in order, the first start's failure is raised:
    starts after a failed one stop stepping, and finished ones leave the
    row.
    """
    if horizon < 1:
        # no step is taken, so TV is still that of a point mass, taken as 1
        raise NotMixedError(1.0, horizon)
    n = kernel.n
    pi = kernel.dist.mass
    lev = np.asarray(levels)
    times = np.zeros((len(starts), len(levels)), dtype=np.int64)
    prev = np.full(len(starts), np.inf)
    live = np.arange(len(starts))
    laws = np.zeros((len(starts), n))
    laws[live, list(starts)] = 1.0
    flat = np.empty(max(_BLOCK_ENTRIES, 2 * laws.size))
    # every law has the same coefficients, so fewer starts take a prefix
    coef = _coefficients(kernel, len(starts))
    failure = None
    t = 0
    while live.size:
        k = live.size
        width = k * n
        steps = min(max(_MIN_BLOCK, t // 4), flat.size // width - 1,
                    horizon - t)
        buf = flat[:(steps + 1) * width].reshape(steps + 1, width)
        buf[0] = laws.ravel()
        _advance(buf, coef[:, :width])
        laws = buf[-1].reshape(k, n).copy()
        tv = _block_tv(buf, pi)
        if k > 1 and not np.isfinite(tv[-1]).all():
            # inf * 0 is nan, so a non-finite law leaks into the laws next
            # to it; in rows of their own the starts stay exact
            return np.vstack([_crossing_times(kernel, [s], levels, horizon)
                              for s in starts])

        before = np.vstack([prev[live], tv[:-1]])
        grew = tv > before + 1e-12
        grow_at = np.where(grew.any(axis=0), grew.argmax(axis=0), steps)
        below = tv[:, :, None] < lev
        cross_at = np.where(below.any(axis=0), below.argmax(axis=0), steps)
        # at each step growth is checked before any level
        done = cross_at[:, -1] < grow_at
        # record levels first crossed in this block and before any growth
        got = times[live]
        np.copyto(got, t + 1 + cross_at,
                  where=(got == 0) & (cross_at < grow_at[:, None]))
        times[live] = got
        keep = ~done
        failed = keep & (grow_at < steps) if t + steps < horizon else keep
        if failed.any():
            r = int(failed.argmax())
            g = int(grow_at[r])
            if g < steps:
                failure = DomainError(
                    f"total variation to stationarity increased from "
                    f"{float(before[g, r])!r} to {float(tv[g, r])!r} at "
                    f"step {t + g + 1}; the kernel is not stochastic with "
                    "stationary law pi")
            else:
                failure = NotMixedError(float(tv[-1, r]), horizon)
            keep[r:] = False
        t += steps
        prev[live] = tv[-1]
        live = live[keep]
        laws = laws[keep]
    if failure is not None:
        raise failure
    return times


def _spectral_crossing_times(kernel: BDKernel, starts, levels, horizon: int):
    """Worst-start crossing times per level, equal to what stepping
    gives, from the eigendecomposition of the symmetrized kernel; None
    where that equality is not assured, and the caller steps instead.

    With the unit eigenpair dropped, the law at t from s less pi is
    sqrt(pi_y/pi_s) * sum_k V_sk V_yk lam_k**t, so TV at a batch of t is
    one matrix product, split so that each product holds at most
    _BLOCK_ENTRIES entries or a single t. The first batch holds
    t = horizon and, for each level, a window of up to _WINDOW steps
    either side of the slowest-mode estimate log(2 level / C) /
    log|lam*|, where lam* is the eigenvalue of largest modulus and
    C = max_s sum_y |V_s* V_y*| sqrt(pi_y/pi_s); the windows shrink so
    that the batch fits one product. While the first evaluated t below
    a level does not follow an evaluated t one step earlier, the gap
    before it is searched, a product at a time: on powers of two where
    it spans a doubling, else on up to _SCAN evenly spaced points.

    The kernel must be reversible and stochastic, with every neighbour
    transition positive and log pi spread over at most 20 nats, where
    spectral TV stays within about 1e-11 of stepped TV. Every level must
    be crossed by the horizon, and TV must clear it by 1e-9 at the
    crossing and at the step before. Stepped TV from a fixed start never
    increases, so a crossing so certified is the stepped one, whatever
    order the times were searched in.
    """
    n = kernel.n
    c, sub, diag = kernel.c, kernel.sub, kernel.diag
    logm = kernel.dist.log_mass
    if n < 2 or horizon < 1 or min(c.min(), sub.min()) <= 0.0 \
            or diag.min() < 0.0:
        return None
    rows = diag.copy()
    rows[:-1] += c
    rows[1:] += sub
    if (np.abs(rows - 1.0).max() > 1e-12
            or np.abs(sub * kernel.dist.ratios - c).max() > 1e-12 * c.max()
            or logm.max() - logm.min() > 20.0):
        return None
    # divide and conquer (stevd), eigh_tridiagonal's default for a full
    # solve, without that function's argument checks: at 32, 128 and 512
    # states 92, 650 and 6658 us, against 118, 654 and 6705 through
    # eigh_tridiagonal and 154, 1404 and 24064 for MRRR (stemr)
    from scipy.linalg.lapack import dstevd
    lam, vec, info = dstevd(np.asarray_chkfinite(diag),
                            np.asarray_chkfinite(np.sqrt(c * sub)))
    if info or abs(lam[-1] - 1.0) > 1e-8:
        return None
    lam, vec = lam[:-1], vec[:, :-1]
    starts = list(starts)
    left = vec[starts]
    scale = np.exp(0.5 * (logm - logm[starts, None]))
    per = max(1, _BLOCK_ENTRIES // (len(starts) * n))

    # lam**t as exp(t log|lam|), negated where lam < 0 and t is odd: on
    # 1024 times x 31 eigenvalues 521 us against 1263 for libm pow. Each
    # power's relative error is at most (|t log|lam|| + 2) 2**-53, far
    # inside the 1e-9 margin below
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(lam))  # -inf at 0, and every t is >= 1
    neg = lam < 0.0
    signed = neg.any()  # a lazy kernel's eigenvalues are all >= 0

    def worst(ts: np.ndarray) -> np.ndarray:
        out = []
        for i in range(0, ts.size, per):
            t = ts[i:i + per, None]
            power = np.exp(t * log_abs)
            if signed:
                np.negative(power, out=power, where=neg & (t % 2 == 1))
            dev = (left * power[:, None]).reshape(-1, n - 1) @ vec.T
            dev = np.abs(dev.reshape(t.size, len(starts), n) * scale)
            out.append(0.5 * dev.sum(axis=2).max(axis=1))
        return out[0] if len(out) == 1 else np.concatenate(out)

    slow = int(np.abs(lam).argmax())
    weight = (np.abs(left[:, slow]) * (scale @ np.abs(vec[:, slow]))).max()
    den = math.log(abs(lam[slow])) if lam[slow] else -math.inf
    # each window is the 2w + 2 steps e - w - 1 .. e + w (none if w < 0)
    w = min(_WINDOW, (per - 1) // (2 * len(levels)) - 1)
    ts = {horizon}
    for level in levels:
        # num / den by IEEE rules, nan taken as 1, clamped to [1, horizon]
        num = math.log(2.0 * level / float(weight)) if weight else math.inf
        q = num / den if den else num * math.inf
        e = 1 if q != q else math.ceil(min(max(q, 1.0), horizon))
        ts.update(range(max(1, e - w - 1), min(horizon, e + w) + 1))
    ts = np.array(sorted(ts))
    tvs = worst(ts)
    if not tvs[-1] < min(levels) - 1e-9:
        return None
    times = []
    for level in levels:
        while True:
            i = int(np.argmax(tvs < level))
            lo, hi = (int(ts[i - 1]) if i else 0), int(ts[i])
            if hi - lo == 1:
                break
            if hi > 2 * lo:
                new = 1 << np.arange(lo.bit_length(), hi.bit_length())
                new = new[new < hi][:per]
            else:
                k = min(_SCAN, per) + 1
                new = np.unique(lo + (hi - lo) * np.arange(1, k) // k)
                new = new[new > lo]
            ts = np.concatenate((ts[:i], new, ts[i:]))
            tvs = np.concatenate((tvs[:i], worst(new), tvs[i:]))
        if not (tvs[i] <= level - 1e-9
                and (hi == 1 or tvs[i - 1] >= level + 1e-9)):
            return None
        times.append(hi)
    return times


def mixing_profile(kernel: BDKernel, levels, *, exhaustive: bool = False,
                   horizon: int = DEFAULT_HORIZON) -> dict:
    """Worst-start threshold times for several TV levels in one sweep.

    The spectral evaluator is tried first; where it declines, every
    start is stepped (_crossing_times)."""
    levels = [float(e) for e in levels]
    for e in levels:
        if not 0.0 < e < 1.0:
            raise ParameterError(f"TV level must be in (0, 1), got {e}")
    desc = sorted(set(levels), reverse=True)
    n = kernel.n
    starts = range(n) if exhaustive else (0, n - 1)
    worst = _spectral_crossing_times(kernel, starts, desc, horizon)
    if worst is None:
        worst = _crossing_times(kernel, starts, desc, horizon).max(axis=0)
    return {e: int(t) for e, t in zip(desc, worst)}


def mixing_time(kernel: BDKernel, eps: float = 0.25, *,
                exhaustive: bool = False,
                horizon: int = DEFAULT_HORIZON) -> int:
    """Smallest t >= 1 with worst-start TV to stationarity below eps.

    The worst case is taken over the two endpoint starts by default;
    pass exhaustive=True to take it over every start. For birth and
    death chains the endpoints are the extreme starts, which a recorded
    test checks against exhaustive evaluation.
    """
    prof = mixing_profile(kernel, [eps], exhaustive=exhaustive,
                          horizon=horizon)
    return prof[float(eps)]


def pairwise_distance_profile(kernel: BDKernel, tmax: int) -> np.ndarray:
    """Max-over-start-pairs TV between evolved laws, for t = 0..tmax.

    This is the standardized distance whose submultiplicativity the
    tests exercise; it needs all n starts, so keep n modest.
    """
    n = kernel.n
    p = np.eye(n)
    out = np.empty(tmax + 1)
    out[0] = 1.0 if n > 1 else 0.0
    for t in range(1, tmax + 1):
        p = kernel.evolve(p)
        diff = np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)
        out[t] = 0.5 * float(diff.max())
    return out


@dataclass(frozen=True)
class AnalysisReport:
    """Mixing summary of one kernel.

    dlp_scale is sqrt(tau/gap), the Ding-Lubetzky-Peres window scale.
    tau and dlp_scale are None when the exact mixing time was skipped
    for cost (proxy_flag True); cutoff_product then uses the
    hitting-time proxy.
    """

    gap: float
    miclo: MicloBounds
    hit_up: float
    hit_down: float
    tau: int | None
    tau_proxy: float
    proxy_flag: bool
    cutoff_product: float
    dlp_scale: float | None


def analyze(kernel: BDKernel, *, lazy: bool = True, delta: float = 0.75,
            exact_tau: bool = True, horizon: int = DEFAULT_HORIZON,
            exhaustive: bool = False) -> AnalysisReport:
    """Build the standard report for one kernel.

    Mixing statements concern the half-lazy version of the chain, so by
    default the kernel is mixed with the identity first; pass
    lazy=False to analyze exactly the kernel given. The exact mixing
    time is computed when exact_tau is set and n <= EXACT_TAU_LIMIT;
    otherwise the hitting-time proxy stands in for it.
    """
    if not 0.5 <= delta < 1.0:
        raise ParameterError(f"proxy quantile delta must be in [0.5, 1), got {delta}")
    base = kernel.lazy(0.5) if lazy else kernel
    cut = _first_cut(base)
    if cut is not None:
        raise NonErgodicError(cut)
    n = base.n
    dist = base.dist
    gap = spectral_gap(base)
    miclo = miclo_bounds(base)
    hit_up = expected_hitting_time(base, 0, dist.quantile(delta))
    hit_down = expected_hitting_time(base, n - 1, dist.quantile(1.0 - delta))
    tau_proxy = max(hit_up, hit_down)
    tau = None
    if exact_tau and n <= EXACT_TAU_LIMIT:
        tau = mixing_time(base, 0.25, exhaustive=exhaustive, horizon=horizon)
    return AnalysisReport(
        gap=gap, miclo=miclo, hit_up=hit_up, hit_down=hit_down, tau=tau,
        tau_proxy=tau_proxy, proxy_flag=tau is None,
        cutoff_product=(tau_proxy if tau is None else tau) * gap,
        dlp_scale=None if tau is None else math.sqrt(tau / gap))
