"""Uniform sampling from the feasible polytope of super-diagonals.

The workhorse is a block Gibbs sweep: pick a window of k adjacent
coordinates (endpoints reweighted by w), then redraw the window from its
exact conditional, which is uniform on a section of the polytope. For
k = 1 the section is an interval and the draw is a single scaled
uniform; for k >= 2 we rejection-sample from the product of per-site
boxes [0, min(1, ratio)]. On _REPLAY_MIN_SITES or more coordinates the
k = 1 chain is replayed with numpy a batch of updates at a time, with
the same draws and bit-identical results.

A brute-force rejection sampler over the whole polytope doubles as a
ground-truth oracle for small state counts. Two chains that share every
block start and proposal give a coalescence-time diagnostic; the k >= 2
chain and this coupled pair run the same rejection loop (_run_block).
"""

import math
from dataclasses import dataclass

import numpy as np

from .dist import StationaryDist
from .errors import ParameterError, StallError
from .kernel import _bounds

# k = 1 runs on at least this many coordinates are replayed with numpy
# (_replay_site); shorter chains are too deep for the replay to pay off
_REPLAY_MIN_SITES = 128
# updates per batch of either k = 1 loop, and the largest chunk of
# _uniforms: a replay batch's working set is about 20 arrays of this
# length (2.5 MB), much of which the allocator keeps resident after the
# run; 65 536 ran the ensemble-proxy benchmark 2.5% faster (2 vCPUs)
# and kept up to 7 MB
_BATCH = 1 << 14


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, key) paths.

    Distinct keys under one seed give statistically independent streams,
    and the mapping is stable across runs and platforms.
    """
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(x) for x in key))
    return np.random.Generator(np.random.Philox(ss))


def stream_fingerprint(seed: int, *key: int) -> int:
    """First state word of the (seed, key) stream, as a plain int."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(x) for x in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SamplerConfig:
    """Settings for one Gibbs run.

    steps counts post-burnin block updates; every thin-th state after
    burnin is retained. w is the relative weight of the two endpoint
    block positions (w = 1 is the unbiased sweep).
    """

    dist: StationaryDist
    k: int = 1
    w: float = 1.0
    steps: int = 0
    burnin: int = 0
    thin: int = 1
    seed: int = 0
    max_rejection_tries: int = 1_000_000

    def __post_init__(self):
        m = self.dist.n - 1
        if not 1 <= self.k <= 8:
            raise ParameterError(f"block size k must be in [1, 8], got {self.k}")
        if self.k > m:
            raise ParameterError(
                f"block size {self.k} exceeds coordinate count {m}")
        if not (math.isfinite(self.w) and self.w > 0.0):
            raise ParameterError(f"endpoint weight w must be positive, got {self.w}")
        if self.steps < 0 or self.burnin < 0:
            raise ParameterError("steps and burnin must be nonnegative")
        if self.thin < 1:
            raise ParameterError(f"thin must be >= 1, got {self.thin}")
        if self.max_rejection_tries < 1:
            raise ParameterError("max_rejection_tries must be >= 1")


@dataclass(frozen=True)
class GibbsTrace:
    samples: np.ndarray       # (kept, len(coords)) retained values
    update_counts: np.ndarray  # times each block start was chosen
    block_updates: int
    block_tries: int          # proposals drawn; equals block_updates at k=1
    final: np.ndarray


@dataclass(frozen=True)
class CoupledTrace:
    coalesced_at: int | None  # update index of exact merge, 1-based;
                              # 0 when the pair starts equal


def default_initial_state(dist: StationaryDist) -> np.ndarray:
    """A strictly interior point: an eighth of the per-site caps."""
    return 0.125 * dist.caps


def greedy_max_state(dist: StationaryDist) -> np.ndarray:
    """Left-to-right maximal state; a vertex-like start far from typical."""
    m = dist.n - 1
    caps = dist.caps
    rec = 1.0 / dist.ratios
    c = np.zeros(m)
    prev = 0.0
    for i in range(m):
        hi = min(caps[i], 1.0 - rec[i - 1] * prev) if i else caps[0]
        c[i] = hi if hi > 0.0 else 0.0
        prev = c[i]
    return c


def _start_picker(nstarts: int, w: float):
    """Map a uniform to a block start; endpoints carry weight w."""
    if nstarts == 1:
        return lambda u: 0
    tot = (nstarts - 2) + 2.0 * w
    w2 = 2.0 * w
    last = nstarts - 1

    def pick(u: float) -> int:
        x = u * tot
        if x < w:
            return 0
        if x < w2:
            return last
        s = 1 + int(x - w2)
        # float edge can land one past the interior range
        return s if s <= last - 1 else last - 1

    return pick


def _start_sites(us: np.ndarray, nstarts: int, w: float) -> np.ndarray:
    """_start_picker applied to an array of uniforms, with the same
    float operations, so both give the same starts."""
    if nstarts == 1:
        return np.zeros(us.size, dtype=np.intp)
    tot = (nstarts - 2) + 2.0 * w
    w2 = 2.0 * w
    last = nstarts - 1
    x = us * tot
    inner = np.minimum(1 + (x - w2).astype(np.intp), last - 1)
    return np.where(x < w, 0, np.where(x < w2, last, inner))


def _block_ok(c: list, s: int, prop: list, k: int, rec: list, m: int) -> bool:
    """Feasibility of a proposed block, neighbors frozen.

    Proposals already respect the per-site caps, so only the chained
    diagonal constraints and the right boundary need testing.
    """
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


def _uniforms(rng):
    """Uniforms one at a time, drawn in chunks that double from 256 to
    _BATCH; split Philox draws equal one long draw."""
    size = 256
    while True:
        yield from rng.random(size).tolist()
        size = min(2 * size, _BATCH)


def run_gibbs(config: SamplerConfig, initial=None, coords=None) -> GibbsTrace:
    """Run the block Gibbs chain and return its trace.

    initial defaults to a strictly interior state. Each retained state
    keeps the coordinates coords (default: every coordinate), so
    samples has config.steps // config.thin rows of len(coords) values.
    """
    dist = config.dist
    m = dist.n - 1
    if initial is None:
        initial = default_initial_state(dist)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (m,):
        raise ParameterError(f"initial state has length {initial.size}, expected {m}")
    keep = np.arange(m) if coords is None else np.asarray(coords, dtype=np.intp)
    if keep.ndim != 1 or np.any((keep < 0) | (keep >= m)):
        raise ParameterError(
            f"coords must be a list of coordinates in [0, {m - 1}]")

    rng = substream(config.seed)
    total = config.burnin + config.steps
    c = [float(v) for v in initial]
    counts = [0] * (m - config.k + 1)
    store = np.empty((config.steps // config.thin, keep.size))

    if config.k == 1:
        run = _replay_site if m >= _REPLAY_MIN_SITES else _run_site
        run(dist, c, counts, total, config, rng, store, keep)
        tries = total  # one proposal per update
    else:
        burnin, thin = config.burnin, config.thin
        idx = keep.tolist()
        tries = 0

        def step(done, s, drawn):
            nonlocal tries
            counts[s] += 1
            tries += drawn
            if done > burnin and (done - burnin) % thin == 0:
                store[(done - burnin) // thin - 1] = [c[i] for i in idx]

        _run_block(dist, [c], total, config, rng, step)

    return GibbsTrace(samples=store, update_counts=np.asarray(counts),
                      block_updates=total, block_tries=tries,
                      final=np.asarray(c))


def _run_site(dist, c, counts, total, config, rng, store, keep):
    """Exact single-site sweep; two uniforms per update, the block
    starts of a batch mapped at once by _start_sites. Row r of store
    gets the coordinates keep of the state after retained update r."""
    m = dist.n - 1
    rat = [float(v) for v in dist.ratios]
    rec = [1.0 / v for v in rat]
    last = m - 1
    burnin, thin = config.burnin, config.thin
    next_keep = burnin + thin
    idx = keep.tolist()
    row = done = 0
    while done < total:
        batch = min(_BATCH, total - done)
        us = rng.random(2 * batch)
        sites = _start_sites(us[0::2], m, config.w).tolist()
        for i, u in zip(sites, us[1::2].tolist()):
            left = 1.0 - rec[i - 1] * c[i - 1] if i else 1.0
            right = rat[i] * (1.0 - c[i + 1]) if i < last else rat[last]
            hi = left if left < right else right
            if hi < 0.0:
                hi = 0.0
            c[i] = u * hi
            counts[i] += 1
            done += 1
            if done == next_keep:
                next_keep += thin
                store[row] = [c[i] for i in idx]
                row += 1


def _replay_site(dist, c, counts, total, config, rng, store, keep):
    """_run_site replayed a batch at a time with numpy.

    It draws the same uniforms and performs the same float operations
    per update, so c, counts and the retained states come out bit for
    bit as the scalar loop leaves them. Within a batch each draw reads
    only the latest earlier values at its two neighbour sites, so the
    batch's values solve an acyclic system v = F(v) with a unique
    solution; _settle finds it by iterating F.
    """
    m = dist.n - 1
    rat = np.asarray(dist.ratios, dtype=float)
    recl = np.zeros(m)  # rec[i-1]; times the zero slot at i = 0
    recl[1:] = 1.0 / rat[:-1]
    # the site each update reads on either side; m is the zero slot
    # that stands in for the missing neighbour at either end
    lsite = np.arange(-1, m - 1)
    lsite[0] = m
    rsite = np.arange(1, m + 1)
    rsite[-1] = m
    # a pass settles about m/4 to m/2 draws; a wider window mostly
    # recomputes draws that the next pass evaluates again
    width = min(4 * m, 4096)
    thin = config.thin
    next_keep = config.burnin + thin
    state = np.append(np.asarray(c, dtype=float), 0.0)
    tally = np.zeros(m, dtype=np.int64)
    row = done = 0
    while done < total:
        batch = min(_BATCH, total - done)
        us = rng.random(2 * batch)
        sites = _start_sites(us[0::2], m, config.w)
        hits = np.bincount(sites, minlength=m)
        tally += hits
        srcl, srcr, bysite = _neighbour_sources(sites, hits, lsite, rsite)
        # [batch values | state before the batch | 0.0]
        ext = np.zeros(batch + m + 1)
        ext[batch:] = state
        _settle(ext, srcl, srcr, recl[sites], rat[sites], us[1::2], width)
        if next_keep <= done + batch:
            stops = np.arange(next_keep - done - 1, batch, thin)
            _kept_after(ext, bysite, hits, keep, stops,
                        store[row:row + stops.size])
            row += stops.size
            next_keep += stops.size * thin
        ends = np.cumsum(hits) - 1
        touched = hits > 0
        state[:m][touched] = ext[bysite[ends[touched]]]
        done += batch
    c[:] = state[:m].tolist()
    counts[:] = tally.tolist()


def _neighbour_sources(sites, hits, lsite, rsite):
    """Where each update of a batch reads its left and right neighbour.

    Indices into [batch values | state before the batch | 0.0]: the
    latest earlier update at site s-1 (s+1), else that site's entry in
    the state before the batch. Also returns the updates sorted by site
    (stable, so each site's updates stay in time order).

    Every update j at site s joins two groups: group s as its upper
    member and group s+1 as its lower one. A stable sort by group lists
    sites s-1 and s of group s merged in time order, and both kinds of
    member, taken alone, run through the updates in site order. So an
    upper member's latest earlier lower member is the count of lower
    members before it, as a position in that order, and vice versa.
    """
    n = sites.size
    group = np.empty(2 * n, dtype=np.min_scalar_type(hits.size))
    group[0::2] = sites
    group[1::2] = sites
    group[1::2] += 1
    order = np.argsort(group, kind="stable")
    upper = (order & 1) == 0
    pos_up = np.flatnonzero(upper)
    pos_low = np.flatnonzero(~upper)
    bysite = order[pos_up] >> 1
    ss = np.repeat(np.arange(hits.size), hits)
    rank = np.arange(1, n + 1)
    li = pos_up - rank  # -1 reads ss[-1], the largest site: never s - 1
    ri = pos_low - rank
    srcl = np.empty(n, dtype=np.intp)
    srcr = np.empty(n, dtype=np.intp)
    srcl[bysite] = np.where(ss[li] == ss - 1, bysite[li], n + lsite[ss])
    srcr[bysite] = np.where(ss[ri] == ss + 1, bysite[ri], n + rsite[ss])
    return srcl, srcr, bysite


def _kept_after(ext, bysite, hits, keep, stops, out):
    """Fill out[r] with the values at sites keep after update stops[r]
    of a batch.

    ext is [batch values | state before the batch | 0.0] and bysite
    lists the batch's updates sorted by (site, time), hits[s] of them at
    site s. One search over that order finds each kept site's last write
    at or before each stop; a site with none keeps its value from
    before the batch. Queries go about 2**16 at a time.
    """
    n = bysite.size
    key = np.repeat(np.arange(hits.size) * n, hits) + bysite
    first = (np.cumsum(hits) - hits)[keep]
    before = n + keep
    per = max(1, (1 << 16) // max(1, keep.size))
    for r in range(0, stops.size, per):
        pos = np.searchsorted(key, stops[r:r + per, None] + keep * n,
                              side="right") - 1
        out[r:r + per] = ext[np.where(pos >= first, bysite[pos], before)]


def _settle(ext, srcl, srcr, rl, rr, u, width):
    """Solve v = F(v) in ext[:n] for the batch's n draws, where
    F(v)[j] = u[j]*max(0, min(1 - rl[j]*v[srcl[j]], rr[j]*(1 - v[srcr[j]])))
    in _run_site's operation order, reading ext beyond n as constants.

    Every source of draw j lies before j, so once a prefix of the batch
    is a fixed point it is the solution there. Each pass evaluates the
    width draws after the settled prefix; draws up to the first one
    whose value moved were already settled, and that one was computed
    from settled values, so the prefix grows by at least one per pass.
    """
    n = u.size
    f = 0
    while f < n:
        e = min(f + width, n)
        left = 1.0 - rl[f:e] * ext[srcl[f:e]]
        right = rr[f:e] * (1.0 - ext[srcr[f:e]])
        # "left if left < right else right", NaN included
        hi = np.where(left < right, left, right)
        np.maximum(hi, 0.0, out=hi)
        hi *= u[f:e]
        old = ext[f:e]
        moved = hi != old
        d = int(moved.argmax())
        if moved[d]:
            old[d:] = hi[d:]
            f += d + 1
        else:
            f = e


def _run_block(dist, chains, total, config, rng, step):
    """The rejection sweep for blocks of config.k sites, on one chain or
    on several that share every block start and every proposal.

    Each chain adopts the first proposal feasible for it, so each one is
    marginally the plain block Gibbs chain. After update done (1-based),
    at block start s with tries proposals drawn, step(done, s, tries)
    does the caller's bookkeeping; a true return ends the run.
    """
    m = dist.n - 1
    k = config.k
    caps = [float(v) for v in dist.caps]
    rec = [1.0 / float(v) for v in dist.ratios]
    pick = _start_picker(m - k + 1, config.w)
    max_tries = config.max_rejection_tries
    draw = _uniforms(rng).__next__
    for done in range(1, total + 1):
        s = pick(draw())
        box = caps[s:s + k]
        waiting = chains
        tries = 0
        while waiting:
            tries += 1
            if tries > max_tries:
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


def collect_window(config: SamplerConfig, coords, initial=None) -> np.ndarray:
    """Retained values of selected coordinates from one Gibbs run.

    One row per retained state: config.steps // config.thin rows.
    """
    return run_gibbs(config, initial, coords).samples


def oracle_samples(dist: StationaryDist, count: int,
                   rng: np.random.Generator, batch: int = 4096) -> np.ndarray:
    """Exact uniform polytope samples by whole-vector rejection.

    Acceptance decays fast with the state count (it is the polytope
    volume over the box volume), so this is a testing oracle for small
    n, not a production sampler.
    """
    m = dist.n - 1
    caps = dist.caps
    out = np.empty((count, m))
    got = 0
    while got < count:
        c = rng.random((batch, m)) * caps
        acc = c[np.all(c <= _bounds(dist, c), axis=1)]
        take = min(count - got, acc.shape[0])
        out[got:got + take] = acc[:take]
        got += take
    return out


def run_coupled_pair(config: SamplerConfig, initial_pair=None) -> CoupledTrace:
    """Evolve two chains on shared randomness until they merge.

    Both chains see the same block starts and the same proposal stream;
    each adopts the first proposal feasible for itself. Marginally each
    chain is the plain Gibbs chain, and whenever the first shared
    proposal suits both, the block coalesces exactly.

    The default antipodal pair backs the maximal state off its vertex
    by 1/16: at the vertex a neighbor's conditional slab has width
    exactly 0 and no proposal can ever be accepted. Scaling a feasible
    state by s in [0, 1] stays feasible, and the backoff keeps every
    slab at least cap/16 wide. Explicit boundary pairs are allowed and
    may stall by construction. The pair runs until it merges or for
    config.burnin + config.steps updates; config.thin plays no part.
    """
    dist = config.dist
    m = dist.n - 1
    if initial_pair is None:
        initial_pair = (np.zeros(m), 0.9375 * greedy_max_state(dist))
    x = [float(v) for v in np.asarray(initial_pair[0], dtype=float)]
    y = [float(v) for v in np.asarray(initial_pair[1], dtype=float)]
    if len(x) != m or len(y) != m:
        raise ParameterError(f"initial states must have length {m}")

    total = config.burnin + config.steps
    coalesced_at = 0 if x == y else None

    def step(done, s, tries):
        nonlocal coalesced_at
        if x == y:
            coalesced_at = done
            return True

    if coalesced_at is None:
        _run_block(dist, [x, y], total, config, substream(config.seed), step)
    return CoupledTrace(coalesced_at=coalesced_at)
