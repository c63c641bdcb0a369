"""Uniform sampling from the feasible polytope of super-diagonals.

The workhorse is a Gibbs chain whose updates redraw k adjacent
coordinates from their exact conditional, which is uniform on a section
of the polytope. For k = 1 the section is an interval and the draw is a
single scaled uniform, and the chain is a systematic scan: each sweep
updates the even sites in ascending order, then the odd ones. A site's
interval reads only its two neighbours, so the sites of one parity are
conditionally independent given the others, and a half-sweep is one
numpy expression over every chain. exact_draw is the one draw of a
state without a chain (monotone coupling from the past on the k = 1
half-sweeps). A chain at any k starts from one, so it needs no burn-in.
A window (collect_window) runs independent chains from independent
exact draws, at k = 1 on a leading chain axis of the same half-sweeps
(_run_scan), at k >= 2 one _block_chain each. For k >= 2 each update
picks a block start (endpoints reweighted by w) and rejection-samples
the block from the product of per-site boxes [0, min(1, ratio)].

A brute-force rejection sampler over the whole polytope doubles as a
ground-truth oracle for small state counts. A coupled pair (a coalescence-time
diagnostic) and the k >= 2 chain share one rejection loop, _run_block: it
tests a proposal's block once for all chains, the first two sites in
straight-line code, and builds the values that chains accept once.
"""

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .dist import StationaryDist
from .errors import NotCoalescedError, ParameterError, StallError
from .kernel import _bounds

# a single exact start's bounding pair on at least this many coordinates
# runs numpy half-sweeps, on fewer site by site (_scalar_pair_sweeps):
# over 300 draws the loop took 0.75 of numpy's time at 31 coordinates,
# 0.87 at 47, 1.0 at 63 and 1.1-1.2 at 71 and 79. Three later rounds of
# 300 alternating draws read 0.93-0.98 at 55, 1.01-1.08 at 63, 1.04-1.12
# at 67, 1.11-1.17 at 71 and 1.11-1.20 at 75: numpy's lead below 76 is
# not a steady 10%, so the pair keeps this edge
_VECTOR_MIN_SITES = 76
# uniforms per chunk of the k = 1 scan and of the exact start (whole
# sweeps, at least one), and the largest chunk of _run_block's loop
_BATCH = 1 << 14
_CFTP_KEY = 0x43465450  # "CFTP", the exact start's substream tag
_MAX_CFTP_SWEEPS = 1 << 16  # its deepest start; 4095 states needed <= 24
# chains behind a window (collect_window): at k = 1 and 200 states (2 vCPUs)
# 32 chains took 18 ns per site update on a 200 000-row window, against
# 21 at 16 and 19 at 64, and as long as 16 on a 10 000-row one, where
# 64 took a third longer (one exact start costs about 0.25 ms there)
_WINDOW_CHAINS = 32
_ORACLE_BATCH = 4096  # box proposals per round of oracle_samples
# each law's block plans (_block_plan), by (k, w); keyed by the
# StationaryDist itself, hashed by identity, so a law's plans die with it
# and two laws of one size never share one
_PLANS = weakref.WeakKeyDictionary()


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
    """Settings for a Gibbs run, a window of chains or a coupled pair.

    steps counts post-burnin block updates; every thin-th state after
    burnin is retained. Every chain starts from an exact draw, so
    burnin = 0 is already stationary. w weights the two endpoint block
    starts (w = 1 is unbiased) where starts are drawn: at k >= 2 and in
    the coupled pair. The k = 1 scan updates every site in turn, and
    takes only w = 1.
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
    block_updates: int
    block_tries: int          # proposals drawn; equals block_updates at k=1
    final: np.ndarray


@dataclass(frozen=True)
class CoupledTrace:
    coalesced_at: int | None  # update index of exact merge, 1-based


def greedy_max_state(dist: StationaryDist) -> np.ndarray:
    """Left-to-right maximal state; a vertex-like start far from typical."""
    m = dist.n - 1
    caps, rec = dist.caps, dist.rec
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
        return np.zeros(us.shape, dtype=np.intp)
    tot = (nstarts - 2) + 2.0 * w
    w2 = 2.0 * w
    last = nstarts - 1
    x = us * tot
    inner = np.minimum(1 + (x - w2).astype(np.intp), last - 1)
    return np.where(x < w, 0, np.where(x < w2, last, inner))


def run_gibbs(config: SamplerConfig, initial=None, coords=None) -> GibbsTrace:
    """Run the Gibbs chain (the k = 1 scan, or the k >= 2 block chain)
    and return its trace.

    initial defaults to exact_draw(config.dist, config.seed). Each
    retained state keeps the coordinates coords (default: all), so
    samples has config.steps // config.thin rows of len(coords) values.
    """
    dist = config.dist
    m = dist.n - 1
    _check_scan_weight(config.k, config.w)
    if initial is None:
        initial = exact_draw(dist, config.seed)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (m,):
        raise ParameterError(f"initial state has length {initial.size}, expected {m}")
    if not np.all(np.isfinite(initial)):
        raise ParameterError("initial state must be finite")
    keep = _kept(coords, m)
    total = config.burnin + config.steps
    rng = substream(config.seed)
    store = np.empty((config.steps // config.thin, keep.size))
    if config.k == 1:
        final = _run_scan(dist, initial[None], total, config, rng,
                          store[None], keep)[0]
        tries = total  # one proposal per update
    else:
        c = initial.tolist()
        tries = _block_chain(dist, c, total, config, rng, store, keep)
        final = np.asarray(c)
    return GibbsTrace(samples=store, block_updates=total, block_tries=tries,
                      final=final)


def _kept(coords, m: int) -> np.ndarray:
    """coords as an index array (default: all m coordinates), checked:
    a float or bool entry is refused, not cast to an index."""
    keep = np.arange(m) if coords is None else np.asarray(coords)
    # [] reads as floats, so an empty list passes the integer check
    if (keep.ndim != 1 or keep.size and keep.dtype.kind not in "iu"
            or np.any((keep < 0) | (keep >= m))):
        raise ParameterError(
            f"coords must be a list of integer coordinates in [0, {m - 1}]")
    return keep.astype(np.intp, copy=False)


def _check_scan_weight(k: int, w: float) -> None:
    """Reject w != 1 at k = 1, where no block start is drawn to weight."""
    if k == 1 and w != 1.0:
        raise ParameterError(
            f"the k = 1 scan has no block starts for the endpoint "
            f"weight w to weight; w must be 1, got {w}")


def exact_draw(dist: StationaryDist, seed: int, lead=()) -> np.ndarray:
    """An exact uniform draw of dist's super-diagonal, keyed by seed, by
    monotone coupling from the past (Propp & Wilson 1996): the heat bath
    is monotone in the order "even sites <=, odd >=", and a site takes
    p = u1 * cap if p <= hi, else u2 * hi (uniform on [0, hi]), so the
    pair from the order's extremes meets where p is below both bounds.
    The start is m.bit_length() sweeps back and doubles per retry; block
    j of sweeps (block 0 ends at time 0) redraws substream(seed,
    _CFTP_KEY, j) on every pass, in chunks of whole sweeps that hold, in
    order, the (u1, u2) rows of each half-sweep.

    lead = (R,) gives R independent draws as an (R, m) array: R pairs on
    one schedule. After each pass every pair that has met (bit for bit)
    keeps its time-0 row, and only the others run the next, deeper pass,
    each still reading its own rows of the full draw. That is still
    exact, and the same bits as running every pair again, as a pair that
    met from some depth gives the same time-0 state from every deeper
    start. Any other lead raises ParameterError before a draw."""
    if not (isinstance(lead, tuple) and (lead == () or len(lead) == 1 and (
            isinstance(lead[0], (int, np.integer)) and lead[0] > 0))):
        raise ParameterError(
            f"lead must be () or (R,) with R a positive int, got {lead!r}")
    m, caps, rat = dist.n - 1, dist.caps, dist.ratios
    recl = np.r_[0.0, dist.rec[:-1]]
    pair = np.zeros((2, *lead, m + 2))  # [0 | top | 0] over [0 | bottom | 0]
    halves = _halves(pair, m, recl, rat, caps)
    # one pair on fewer than _VECTOR_MIN_SITES sites runs site by site
    sites = None if lead or m >= _VECTOR_MIN_SITES else [
        list(zip(range(s, m, 2), *(a.tolist() for a in half[3:])))
        for s, half in enumerate(halves)]
    chains = math.prod(lead)
    size = 2 * chains * m  # uniforms per sweep
    cut = size // m * ((m + 1) // 2)  # those of its even half
    per = max(1, _BATCH // size)  # sweeps per chunk
    out = np.empty((chains, m))  # the rows of pairs that have met
    todo = np.arange(chains)  # the chains whose pair has not met
    blocks = [m.bit_length()]  # sweeps per block, block 0 first
    while sum(blocks) <= _MAX_CFTP_SWEEPS:
        pair[:] = 0.0
        pair[0, ..., 1:-1:2], pair[1, ..., 2:-1:2] = caps[0::2], caps[1::2]
        for j in reversed(range(len(blocks))):
            rng = substream(seed, _CFTP_KEY, j)
            for a in range(0, blocks[j], per):
                us = rng.random((min(per, blocks[j] - a), size))
                if sites is not None:
                    _scalar_pair_sweeps(pair, sites, us)
                    continue
                draws = []
                for half, u in zip(halves, (us[:, :cut], us[:, cut:])):
                    u = u.reshape(len(us), 2, *lead, half[-1].size)
                    if todo.size < chains:
                        u = u[:, :, todo]
                    draws.append((u[:, 0] * half[-1], u[:, 1]))
                for q in range(len(us)):
                    for half, (p, u2) in zip(halves, draws):
                        _pair_half_sweep(half, p[q], u2[q])
        if not lead:
            if pair[0].tobytes() == pair[1].tobytes():
                return pair[0, 1:-1].copy()
        else:  # a pair that met keeps its row; the rest go on alone
            met = (pair[0].view(np.int64)
                   == pair[1].view(np.int64)).all(axis=1)
            out[todo[met]] = pair[0, met, 1:-1]
            if met.all():
                return out
            if met.any():
                todo = todo[~met]
                pair = np.zeros((2, todo.size, m + 2))
                halves = _halves(pair, m, recl, rat, caps)
        blocks.append(sum(blocks))
    raise NotCoalescedError(f"no meeting from {_MAX_CFTP_SWEEPS} sweeps back")


def _pair_half_sweep(half, p, u2):
    """Both bounding chains' half-sweep; each site shares p = u1 * cap and
    u2 between the two."""
    left_nb, target, right_nb, rl, rr, _ = half
    hi = _upper(left_nb, right_nb, rl, rr)
    target[...] = np.where(p <= hi, p, u2 * hi)


def _scalar_pair_sweeps(pair, sites, us):
    """The sweeps us of one bounding pair (2, m + 2), site by site, with
    _pair_half_sweep's float operations; sites holds, for the even and
    then the odd half, each site's (i, 1/r[i-1], r[i], cap). A row of us
    is u1 even, u2 even, u1 odd, u2 odd."""
    t, b = pair.tolist()
    ne, no = len(sites[0]), len(sites[1])
    for u in us.tolist():
        for half, u1s, u2s in ((sites[0], u[:ne], u[ne:2 * ne]),
                               (sites[1], u[2 * ne:2 * ne + no],
                                u[2 * ne + no:])):
            for (i, rl, rr, cap), u1, u2 in zip(half, u1s, u2s):
                p = u1 * cap
                left = 1.0 - rl * t[i]
                right = rr * (1.0 - t[i + 2])
                hi = left if left < right else right
                if hi < 0.0:
                    hi = 0.0
                t[i + 1] = p if p <= hi else u2 * hi
                left = 1.0 - rl * b[i]
                right = rr * (1.0 - b[i + 2])
                hi = left if left < right else right
                if hi < 0.0:
                    hi = 0.0
                b[i + 1] = p if p <= hi else u2 * hi
    pair[0], pair[1] = t, b


def _halves(xp, m, *per_site):
    """(left nbrs, sites, right nbrs, *per_site) views, even then odd."""
    return [(xp[..., s:s + 2 * size:2], xp[..., s + 1:s + 1 + 2 * size:2],
             xp[..., s + 2:s + 2 + 2 * size:2], *(a[s::2] for a in per_site))
            for s, size in ((0, (m + 1) // 2), (1, m // 2))]


def _upper(left_nb, right_nb, rl, rr):
    """Interval ends, the smaller of left and right clipped at 0. On
    finite states neither end is nan or -0.0 (left is 1.0 minus a finite
    value, right a positive ratio times one), so np.minimum picks what
    "left if left < right else right" picks, bit for bit."""
    left = rl * left_nb
    np.subtract(1.0, left, out=left)
    right = np.subtract(1.0, right_nb)
    right *= rr
    hi = np.minimum(left, right, out=left)
    return np.maximum(hi, 0.0, out=hi)


def _run_scan(dist, x, total, config, rng, store, keep):
    """The k = 1 chains from the rows of x, total updates each; returns
    their final states.

    Each sweep updates the even sites in ascending order, then the odd
    ones, so a run of total updates ends inside a sweep unless m divides
    it. Each chunk draws (chains, whole sweeps) uniforms from rng, up to
    _BATCH in all, and chain j takes row j. store[j, r] gets chain j's
    coordinates keep after update burnin + (r+1)*thin: each kept site's
    value from the row's sweep if the site came up at or before that
    update, else from the sweep before, both read from a per-sweep
    history of the kept sites.
    """
    chains, m = x.shape
    recl = np.r_[0.0, dist.rec[:-1]]  # 1/r[i-1]; times the pad at i = 0
    order = np.r_[0:m:2, 1:m:2]
    place = np.empty(m, dtype=np.intp)  # each site's place in a sweep
    place[order] = np.arange(m)
    # [0 | x | 0]: site i sits at i + 1, between its two neighbours
    xp = np.zeros((chains, m + 2))
    xp[:, 1:-1] = x
    halves = _halves(xp, m, recl, dist.ratios)
    slot = keep + 1
    per = max(1, _BATCH // (chains * m))
    hist = np.empty((chains, per + 1, keep.size))
    thin = config.thin
    next_keep = config.burnin + thin - 1  # 0-based update of the next row
    row = 0
    for a in range(0, total, per * m):
        us = rng.random((chains, min(per * m, total - a)))
        if next_keep >= a + us.shape[1]:  # no row in this chunk
            _vector_sweeps(xp, halves, us, slot, None)
            continue
        hist[:, 0] = xp.take(slot, axis=1)
        _vector_sweeps(xp, halves, us, slot, hist)
        stops = np.arange(next_keep - a, us.shape[1], thin)
        _rows_from_history(store[:, row:row + stops.size], hist, stops,
                           place[keep], m)
        row += stops.size
        next_keep += stops.size * thin
    return xp[:, 1:-1].copy()


def _rows_from_history(out, hist, stops, keep_place, m):
    """out[:, r] = the kept values after update stops[r] of a chunk,
    counted from 0 at the chunk's start: a site whose place in that
    update's sweep q is at most the update's own takes hist[:, q + 1],
    the values after sweep q; the others still hold hist[:, q]. About
    2**16 values at a time.
    """
    per = max(1, (1 << 16) // max(1, out.shape[0] * keep_place.size))
    for r in range(0, stops.size, per):
        q, p = np.divmod(stops[r:r + per], m)
        newer = keep_place <= p[:, None]
        out[:, r:r + per] = np.where(newer, hist[:, q + 1], hist[:, q])


def _vector_sweeps(xp, halves, us, slot, hist):
    """Apply the updates us[j] to the padded state xp[j] of each chain j
    in sweep order, a half-sweep at a time over all chains (halves is
    _halves of xp with 1/r[i-1] and r); with hist, hist[j, q + 1] gets
    xp[j, slot] after sweep q (the last sweep may be partial). Each even
    site reads only odd neighbours and vice versa, so the sites of one
    parity are conditionally independent and one numpy expression
    updates them all."""
    m = xp.shape[1] - 2
    ne = halves[0][3].size
    for q, a in enumerate(range(0, us.shape[1], m)):
        u = us[:, a:a + m]
        for (left_nb, target, right_nb, rl, rr), v in zip(
                halves, (u[:, :ne], u[:, ne:])):
            k = v.shape[1]
            if k < rl.size:  # the partial last sweep
                left_nb, target, right_nb, rl, rr = (
                    left_nb[:, :k], target[:, :k], right_nb[:, :k],
                    rl[:k], rr[:k])
            np.multiply(_upper(left_nb, right_nb, rl, rr), v, out=target)
        if hist is not None:
            hist[:, q + 1] = xp.take(slot, axis=1)


class _BlockPlan:
    """The block loop's setup on one law for one (k, w), built whole: the
    start picker, blocks[s] = (caps, 1/r within, left and right 1/r,
    cap[s], cap[s + 1] (cap[s] at k = 1), 1/r[s]) for every start s, and
    run_coupled_pair's default far start, the one field set later."""

    __slots__ = ("pick", "blocks", "antipode")

    def __init__(self, dist, k, w):
        caps = dist.caps.tolist()
        rec = dist.rec.tolist()
        self.pick = _start_picker(dist.n - k, w)
        self.blocks = [(caps[s:s + k], rec[s:s + k - 1], rec[s - 1],
                        rec[s + k - 1], caps[s], caps[s + (k > 1)], rec[s])
                       for s in range(dist.n - k)]
        self.antipode = None


def _block_plan(dist, k, w) -> _BlockPlan:
    """dist's plan for (k, w), built whole on the first call and shared
    by every later _run_block and run_coupled_pair call on that law."""
    plans = _PLANS.setdefault(dist, {})
    plan = plans.get((k, w))
    if plan is None:
        plan = plans[k, w] = _BlockPlan(dist, k, w)
    return plan


def _run_block(dist, chains, total, config, rng, step):
    """The rejection sweep for blocks of config.k sites, on one chain or
    on several that share every block start and every proposal.

    Each chain adopts the first proposal feasible for it, so each one is
    marginally the plain block Gibbs chain. A proposal's tests within the
    block run once (straight-line code for the first two sites), then
    each waiting chain tests its two ends with a full check's float
    operations; chains that accept share one list of values. It only
    reads the law's plan (_block_plan). After update done (1-based), at
    block start s with tries proposals drawn, step(done, s, tries) does
    the caller's bookkeeping; a true return ends the run.
    """
    m = dist.n - 1
    k = config.k
    plan = _block_plan(dist, k, config.w)
    pick, blocks = plan.pick, plan.blocks
    max_tries = config.max_rejection_tries
    # uniforms read by index, in chunks that double from 256 to _BATCH
    us, i, size, refill = rng.random(256).tolist(), 0, 512, 256 - k
    for done in range(1, total + 1):
        s = pick(us[i])
        i += 1
        e = s + k
        box, within, rl, rr, cap0, cap1, rec0 = blocks[s]
        # (chain, left bound, right neighbour); past an end no proposal
        # exceeds inf, and -inf exceeds no bound
        waiting = [(c, 1.0 - rl * c[s - 1] if s else math.inf,
                    c[e] if e < m else -math.inf) for c in chains]
        tries = 0
        while waiting:
            tries += 1
            if tries > max_tries:
                raise StallError(s, tries - 1)
            if i >= refill:  # this proposal and the next start
                us, i = us[i:] + rng.random(size).tolist(), 0
                refill, size = len(us) - k, min(2 * size, _BATCH)
            a = i
            i += k
            first = prev = us[a] * cap0
            if k > 1:
                prev = us[a + 1] * cap1
                if prev > 1.0 - rec0 * first:
                    continue
            t = 2
            while t < k:
                p = us[a + t] * box[t]
                if p > 1.0 - within[t - 1] * prev:
                    break
                prev = p
                t += 1
            else:
                right = 1.0 - rr * prev
                values = None
                rest = []
                for w in waiting:
                    if first > w[1] or w[2] > right:
                        rest.append(w)
                    else:
                        if values is None:
                            values = ([first] if k == 1 else
                                      [first, prev] if k == 2 else
                                      [u * b for u, b in zip(us[a:i], box)])
                        w[0][s:e] = values
                waiting = rest
        if step(done, s, tries):
            return


def _block_chain(dist, c, total, config, rng, store, keep):
    """The k >= 2 block chain from the list c, updated in place, for total
    updates; store[r] gets coordinates keep after update burnin + (r+1)*thin.
    Returns the proposals drawn."""
    burnin, thin = config.burnin, config.thin
    idx = keep.tolist()
    tries = 0

    def step(done, s, drawn):
        nonlocal tries
        tries += drawn
        if done > burnin and (done - burnin) % thin == 0:
            store[(done - burnin) // thin - 1] = [c[i] for i in idx]

    _run_block(dist, [c], total, config, rng, step)
    return tries


def _window_chains(rows: int) -> int:
    """Chains behind a window of rows rows: _WINDOW_CHAINS, or one a row
    when there are fewer rows, so that no chain is empty."""
    return max(1, min(_WINDOW_CHAINS, rows))


def collect_window(config: SamplerConfig, coords) -> np.ndarray:
    """Retained values of selected coordinates: config.steps //
    config.thin rows from R = _window_chains(rows) independent chains,
    each from its own exact draw, so every row is stationary.

    The rows come chain by chain, in the runs that np.array_split(rows,
    R) cuts: chain j writes rows // R rows, one more when j < rows % R,
    to store[j] of one store as deep as the longest run. burnin and
    thin count one chain's updates. At k = 1 the chains run in one
    numpy scan (_run_scan); at k >= 2 chain j is a _block_chain on the
    stream substream(stream_fingerprint(config.seed, j)).
    """
    dist = config.dist
    _check_scan_weight(config.k, config.w)
    keep = _kept(coords, dist.n - 1)
    rows = config.steps // config.thin
    if not rows:
        return np.empty((0, keep.size))
    chains = _window_chains(rows)
    lengths = [rows // chains + (j < rows % chains) for j in range(chains)]
    starts = exact_draw(dist, config.seed, (chains,))
    store = np.empty((chains, lengths[0], keep.size))
    if config.k == 1:
        _run_scan(dist, starts, config.burnin + lengths[0] * config.thin,
                  config, substream(config.seed), store, keep)
    else:
        for j, g in enumerate(lengths):
            _block_chain(dist, starts[j].tolist(),
                         config.burnin + g * config.thin, config,
                         substream(stream_fingerprint(config.seed, j)),
                         store[j], keep)
    return np.concatenate([s[:g] for s, g in zip(store, lengths)])


def oracle_samples(dist: StationaryDist, count: int,
                   rng: np.random.Generator) -> np.ndarray:
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
        c = rng.random((_ORACLE_BATCH, m)) * caps
        # np.all(axis=1) reduces along rows of m flags, about 7x slower
        # than and-ing the rows of the transposed copy
        ok = np.ascontiguousarray((c <= _bounds(dist, c)).T)
        acc = c[np.logical_and.reduce(ok)]
        take = min(count - got, acc.shape[0])
        out[got:got + take] = acc[:take]
        got += take
    return out


def run_coupled_pair(config: SamplerConfig) -> CoupledTrace:
    """Evolve two chains on shared randomness until they merge.

    Both chains see the same block starts and the same proposal stream;
    each adopts the first proposal feasible for itself. Marginally each
    chain is the plain Gibbs chain, and whenever the first shared
    proposal suits both, the block coalesces exactly.

    The pair starts antipodal, zero against 0.9375 * greedy_max_state:
    the backoff by 1/16 from the vertex, where a neighbour's conditional
    slab has width exactly 0 and no proposal is ever accepted, keeps
    every slab at least cap/16 wide (scaling a feasible state by s in
    [0, 1] stays feasible). That far state is made once and kept in the
    law's block plan (_block_plan). The pair runs until it merges or for
    config.burnin + config.steps updates; config.thin plays no part.
    """
    dist = config.dist
    plan = _block_plan(dist, config.k, config.w)
    if plan.antipode is None:
        plan.antipode = (0.9375 * greedy_max_state(dist)).tolist()
    x, y = [0.0] * (dist.n - 1), list(plan.antipode)
    coalesced_at = None

    def step(done, s, tries):
        nonlocal coalesced_at
        if x == y:
            coalesced_at = done
            return True

    _run_block(dist, [x, y], config.burnin + config.steps, config,
               substream(config.seed), step)
    return CoupledTrace(coalesced_at=coalesced_at)
