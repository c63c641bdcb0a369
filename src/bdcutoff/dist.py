"""Stationary distributions on the path graph.

Masses are kept in natural-log space so that geometrically decaying
families survive state counts in the thousands (a**n far outside double
range). Cumulative masses are accumulated with streaming log-sum-exp.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

FAMILIES = ("uniform", "geometric", "if", "binomial", "explicit")


@dataclass(frozen=True, eq=False)
class StationaryDist:
    """A strictly positive probability distribution on states 0..n-1.

    Attributes
    ----------
    n : int
        Number of states. For the ``if`` family this is the full state
        count 2*m-1 produced from the size parameter m, never inferred.
    family : str
        One of ``FAMILIES``.
    params : dict
        Family parameters used to build the distribution.
    log_mass : ndarray
        Normalized log masses, length n.
    log_prefix, log_suffix : ndarray
        log of cumulative mass up to and including state i, and from
        state i to the end.
    ratios : ndarray
        ``ratios[i] = pi(i+1)/pi(i)`` in closed form per family, length
        n-1. These are the single source of truth for neighbor ratios;
        everything downstream (kernels, samplers) uses them so that
        feasibility arithmetic is bit-for-bit consistent.
    """

    n: int
    family: str
    params: dict
    log_mass: np.ndarray
    log_prefix: np.ndarray
    log_suffix: np.ndarray
    ratios: np.ndarray
    mass: np.ndarray = field(init=False, repr=False)
    prefix: np.ndarray = field(init=False, repr=False)
    caps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # linear views; entries may underflow to 0.0 for extreme families,
        # log arrays remain the authoritative representation
        object.__setattr__(self, "mass", np.exp(self.log_mass))
        object.__setattr__(self, "prefix", np.exp(self.log_prefix))
        object.__setattr__(self, "caps", np.minimum(1.0, self.ratios))

    def quantile(self, delta: float) -> int:
        """Smallest state k whose prefix mass reaches delta."""
        if not 0.0 < delta < 1.0:
            raise ParameterError(f"quantile level must be in (0, 1), got {delta}")
        return int(np.searchsorted(self.prefix, delta, side="left"))


def _finish(family: str, n: int, params: dict, log_unnorm: np.ndarray,
            ratios: np.ndarray) -> StationaryDist:
    lp = np.logaddexp.accumulate(log_unnorm)
    total = lp[-1]
    ls = np.logaddexp.accumulate(log_unnorm[::-1])[::-1] - total
    lm = log_unnorm - total
    lp = lp - total
    lp[-1] = 0.0
    ls[0] = 0.0
    return StationaryDist(n=n, family=family, params=params, log_mass=lm,
                          log_prefix=lp, log_suffix=ls, ratios=ratios)


def make_distribution(family: str, n: int, *, a: float | None = None,
                      eps: float | None = None,
                      mass=None, log_mass=None) -> StationaryDist:
    """Build a stationary distribution of the named family.

    Parameters
    ----------
    family : {"uniform", "geometric", "if", "binomial", "explicit"}
    n : int
        Size parameter. For ``if`` this is the half-size m and the
        resulting distribution lives on 2*m-1 states; for every other
        family it is the state count. ``binomial`` with n states tosses
        n-1 fair coins.
    a : float, optional
        Geometric rate, required finite and > 1 for ``geometric`` and ``if``.
    eps : float, optional
        Flat-region exponent in (0, 1), required for ``if``.
    mass, log_mass : sequence, optional
        Explicit masses (strictly positive) or log masses for the
        ``explicit`` family. Exactly one of the two.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    if n < 2:
        raise ParameterError(f"need at least 2 states, got n={n}")

    if family == "uniform":
        return _finish(family, n, {}, np.zeros(n), np.ones(n - 1))
    if family in ("geometric", "if") and (
            a is None or not 1.0 < a < math.inf):
        raise ParameterError(f"{family} family needs a finite a > 1, got {a}")

    if family == "geometric":
        idx = np.arange(n, dtype=float)
        return _finish(family, n, {"a": a}, idx * math.log(a),
                       np.full(n - 1, float(a)))

    if family == "binomial":
        coins = n - 1
        x = np.arange(n, dtype=float)
        lu = (math.lgamma(coins + 1)
              - np.array([math.lgamma(v + 1) + math.lgamma(coins - v + 1)
                          for v in range(n)]))
        i = np.arange(n - 1, dtype=float)
        ratios = (coins - i) / (i + 1.0)
        return _finish(family, n, {"coins": coins}, lu, ratios)

    if family == "if":
        if eps is None or not 0.0 < eps < 1.0:
            raise ParameterError(f"if family needs eps in (0, 1), got {eps}")
        # half-width of the flat region; +1e-9 so n**eps an ulp below an
        # integer still counts that state
        flat = int(math.floor(n ** eps + 1e-9))
        nstates = 2 * n - 1
        center = n - 1
        depth = np.maximum(0, np.abs(np.arange(nstates) - center) - flat)
        lu = -depth.astype(float) * math.log(a)
        dd = np.diff(depth)
        ratios = np.where(dd < 0, float(a), np.where(dd > 0, 1.0 / a, 1.0))
        params = {"n": n, "a": a, "eps": eps, "flat_halfwidth": flat}
        return _finish(family, nstates, params, lu, ratios)

    # explicit
    if (mass is None) == (log_mass is None):
        raise ParameterError("explicit family needs exactly one of mass/log_mass")
    if mass is not None:
        m = np.asarray(mass, dtype=float)
        if m.shape != (n,):
            raise ParameterError(f"mass list has length {m.size}, expected {n}")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise DomainError("explicit masses must be finite and strictly positive")
        lu = np.log(m)
    else:
        lu = np.asarray(log_mass, dtype=float)
        if lu.shape != (n,):
            raise ParameterError(f"log_mass list has length {lu.size}, expected {n}")
        if not np.all(np.isfinite(lu)):
            raise DomainError("explicit log masses must be finite")
    return _finish("explicit", n, {}, lu, np.exp(np.diff(lu)))
