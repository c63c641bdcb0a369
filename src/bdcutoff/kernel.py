"""Birth and death kernels reversible with respect to a fixed distribution.

A kernel is determined by its super-diagonal c, c[i] = K(i, i+1). The
sub-diagonal follows from detailed balance, sub[i] = K(i+1, i) =
c[i] * pi(i)/pi(i+1), and the diagonal soaks up the remainder. Feasible
c vectors are exactly those keeping every diagonal entry nonnegative.
"""

from dataclasses import dataclass, field

import numpy as np

from .dist import StationaryDist
from .errors import FeasibilityError, ParameterError

FEASIBILITY_TOL = 1e-12  # feasibility slack on both sides of every bound


def _bounds(dist: StationaryDist, c: np.ndarray):
    """Row-form upper bounds along the last axis of c (one super-diagonal
    or a batch of them): 1 minus the left-neighbor term, capped so the
    last row stays stochastic. The conjunction over all i equals the
    usual two-sided min() constraints (each pair constraint appears as
    the left term of the higher coordinate)."""
    upper = np.ones(c.shape)
    upper[..., 1:] = 1.0 - c[..., :-1] * dist.rec[:-1]
    upper[..., -1] = np.minimum(upper[..., -1], dist.ratios[-1])
    return upper


def check_feasibility(dist: StationaryDist, c):
    """Return the first coordinate violating feasibility, or None.

    A vector c of length n-1 is feasible when every entry sits in
    [0, min(1 - c[i-1]*pi(i-1)/pi(i), (1 - c[i+1])*pi(i+1)/pi(i))]
    with the out-of-range neighbors treated as 0. Violations are
    tested with slack FEASIBILITY_TOL on both sides and attributed
    row-wise: a broken pair constraint names the higher coordinate,
    whose row's diagonal would go negative. A non-finite entry is never
    inside its bounds, so it is a violation too.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (dist.n - 1,):
        raise ParameterError(
            f"superdiagonal has length {c.size}, expected {dist.n - 1}")
    bad = ~((c >= -FEASIBILITY_TOL)
            & (c <= _bounds(dist, c) + FEASIBILITY_TOL))
    if not bad.any():
        return None
    return int(np.nonzero(bad)[0][0])


@dataclass(frozen=True, eq=False)
class BDKernel:
    """Tridiagonal stochastic matrix, stored by its three diagonals."""

    dist: StationaryDist
    c: np.ndarray        # super-diagonal, length n-1
    sub: np.ndarray      # sub-diagonal, length n-1; sub[i] = K(i+1, i)
    diag: np.ndarray     # length n
    max_recip_superdiag: float = field(init=False)

    def __post_init__(self):
        cmin = float(self.c.min()) if self.c.size else 0.0
        v = np.inf if cmin <= 0.0 else float(np.max(1.0 / self.c))
        object.__setattr__(self, "max_recip_superdiag", v)

    @property
    def n(self) -> int:
        return self.dist.n

    def evolve(self, v: np.ndarray) -> np.ndarray:
        """One step of the distribution flow, v -> vK, along the last
        axis (one distribution or a stack of them)."""
        out = v * self.diag
        out[..., 1:] += v[..., :-1] * self.c
        out[..., :-1] += v[..., 1:] * self.sub
        return out

    def lazy(self, delta: float = 0.5) -> "BDKernel":
        """The lazier mixture delta*I + (1-delta)*K; same stationary law.

        Every eigenvalue's distance from 1 shrinks by the factor
        1 - delta.
        """
        if not 0.0 < delta < 1.0:
            raise ParameterError(f"laziness must be in (0, 1), got {delta}")
        keep = 1.0 - delta
        return BDKernel(dist=self.dist, c=keep * self.c, sub=keep * self.sub,
                        diag=delta + keep * self.diag)

    def dense(self) -> np.ndarray:
        """Full n-by-n matrix; for small-state inspection and tests."""
        k = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        k[idx, idx + 1] = self.c
        k[idx + 1, idx] = self.sub
        return k


def kernel_from_superdiagonal(dist: StationaryDist, c, *,
                              check: bool = True) -> BDKernel:
    """Assemble the kernel with super-diagonal c.

    With ``check`` (the default) an infeasible c raises FeasibilityError
    carrying the first offending coordinate.
    """
    c = np.asarray(c, dtype=float).copy()
    if c.shape != (dist.n - 1,):
        raise ParameterError(
            f"superdiagonal has length {c.size}, expected {dist.n - 1}")
    if check:
        idx = check_feasibility(dist, c)
        if idx is not None:
            raise FeasibilityError(idx)
    sub = c / dist.ratios
    diag = np.ones(dist.n)
    diag[:-1] -= c
    diag[1:] -= sub
    # tolerated slack can push a boundary-tight diagonal an ulp below zero
    np.maximum(diag, 0.0, out=diag)
    return BDKernel(dist=dist, c=c, sub=sub, diag=diag)


def metropolis_kernel(dist: StationaryDist) -> BDKernel:
    """Lazy Metropolis chain for dist.

    Proposes each neighbor with probability 1/4 and accepts with the
    usual ratio, so K(i, i+1) = min(1, pi(i+1)/pi(i))/4. Holding
    probability is at least 1/2 everywhere.
    """
    return kernel_from_superdiagonal(dist, 0.25 * dist.caps, check=False)
