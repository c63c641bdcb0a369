"""Comparison of sampled kernels against the Metropolis reference chain.

The Metropolis chain for a distribution is the deterministic benchmark:
if it does not exhibit cutoff, neither do typical random kernels with
the same stationary law. The apparatus here mirrors that argument at
finite n: quartile hitting statistics for the reference chain, a cut
index chosen where the gap-bound sums peak, and an ensemble diagnostic
flagging replicates whose mixing product exceeds the comparison
threshold.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import _miclo_log_curves, analyze
from .dist import StationaryDist
from .errors import EmptyEnsembleError, ParameterError
from .kernel import metropolis_kernel

FLAG_CONSTANT = 24576.0  # comparison threshold multiplier, over alpha


class MetropolisReport(NamedTuple):
    """Quartiles and mixing statistics of the reference chain."""

    u: int
    m: int
    v: int
    tau_met: float
    gap_met: float
    B_met: float
    product_met: float


def metropolis_report(dist: StationaryDist) -> MetropolisReport:
    """Reference-chain summary: quartile hitting time, gap, gap bound.

    tau_met is analyze's hitting-time proxy of the (already lazy) chain:
    the larger of the two crossing times between an endpoint and the far
    quartile, which tracks the true mixing time within universal constants.
    """
    if dist.n < 5:
        raise ParameterError(
            f"comparison statistics need n >= 5, got {dist.n}")
    report = analyze(metropolis_kernel(dist), lazy=False, exact_tau=False)
    return MetropolisReport(
        u=dist.quantile(0.25), m=dist.quantile(0.5), v=dist.quantile(0.75),
        tau_met=report.tau_proxy, gap_met=report.gap, B_met=report.miclo.B,
        product_met=report.cutoff_product)


class XnSelection(NamedTuple):
    x_n: int
    side: str           # "minus" (below the median) or "plus" (above)
    alpha_achieved: float


def find_xn(dist: StationaryDist, alpha: float | None = None) -> XnSelection:
    """Cut index where the Metropolis gap-bound sums peak.

    Scans every candidate on both sides of the median. With alpha=None
    (the default) the global argmax is returned, realizing the largest
    possible fraction of the overall bound B; ties between sides
    resolve to the minus side for determinism. A requested alpha keeps
    the weaker minus side whenever it attains that fraction of B.

    The discrete median breaks mirror symmetry at even state counts:
    the central edge joins the upper sum, so for an even symmetric
    distribution the default argmax sits a quarter of the mass below
    the top rather than above the bottom. Requesting, say, alpha=0.9
    recovers the below-median quarter cut.
    """
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ParameterError(
            f"alpha must be in (0, 1], got {alpha}")
    met = metropolis_kernel(dist)
    m, vals_minus, vals_plus = _miclo_log_curves(met)
    best_minus = float(vals_minus.max()) if vals_minus.size else -np.inf
    best_plus = float(vals_plus.max()) if vals_plus.size else -np.inf
    logb = max(best_minus, best_plus)
    if not np.isfinite(logb):
        raise ParameterError(
            f"no usable cut index at n = {dist.n}; need mass strictly "
            "beyond a candidate cut on at least one side")
    frac_minus = float(np.exp(best_minus - logb))
    take_minus = (best_minus >= best_plus
                  or (alpha is not None and frac_minus >= alpha))
    if take_minus:
        x = int(np.argmax(vals_minus))
        side = "minus"
        achieved = frac_minus
    else:
        x = m + 1 + int(np.argmax(vals_plus))
        side = "plus"
        achieved = 1.0
    return XnSelection(x_n=x, side=side, alpha_achieved=achieved)


@dataclass(frozen=True)
class ComparisonReport:
    """Ensemble of sampled kernels against the Metropolis benchmark.

    products holds each replicate's proxy mixing product (half-lazy
    kernel); ratios divides by the reference product. flagged is a
    boolean mask, aligned with products, marking replicates whose
    product exceeds threshold = (24576/alpha) * product_met; the
    comparison argument says that event becomes rare as n grows.
    """

    metropolis: MetropolisReport
    x_n: int
    side: str
    alpha: float
    products: np.ndarray
    ratios: np.ndarray
    ratio_quantiles: dict
    threshold: float
    flagged: np.ndarray


_RATIO_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def comparison_diagnostic(dist: StationaryDist, products,
                          alpha: float | None = None) -> ComparisonReport:
    """Proxy mixing products of an ensemble, relative to Metropolis."""
    products = np.array(products, dtype=float)
    if not products.size:
        raise EmptyEnsembleError("comparison needs at least one product")
    met = metropolis_report(dist)
    sel = find_xn(dist, alpha)
    alpha_used = sel.alpha_achieved if alpha is None else float(alpha)
    ratios = products / met.product_met
    quantiles = {q: float(np.quantile(ratios, q)) for q in _RATIO_QUANTILES}
    threshold = (FLAG_CONSTANT / alpha_used) * met.product_met
    flagged = products > threshold
    return ComparisonReport(metropolis=met, x_n=sel.x_n, side=sel.side,
                            alpha=alpha_used, products=products,
                            ratios=ratios, ratio_quantiles=quantiles,
                            threshold=threshold, flagged=flagged)
