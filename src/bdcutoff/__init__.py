"""Random birth-death kernels with a prescribed stationary law.

The package samples tridiagonal reversible transition matrices
uniformly from the polytope determined by a stationary distribution,
and measures their mixing behavior: spectral gap, weighted-sum gap
bounds, expected hitting times, total-variation mixing times, and the
product diagnostics that separate cutoff from non-cutoff families.
"""

from .errors import (DomainError, EmptyEnsembleError, FeasibilityError,
                     NonErgodicError, NotMixedError, ParameterError,
                     SpectrumError, StallError)
from .dist import FAMILIES, StationaryDist, make_distribution
from .kernel import (BDKernel, check_feasibility, kernel_from_superdiagonal,
                     metropolis_kernel)
from .sampler import (CoupledTrace, GibbsTrace, SamplerConfig,
                      collect_window, greedy_max_state, oracle_samples,
                      run_coupled_pair, run_gibbs, stream_fingerprint,
                      substream)
from .analysis import (AnalysisReport, EXACT_TAU_LIMIT, MicloBounds, analyze,
                       expected_hitting_time, miclo_bounds, mixing_profile,
                       mixing_time, pairwise_distance_profile, spectral_gap)
from .compare import (ComparisonReport, MetropolisReport, XnSelection,
                      comparison_diagnostic, find_xn, metropolis_report)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "EmptyEnsembleError", "FeasibilityError",
    "NonErgodicError", "NotMixedError", "ParameterError", "SpectrumError",
    "StallError",
    "FAMILIES", "StationaryDist", "make_distribution",
    "BDKernel", "check_feasibility", "kernel_from_superdiagonal",
    "metropolis_kernel",
    "CoupledTrace", "GibbsTrace", "SamplerConfig", "collect_window",
    "greedy_max_state", "oracle_samples", "run_coupled_pair", "run_gibbs",
    "stream_fingerprint", "substream",
    "AnalysisReport", "EXACT_TAU_LIMIT", "MicloBounds", "analyze",
    "expected_hitting_time", "miclo_bounds", "mixing_profile",
    "mixing_time", "pairwise_distance_profile", "spectral_gap",
    "ComparisonReport", "MetropolisReport", "XnSelection",
    "comparison_diagnostic", "find_xn", "metropolis_report",
    "__version__",
]
