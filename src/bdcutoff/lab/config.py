"""Experiment configuration shared by the runner, probes, and CLI."""

import math
import sys
from dataclasses import dataclass, fields

from ..analysis import DEFAULT_HORIZON
from ..dist import FAMILIES, StationaryDist, make_distribution
from ..errors import ParameterError
from ..sampler import SamplerConfig

FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bundle of every knob the CLI exposes.

    Sampler fields mirror SamplerConfig and are read only by the
    commands that can run a chain (sample and the probe windows and
    pairs); every chain and every sampled kernel starts from an exact
    draw, and where such a command runs no chain (_refuse_unread) a
    chain setting off its default is an error. Analysis fields
    control which mixing statistics run per replicate; probe fields are
    read only by the probe that needs them.
    """

    family: str = "uniform"
    n_list: tuple = (64,)
    a: float | None = None
    eps: float | None = None
    mass: tuple | None = None
    reps: int = 1
    k: int = 1
    w: float = 1.0
    steps: int = 0
    thin: int = 1
    seed: int = 0
    max_rejection_tries: int = 1_000_000
    exact_tau: bool = False
    horizon: int = DEFAULT_HORIZON
    delta: float = 0.75
    exhaustive_starts: bool = False
    raw_kernel: bool = False
    alpha: float | None = None
    coord: int | None = None
    probe_samples: int = 20_000
    probe_thin: int | None = None
    tail_grid: tuple = (5.0, 10.0, 20.0)
    window: int | None = None
    coupon_c: float = 1.0
    coupon_runs: int = 1000
    workers: int = 1
    timings: bool = False
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        if not self.n_list:
            raise ParameterError("n_list must be nonempty")
        object.__setattr__(self, "n_list",
                           tuple(int(n) for n in self.n_list))
        if min(self.n_list) < 1:
            raise ParameterError(f"n must be >= 1, got {min(self.n_list)}")
        # a size listed twice would repeat its rows, seeds and all
        twice = sorted({n for n in self.n_list if self.n_list.count(n) > 1})
        if twice:
            raise ParameterError(
                f"n lists {', '.join(map(str, twice))} more than once")
        if self.mass is not None:
            object.__setattr__(self, "mass",
                               tuple(float(v) for v in self.mass))
            if not all(0.0 < v < math.inf for v in self.mass):
                raise ParameterError(
                    f"mass must be finite and positive, got {self.mass}")
        if self.reps < 0:
            raise ParameterError(f"reps must be >= 0, got {self.reps}")
        if self.k < 1:
            raise ParameterError(f"block size k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.horizon < 1:
            raise ParameterError(f"horizon must be >= 1, got {self.horizon}")
        if self.probe_samples < 1:
            raise ParameterError(
                f"probe_samples must be >= 1, got {self.probe_samples}")
        if self.probe_thin is not None and self.probe_thin < 1:
            raise ParameterError(
                f"probe_thin must be >= 1, got {self.probe_thin}")
        # the contraction probe's limit law takes exp(coupon_c)
        if not -math.inf < self.coupon_c <= math.log(sys.float_info.max):
            raise ParameterError(
                f"coupon_c must be finite and at most ln of the largest "
                f"float (709.78...), got {self.coupon_c}")
        if self.coupon_runs < 1:
            raise ParameterError(
                f"coupon_runs must be >= 1, got {self.coupon_runs}")
        if self.format not in FORMATS:
            raise ParameterError(
                f"format must be one of {FORMATS}, got {self.format!r}")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")

    def make_dist(self, n: int) -> StationaryDist:
        return make_distribution(self.family, n, a=self.a, eps=self.eps,
                                 mass=self.mass)

    def equilibration_budget(self, n: int) -> int:
        """0: every chain starts from an exact draw. Its only caller is
        bench/checks.py::rebuild_kernel, and ROADMAP item 2b removes
        that call."""
        return 0

    def sampler_config(self, dist: StationaryDist, seed: int,
                       **overrides) -> SamplerConfig:
        """SamplerConfig for dist with this config's k, w and stall
        threshold; any other SamplerConfig field can be overridden."""
        settings = {"k": self.k, "w": self.w,
                    "max_rejection_tries": self.max_rejection_tries,
                    **overrides}
        return SamplerConfig(dist=dist, seed=seed, **settings)


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _refuse_unread(cfg: ExperimentConfig, names: str, why: str) -> None:
    """Raise ParameterError naming each field of names (as its flag)
    that cfg sets off its default, from a flag or from --config: why
    says what runs instead of a chain, so the setting would go unread."""
    unread = [f"--{name.replace('_', '-')} {getattr(cfg, name)}"
              for name in names.split()
              if getattr(cfg, name) != _DEFAULTS[name]]
    if unread:
        raise ParameterError(f"{why}, so {', '.join(unread)} would go "
                             "unread")
