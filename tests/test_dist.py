"""Stationary-distribution families: masses, ratios, prefix sums, quantiles."""

import math

import numpy as np
import pytest

from bdcutoff.dist import FAMILIES, make_distribution
from bdcutoff.errors import DomainError, ParameterError


def test_uniform_masses():
    d = make_distribution("uniform", 4)
    assert np.allclose(d.mass, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_binomial_masses_two_coins():
    d = make_distribution("binomial", 3)
    assert np.allclose(d.mass, [0.25, 0.5, 0.25], atol=1e-15)


def test_if_ratio_by_region():
    # geometric climb on the left flank, flat plateau in the middle
    d = make_distribution("if", 100, eps=0.5, a=2.0)
    assert d.n == 199
    center = d.n // 2
    flat = d.params["flat_halfwidth"]
    assert d.ratios[0] == pytest.approx(2.0, rel=1e-15)
    assert d.ratios[center] == pytest.approx(1.0, rel=1e-15)
    assert d.ratios[center - flat] == pytest.approx(1.0, rel=1e-15)
    assert d.ratios[center - flat - 1] == pytest.approx(2.0, rel=1e-15)
    assert d.ratios[d.n - 2] == pytest.approx(0.5, rel=1e-15)


def test_ratio_uniform_and_geometric():
    assert make_distribution("uniform", 8).ratios[3] == 1.0
    g = make_distribution("geometric", 6, a=2.0)
    for i in range(5):
        assert g.ratios[i] == 2.0


def test_ratio_binomial():
    assert make_distribution("binomial", 3).ratios[0] == pytest.approx(2.0)


def test_prefix_mass():
    assert make_distribution("uniform", 4).prefix[1] == pytest.approx(0.5)
    assert make_distribution("binomial", 3).prefix[0] == pytest.approx(0.25)
    d = make_distribution("if", 100, eps=0.5, a=2.0)
    assert d.prefix[d.n - 1] == pytest.approx(1.0, abs=1e-12)


def test_quantile_examples():
    assert make_distribution("uniform", 4).quantile(0.5) == 1
    assert make_distribution("binomial", 3).quantile(0.25) == 0
    assert make_distribution("uniform", 101).quantile(0.75) == 75


def test_quantile_domain():
    d = make_distribution("uniform", 4)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            d.quantile(bad)


@pytest.mark.parametrize("family,kw", [
    ("uniform", {}),
    ("geometric", {"a": 2.0}),
    ("binomial", {}),
    ("if", {"eps": 0.5, "a": 2.0}),
])
def test_normalization_and_ratio_consistency(family, kw):
    d = make_distribution(family, 30, **kw)
    assert abs(float(np.exp(d.log_mass).sum()) - 1.0) < 1e-12
    # closed-form neighbor ratios must agree with the log-mass differences
    log_diff = np.exp(np.diff(d.log_mass))
    assert np.allclose(d.ratios, log_diff, rtol=1e-12)


def test_quantile_monotone_in_level():
    d = make_distribution("binomial", 40)
    levels = np.linspace(0.01, 0.99, 33)
    qs = [d.quantile(x) for x in levels]
    assert all(a <= b for a, b in zip(qs, qs[1:]))
    for i in range(d.n):
        p = d.prefix[i]
        if 0.0 < p < 1.0:
            assert d.quantile(p) <= i


def test_if_symmetry():
    d = make_distribution("if", 37, eps=0.25, a=3.0)
    assert np.allclose(d.log_mass, d.log_mass[::-1], atol=1e-12)


def test_explicit_family_matches_binomial():
    d = make_distribution("explicit", 3, mass=(0.25, 0.5, 0.25))
    b = make_distribution("binomial", 3)
    assert np.allclose(d.log_mass, b.log_mass, atol=1e-12)
    # unnormalized input is fine, masses are renormalized
    d2 = make_distribution("explicit", 3, mass=(1.0, 2.0, 1.0))
    assert np.allclose(d2.mass, b.mass, atol=1e-12)


def test_explicit_family_validation():
    with pytest.raises(ParameterError):
        make_distribution("explicit", 3)
    with pytest.raises(ParameterError):
        make_distribution("explicit", 3, mass=(0.5, 0.5), log_mass=(0.0, 0.0))
    with pytest.raises(ParameterError):
        make_distribution("explicit", 3, mass=(0.5, 0.5))
    with pytest.raises(DomainError):
        make_distribution("explicit", 3, mass=(0.5, 0.0, 0.5))
    with pytest.raises(DomainError):
        make_distribution("explicit", 2, log_mass=(0.0, float("inf")))


def test_family_and_parameter_validation():
    with pytest.raises(ParameterError):
        make_distribution("poisson", 5)
    with pytest.raises(ParameterError):
        make_distribution("uniform", 1)
    with pytest.raises(ParameterError):
        make_distribution("geometric", 5, a=1.0)
    with pytest.raises(ParameterError):
        make_distribution("if", 5, a=2.0, eps=1.0)
    with pytest.raises(ParameterError):
        make_distribution("if", 5, a=0.5, eps=0.5)
    for family in ("geometric", "if"):
        with pytest.raises(ParameterError):
            make_distribution(family, 5, a=float("inf"), eps=0.5)
    assert set(FAMILIES) == {"uniform", "geometric", "if", "binomial",
                             "explicit"}
