"""Metropolis benchmark statistics, cut selection, comparison diagnostic."""

import math

import numpy as np
import pytest

from conftest import equilibrated_kernel

from bdcutoff.analysis import analyze, expected_hitting_time, miclo_bounds
from bdcutoff.compare import (FLAG_CONSTANT, comparison_diagnostic, find_xn,
                              metropolis_report)
from bdcutoff.dist import make_distribution
from bdcutoff.errors import EmptyEnsembleError, ParameterError
from bdcutoff.kernel import metropolis_kernel
from bdcutoff.sampler import stream_fingerprint


def _products(dist, seed, reps):
    """Proxy mixing products of reps equilibrated kernels."""
    return [analyze(equilibrated_kernel(dist, stream_fingerprint(seed, r)),
                    exact_tau=False).cutoff_product
            for r in range(reps)]


def test_report_quartiles_uniform():
    rep = metropolis_report(make_distribution("uniform", 128))
    assert (rep.u, rep.m, rep.v) == (31, 63, 95)
    assert rep.tau_met > 0 and rep.gap_met > 0 and rep.B_met > 0
    assert rep.product_met == pytest.approx(rep.tau_met * rep.gap_met)


def test_report_product_bounded_for_flat_mass():
    # no cutoff for the reference chain under flat mass: the product
    # stays order one as n grows
    products = [metropolis_report(make_distribution("uniform", n)).product_met
                for n in (64, 128, 256)]
    assert all(2.5 < p < 3.0 for p in products)


def test_report_binomial_hitting_scale():
    for n in (64, 128, 256):
        rep = metropolis_report(make_distribution("binomial", n))
        assert 0.1 <= rep.tau_met / (n * math.log(n)) <= 10.0


def test_report_mirror_symmetry():
    # the general identity: hitting the 3/4 quantile from the bottom
    # equals hitting its mirror state from the top
    for family, n in (("uniform", 64), ("uniform", 65), ("binomial", 64)):
        dist = make_distribution(family, n)
        met = metropolis_kernel(dist)
        v = dist.quantile(0.75)
        up = expected_hitting_time(met, 0, v)
        down = expected_hitting_time(met, n - 1, n - 1 - v)
        assert up == pytest.approx(down, rel=1e-9)
    # where the 1/4 quantile is itself the mirror of the 3/4 quantile
    # (odd flat mass; this binomial size), the report's two crossing
    # times coincide; even flat mass shifts u off the mirror by one
    for family, n in (("uniform", 65), ("binomial", 64)):
        dist = make_distribution(family, n)
        met = metropolis_kernel(dist)
        assert dist.quantile(0.25) == n - 1 - dist.quantile(0.75)
        up = expected_hitting_time(met, 0, dist.quantile(0.75))
        down = expected_hitting_time(met, n - 1, dist.quantile(0.25))
        assert up == pytest.approx(down, rel=1e-9)


def test_report_rejects_tiny_state_space():
    with pytest.raises(ParameterError):
        metropolis_report(make_distribution("uniform", 4))


def test_find_xn_odd_uniform():
    sel = find_xn(make_distribution("uniform", 129))
    assert sel.x_n == 32 and sel.side == "minus"
    assert abs(sel.x_n - 129 / 4) <= 2
    assert sel.alpha_achieved == pytest.approx(1.0)


def test_find_xn_even_uniform_needs_alpha_for_lower_cut():
    # the central edge joins the upper sum at even n, so the default
    # argmax lands a quarter below the top; alpha recovers the mirror
    assert find_xn(make_distribution("uniform", 128)).x_n == 95
    sel = find_xn(make_distribution("uniform", 128), alpha=0.9)
    assert sel.x_n == 31 and sel.side == "minus"
    assert abs(sel.x_n - 128 / 4) <= 2
    assert sel.alpha_achieved >= 0.9


def test_find_xn_sides_balance_for_symmetric_mass():
    b = miclo_bounds(metropolis_kernel(make_distribution("uniform", 129)))
    assert b.B_minus == pytest.approx(b.B_plus, rel=1e-9)


def test_find_xn_value_matches_gap_bound_side():
    for family, n in (("uniform", 129), ("uniform", 128), ("binomial", 64)):
        dist = make_distribution(family, n)
        sel = find_xn(dist)
        b = miclo_bounds(metropolis_kernel(dist))
        side_val = b.B_minus if sel.side == "minus" else b.B_plus
        assert sel.alpha_achieved * b.B == pytest.approx(side_val, rel=1e-10)


def test_find_xn_alpha_validation():
    uni = make_distribution("uniform", 16)
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            find_xn(uni, alpha=bad)


def test_diagnostic_empty_ensemble():
    dist = make_distribution("uniform", 8)
    with pytest.raises(EmptyEnsembleError):
        comparison_diagnostic(dist, [])


def test_diagnostic_ratio_is_dimensionless():
    dist = make_distribution("uniform", 16)
    rep = comparison_diagnostic(dist, _products(dist, 61, 5))
    assert np.allclose(rep.ratios,
                       rep.products / rep.metropolis.product_met)
    assert np.array_equal(rep.flagged, rep.products > rep.threshold)
    assert rep.threshold == pytest.approx(
        (FLAG_CONSTANT / rep.alpha) * rep.metropolis.product_met)
    assert rep.flagged.dtype == bool


def test_diagnostic_typical_products_near_reference():
    dist = make_distribution("uniform", 128)
    rep = comparison_diagnostic(dist, _products(dist, 60, 100))
    frac = float(np.mean(rep.products <= 50.0 * rep.metropolis.product_met))
    assert frac >= 0.9
    assert not rep.flagged.any()
    assert rep.ratio_quantiles[0.5] < 5.0
