"""Kernel construction, feasibility, laziness, and the reference chain."""

import numpy as np
import pytest

from bdcutoff.analysis import spectral_gap
from bdcutoff.dist import make_distribution
from bdcutoff.errors import FeasibilityError, ParameterError
from bdcutoff.kernel import (check_feasibility, kernel_from_superdiagonal,
                             metropolis_kernel)
from bdcutoff.sampler import oracle_samples, substream

UNI2 = make_distribution("uniform", 2)
UNI3 = make_distribution("uniform", 3)


def test_two_state_matrix():
    kern = kernel_from_superdiagonal(UNI2, [0.6])
    assert np.allclose(kern.dense(), [[0.4, 0.6], [0.6, 0.4]], atol=1e-15)


def test_forced_rows_with_absorbing_state():
    # c=(1,0) saturates the first constraint and cuts the last state off
    kern = kernel_from_superdiagonal(UNI3, [1.0, 0.0])
    want = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert np.allclose(kern.dense(), want, atol=1e-15)


def test_infeasible_state_reports_index():
    with pytest.raises(FeasibilityError) as err:
        kernel_from_superdiagonal(UNI3, [0.8, 0.5])
    assert err.value.index == 1


def test_check_feasibility_tolerance():
    assert check_feasibility(UNI3, [0.5, 0.5 + 1e-13]) is None
    assert check_feasibility(UNI3, [0.5, 0.5 + 1e-9]) == 1
    assert check_feasibility(UNI3, [-0.1, 0.2]) == 0


@pytest.mark.parametrize("at", [0, 3])
def test_nan_entry_is_infeasible(at):
    dist = make_distribution("uniform", 8)
    c = np.full(7, 0.25)
    c[at] = np.nan
    assert check_feasibility(dist, c) == at
    with pytest.raises(FeasibilityError) as err:
        kernel_from_superdiagonal(dist, c)
    assert err.value.index == at
    assert check_feasibility(dist, [np.nan] * 7) == 0


def test_lazy_examples():
    assert np.allclose(
        kernel_from_superdiagonal(UNI3, [0.0, 0.0]).lazy(0.3).c, 0.0)
    lz = kernel_from_superdiagonal(UNI2, [0.6]).lazy(0.5)
    assert np.allclose(lz.c, [0.3], atol=1e-15)
    assert np.allclose(np.diag(lz.dense()), [0.7, 0.7], atol=1e-15)


def test_lazy_halves_the_gap():
    dist = make_distribution("uniform", 8)
    c = oracle_samples(dist, 1, substream(18))[0]
    kern = kernel_from_superdiagonal(dist, c)
    assert spectral_gap(kern.lazy(0.5)) == pytest.approx(
        0.5 * spectral_gap(kern), rel=1e-10)


def test_lazy_delta_domain():
    kern = kernel_from_superdiagonal(UNI2, [0.6])
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            kern.lazy(bad)


def test_metropolis_uniform_rows():
    met = metropolis_kernel(make_distribution("uniform", 5)).dense()
    for i in (1, 2, 3):
        assert met[i, i - 1] == pytest.approx(0.25)
        assert met[i, i] == pytest.approx(0.5)
        assert met[i, i + 1] == pytest.approx(0.25)
    assert met[0, 0] == pytest.approx(0.75)
    assert met[4, 4] == pytest.approx(0.75)


def test_metropolis_binomial_center_row():
    met = metropolis_kernel(make_distribution("binomial", 3)).dense()
    assert met[1, 0] == pytest.approx(0.125)
    assert met[1, 2] == pytest.approx(0.125)
    assert met[1, 1] == pytest.approx(0.75)


@pytest.mark.parametrize("family,kw", [
    ("uniform", {}),
    ("geometric", {"a": 3.0}),
    ("binomial", {}),
])
def test_metropolis_detailed_balance_exact(family, kw):
    dist = make_distribution(family, 11, **kw)
    met = metropolis_kernel(dist).dense()
    flow_up = dist.mass[:-1] * np.diag(met, 1)
    flow_down = dist.mass[1:] * np.diag(met, -1)
    assert np.allclose(flow_up, flow_down, rtol=1e-12)


def test_sampled_kernels_are_valid_stochastic_matrices():
    rng = substream(19)
    for family, kw in (("uniform", {}), ("geometric", {"a": 2.0}),
                       ("binomial", {})):
        dist = make_distribution(family, 10, **kw)
        for c in oracle_samples(dist, 25, rng):
            K = kernel_from_superdiagonal(dist, c).dense()
            assert np.all(K >= 0.0) and np.all(K <= 1.0)
            assert np.allclose(K.sum(axis=1), 1.0, atol=1e-12)
            assert np.allclose(K, np.triu(np.tril(K, 1), -1), atol=0.0)
            flow_up = dist.mass[:-1] * np.diag(K, 1)
            flow_down = dist.mass[1:] * np.diag(K, -1)
            assert np.allclose(flow_up, flow_down, rtol=1e-12)

