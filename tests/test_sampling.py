import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import kstest

from epp_lab.kraus import CANONICAL_PARAMS
from epp_lab.linalg import schmidt_coefficients
from epp_lab.protocols import four_copy_bell_bound, full_pipeline
from epp_lab.sampling import (
    RNG_ALGORITHM,
    MonteCarloEstimate,
    _estimate,
    _lambda_from_uniform,
    dirichlet_moment_exact,
    haar_state_block,
    known_basis_average_mc,
    known_basis_average_quadrature,
    phase_term_mc,
    schmidt_lambda_pdf,
    uniform_block,
    unknown_basis_average_exact,
    unknown_basis_average_mc,
)


# ---------------------------------------------------------------- rng stream

def test_uniform_block_prefix_property():
    """Row i depends only on (seed, i), so prefixes of longer runs agree bitwise."""
    short = uniform_block(99, 4)
    long = uniform_block(99, 11)
    assert np.array_equal(short, long[:4])


def test_uniform_block_seed_sensitivity():
    assert not np.array_equal(uniform_block(1, 4), uniform_block(2, 4))


def test_uniform_block_range_and_shape():
    u = uniform_block(5, 7, width=3)
    assert u.shape == (7, 3)
    assert np.all((u >= 0) & (u < 1))


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("start", [1, 7, 600])
def test_uniform_block_counter_offset(seed, start):
    """Row i starts at Philox counter 2i (eight doubles use two 4x64 blocks),
    so a stream advanced by 2i reproduces rows [i, n) bit for bit."""
    n = 1000
    rng = np.random.Generator(np.random.Philox(key=seed).advance(2 * start))
    assert np.array_equal(uniform_block(seed, n)[start:], rng.random((n - start, 8)))


def test_seed_validation():
    with pytest.raises(ValueError):
        uniform_block(-1, 2)
    with pytest.raises(ValueError):
        uniform_block(2**64, 2)
    uniform_block(2**64 - 1, 1)  # boundary is fine


@pytest.mark.parametrize("seed", [1.5, math.inf, math.nan, -1, 2**64])
def test_seed_rejects_non_integral_and_out_of_range(seed):
    """A seed is never truncated or overflowed into a different stream."""
    with pytest.raises(ValueError):
        uniform_block(seed, 2)
    with pytest.raises(ValueError):
        known_basis_average_mc(50, seed=seed)


def test_haar_state_block_prefix_and_norms():
    states = haar_state_block(7, 50)
    assert states.shape == (50, 4)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(states[:8], haar_state_block(7, 8))


# ----------------------------------------------------------- haar samplers

def _mean_within_4_sigma(values, target):
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(len(values))
    return abs(values.mean() - target) <= 4.0 * se


def sample_haar_dirichlet(seed: int, n: int) -> np.ndarray:
    """Reference route: flat-Dirichlet magnitudes (exponential spacings) and
    uniform phases give Haar-distributed rows, independently of the package's
    Gaussian construction and of its Philox stream."""
    u = np.random.default_rng(seed).random((n, 8))
    e = -np.log(u[:, :4])
    x = e / e.sum(axis=1, keepdims=True)
    return np.sqrt(x) * np.exp(2j * np.pi * u[:, 4:])


def test_gaussian_sampler_fields_consistent():
    """Row i is four complex Gaussians, made from that row's uniforms by ndtri, normalized."""
    u = uniform_block(3, 5)
    z = ndtri(u[:, :4]) + 1j * ndtri(u[:, 4:])
    expected = z / np.linalg.norm(z, axis=1, keepdims=True)
    states = haar_state_block(3, 5)
    assert np.array_equal(states, expected)
    assert np.allclose((np.abs(states) ** 2).sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_sampler_fields_consistent():
    states = sample_haar_dirichlet(3, 5)
    assert states.shape == (5, 4)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(states, sample_haar_dirichlet(3, 5))


@pytest.mark.parametrize("sampler", [haar_state_block, sample_haar_dirichlet])
def test_sampler_moments(sampler):
    """Both constructions give flat-Dirichlet magnitudes: E[x1] = 1/4,
    E[x1^2 x4^2] = 1/210, and the relative phase combination averages to 0."""
    states = sampler(2024, 20000)
    x = np.abs(states) ** 2
    theta = np.angle(states)
    cos_eta = np.cos(2.0 * (theta[:, 0] + theta[:, 3] - theta[:, 1] - theta[:, 2]))
    assert _mean_within_4_sigma(x[:, 0], 0.25)
    assert _mean_within_4_sigma(x[:, 0] ** 2 * x[:, 3] ** 2, 1.0 / 210.0)
    assert _mean_within_4_sigma(cos_eta, 0.0)


def test_lambda_marginal_ks():
    """The larger squared Schmidt coefficient of a Haar state has
    CDF (2 lam - 1)^3 on [1/2, 1]; a KS test at ~alpha = 0.001 with a
    fixed seed pins the marginal (threshold 1.95 / sqrt(n))."""
    n = 2000
    states = haar_state_block(11, n)
    lams = [np.max(schmidt_coefficients(c, 1) ** 2) for c in states]
    stat, _ = kstest(lams, lambda l: (2.0 * np.asarray(l) - 1.0) ** 3)
    assert stat < 1.95 / math.sqrt(n)


# ------------------------------------------------------------- lambda density

def test_lambda_pdf_endpoints_and_normalization():
    assert schmidt_lambda_pdf(0.5) == 0.0
    assert schmidt_lambda_pdf(1.0) == 6.0
    total, _ = quad(schmidt_lambda_pdf, 0.5, 1.0)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_lambda_pdf_domain():
    with pytest.raises(ValueError):
        schmidt_lambda_pdf(0.4)
    with pytest.raises(ValueError):
        schmidt_lambda_pdf(1.1)


def test_lambda_inverse_cdf_roundtrip():
    u = np.linspace(0.001, 0.999, 41)
    lam = _lambda_from_uniform(u)
    assert np.all((lam >= 0.5) & (lam <= 1.0))
    assert np.allclose((2.0 * lam - 1.0) ** 3, u, atol=1e-12)


# --------------------------------------------------------- dirichlet moments

def test_moment_exact_values():
    ones = (1, 1, 1, 1)
    assert dirichlet_moment_exact(ones, (0, 0, 0, 0)) == Fraction(1)
    assert dirichlet_moment_exact(ones, (1, 0, 0, 0)) == Fraction(1, 4)
    assert dirichlet_moment_exact(ones, (2, 0, 0, 2)) == Fraction(1, 210)
    assert dirichlet_moment_exact(ones, (0, 2, 2, 0)) == Fraction(1, 210)


def test_moment_exact_errors():
    with pytest.raises(ValueError):
        dirichlet_moment_exact((1, 1), (1,))
    with pytest.raises(ValueError):
        dirichlet_moment_exact((0, 1), (1, 0))
    with pytest.raises(ValueError):
        dirichlet_moment_exact((1, 1), (-1, 0))


def test_moment_float_paths():
    # integral floats are accepted and take the exact path; c08 reads it as a float
    assert dirichlet_moment_exact((1.0, 1.0, 1.0, 1.0), (2.0, 0, 0, 2)) == Fraction(1, 210)
    assert float(dirichlet_moment_exact((1, 1, 1, 1), (2, 0, 0, 2))) == 1.0 / 210.0
    # anything non-integral is rejected rather than truncated
    for alpha, beta in [
        ((1.5, 1.5), (1, 0)),
        ((1, 1), (1.7, 0)),
        ((1.5, -0.5), (1, 0)),
        ((1.5, 0.5), (-1, 0)),
        ((math.nan, 1), (1, 0)),
        ((1, 1), (math.inf, 0)),
    ]:
        with pytest.raises(ValueError):
            dirichlet_moment_exact(alpha, beta)


# ------------------------------------------------------------ haar averages

def test_known_basis_quadrature():
    assert known_basis_average_quadrature() == pytest.approx(0.2, abs=1e-8)


def test_unknown_basis_exact():
    assert unknown_basis_average_exact() == float(Fraction(2, 105))


def test_known_basis_mc_agrees_with_quadrature():
    est = known_basis_average_mc(20000, seed=42)
    assert est.within_sigmas(0.2, 4.0)
    assert est.n_samples == 20000
    assert est.algorithm == RNG_ALGORITHM


def test_unknown_basis_mc_agrees_with_exact():
    est = unknown_basis_average_mc(20000, seed=42)
    assert est.within_sigmas(2.0 / 105.0, 4.0)


def test_pipeline_route_matches_closed_form_route():
    states = haar_state_block(9, 300)
    pipeline = full_pipeline(states, CANONICAL_PARAMS).success_prob
    closed = four_copy_bell_bound(states)
    assert np.max(np.abs(pipeline - closed)) < 1e-10
    # the estimator is the closed form on the seeded block
    assert unknown_basis_average_mc(300, seed=9) == _estimate(closed, 9)


def test_phase_term_averages_to_zero():
    est = phase_term_mc(20000, seed=42)
    assert est.within_sigmas(0.0, 4.0)


def test_mc_determinism():
    a = known_basis_average_mc(500, seed=123)
    b = known_basis_average_mc(500, seed=123)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = known_basis_average_mc(500, seed=124)
    assert c.mean != a.mean

    d = unknown_basis_average_mc(500, seed=123)
    e = unknown_basis_average_mc(500, seed=123)
    assert d.mean == e.mean


# ------------------------------------------------------------ estimator core

def test_estimate_basic():
    est = _estimate([1.0, 2.0, 3.0, 4.0], seed=0)
    assert est.mean == pytest.approx(2.5)
    assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert est.n_samples == 4


def test_estimate_single_sample():
    est = _estimate([0.7], seed=0)
    assert math.isnan(est.std_error)
    assert est.within_sigmas(0.7)
    assert not est.within_sigmas(0.8)


def test_estimate_empty():
    with pytest.raises(ValueError):
        _estimate([], seed=0)


def test_within_sigmas_width():
    est = MonteCarloEstimate(mean=1.0, std_error=0.1, n_samples=100, seed=0)
    assert est.within_sigmas(1.35, 4.0)
    assert not est.within_sigmas(1.45, 4.0)
    assert est.within_sigmas(1.15, 2.0)
