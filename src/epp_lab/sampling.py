"""Haar-random two-qubit states and ensemble averages, exact and Monte Carlo.

Reproducibility contract: every Monte Carlo entry point takes a 64-bit seed
and derives all randomness from a counter-based Philox stream keyed by it.
Sample i consumes a fixed-width row of uniforms at a fixed counter offset,
so estimates are bitwise reproducible and independent of how the index
range would be partitioned across workers.  Gaussians come from the inverse
normal CDF applied to those uniforms (fixed draw count per sample, unlike
rejection-based generators).  The Gaussian scale is irrelevant after
normalization, so unit variance is used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtri

from .protocols import four_copy_bell_bound, phase_term, schmidt_pair_bound

RNG_ALGORITHM = "philox4x64/ndtri, row i = draws [8i, 8i+8)"

_MAX_SEED = 2**64


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) and not float(seed).is_integer():
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


def uniform_block(seed: int, n: int, width: int = 8) -> np.ndarray:
    """(n, width) uniforms from Philox keyed by seed; row i depends only on (seed, i)."""
    rng = np.random.Generator(np.random.Philox(key=_check_seed(seed)))
    return rng.random((n, width))


def haar_state_block(seed: int, n: int) -> np.ndarray:
    """(n, 4) complex amplitudes; row i is sample i of the seeded stream."""
    u = uniform_block(seed, n, 8)
    z = ndtri(u)
    c = z[:, :4] + 1j * z[:, 4:]
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def schmidt_lambda_pdf(lam: float) -> float:
    """Density 6(2 lam - 1)^2 of the larger squared Schmidt coefficient on [1/2, 1]."""
    if not 0.5 <= lam <= 1.0:
        raise ValueError("lambda must lie in [1/2, 1]")
    return 6.0 * (2.0 * lam - 1.0) ** 2


def _lambda_from_uniform(u):
    # inverse CDF of 6(2l-1)^2: F(l) = (2l-1)^3
    return (np.cbrt(u) + 1.0) / 2.0


def dirichlet_moment_exact(alpha, beta) -> Fraction:
    """Exact mixed moment E[prod x_i^beta_i] under Dirichlet(alpha).

    Entries must be integral (2.0 is accepted, 1.7 raises ValueError).
    """
    alpha, beta = list(alpha), list(beta)
    if not all(float(v).is_integer() for v in alpha + beta):
        raise ValueError(f"alpha and beta entries must be integers, got {alpha} and {beta}")
    alpha = [int(a) for a in alpha]
    beta = [int(b) for b in beta]
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have equal length")
    if any(a <= 0 for a in alpha):
        raise ValueError("alpha entries must be positive")
    if any(b < 0 for b in beta):
        raise ValueError("beta entries must be non-negative")
    total = Fraction(math.factorial(sum(alpha) - 1), math.factorial(sum(alpha) + sum(beta) - 1))
    for a, b in zip(alpha, beta):
        total *= Fraction(math.factorial(a + b - 1), math.factorial(a - 1))
    return total


@dataclass
class MonteCarloEstimate:
    mean: float
    std_error: float        # sample std / sqrt(n); NaN for n = 1
    n_samples: int
    seed: int
    algorithm: str = RNG_ALGORITHM

    def within_sigmas(self, target: float, k: float = 4.0) -> bool:
        if math.isnan(self.std_error):
            return self.mean == target
        return abs(self.mean - target) <= k * self.std_error


def _estimate(values, seed: int) -> MonteCarloEstimate:
    """Mean and standard error of a 1-D array of per-sample values."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("need at least one sample")
    # fsum: exactly rounded, so the reduction is order-independent
    mean = math.fsum(values.tolist()) / n
    if n == 1:
        return MonteCarloEstimate(mean=mean, std_error=float("nan"), n_samples=1, seed=seed)
    # float_power squares through libm pow, as float ** 2 does
    var = math.fsum(np.float_power(values - mean, 2).tolist()) / (n - 1)
    return MonteCarloEstimate(
        mean=mean, std_error=math.sqrt(var / n), n_samples=n, seed=seed
    )


def known_basis_average_quadrature() -> float:
    """Average two-copy success over Haar inputs with a known Schmidt basis.

    Integrates 2 lam (1 - lam) against the lambda density over [1/2, 1]
    with three-point Gauss-Legendre, which is exact for this degree-4
    polynomial integrand; the analytic value is 1/5.
    """
    nodes, weights = leggauss(3)
    return 0.25 * math.fsum(
        w * (schmidt_pair_bound(math.sqrt(lam), math.sqrt(1.0 - lam)) * schmidt_lambda_pdf(lam))
        for lam, w in zip(0.75 + 0.25 * nodes, weights)
    )


def known_basis_average_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of the known-basis average; samples lambda by inverse CDF."""
    lams = _lambda_from_uniform(uniform_block(seed, n_samples, 1)[:, 0])
    return _estimate(schmidt_pair_bound(np.sqrt(lams), np.sqrt(1.0 - lams)), seed)


def unknown_basis_average_exact() -> float:
    """Average four-copy pipeline success over Haar inputs, exactly 2/105.

    The phase term averages to zero, leaving 2 E[x1^2 x4^2] + 2 E[x2^2 x3^2]
    with flat-Dirichlet moments.
    """
    ones = (1, 1, 1, 1)
    m14 = dirichlet_moment_exact(ones, (2, 0, 0, 2))
    m23 = dirichlet_moment_exact(ones, (0, 2, 2, 0))
    return float(2 * m14 + 2 * m23)


def unknown_basis_average_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of the four-copy average over Haar states, via the closed-form bound."""
    return _estimate(four_copy_bell_bound(haar_state_block(seed, n_samples)), seed)


def phase_term_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of Re[c1^2 c4^2 conj(c2)^2 conj(c3)^2]; zero on average.

    The term equals x1 x2 x3 x4 cos(eta) with eta = 2(th1 + th4 - th2 - th3),
    and eta is uniform given the magnitudes.
    """
    return _estimate(phase_term(haar_state_block(seed, n_samples)), seed)
