"""Haar-random two-qubit states and ensemble averages, exact and Monte Carlo.

Reproducibility contract: every Monte Carlo entry point takes a 64-bit seed
and derives all randomness from a counter-based Philox stream keyed by it.
Sample i consumes a fixed-width row of uniforms at a fixed counter offset,
so row i is a function of (seed, i) alone: `uniform_block` and
`haar_state_block` take a `start` row and return rows [start, start + n)
of the same stream, bit for bit.  Gaussians come from the inverse normal
CDF applied to those uniforms (fixed draw count per sample, unlike
rejection-based generators).  The Gaussian scale is irrelevant after
normalization, so unit variance is used.

The estimators draw and evaluate _CHUNK_ROWS rows at a time into one (n,)
array of per-sample values, and `_estimate` reduces it with `math.fsum`,
which rounds the exact sum once.  Estimates are therefore bitwise the same
for every chunk size.  Above 2 * _CHUNK_ROWS samples two threads fill the
array, each taking the next chunk start from one shared iterator and
writing its own slice; since row i depends on (seed, i) alone, a result
does not depend on which thread ran which chunk.  Runs of at most
2 * _CHUNK_ROWS samples start no thread.  Memory is 8 bytes per sample
plus the workspace of two 8 192-row chunks.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np
from numpy.polynomial.legendre import leggauss

from .protocols import four_copy_bell_bound, phase_term, schmidt_pair_bound

RNG_ALGORITHM = "philox4x64/ndtri, row i = draws [8i, 8i+8)"
KNOWN_BASIS_RNG_ALGORITHM = "philox4x64/inverse-cdf, sample i = draw i"

_MAX_SEED = 2**64
# one key's Philox stream: 2**256 counters of four draws each
_STREAM_DRAWS = 2**258
# rows drawn and evaluated per step of a Monte Carlo estimator; two chunks
# are in flight at once on the threaded path
_CHUNK_ROWS = 8_192


def _check_int(value, name: str) -> int:
    """value as an int; integral floats such as 3.0 are accepted, anything else raises."""
    if not isinstance(value, (int, np.integer)) and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_seed(seed) -> int:
    seed = _check_int(seed, "seed")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


def _check_count(value, name: str) -> int:
    value = _check_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def uniform_block(seed: int, n: int, width: int = 8, start: int = 0) -> np.ndarray:
    """Rows [start, start + n) of the (., width) uniforms from Philox keyed by seed.

    Row i depends only on (seed, i): one Philox counter yields four draws,
    so the stream advances start*width // 4 counters and discards the
    remaining start*width % 4 draws.  Rows past the end of the stream raise
    ValueError, since Philox would wrap around to its first counter.
    """
    n, width = _check_count(n, "n"), _check_count(width, "width")
    start = _check_count(start, "start")
    if (start + n) * width > _STREAM_DRAWS:
        raise ValueError("rows run past the end of the Philox stream")
    skip, discard = divmod(start * width, 4)
    rng = np.random.Generator(np.random.Philox(key=_check_seed(seed)).advance(skip))
    rng.random(discard)
    return rng.random((n, width))


def haar_state_block(seed: int, n: int, start: int = 0) -> np.ndarray:
    """(n, 4) complex amplitudes; row k is sample start + k of the seeded stream."""
    # scipy is imported here, on the one path that draws Gaussians, so that
    # the commands that never do start without it
    from scipy.special import ndtri

    u = uniform_block(seed, n, 8, start)
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


def _per_sample(n_samples, chunk_values) -> np.ndarray:
    """(n,) per-sample values; chunk_values(start, k) gives rows [start, start + k).

    Above 2 * _CHUNK_ROWS rows the calling thread and one helper thread take
    chunk starts from one shared iterator, so the draws and closed forms,
    which run in native code, use both cores.  The first exception in
    either thread, KeyboardInterrupt included, stops both from starting
    another chunk; the helper is joined and the exception re-raised here.
    """
    n = _check_count(n_samples, "n_samples")
    values = np.empty(n)
    starts = iter(range(0, n, _CHUNK_ROWS))
    lock = threading.Lock()
    errors = []

    def fill():
        try:
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                k = min(_CHUNK_ROWS, n - start)
                values[start:start + k] = chunk_values(start, k)
        except BaseException as exc:  # re-raised by the calling thread below
            errors.append(exc)

    helper = None
    if n > 2 * _CHUNK_ROWS:
        helper = threading.Thread(target=fill)
        helper.start()
    try:
        fill()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return values


def _estimate(values, seed: int, algorithm: str = RNG_ALGORITHM) -> MonteCarloEstimate:
    """Mean and standard error of a 1-D array of per-sample values."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("need at least one sample")
    starts = range(0, n, _CHUNK_ROWS)
    # fsum: exactly rounded, so the reduction is order- and chunk-independent
    mean = math.fsum(chain.from_iterable(values[i:i + _CHUNK_ROWS].tolist() for i in starts)) / n
    if n == 1:
        return MonteCarloEstimate(
            mean=mean, std_error=float("nan"), n_samples=1, seed=seed, algorithm=algorithm
        )
    # float_power squares through libm pow, as float ** 2 does
    var = math.fsum(chain.from_iterable(
        np.float_power(values[i:i + _CHUNK_ROWS] - mean, 2).tolist() for i in starts
    )) / (n - 1)
    return MonteCarloEstimate(
        mean=mean, std_error=math.sqrt(var / n), n_samples=n, seed=seed, algorithm=algorithm
    )


def known_basis_average_quadrature() -> float:
    """Average two-copy success over Haar inputs with a known Schmidt basis.

    Integrates 2 lam (1 - lam) against the lambda density over [1/2, 1]
    with three-point Gauss-Legendre, which is exact for this degree-4
    polynomial integrand; the analytic value is 1/5.
    """
    nodes, weights = leggauss(3)
    lams = 0.75 + 0.25 * nodes
    bounds = schmidt_pair_bound(np.sqrt(lams), np.sqrt(1.0 - lams))
    return 0.25 * math.fsum(
        w * (bound * schmidt_lambda_pdf(lam)) for lam, w, bound in zip(lams, weights, bounds)
    )


def known_basis_average_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of the known-basis average; samples lambda by inverse CDF."""
    def chunk(start, k):
        lams = _lambda_from_uniform(uniform_block(seed, k, 1, start)[:, 0])
        return schmidt_pair_bound(np.sqrt(lams), np.sqrt(1.0 - lams))
    return _estimate(_per_sample(n_samples, chunk), seed, KNOWN_BASIS_RNG_ALGORITHM)


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
    values = _per_sample(
        n_samples, lambda start, k: four_copy_bell_bound(haar_state_block(seed, k, start))
    )
    return _estimate(values, seed)


def phase_term_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of Re[c1^2 c4^2 conj(c2)^2 conj(c3)^2]; zero on average.

    The term equals x1 x2 x3 x4 cos(eta) with eta = 2(th1 + th4 - th2 - th3),
    and eta is uniform given the magnitudes.
    """
    values = _per_sample(
        n_samples, lambda start, k: phase_term(haar_state_block(seed, k, start))
    )
    return _estimate(values, seed)
