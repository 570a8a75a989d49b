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

The estimators draw and evaluate _CHUNK_ROWS rows at a time and add each
chunk into an exact integer accumulator, rounded once as `math.fsum`
rounds, so estimates are bitwise the same for every chunk size.  Above
2 * _CHUNK_ROWS samples two threads take chunks from one shared iterator;
since row i depends on (seed, i) alone, no result depends on which thread
ran which chunk.  A second pass sums the squared deviations from the
mean, over the values held by the first pass up to 2**22 samples (32 MB),
and above that over chunks drawn again, at about one more fill's cost.
Memory is thus flat in the sample count.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .protocols import four_copy_bell_bound, phase_term, schmidt_pair_bound

RNG_ALGORITHM = "philox4x64/ndtri, row i = draws [8i, 8i+8)"
KNOWN_BASIS_RNG_ALGORITHM = "philox4x64/inverse-cdf, sample i = draw i"

# bounds time (10**8 unknown-basis samples: about 100 s); memory is flat in it
MAX_SAMPLES = 10**8
_MAX_SEED = 2**64
# one key's Philox stream: 2**256 counters of four draws each
_STREAM_DRAWS = 2**258
# rows drawn and evaluated per step of a Monte Carlo estimator; two chunks
# are in flight at once on the threaded path
_CHUNK_ROWS = 8_192
# runs of up to this many samples keep their values (32 MB) for the second
# pass; longer runs draw them again
_HOLD_MAX = 2**22


def _check_int(value, name: str) -> int:
    """value as an int; integral floats such as 3.0 are accepted, anything else raises."""
    if not isinstance(value, (int, np.integer)) and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """seed as an int in [0, 2**64), the keys Philox takes; anything else raises ValueError."""
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
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)).advance(skip))
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


def _exact_total(x) -> int:
    """The exact sum of a float64 array times 2**1075, as a Python int.

    A finite double is m * 2**(e - 1075) for its signed 53-bit significand
    m and exponent field e (subnormals: e = 1, no implicit bit).  Per
    exponent, bincount sums m >> 26 and m & (2**26 - 1); over at most 2**24
    rows a bucket stays below 2**53, so its float weights add exactly.
    """
    bits = np.ravel(np.asarray(x, dtype=np.float64)).view(np.int64)
    total = 0
    for i in range(0, bits.size, 2**24):
        b = bits[i:i + 2**24]
        e = (b >> 52) & 0x7FF
        if (e == 0x7FF).any():
            raise ValueError("per-sample values must be finite")
        m = (b & (2**52 - 1)) | ((e != 0).astype(np.int64) << 52)
        sign = b >> 63
        m = (m ^ sign) - sign
        e = np.maximum(e, 1)
        high = np.bincount(e, weights=m >> 26, minlength=2048)
        low = np.bincount(e, weights=m & (2**26 - 1), minlength=2048)
        for j in np.flatnonzero(high.astype(bool) | low.astype(bool)).tolist():
            total += ((int(high[j]) << 26) + int(low[j])) << j
    return total


def _sum_chunks(n: int, chunk_values) -> int:
    """_exact_total of chunk_values(start, k), rows [start, start + k), over rows [0, n).

    Above 2 * _CHUNK_ROWS rows the calling thread and one helper thread take
    chunk starts from one shared iterator and each sums into its own exact
    integer.  The first exception in either thread, KeyboardInterrupt
    included, stops both from starting another chunk; the helper is joined
    and the exception re-raised here.
    """
    starts = iter(range(0, n, _CHUNK_ROWS))
    lock = threading.Lock()
    errors, totals = [], []

    def fill():
        total = 0
        try:
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    break
                total += _exact_total(chunk_values(start, min(_CHUNK_ROWS, n - start)))
        except BaseException as exc:  # re-raised by the calling thread below
            errors.append(exc)
        totals.append(total)

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
    return sum(totals)


def _mc_estimate(n_samples, seed, chunk_values, algorithm=RNG_ALGORITHM) -> MonteCarloEstimate:
    """Mean and standard error of the values chunk_values(start, k) gives for
    rows [start, start + k), over rows [0, n_samples), 1 <= n_samples <= MAX_SAMPLES."""
    n = _check_count(n_samples, "n_samples")
    if n == 0:
        raise ValueError("need at least one sample")
    if n > MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, got {n}")
    # a bad seed raises here, before any chunk runs or thread starts
    chunk_values(n - 1, 1)
    held = np.empty(n) if n <= _HOLD_MAX else None

    def values(start, k):
        v = chunk_values(start, k)
        if held is not None:
            held[start:start + k] = v
        return v

    # int / int rounds correctly, so this is bitwise math.fsum(values) / n
    mean = _sum_chunks(n, values) / 2**1075 / n

    def squared_deviations(start, k):
        v = chunk_values(start, k) if held is None else held[start:start + k]
        # float_power squares through libm pow, as float ** 2 does
        return np.float_power(v - mean, 2)

    # one sample has no standard error: NaN
    var = math.nan if n == 1 else _sum_chunks(n, squared_deviations) / 2**1075 / (n - 1)
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
    return _mc_estimate(n_samples, seed, chunk, KNOWN_BASIS_RNG_ALGORITHM)


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
    return _mc_estimate(
        n_samples, seed, lambda start, k: four_copy_bell_bound(haar_state_block(seed, k, start))
    )


def phase_term_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of Re[c1^2 c4^2 conj(c2)^2 conj(c3)^2]; zero on average.

    The term equals x1 x2 x3 x4 cos(eta) with eta = 2(th1 + th4 - th2 - th3),
    and eta is uniform given the magnitudes.
    """
    return _mc_estimate(
        n_samples, seed, lambda start, k: phase_term(haar_state_block(seed, k, start))
    )
