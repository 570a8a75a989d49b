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
rounds, so estimates are bitwise the same for every chunk size.  In the
two Haar estimators, above 2 * _CHUNK_ROWS samples two threads take
chunks from one shared iterator; since row i depends on (seed, i) alone,
no result depends on which thread ran which chunk.  The known-basis
estimator runs its chunks on the calling thread alone.  A second pass
sums the squared deviations from the mean, over the values held by the
first pass up to 2**22 samples (32 MB), and above that over chunks drawn
again, at about one more fill's cost.  Memory is thus flat in the sample
count.

Workspace rule: a pass gives each thread that sums its chunks one
workspace for the whole pass, and the calling thread makes every one of
them, and does the first draw's set-up (scipy's import), before the
helper starts.  A Haar chunk draws its uniforms and states into its
workspace, and its closed form and exact sum then work in the spent
uniforms, so no chunk allocates a float array of its rows, and the
helper leaves nothing chunk-sized in a malloc arena of its own, where
the calling thread could not reuse it.  The known-basis estimator's chunks
allocate as they go: they are small and run on the calling thread.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import _as_real, _check_int
from .protocols import _cross_term, _four_copy, _pair_bound, schmidt_pair_bound

if TYPE_CHECKING:
    from fractions import Fraction

RNG_ALGORITHM = "philox4x64/ndtri, row i = draws [8i, 8i+8)"
KNOWN_BASIS_RNG_ALGORITHM = "philox4x64/inverse-cdf, sample i = draw i"

# the paper's Haar averages: two copies in a known Schmidt basis, four in an unknown one
KNOWN_BASIS_AVERAGE = 1 / 5
UNKNOWN_BASIS_AVERAGE = 2 / 105

# bounds time (10**8 unknown-basis samples: about 60 s on two cores); memory is flat in it
MAX_SAMPLES = 10**8
# a Monte Carlo mean agrees with its target within this many standard errors
AGREEMENT_SIGMAS = 4.0
# bounds dirichlet_moment_exact's factorials (about 20 ms at 10**4); the Haar averages need 8
MAX_DIRICHLET_ORDER = 10**4
# one key's Philox stream: 2**256 counters of four draws each
_STREAM_DRAWS = 2**258
# rows drawn and evaluated per step of a Monte Carlo estimator; two chunks
# are in flight at once on the threaded path
_CHUNK_ROWS = 8_192
# runs of up to this many samples keep their values (32 MB) for the second
# pass; longer runs draw them again
_HOLD_MAX = 2**22
# the three-point Gauss-Legendre rule on [-1, 1], exact to degree 5
_GAUSS_LEGENDRE_NODES = (-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5))
_GAUSS_LEGENDRE_WEIGHTS = (5 / 9, 8 / 9, 5 / 9)


def check_seed(seed) -> int:
    """seed as an int in [0, 2**64 - 1], the keys Philox takes, else ValueError; 3.0 is accepted."""
    return _check_int(seed, "seed", 0, 2**64 - 1)


def uniform_block(seed: int, n: int, width: int = 8, start: int = 0, out=None) -> np.ndarray:
    """Rows [start, start + n) of the (., width) uniforms from Philox keyed by seed.

    Row i depends only on (seed, i): one Philox counter yields four draws,
    so the stream advances start*width // 4 counters and discards the
    remaining start*width % 4 draws.  Rows past the end of the stream raise
    ValueError, since Philox would wrap around to its first counter.  out,
    if given, is a C-contiguous float64 (n, width) array the rows are
    written to and returned in; the bits are those of a fresh array.
    """
    n, width = _check_int(n, "n", 0), _check_int(width, "width", 0)
    start = _check_int(start, "start", 0)
    if (start + n) * width > _STREAM_DRAWS:
        raise ValueError("rows run past the end of the Philox stream")
    skip, discard = divmod(start * width, 4)
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)).advance(skip))
    rng.random(discard)
    return rng.random((n, width), out=out)


def haar_state_block(seed: int, n: int, start: int = 0, out=None, uniforms=None,
                     norms=None) -> np.ndarray:
    """(n, 4) complex amplitudes; row k is sample start + k of the seeded stream.

    Built in place: ndtri writes the first four uniforms of each row into
    the real parts and the last four into the imaginary parts, and the
    squared moduli for the row norms, (c.conj() * c).real as np.linalg.norm
    takes them, go into the uniforms' buffer.  So one block peaks near 2.1
    times its output bytes: the uniforms, the output and one norm per row.
    A chunk draws into its workspace (the workspace rule above): out, if
    given, is the C-contiguous (n, 4) complex array the states are written
    to and returned in, and uniforms and norms are C-contiguous float64
    (n, 8) and (n, 1) arrays that are left spent.  Without them each array
    is allocated in turn; the bits are the same either way.
    """
    # scipy is imported here, on the one path that draws Gaussians, so that
    # the commands that never do start without it
    from scipy.special import ndtri

    z = uniform_block(seed, n, 8, start, uniforms)
    c = np.empty((len(z), 4), dtype=complex) if out is None else out
    ndtri(z[:, :4], out=c.real)
    ndtri(z[:, 4:], out=c.imag)
    # np.linalg.norm(c, axis=1, keepdims=True), its product taken in z
    squares = z.view(complex)
    np.multiply(np.conjugate(c, out=squares), c, out=squares)
    norms = np.add.reduce(squares.real, axis=1, keepdims=True, out=norms)
    del z, squares
    c /= np.sqrt(norms, out=norms)
    return c


def schmidt_lambda_pdf(lam: float) -> float:
    """Density 6(2 lam - 1)^2 of the larger squared Schmidt coefficient on [1/2, 1]."""
    lam = _as_real(lam, "lambda", 0.5, 1.0)
    return 6.0 * (2.0 * lam - 1.0) ** 2


def _lambda_from_uniform(u):
    # inverse CDF of 6(2l-1)^2: F(l) = (2l-1)^3
    return (np.cbrt(u) + 1.0) / 2.0


def dirichlet_moment_exact(alpha, beta) -> Fraction:
    """Exact mixed moment E[prod x_i^beta_i] under Dirichlet(alpha).

    Domain: alpha and beta of equal length, at least 1, each alpha entry an
    integer >= 1, each beta entry an integer >= 0 (2.0 is accepted, 1.7
    raises ValueError), and sum(alpha) + sum(beta) at most
    MAX_DIRICHLET_ORDER, checked before any factorial; anything else raises
    ValueError.
    """
    # imported here, on the one path that returns exact rationals, so that
    # the commands that never do start without it
    from fractions import Fraction

    return Fraction(*_dirichlet_moment(alpha, beta))


def _dirichlet_moment(alpha, beta) -> tuple:
    """dirichlet_moment_exact as two ints (numerator, denominator), not reduced."""
    alpha = [_check_int(a, "each alpha entry", 1) for a in alpha]
    beta = [_check_int(b, "each beta entry", 0) for b in beta]
    if len(alpha) != len(beta) or not alpha:
        raise ValueError("alpha and beta must have equal length, at least 1")
    order = _check_int(sum(alpha) + sum(beta), "sum(alpha) + sum(beta)", hi=MAX_DIRICHLET_ORDER)
    num, den = math.factorial(sum(alpha) - 1), math.factorial(order - 1)
    for a, b in zip(alpha, beta):
        num *= math.factorial(a + b - 1)
        den *= math.factorial(a - 1)
    return num, den


@dataclass
class MonteCarloEstimate:
    mean: float
    std_error: float        # sample std / sqrt(n); NaN for n = 1
    n_samples: int
    algorithm: str = RNG_ALGORITHM

    def within_sigmas(self, target: float) -> bool:
        if math.isnan(self.std_error):
            return self.mean == target
        return abs(self.mean - target) <= AGREEMENT_SIGMAS * self.std_error


def _exact_total(x, e=None, m=None, sign=None) -> int:
    """The exact sum of a float64 array of at most 2**24 values times 2**1075, as a Python int.

    A finite double is m * 2**(e - 1075) for its signed 53-bit significand
    m and exponent field e (subnormals: e = 1, no implicit bit).  Per
    exponent, bincount sums m >> 26 and m & (2**26 - 1); over at most 2**24
    rows a bucket stays below 2**53, so its float weights add exactly.
    _sum_chunks passes at most _CHUNK_ROWS rows at a time.  e, m and sign,
    if given, are contiguous int64 arrays of len(x) to work in; otherwise
    each is allocated when it is first written.
    """
    b = np.ravel(np.asarray(x, dtype=np.float64)).view(np.int64)
    e = np.right_shift(b, 52, out=e)
    e &= 0x7FF
    if (e == 0x7FF).any():
        raise ValueError("per-sample values must be finite")
    m = np.bitwise_and(b, 2**52 - 1, out=m)
    np.bitwise_or(m, 2**52, out=m, where=e != 0)
    sign = np.right_shift(b, 63, out=sign)
    m ^= sign
    m -= sign
    np.maximum(e, 1, out=e)
    # the two halves of m, exact as doubles, go through sign's buffer
    halves = sign.view(np.float64)
    np.right_shift(m, 26, out=halves, casting="unsafe")
    high = np.bincount(e, weights=halves, minlength=2048)
    np.bitwise_and(m, 2**26 - 1, out=halves, casting="unsafe")
    low = np.bincount(e, weights=halves, minlength=2048)
    return sum(((int(high[j]) << 26) + int(low[j])) << j
               for j in np.flatnonzero(high.astype(bool) | low.astype(bool)).tolist())


def _sum_chunks(n: int, make_chunk, helper: bool = True) -> int:
    """_exact_total of chunk(start, k), rows [start, start + k), over rows [0, n).

    make_chunk(rows) returns (chunk, scratch): chunk evaluates chunks of at
    most rows rows in one workspace, and scratch holds the three int64
    arrays of rows the exact totals work in, or nothing.  The calling
    thread calls it once for each thread that sums, before any helper
    starts: one workspace per thread for the whole pass, however many
    chunks there are, and every one, with the set-up making it does, from
    the calling thread.  With
    helper, above 2 * _CHUNK_ROWS rows the calling thread and one helper
    thread take chunk starts from one shared iterator and each sums into
    its own exact integer; without it every chunk runs on the calling
    thread.  The first exception in either thread, KeyboardInterrupt
    included, stops both from starting another chunk; the helper is joined
    and the exception re-raised here.
    """
    rows = min(n, _CHUNK_ROWS)
    workers = [make_chunk(rows) for _ in range(2 if helper and n > 2 * _CHUNK_ROWS else 1)]
    starts = iter(range(0, n, _CHUNK_ROWS))
    lock = threading.Lock()
    errors, totals = [], []

    def fill(chunk, scratch):
        total = 0
        try:
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    break
                k = min(_CHUNK_ROWS, n - start)
                total += _exact_total(chunk(start, k), *[s[:k] for s in scratch])
        except BaseException as exc:  # re-raised by the calling thread below
            errors.append(exc)
        totals.append(total)

    thread = None
    if len(workers) > 1:
        thread = threading.Thread(target=fill, args=workers[1])
        thread.start()
    try:
        fill(*workers[0])
    finally:
        if thread is not None:
            thread.join()
    if errors:
        raise errors[0]
    return sum(totals)


def _mc_estimate(n_samples, make_chunk, algorithm=RNG_ALGORITHM,
                 helper: bool = True) -> MonteCarloEstimate:
    """Mean and standard error of the values the chunks of make_chunk give for
    rows [0, n_samples), 1 <= n_samples <= MAX_SAMPLES.

    make_chunk and helper are as in _sum_chunks; each of the two passes
    makes its own workspaces through it, on the calling thread.  The
    second pass squares the deviations in place, in the held values or in
    the values a chunk has just returned, so a chunk returns an array it
    owns, such as a view of its workspace.
    """
    n = _check_int(n_samples, "n_samples", 1, MAX_SAMPLES)
    held = np.empty(n) if n <= _HOLD_MAX else None

    def make_values(rows):
        chunk, scratch = make_chunk(rows)

        def values(start, k):
            v = chunk(start, k)
            if held is not None:
                held[start:start + k] = v
            return v
        return values, scratch

    # int / int rounds correctly, so this is bitwise math.fsum(values) / n
    mean = _sum_chunks(n, make_values, helper) / 2**1075 / n

    def make_squared_deviations(rows):
        chunk, scratch = make_chunk(rows)

        def squared_deviations(start, k):
            v = chunk(start, k) if held is None else held[start:start + k]
            # float_power squares through libm pow, as float ** 2 does
            return np.float_power(np.subtract(v, mean, out=v), 2, out=v)
        return squared_deviations, scratch

    # one sample has no standard error: NaN
    var = (math.nan if n == 1 else
           _sum_chunks(n, make_squared_deviations, helper) / 2**1075 / (n - 1))
    return MonteCarloEstimate(
        mean=mean, std_error=math.sqrt(var / n), n_samples=n, algorithm=algorithm
    )


def _haar_chunks(seed: int, closed_form):
    """make_chunk for _mc_estimate: closed_form(states, work) on the Haar rows of seed.

    Each call makes one workspace: 9 * rows floats for the uniforms and
    the norms, whose first 5 * rows then hold the closed form's five
    temporaries and the next 3 * rows the exact total's scratch, and the
    (rows, 4) complex states.  A chunk draws, normalizes, evaluates and
    sums in it without allocating a float array of its rows.
    """
    def make_chunk(rows):
        # a first draw's set-up, scipy's import, is done here, by the thread
        # that makes the workspace, so that no helper does it
        import scipy.special  # noqa: F401

        draws, states = np.empty(9 * rows), np.empty((rows, 4), dtype=complex)

        def chunk(start, k):
            c = haar_state_block(seed, k, start, states[:k], draws[:8 * k].reshape(k, 8),
                                 draws[8 * rows:][:k, None])
            return closed_form(c, draws[:5 * k].reshape(5, k))
        return chunk, draws[5 * rows:8 * rows].view(np.int64).reshape(3, rows)
    return make_chunk


def known_basis_average_quadrature() -> float:
    """Average two-copy success over Haar inputs with a known Schmidt basis.

    Integrates 2 lam (1 - lam) against the lambda density over [1/2, 1]
    with three-point Gauss-Legendre, which is exact for this degree-4
    polynomial integrand; the analytic value is 1/5.  The rule is taken in
    closed form, nodes -sqrt(3/5), 0, sqrt(3/5) and weights 5/9, 8/9, 5/9
    on [-1, 1], mapped onto [1/2, 1].
    """
    lams = 0.75 + 0.25 * np.array(_GAUSS_LEGENDRE_NODES)
    bounds = schmidt_pair_bound(np.sqrt(lams), np.sqrt(1.0 - lams))
    return 0.25 * math.fsum(
        w * (bound * schmidt_lambda_pdf(lam))
        for lam, w, bound in zip(lams, _GAUSS_LEGENDRE_WEIGHTS, bounds)
    )


def known_basis_average_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of the known-basis average; samples lambda by inverse CDF.

    Its chunks run on the calling thread: one 8 192-draw chunk is too little
    work to pay for a helper thread's hand-off.
    """
    def chunk(start, k):
        lams = _lambda_from_uniform(uniform_block(seed, k, 1, start)[:, 0])
        return _pair_bound(np.sqrt(lams), np.sqrt(1.0 - lams))
    return _mc_estimate(n_samples, lambda rows: (chunk, ()), KNOWN_BASIS_RNG_ALGORITHM,
                        helper=False)


def unknown_basis_average_exact() -> float:
    """Average four-copy pipeline success over Haar inputs, exactly 2/105.

    The phase term averages to zero, leaving 2 E[x1^2 x4^2] + 2 E[x2^2 x3^2]
    with flat-Dirichlet moments, summed as integer fractions and rounded
    once by one int / int division, as float() of their Fraction sum rounds.
    """
    ones = (1, 1, 1, 1)
    n14, d14 = _dirichlet_moment(ones, (2, 0, 0, 2))
    n23, d23 = _dirichlet_moment(ones, (0, 2, 2, 0))
    return 2 * (n14 * d23 + n23 * d14) / (d14 * d23)


def unknown_basis_average_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of the four-copy average over Haar states, via the closed-form bound."""
    return _mc_estimate(n_samples, _haar_chunks(seed, _four_copy))


def phase_term_mc(n_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo of Re[c1^2 c4^2 conj(c2)^2 conj(c3)^2]; zero on average.

    The term equals x1 x2 x3 x4 cos(eta) with eta = 2(th1 + th4 - th2 - th3),
    and eta is uniform given the magnitudes.
    """
    return _mc_estimate(n_samples, _haar_chunks(seed, _cross_term))
