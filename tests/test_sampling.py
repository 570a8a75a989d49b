import hashlib
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import kstest

import epp_lab
from epp_lab import sampling
from epp_lab.kraus import CANONICAL_PARAMS
from epp_lab.protocols import four_copy_bell_bound, full_pipeline, phase_term, schmidt_pair_bound
from epp_lab.sampling import (
    KNOWN_BASIS_RNG_ALGORITHM,
    RNG_ALGORITHM,
    MonteCarloEstimate,
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
from oracles import schmidt_coefficients


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


@pytest.mark.parametrize("width", [1, 3, 8])
@pytest.mark.parametrize("start", [0, 1, 2, 3, 5, 7, 64, 333])
def test_uniform_block_start_is_a_row_offset(width, start):
    """Rows [start, start + k) equal that slice of one long block, also when
    start * width is not a multiple of the four draws per Philox counter."""
    long = uniform_block(17, 400, width)
    assert np.array_equal(uniform_block(17, 400 - start, width, start), long[start:])
    assert np.array_equal(uniform_block(17, 5, width, start), long[start:start + 5])


@pytest.mark.parametrize("start", [0, 1, 3, 5, 333])
def test_haar_state_block_start_is_a_row_offset(start):
    long = haar_state_block(23, 400)
    assert np.array_equal(haar_state_block(23, 400 - start, start), long[start:])
    assert np.array_equal(haar_state_block(23, 3, start=start), long[start:start + 3])


@pytest.mark.parametrize("bad", [-1, 1.5, math.nan, math.inf, -math.inf])
def test_start_and_count_reject_negative_and_non_integral(bad):
    with pytest.raises(ValueError):
        uniform_block(1, 4, 8, bad)
    with pytest.raises(ValueError):
        haar_state_block(1, 4, bad)
    with pytest.raises(ValueError):
        uniform_block(1, bad)
    with pytest.raises(ValueError):
        unknown_basis_average_mc(bad, seed=1)


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
    # one width-1 draw per sample through the inverse CDF of 6(2 lam - 1)^2, no ndtri
    assert est.algorithm == KNOWN_BASIS_RNG_ALGORITHM


def test_unknown_basis_mc_agrees_with_exact():
    est = unknown_basis_average_mc(20000, seed=42)
    assert est.within_sigmas(2.0 / 105.0, 4.0)
    assert est.algorithm == RNG_ALGORITHM


def test_pipeline_route_matches_closed_form_route():
    states = haar_state_block(9, 300)
    pipeline = full_pipeline(states, CANONICAL_PARAMS).success_prob
    closed = four_copy_bell_bound(states)
    assert np.max(np.abs(pipeline - closed)) < 1e-10
    # the estimator is the closed form on the seeded block
    assert unknown_basis_average_mc(300, seed=9) == estimate_of(closed, 9)


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

def estimate_of(values, seed, algorithm=RNG_ALGORITHM):
    """The estimator body run on given per-sample values, sliced per chunk."""
    values = np.asarray(values, dtype=float)
    return sampling._mc_estimate(
        values.size, seed, lambda start, k: values[start:start + k], algorithm
    )


def test_estimate_basic():
    est = estimate_of([1.0, 2.0, 3.0, 4.0], seed=0)
    assert est.mean == pytest.approx(2.5)
    assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert est.n_samples == 4


def test_estimate_single_sample():
    est = estimate_of([0.7], seed=0)
    assert math.isnan(est.std_error)
    assert est.within_sigmas(0.7)
    assert not est.within_sigmas(0.8)


def test_estimate_empty():
    with pytest.raises(ValueError):
        estimate_of([], seed=0)


def test_sample_count_above_the_cap_raises_before_any_draw(monkeypatch):
    """The library caps the count, not only the CLI: 10**30 samples would
    start a run that cannot finish."""
    def no_draw(*args, **kwargs):
        raise AssertionError("uniform_block was called")

    monkeypatch.setattr(sampling, "uniform_block", no_draw)
    for estimator, n in ((known_basis_average_mc, 10**30),
                         (unknown_basis_average_mc, sampling.MAX_SAMPLES + 1)):
        with pytest.raises(ValueError, match="at most"):
            estimator(n, 1)


@st.composite
def float_sums(draw):
    """Finite doubles from subnormals to exponents near +-1000, signed zeros,
    and a cancelling tail that negates some of them, nudged by an ulp or not."""
    finite = st.floats(min_value=-2.0**1000, max_value=2.0**1000,
                       allow_nan=False, allow_infinity=False, allow_subnormal=True)
    xs = draw(st.lists(finite | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), max_size=40))
    for x in draw(st.lists(st.sampled_from(xs), max_size=len(xs))) if xs else []:
        xs.append(-np.nextafter(x, draw(st.sampled_from([0.0, x, math.inf, -math.inf]))))
    order = draw(st.permutations(range(len(xs))))
    return np.array([xs[i] for i in order], dtype=float)


@given(float_sums())
@settings(max_examples=200, deadline=None)
def test_exact_total_rounds_as_fsum(x):
    """The bucket sum is exact, so rounding it once gives fsum's bits."""
    assert sampling._exact_total(x) / 2**1075 == math.fsum(x.tolist())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_total_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        sampling._exact_total(np.array([0.5, bad, 0.25]))
    with pytest.raises(ValueError, match="finite"):
        estimate_of([0.5, bad, 0.25], seed=0)


def test_within_sigmas_width():
    est = MonteCarloEstimate(mean=1.0, std_error=0.1, n_samples=100, seed=0)
    assert est.within_sigmas(1.35, 4.0)
    assert not est.within_sigmas(1.45, 4.0)
    assert est.within_sigmas(1.15, 2.0)


# ------------------------------------------------------------------ chunking

ESTIMATORS = [known_basis_average_mc, unknown_basis_average_mc, phase_term_mc]


def reference_estimate(xs, square=lambda d: d ** 2):
    """Mean and standard error of a list of floats in plain scalar Python."""
    n = len(xs)
    m = math.fsum(xs) / n
    return m, math.sqrt(math.fsum(square(x - m) for x in xs) / (n - 1) / n)


def per_sample_values(monkeypatch, estimator, n, seed):
    """The (n,) per-sample values an estimator's first pass sums, by row."""
    values = np.full(n, np.nan)
    drive = sampling._sum_chunks
    passes = []

    def capture(n_rows, chunk_values):
        passes.append(n_rows)
        if len(passes) > 1:
            return drive(n_rows, chunk_values)

        def record(start, k):
            v = chunk_values(start, k)
            values[start:start + k] = v
            return v
        return drive(n_rows, record)

    monkeypatch.setattr(sampling, "_sum_chunks", capture)
    estimator(n, seed)
    monkeypatch.setattr(sampling, "_sum_chunks", drive)
    return values


N_CHUNKED = 5000


CHUNK_AND_HOLD = [
    (1, None), (3, None), (2499, None), (4096, None), (5001, None),
    (None, 1), (None, 3), (None, N_CHUNKED - 1), (None, N_CHUNKED),
    (2499, 1), (2499, 3), (2499, N_CHUNKED - 1), (2499, N_CHUNKED),
    (4096, N_CHUNKED - 1),
]


@pytest.mark.parametrize(
    "chunk, hold", CHUNK_AND_HOLD,
    ids=[f"{c}" if h is None else f"{c or 'default'}-hold{h}" for c, h in CHUNK_AND_HOLD],
)
def test_estimates_do_not_depend_on_chunk_size(monkeypatch, chunk, hold):
    """The default chunk runs serially; chunks 1, 3 and 2499 (n = 2 * 2499 + 2)
    take the threaded path, where two threads share the chunks.  With the
    hold cap below n the second pass draws every chunk again instead of
    reading held values, and must give the same bits."""
    n = N_CHUNKED
    expected = [estimator(n, 8) for estimator in ESTIMATORS]
    if chunk is not None:
        monkeypatch.setattr(sampling, "_CHUNK_ROWS", chunk)
    if hold is not None:
        monkeypatch.setattr(sampling, "_HOLD_MAX", hold)
    assert [estimator(n, 8) for estimator in ESTIMATORS] == expected


def one_block_values(estimator, n, seed):
    """An estimator's per-sample values from one unchunked block of the stream."""
    if estimator is known_basis_average_mc:
        lams = _lambda_from_uniform(uniform_block(seed, n, 1)[:, 0])
        return schmidt_pair_bound(np.sqrt(lams), np.sqrt(1.0 - lams))
    closed_form = four_copy_bell_bound if estimator is unknown_basis_average_mc else phase_term
    return closed_form(haar_state_block(seed, n))


CHUNK = sampling._CHUNK_ROWS


@pytest.mark.parametrize("n", [2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK + 5],
                         ids=["serial", "threaded", "threaded-ragged"])
@pytest.mark.parametrize("estimator", ESTIMATORS, ids=["known", "unknown", "phase"])
def test_threaded_values_are_one_block_bitwise(monkeypatch, estimator, n):
    """Which thread ran which chunk moves no bit of any value or estimate."""
    values = per_sample_values(monkeypatch, estimator, n, 9)
    expected = one_block_values(estimator, n, 9)
    assert np.array_equal(values, expected)
    est = estimator(n, 9)
    assert est == estimate_of(expected, 9, est.algorithm)


@pytest.mark.parametrize("estimator", ESTIMATORS, ids=["known", "unknown", "phase"])
def test_no_thread_starts_for_two_chunks(monkeypatch, estimator):
    def no_thread(*args, **kwargs):
        raise RuntimeError("a thread was started")

    monkeypatch.setattr(sampling.threading, "Thread", no_thread)
    assert estimator(2 * CHUNK, 3).n_samples == 2 * CHUNK
    with pytest.raises(RuntimeError, match="a thread was started"):
        estimator(2 * CHUNK + 1, 3)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "helper"])
def test_chunk_error_stops_both_threads(monkeypatch, error, on_caller):
    """The first exception in either thread reaches the caller unchanged, the
    helper is joined, and at most two chunks start after the failing one."""
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", 4)
    started, failed = [], []

    def chunk_values(start, k):
        started.append(start)
        here = threading.current_thread() is threading.main_thread()
        if not failed and start >= 20 and here == on_caller:
            failed.append(start)
            raise error(f"chunk {start}")
        time.sleep(0.001)  # lets the other thread take chunks
        return np.full(k, float(start))

    before = threading.active_count()
    with pytest.raises(error, match=r"^chunk \d+$") as info:
        sampling._sum_chunks(800, chunk_values)
    assert str(info.value) == f"chunk {failed[0]}"
    assert threading.active_count() == before
    assert len(started) - started.index(failed[0]) - 1 <= 2
    # the chunks before the failure ran on both threads
    assert len(started) >= 6


def test_threads_take_each_chunk_once(monkeypatch):
    """Under a very short switch interval each chunk start is still handed
    out exactly once, each thread's total reaches the sum, and each held
    slice is written by the thread that took it."""
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", 3)
    taken, threads = [], set()

    def chunk_values(start, k):
        taken.append(start)
        threads.add(threading.get_ident())
        return np.arange(start, start + k, dtype=float)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        total = sampling._sum_chunks(30_001, chunk_values)
        taken_once, threads_once = sorted(taken), len(threads)
        est = sampling._mc_estimate(30_001, 0, chunk_values)
    finally:
        sys.setswitchinterval(interval)
    assert total == sum(range(30_001)) << 1075
    # the standard error reads the held values, so it fails if a slice is wrong
    assert (est.mean, est.std_error) == reference_estimate(list(range(30_001)))
    assert taken_once == list(range(0, 30_001, 3))
    assert threads_once == 2


@pytest.mark.parametrize("chunk", [1, 7, 4096, sampling._CHUNK_ROWS])
def test_estimate_is_the_scalar_reference_bitwise(monkeypatch, chunk):
    """The estimator rounds the exact sums once, so any chunking gives the plain scalar result."""
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", chunk)
    values = four_copy_bell_bound(haar_state_block(42, 10_000))
    est = estimate_of(values, seed=42)
    assert (est.mean, est.std_error) == reference_estimate(values.tolist())


@pytest.mark.parametrize("closed_form", [four_copy_bell_bound, phase_term])
def test_estimate_squares_through_pow(closed_form):
    """Deviations are squared through libm pow, as float ** 2 is.  A product
    d * d rounds differently for about one deviation in a thousand, which a
    long sum hides; in the three-sample windows where it shows in the
    standard error, the estimator must still match the reference."""
    xs = closed_form(haar_state_block(42, 10_000)).tolist()
    windows = [xs[i:i + 3] for i in range(len(xs) - 2)]
    telling = [w for w in windows if reference_estimate(w) != reference_estimate(w, lambda d: d * d)]
    assert telling
    for w in telling:
        est = estimate_of(w, seed=42)
        assert (est.mean, est.std_error) == reference_estimate(w)


@pytest.mark.parametrize(
    "estimator, digest",
    [
        (known_basis_average_mc,
         "a1676406fd9bbb9cbc0adf9a39a2f32a90906d766b4a75821f62a07fe510e05f"),
        (unknown_basis_average_mc,
         "a1542360c027a15976ed8ca0bd17c8fc14bac57abbf7099cba986f1eabeb18d0"),
        (phase_term_mc,
         "b92887aec837eb0e983ca356870a8068295bc6a073fe00b04af89c6e49322a77"),
    ],
    ids=["known-basis", "unknown-basis", "phase-term"],
)
def test_per_sample_values_are_pinned(monkeypatch, estimator, digest):
    """sha256 of the float64 per-sample values at seed 42, 20 000 samples
    (more than one chunk); a last-bit change in any value shows here."""
    values = per_sample_values(monkeypatch, estimator, 20_000, 42)
    assert hashlib.sha256(np.asarray(values, "<f8").tobytes()).hexdigest() == digest


def peak_rss_mb(samples: int, hold_max: int | None = None) -> float:
    """Peak RSS of one `haar-average --mode unknown-basis` child, from wait4;
    hold_max, if given, replaces sampling._HOLD_MAX in the child."""
    src = Path(epp_lab.__file__).resolve().parent.parent
    argv = ["haar-average", "--mode", "unknown-basis", "--samples", str(samples), "--seed", "5"]
    code = (f"import sys\nfrom epp_lab import cli, sampling\nsampling._HOLD_MAX = {hold_max}\n"
            f"sys.exit(cli.main({argv!r}))")
    cmd = ["-m", "epp_lab", *argv] if hold_max is None else ["-c", code]
    proc = subprocess.Popen(
        [sys.executable, *cmd],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024  # KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's unit")
def test_memory_is_bounded_in_samples():
    """Four times the samples must not cost more than a few MB: below the
    hold cap only the 8 B-per-sample held values grow, the chunk workspace
    does not."""
    small, large = peak_rss_mb(200_000), peak_rss_mb(800_000)
    assert large - small <= 20.0, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's unit")
def test_memory_is_flat_above_the_hold_cap():
    """Above the hold cap nothing is kept per sample: the second pass draws
    each chunk again, so eight times the samples peak within a few MB."""
    small, large = peak_rss_mb(200_000, 2**14), peak_rss_mb(1_600_000, 2**14)
    assert abs(large - small) <= 5.0, (small, large)
