import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epp_lab.linalg import basis_state, bell_phi_plus, schmidt_state
from epp_lab.vidal import (
    MAX_GRID,
    conversion_curve,
    curve_lambdas,
    doubled_schmidt_coeffs,
    embedded_bell_coeffs,
    monotones,
    optimal_two_copy_prob,
    universal_two_copy_prob,
    vidal_probability,
)
from oracles import permute_qubits, schmidt_coefficients


def test_monotones_trivial():
    assert np.allclose(monotones([1.0]), [1.0])


def test_monotones_bell():
    assert np.allclose(monotones([0.5, 0.5]), [1.0, 0.5], atol=1e-15)


def test_monotones_doubled_state():
    lam = 0.8
    E = monotones(doubled_schmidt_coeffs(lam))
    expected = [1.0, 1 - lam**2, 1 - lam, (1 - lam) ** 2]
    assert np.allclose(E, expected, atol=1e-12)


def test_monotones_sorting_is_internal():
    a = monotones([0.1, 0.6, 0.3])
    b = monotones([0.6, 0.3, 0.1])
    assert np.allclose(a, b, atol=1e-15)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_monotones_properties(seed):
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(int(rng.integers(1, 6))))
    E = monotones(x)
    assert E[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(E) <= 1e-15)  # non-increasing
    assert E[-1] >= -1e-15


def test_monotones_rejects_bad_input():
    with pytest.raises(ValueError):
        monotones([0.7, -0.1, 0.4])
    with pytest.raises(ValueError):
        monotones([0.7, 0.1])
    with pytest.raises(ValueError):
        monotones([])
    # a spectrum of no coefficient is refused alone or in a stack, even an empty one
    for empty in ([], np.empty((1, 0)), np.empty((0, 0))):
        with pytest.raises(ValueError, match="at least one coefficient"):
            vidal_probability(empty, [1.0])


def test_embedded_bell_matches_schmidt_oracle():
    """Padding the Bell target with an ancilla pair gives spectrum (1/2, 1/2, 0, 0)."""
    doubled = np.kron(bell_phi_plus(), basis_state(2, "00"))
    interleaved = permute_qubits(doubled, (0, 2, 1, 3))
    sv = schmidt_coefficients(interleaved, 2)
    assert np.allclose(np.sort(sv**2)[::-1], embedded_bell_coeffs(), atol=1e-12)


@given(st.floats(min_value=0.501, max_value=0.999))
@settings(max_examples=40)
def test_doubled_coeffs_match_schmidt_oracle(lam):
    psi = schmidt_state(np.sqrt(lam), np.sqrt(1 - lam))
    doubled = permute_qubits(np.kron(psi, psi), (0, 2, 1, 3))
    sv = schmidt_coefficients(doubled, 2)
    expected = np.sort(doubled_schmidt_coeffs(lam))[::-1]
    assert np.allclose(np.sort(sv**2)[::-1], expected, atol=1e-10)


def test_vidal_probability_values():
    target = embedded_bell_coeffs()
    assert vidal_probability(doubled_schmidt_coeffs(0.9), target) == pytest.approx(0.38, abs=1e-12)
    assert vidal_probability(doubled_schmidt_coeffs(0.6), target) == 1.0
    assert vidal_probability([0.5, 0.5], [0.5, 0.5]) == 1.0
    # an empty stack of spectra is an empty result, as for every other batched entry
    assert vidal_probability(np.empty((0, 4)), target).shape == (0,)


def test_vidal_probability_identical_input():
    x = [0.4, 0.3, 0.2, 0.1]
    assert vidal_probability(x, x) == 1.0


def test_vidal_probability_pads_and_skips_zero_constraints():
    # product source cannot reach an entangled target at all
    assert vidal_probability([1.0], [0.5, 0.5]) == 0.0
    # entangled source reaches a product target with certainty; the l = 1
    # constraint has E_l(target) = 0 and must be skipped, not divided by
    assert vidal_probability([0.5, 0.5], [1.0]) == 1.0


def test_curve_values_and_breakpoint():
    assert optimal_two_copy_prob(0.8) == pytest.approx(0.72, abs=1e-15)
    assert optimal_two_copy_prob(0.6) == 1.0
    bp = 1 / np.sqrt(2)
    # the two branches agree at the breakpoint; the curve is continuous
    assert optimal_two_copy_prob(bp) == pytest.approx(1.0, abs=1e-12)
    assert optimal_two_copy_prob(bp - 1e-9) == 1.0


def test_curve_stays_at_most_one_at_the_breakpoint():
    """At lam = 1/sqrt(2), its own breakpoint, 2(1 - lam^2) rounds above 1; the
    curve reads 1.0 there and one float below, and 2(1 - lam^2) one float above,
    as a scalar and as an array."""
    bp = float(1.0 / np.sqrt(2.0))
    below, above = np.nextafter(bp, 0.0), np.nextafter(bp, 1.0)
    assert 2.0 * (1.0 - bp**2) > 1.0
    expected = [1.0, 1.0, 2.0 * (1.0 - above**2)]
    assert expected[2] < 1.0
    assert [optimal_two_copy_prob(x) for x in (below, bp, above)] == expected
    assert optimal_two_copy_prob([below, bp, above]).tolist() == expected


def test_curve_domain():
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ValueError):
            optimal_two_copy_prob(bad)


def test_universal_curve():
    assert universal_two_copy_prob(0.8) == pytest.approx(0.32, abs=1e-15)
    with pytest.raises(ValueError):
        universal_two_copy_prob(1.2)


@given(st.floats(min_value=0.5001, max_value=0.9999))
@settings(max_examples=60)
def test_curve_dominates_universal_strictly(lam):
    assert optimal_two_copy_prob(lam) > universal_two_copy_prob(lam)


def test_curve_monotone_after_breakpoint():
    lams = np.linspace(1 / np.sqrt(2) + 1e-6, 0.9999, 300)
    vals = [optimal_two_copy_prob(l) for l in lams]
    assert np.all(np.diff(vals) < 0)


def test_doubled_coeffs_domain():
    with pytest.raises(ValueError):
        doubled_schmidt_coeffs(1.2)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), 2.5, "x", 0, -3, 0.0, MAX_GRID + 1, 10**400],
    ids=["nan", "inf", "2.5", "str", "0", "-3", "0.0", "MAX_GRID+1", "10**400"])
def test_conversion_curve_checks_n_when_called(bad):
    """A bad n raises ValueError from the call itself, before any point is asked
    for, and from curve_lambdas, which checks n the same way."""
    with pytest.raises(ValueError):
        conversion_curve(bad)
    with pytest.raises(ValueError):
        curve_lambdas(bad)


def curve_columns(n):
    """The three columns of conversion_curve(n), each block as a list."""
    return [[column.tolist() for column in block] for block in conversion_curve(n)]


def test_conversion_curve_accepts_integral_n():
    blocks = curve_columns(3)
    assert len(blocks) == 1 and [len(column) for column in blocks[0]] == [3, 3, 3]
    assert curve_columns(3.0) == blocks
    assert curve_columns(np.int64(3)) == blocks
    conversion_curve(MAX_GRID)  # the ceiling itself is accepted; no block is computed
    grids = [curve_lambdas(n).tolist() for n in (3, 3.0, np.int64(3))]
    assert grids == [blocks[0][0]] * 3


@pytest.mark.parametrize("n, sizes", [(1, [1]), (1024, [1024]), (1025, [1024, 1]),
                                      (3000, [1024, 1024, 952])])
def test_conversion_curve_blocks_hold_at_most_1024_points(n, sizes):
    """Each block is three (k,) float arrays, k at most 1024, so memory stays flat in n."""
    blocks = list(conversion_curve(n))
    assert [len(block[0]) for block in blocks] == sizes
    for block in blocks:
        assert len(block) == 3
        assert all(column.shape == block[0].shape and column.dtype == float for column in block)


def plain_vidal(source, target):
    """The single-spectrum rule in plain Python: the minimum of E_l(source) / E_l(target)
    over l with E_l(target) > 0, zero-padded, clamped to [0, 1]."""
    Es, Et = monotones(source).tolist(), monotones(target).tolist()
    Es += [0.0] * (len(Et) - len(Es))
    best = 1.0
    for e_s, e_t in zip(Es, Et):
        if e_t > 0.0:
            best = min(best, e_s / e_t)
    return max(best, 0.0)


def spectra(k: int):
    """Squared Schmidt spectra of length k, some entries exactly zero."""
    entries = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0), min_size=k, max_size=k)
    return entries.filter(lambda x: sum(x) > 0).map(lambda x: [v / sum(x) for v in x])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_stacked_source_is_bitwise_row_by_row(data):
    """vidal_probability(stack, target)[i] is bitwise vidal_probability(stack[i], target),
    and that is the plain-Python rule, for spectra of length 1-4 with zero
    entries against targets of any length 1-4, so padding runs on both sides."""
    k = data.draw(st.integers(1, 4), label="k")
    stack = data.draw(st.lists(spectra(k), min_size=1, max_size=5), label="stack")
    target = data.draw(st.integers(1, 4).flatmap(spectra), label="target")
    got = vidal_probability(stack, target)
    assert got.shape == (len(stack),)
    for i, row in enumerate(stack):
        assert float(got[i]).hex() == float(vidal_probability(row, target)).hex()
        assert float(got[i]).hex() == plain_vidal(row, target).hex()


@given(st.lists(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True), min_size=1,
                max_size=8))
@settings(max_examples=100, deadline=None)
def test_two_copy_curves_take_arrays_bitwise(lams):
    """Entry i of each two-copy curve on an array is bitwise the scalar call at
    lams[i], and that is the formula on one Python float."""
    lam = np.array(lams)
    for i, x in enumerate(lams):
        plain = {
            optimal_two_copy_prob: min(2.0 * (1.0 - x**2), 1.0),
            universal_two_copy_prob: 2.0 * x * (1.0 - x),
        }
        for fn, expected in plain.items():
            assert float(fn(lam)[i]).hex() == float(fn(x)).hex() == expected.hex()
        row = [x**2, x * (1 - x), x * (1 - x), (1 - x) ** 2]
        assert doubled_schmidt_coeffs(lam)[i].tolist() == doubled_schmidt_coeffs(x).tolist() == row


def test_two_copy_curves_name_the_point_outside_the_domain():
    with pytest.raises(ValueError, match=r"strictly inside \[0.5, 1.0\], got 1.0 at point 2$"):
        optimal_two_copy_prob([0.6, 0.7, 1.0])
    with pytest.raises(ValueError, match=r"lie in \[0.0, 1.0\], got 1.5 at point 1$"):
        doubled_schmidt_coeffs([0.6, 1.5])
    with pytest.raises(ValueError, match="an \\(n,\\) array"):
        universal_two_copy_prob([[0.6]])

