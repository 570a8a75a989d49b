import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from epp_lab.linalg import (
    _as_array,
    _as_real,
    _cabs,
    _check_int,
    _cmul,
    _cmul_into,
    as_state,
    basis_state,
    bell_phi_plus,
    fidelity_up_to_phase,
    schmidt_state,
)
from oracles import n_qubits, permute_qubits, schmidt_coefficients


def random_state(seed, n=4):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


# two copies are stored as np.kron(psi, psi) in big-endian order, the layout
# that the lift and the stage kernel assume
def test_tensor_zero_zero():
    out = np.kron(basis_state(1, "0"), basis_state(1, "0"))
    assert np.array_equal(out, np.array([1, 0, 0, 0], dtype=complex))


def test_tensor_bell_with_ancilla_pair():
    # big-endian: |phi+>|00> puts weight on binary 0000 and 1100
    out = np.kron(bell_phi_plus(), basis_state(2, "00"))
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = 1 / np.sqrt(2)
    expected[0b1100] = 1 / np.sqrt(2)
    assert np.allclose(out, expected, atol=1e-15)


def test_tensor_self_product_amplitudes():
    c = as_state([0.6, 0, 0, 0.8])
    out = np.kron(c, c)
    assert out[0b0011] == pytest.approx(0.48)
    assert out[0b1100] == pytest.approx(0.48)
    assert out[0b0000] == pytest.approx(0.36)
    assert out[0b1111] == pytest.approx(0.64)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_tensor_associative(seed):
    a = random_state(seed, 2)
    b = random_state(seed + 1, 2)
    c = random_state(seed + 2, 4)
    left = np.kron(np.kron(a, b), c)
    right = np.kron(a, np.kron(b, c))
    assert np.allclose(left, right, atol=1e-12)


def test_tensor_norm_multiplicative():
    a = random_state(0, 2)
    b = random_state(1, 8)
    assert np.linalg.norm(np.kron(a, b)) == pytest.approx(1.0, abs=1e-12)


def test_permute_identity():
    s = random_state(5, 16)
    assert np.array_equal(permute_qubits(s, (0, 1, 2, 3)), s)


def test_permute_interleave_example():
    # (A,B,A',B') -> (A,A',B,B') maps |0011> to |0101>
    out = permute_qubits(basis_state(4, "0011"), (0, 2, 1, 3))
    assert np.array_equal(out, basis_state(4, "0101"))
    # and |0101> back to |0011>: the permutation is an involution
    back = permute_qubits(basis_state(4, "0101"), (0, 2, 1, 3))
    assert np.array_equal(back, basis_state(4, "0011"))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_permute_roundtrip_and_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    s = random_state(seed, 2**n)
    perm = tuple(int(p) for p in rng.permutation(n))
    moved = permute_qubits(s, perm)
    assert np.linalg.norm(moved) == pytest.approx(1.0, abs=1e-12)
    inverse = tuple(int(p) for p in np.argsort(perm))
    assert np.allclose(permute_qubits(moved, inverse), s, atol=1e-12)


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_qubits(basis_state(2, "00"), (0, 0))


def test_schmidt_bell():
    coeffs = schmidt_coefficients(bell_phi_plus(), 1)
    assert np.allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_schmidt_product_states():
    assert np.allclose(schmidt_coefficients(basis_state(2, "00"), 1), [1, 0], atol=1e-12)
    plus_plus = as_state([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(schmidt_coefficients(plus_plus, 1), [1, 0], atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_schmidt_coeffs_local_unitary_invariant(seed):
    """Schmidt spectrum is sorted, normalized, and unchanged by local basis changes."""
    s = random_state(seed)
    rng = np.random.default_rng(seed)
    u = unitary_group.rvs(2, random_state=rng)
    v = unitary_group.rvs(2, random_state=rng)
    rotated = np.kron(u, v) @ s
    a = schmidt_coefficients(s, 1)
    b = schmidt_coefficients(rotated, 1)
    assert a[0] >= a[1] >= 0
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(a, b, atol=1e-9)


def test_schmidt_coefficients_doubled_cut():
    # cut a 4-qubit register in half; squares sum to one
    s = random_state(3, 16)
    sv = schmidt_coefficients(s, 2)
    assert sv.shape == (4,)
    assert np.sum(sv**2) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        schmidt_coefficients(s, 0)


def test_fidelity_phase_invariance():
    s = random_state(11)
    assert fidelity_up_to_phase(s, s) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_up_to_phase(s, np.exp(0.7j) * s) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_up_to_phase(basis_state(2, "00"), basis_state(2, "11")) == 0.0


def test_fidelity_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        fidelity_up_to_phase(basis_state(1, "0"), basis_state(2, "00"))
    # two empty vectors are no states, and a 2-D array is no vector even
    # when its size matches
    with pytest.raises(ValueError, match="non-empty 1-D"):
        fidelity_up_to_phase([], [])
    with pytest.raises(ValueError, match="non-empty 1-D"):
        fidelity_up_to_phase([[1, 0], [0, 0]], [1, 0, 0, 0])


def test_fidelity_rejects_unnormalized_states():
    """An unnormalized state on either side raises, naming its row, instead of
    a fidelity above 1 such as |<(2, 0)|(1, 0)>|^2 = 4."""
    with pytest.raises(ValueError, match="not normalized.* in row 0$"):
        fidelity_up_to_phase([2, 0], [1, 0])
    with pytest.raises(ValueError, match="not normalized.* in row 1$"):
        fidelity_up_to_phase([1, 0], [0.6, 0.6j])


def test_state_validation():
    with pytest.raises(ValueError):
        as_state([1.0, 1.0, 0, 0])
    with pytest.raises(ValueError):
        as_state([1.0, 0.0, 0.0])
    # four normalized amplitudes in a 2x2 nesting are not a flat state
    with pytest.raises(ValueError, match="flat"):
        as_state([[0.6, 0], [0, 0.8]])
    with pytest.raises(ValueError):
        n_qubits(3)
    s = schmidt_state(np.sqrt(0.25), np.sqrt(0.75))
    assert s[0] == pytest.approx(0.5)
    assert s[3] == pytest.approx(np.sqrt(0.75))


def test_basis_state_bad_width():
    with pytest.raises(ValueError):
        basis_state(3, "01")


# ------------------------------------------------ real and integer domains


def test_domain_bounds_are_inclusive():
    assert _as_real(0.5, "x", 0.5, 1.0) == 0.5
    assert _as_real(1.0, "x", 0.5, 1.0) == 1.0
    assert _check_int(1, "n", 1, 3) == 1
    assert _check_int(3, "n", 1, 3) == 3
    for outside in (np.nextafter(0.5, 0.0), np.nextafter(1.0, 2.0)):
        with pytest.raises(ValueError):
            _as_real(outside, "x", 0.5, 1.0)
    for outside in (0, 4):
        with pytest.raises(ValueError):
            _check_int(outside, "n", 1, 3)


def test_nan_lies_outside_every_domain_and_inf_outside_finite_ones():
    for check in (_as_real, _check_int):
        with pytest.raises(ValueError):
            check(math.nan, "x")
        for inf in (math.inf, -math.inf):
            with pytest.raises(ValueError):
                check(inf, "x", -1, 1)
    # the default domain is the whole real line, ends included
    assert _as_real(-math.inf, "x") == -math.inf
    with pytest.raises(ValueError):
        _check_int(math.inf, "n")


def test_integral_values_are_accepted_as_int():
    for value in (3, 3.0, np.int64(3), np.uint64(3), np.float64(3.0)):
        n = _check_int(value, "n", 0)
        assert n == 3 and type(n) is int
    for bad in (3.5, "3.0", 3 + 0j):
        with pytest.raises(ValueError):
            _check_int(bad, "n")


def test_numpy_complex_is_rejected_by_type():
    for z in (np.complex128(0.5), np.complex64(0.5), np.complex128(0.5 + 1j), 0.5 + 0j):
        with pytest.raises(ValueError):
            _as_real(z, "x")
        with pytest.raises(ValueError):
            _check_int(z, "n")
    for values in (np.array([0.5, 0.5], dtype=complex), [np.complex64(0.5), 0.5]):
        with pytest.raises(ValueError):
            _as_array(values, float)
    assert _as_array(np.array([0.5, 0.5], dtype=complex)).dtype == complex


def test_array_owner_checks_kind_shape_and_finiteness():
    # None leaves an axis free, a name too; a list offers alternative shapes
    for rows in (1, 3):
        assert _as_array(np.ones((rows, 4)), shape=(None, 4)).shape == (rows, 4)
    assert _as_array([0.5], shape=[(), ("row",)]).shape == (1,)
    with pytest.raises(ValueError, match=r"^expected a batch, got shape \(4,\)$"):
        _as_array(np.ones(4), what="a batch", shape=(None, 4))
    # an object array of numbers converts entry by entry, exactly
    halves = _as_array([Fraction(1, 2), Fraction(-3, 4)], float)
    assert halves.dtype == float and halves.tolist() == [0.5, -0.75]
    assert _as_array(np.array([Fraction(1, 2), 1j], dtype=object)).tolist() == [0.5, 1j]
    # the first non-finite entry is named by its index on the leading axis
    batch = np.ones((4, 2))
    batch[3, 0] = batch[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entry at row 2$"):
        _as_array(batch, shape=("row", 2))
    with pytest.raises(ValueError, match=r"non-finite entry at index 2$"):
        _as_array(batch)
    for text in (["0.5"], "0.5", b"0.5", [Fraction(1, 2), "0.5"], None):
        with pytest.raises(ValueError, match="where complex numbers belong"):
            _as_array(text)


def test_domain_message_names_the_value_and_both_bounds():
    with pytest.raises(ValueError, match=r"^lambda .*at least 0\.5 and at most 1\.0, got 0\.25$"):
        _as_real(0.25, "lambda", 0.5, 1.0)
    with pytest.raises(ValueError, match=r"^seed .*at least 0 and at most 7, got 8$"):
        _check_int(8, "seed", 0, 7)
    with pytest.raises(ValueError, match=r"^n .*at least 1 and at most 5, got 2\.5$"):
        _check_int(2.5, "n", 1, 5)


def test_check_int_names_an_integer_for_every_non_integer():
    # text, nan, complex and non-integral reals are all refused as integers
    for bad in ("2", math.nan, 2.5, 0.5j, None):
        with pytest.raises(ValueError, match=r"^n must be an integer at least 0 and at most inf"):
            _check_int(bad, "n", 0)
    with pytest.raises(ValueError, match=r"^lambda must be a real number at least"):
        _as_real("0.7", "lambda", 0.5, 1.0)


def test_dtype_none_keeps_real_kinds_real_and_makes_the_rest_complex():
    for values in (True, 3, np.arange(3, dtype=np.uint8), [0.5, -2], np.float32(0.5)):
        array = _as_array(values, None)
        assert array.dtype == float and array.tolist() == np.asarray(values).tolist()
    # complex input and object arrays, complex entries among them, stay complex
    for values in (0.5j, [0.5, 1j], np.array([Fraction(1, 2), 1j], dtype=object),
                   [Fraction(1, 2), Fraction(-3, 4)]):
        array = _as_array(values, None)
        assert array.dtype == complex and array.tolist() == _as_array(values).tolist()
    for text in (["0.5"], "0.5", None):
        with pytest.raises(ValueError, match="where complex numbers belong"):
            _as_array(text, None)


# finite doubles with the edge cases spelled out: signed zeros, subnormals, the extremes
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.0, 1e-200]
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite_floats, finite_floats), max_size=16))
@settings(max_examples=200, deadline=None)
def test_real_arrays_take_real_arithmetic_bitwise(drawn):
    """_cmul and _cabs on real arrays give x * y and |x| with no complex
    temporaries, bit for bit the complex route at imaginary part 0."""
    pairs = [(x, y) for x in EDGE_FLOATS for y in EDGE_FLOATS] + drawn
    x, y = (np.array(column) for column in zip(*pairs))
    with np.errstate(over="ignore"):
        product, expected = _cmul(x, y), _cmul(x.astype(complex), y.astype(complex))
        # one complex operand keeps the complex route
        assert _cmul(x, y.astype(complex)).tobytes() == expected.tobytes()
    assert product.dtype == float and product.tobytes() == expected.real.tobytes()
    assert _cabs(x).dtype == float and _cabs(x).tobytes() == _cabs(x.astype(complex)).tobytes()


def _edge_and_drawn(drawn):
    """Complex array of every EDGE_FLOATS pair, as (re, im), then the drawn pairs."""
    pairs = [(x, y) for x in EDGE_FLOATS for y in EDGE_FLOATS] + drawn
    return np.array([complex(x, y) for x, y in pairs])


@given(st.lists(st.tuples(finite_floats, finite_floats), max_size=16))
@settings(max_examples=200, deadline=None)
def test_square_rounds_as_np_power(drawn):
    """_cmul_into of z with itself is bitwise np.power(z, 2), and with its
    imaginary part negated bitwise np.power(z.conj(), 2), subnormals,
    overflow and the nan of inf - inf included.  A zero base is the one
    exception: np.power returns +0 + 0j for it whatever its signs, the
    product keeps the signs of its zeros, and the two are equal in value."""
    z = _edge_and_drawn(drawn)
    re, im, scratch = (np.empty(len(z)) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        _cmul_into(z.real, z.imag, z.real, z.imag, re, im, scratch, im)
        square, conj_square = np.power(z, 2), np.power(z.conj(), 2)
    nonzero = z != 0
    for got, want in ((re, square.real), (im, square.imag), (re, conj_square.real),
                      (np.negative(im), conj_square.imag)):
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert np.array_equal(got[~nonzero], want[~nonzero])


@given(st.lists(st.tuples(finite_floats, finite_floats), max_size=16))
@settings(max_examples=200, deadline=None)
def test_product_in_place_rounds_as_a_fresh_one(drawn):
    """_cmul_into with out aliasing x and y's imaginary part as spare gives
    the bits of a fresh out, and of _cmul."""
    x = _edge_and_drawn(drawn)
    y = x[::-1].copy()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        re, im, scratch = (np.empty(len(x)) for _ in range(3))
        _cmul_into(x.real, x.imag, y.real, y.imag, re, im, scratch, im)
        xr, xi, yi = x.real.copy(), x.imag.copy(), y.imag.copy()
        _cmul_into(xr, xi, y.real, yi, xr, xi, scratch, yi)
        expected = _cmul(x, y)
    assert xr.tobytes() == re.tobytes() == expected.real.tobytes()
    assert xi.tobytes() == im.tobytes() == expected.imag.tobytes()
