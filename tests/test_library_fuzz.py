"""Non-finite or out-of-range input to any public library entry point raises ValueError.

Each entry point is called with valid arguments in which one scalar slot is
replaced by nan, +inf, -inf, 1e400 (which parses to inf) or the integers
+-10**400, which no float can hold; in a complex slot a bad float goes into
the real or the imaginary part.  The call must raise ValueError: returning
anything, a nan above all, or raising OverflowError fails the test.  A
complex value in a slot of a real-valued entry point must raise ValueError
too, not TypeError, and so must a number written as text.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epp_lab import kraus, protocols, sampling, vidal
from epp_lab.kraus import KrausParams
from epp_lab.linalg import as_state, fidelity_up_to_phase

BAD = [math.nan, math.inf, -math.inf, float("1e400"), 10**400, -10**400]

STATE = [0.5, 0.5, 0.5, 0.5]
SCHMIDT_STATE = [0.6, 0.0, 0.0, 0.8]
PARAMS = [0.5, 0.3]


def state_or_batch(flat):
    """Four values are one state; eight are a batch of two, as nested lists
    so that the entry point itself converts every value."""
    return [list(flat[:4]), list(flat[4:])] if len(flat) > 4 else flat


def stack(flat, shape):
    """Flat values as nested lists of the given shape, converted by the entry point."""
    if len(shape) == 1:
        return list(flat)
    size = len(flat) // shape[0]
    return [stack(flat[i:i + size], shape[1:]) for i in range(0, len(flat), size)]


KRAUS = kraus.build_kraus(KrausParams(0.5 + 0.1j, 0.3)).ravel().tolist()
CANONICAL_KRAUS = kraus.build_kraus(kraus.CANONICAL_PARAMS).ravel().tolist()
IDENTITY_16 = np.eye(16).ravel().tolist()
PAULI_COEFFS = kraus.pauli_expand(np.reshape(KRAUS, (1, 4, 4))).ravel().tolist()


def closed_form(fn, state):
    return (fn.__name__, lambda *v: fn(state_or_batch(v)), state, True)


# (name, call taking the flat slot values, valid slot values, complex slots?)
ENTRY_POINTS = [
    ("as_state", lambda *v: as_state(v), STATE, True),
    ("KrausParams", KrausParams, PARAMS, True),
    ("stage1", lambda *v: protocols.stage1(state_or_batch(v[:-2]), KrausParams(*v[-2:])),
     STATE + STATE + PARAMS, True),
    ("stage2", lambda *v: protocols.stage2(state_or_batch(v)), SCHMIDT_STATE, True),
    ("full_pipeline",
     lambda *v: protocols.full_pipeline(state_or_batch(v[:-2]), KrausParams(*v[-2:])),
     STATE + PARAMS, True),
    ("stage1[pairs]",
     lambda *v: protocols.stage1(v[:4], KrausParams(v[4::2], v[5::2])),
     STATE + PARAMS + PARAMS, True),
    ("region", kraus.region, PARAMS, True),
    ("region[pairs]", lambda *v: kraus.region(v[::2], v[1::2]), PARAMS + PARAMS, True),
    ("fidelity_up_to_phase", lambda *v: fidelity_up_to_phase(v[:4], v[4:]),
     STATE + SCHMIDT_STATE, True),
    ("lift_local_kraus", lambda *v: kraus.lift_local_kraus(stack(v, (1, 4, 4))), KRAUS, True),
    ("lift_local_kraus[stack]", lambda *v: kraus.lift_local_kraus(stack(v, (2, 4, 4))),
     KRAUS + CANONICAL_KRAUS, True),
    ("apply_kraus",
     lambda *v: kraus.apply_kraus(stack(v[:16], (1, 4, 4)), stack(v[16:], (2, 4))),
     KRAUS + STATE + SCHMIDT_STATE, True),
    ("apply_kraus[stack]",
     lambda *v: kraus.apply_kraus(stack(v[:32], (2, 4, 4)), stack(v[32:], (1, 4))),
     KRAUS + CANONICAL_KRAUS + STATE, True),
    ("check_universality_constraints",
     lambda *v: kraus.check_universality_constraints(stack(v, (1, 16, 16))), IDENTITY_16, True),
    ("pauli_expand", lambda *v: kraus.pauli_expand(stack(v, (1, 4, 4))), KRAUS, True),
    ("pauli_relation_residuals",
     lambda *v: kraus.pauli_relation_residuals(stack(v, (1, 4, 4))), PAULI_COEFFS, True),
    *[closed_form(fn, state) for fn in (
        protocols.schmidt_conversion_bound,
        protocols.four_copy_bell_bound,
        protocols.kalman_stage1_prob,
        protocols.kalman_stage2_prob,
    ) for state in (STATE, STATE + SCHMIDT_STATE)],
    ("schmidt_pair_bound", protocols.schmidt_pair_bound, [0.6, 0.8], True),
    ("schmidt_pair_bound[batch]",
     lambda *v: protocols.schmidt_pair_bound(list(v[:2]), list(v[2:])),
     [0.6, 1.0, 0.8, 0.0], True),
    ("vidal_probability", lambda *v: vidal.vidal_probability(v[:2], v[2:]),
     [0.7, 0.3, 0.5, 0.5], False),
    ("vidal_probability[stack]",
     lambda *v: vidal.vidal_probability(stack(v[:4], (2, 2)), v[4:]),
     [0.7, 0.3, 0.4, 0.6, 0.5, 0.5], False),
    ("monotones", lambda *v: vidal.monotones(v), [0.7, 0.3], False),
    ("optimal_two_copy_prob", vidal.optimal_two_copy_prob, [0.8], False),
    ("optimal_two_copy_prob[array]", lambda *v: vidal.optimal_two_copy_prob(list(v)),
     [0.6, 0.8], False),
    ("universal_two_copy_prob", vidal.universal_two_copy_prob, [0.8], False),
    ("universal_two_copy_prob[array]", lambda *v: vidal.universal_two_copy_prob(list(v)),
     [0.6, 0.8], False),
    ("doubled_schmidt_coeffs", vidal.doubled_schmidt_coeffs, [0.8], False),
    ("doubled_schmidt_coeffs[array]", lambda *v: vidal.doubled_schmidt_coeffs(list(v)),
     [0.6, 0.8], False),
    ("conversion_curve", lambda n: next(vidal.conversion_curve(n)), [3], False),
    ("curve_lambdas", vidal.curve_lambdas, [3], False),
    ("schmidt_lambda_pdf", sampling.schmidt_lambda_pdf, [0.8], False),
    ("dirichlet_moment_exact", lambda *v: sampling.dirichlet_moment_exact(v[:2], v[2:]),
     [1, 2, 0, 1], False),
    ("uniform_block", sampling.uniform_block, [3, 5, 8, 7], False),
    ("haar_state_block", sampling.haar_state_block, [3, 5, 7], False),
    ("known_basis_average_mc", sampling.known_basis_average_mc, [10, 3], False),
    ("unknown_basis_average_mc", sampling.unknown_basis_average_mc, [10, 3], False),
    ("phase_term_mc", sampling.phase_term_mc, [10, 3], False),
]
IDS = [entry[0] for entry in ENTRY_POINTS]


def as_floats(result):
    """Every float an entry point returned, flattened."""
    if hasattr(result, "__dataclass_fields__"):
        fields = [getattr(result, name) for name in result.__dataclass_fields__]
        return [x for f in fields if not isinstance(f, str) for x in as_floats(f)]
    if isinstance(result, dict):
        result = tuple(result.values())
    if isinstance(result, tuple):
        return [x for part in result for x in as_floats(part)]
    if result is None or isinstance(result, bool):
        return []
    return np.abs(np.asarray(result, dtype=complex)).ravel().tolist()


@pytest.mark.parametrize("name, call, valid, _", ENTRY_POINTS, ids=IDS)
def test_valid_arguments_give_finite_results(name, call, valid, _):
    """The fuzz below starts from these arguments, so they must be accepted."""
    assert all(math.isfinite(x) for x in as_floats(call(*valid)))


@given(st.data())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 inside a norm
def test_non_finite_slot_raises_value_error(data):
    name, call, valid, complex_slots = data.draw(st.sampled_from(ENTRY_POINTS), label="entry")
    slot = data.draw(st.integers(0, len(valid) - 1), label="slot")
    bad = data.draw(st.sampled_from(BAD), label="bad")
    # an int beyond the float range cannot be the imaginary part of a complex
    if complex_slots and isinstance(bad, float) and data.draw(st.booleans(), label="imaginary"):
        bad = complex(valid[slot], bad)
    args = list(valid)
    args[slot] = bad
    with pytest.raises(ValueError):
        call(*args)


REAL_ENTRY_POINTS = [entry for entry in ENTRY_POINTS if not entry[3]]


@pytest.mark.parametrize("name, call, valid, _", REAL_ENTRY_POINTS,
                         ids=[entry[0] for entry in REAL_ENTRY_POINTS])
def test_complex_in_a_real_slot_raises_value_error(name, call, valid, _):
    """A real-valued entry point rejects a complex argument in every slot with
    ValueError, not the TypeError of float() or of a < comparison.  A numpy
    complex is rejected by type, even with a zero imaginary part: float()
    and np.asarray(..., dtype=float) would drop its imaginary part."""
    for slot in range(len(valid)):
        z = complex(valid[slot], 1.0)
        for bad in (z, np.complex128(z), np.complex64(z),
                    np.complex128(valid[slot]), np.complex64(valid[slot])):
            args = list(valid)
            args[slot] = bad
            with pytest.raises(ValueError):
                call(*args)


@pytest.mark.parametrize("call, args", [
    (vidal.monotones, (np.array([0.5 + 0.3j, 0.5]),)),
    (vidal.monotones, (np.array([0.5, 0.5], dtype=complex),)),
    (vidal.monotones, ([Fraction(1, 2), np.complex64(0.5 + 1j)],)),
    (vidal.vidal_probability, (np.array([0.5 + 0.3j, 0.5]), [1.0])),
    (vidal.vidal_probability, ([0.7, 0.3], np.array([0.5, 0.5], dtype=np.complex64))),
    (sampling.dirichlet_moment_exact, (np.ones(2, dtype=complex), (1, 0))),
    (sampling.dirichlet_moment_exact, ((1, 1), np.array([1, 0], dtype=complex))),
], ids=["monotones", "monotones[zero-imag]", "monotones[object]", "vidal_probability[source]",
        "vidal_probability[target]", "dirichlet_moment_exact[alpha]",
        "dirichlet_moment_exact[beta]"])
def test_complex_array_in_a_real_slot_raises_value_error(call, args):
    """A complex ndarray in an array slot of a real-valued entry point is
    rejected by its dtype before numpy converts it to float, and a numpy
    complex among other numbers by its type."""
    with pytest.raises(ValueError):
        call(*args)


@pytest.mark.parametrize("text", ["0.5", b"0.5"], ids=["str", "bytes"])
def test_text_in_every_slot_raises_value_error(text):
    """A number written as text is no number: float(), complex() and
    np.asarray would parse it, the entry points refuse it in every slot."""
    for name, call, valid, _ in ENTRY_POINTS:
        for slot in range(len(valid)):
            args = list(valid)
            args[slot] = text
            with pytest.raises(ValueError):
                call(*args)


def test_huge_integer_in_every_slot_raises_value_error():
    """The sweep above samples slots at random; this visits every slot with
    +-10**400, where numpy and complex() raise OverflowError and a Philox
    counter offset would wrap around."""
    for name, call, valid, _ in ENTRY_POINTS:
        for slot in range(len(valid)):
            for bad in (10**400, -10**400):
                args = list(valid)
                args[slot] = bad
                with pytest.raises(ValueError):
                    call(*args)


@pytest.mark.parametrize("call, args, match", [
    (vidal.vidal_probability, (1.0, [1.0]), "1-D"),
    (vidal.vidal_probability, ([[0.5, 0.5], [0.0, 0.0]], [1.0, 0.0]), "sum to 1.* in row 1$"),
    (vidal.vidal_probability, ([[[0.5, 0.5]]], [1.0]), "1-D"),
    (vidal.vidal_probability, ([0.5, 0.5], [[0.5, 0.5]]), "1-D"),
    (vidal.monotones, (1.0,), "1-D"),
    (vidal.monotones, ([[0.5], [0.5]],), "1-D"),
    (vidal.monotones, ([[0.5, 0.5]],), "1-D"),
    (vidal.vidal_probability, ([[0.5, 0.5], [1.2, -0.2]], [1.0]), "negative .* in row 1$"),
], ids=["vidal_probability[scalar]", "vidal_probability[2-D]", "vidal_probability[3-D]",
        "vidal_probability[2-D target]", "monotones[scalar]", "monotones[2-D]",
        "monotones[2-D row]", "vidal_probability[2-D negative]"])
def test_spectrum_that_is_not_1d_raises_value_error(call, args, match):
    """A squared Schmidt spectrum is a 1-D list: a scalar or a 2-D array is not
    flattened into one, even when its entries sum to 1.  The one exception is
    vidal_probability's source, which may be a 2-D stack of spectra; a stack
    with a row that does not sum to 1, or that holds a negative coefficient,
    is refused, and the row is named."""
    with pytest.raises(ValueError, match=match):
        call(*args)
