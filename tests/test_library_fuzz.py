"""Non-finite input to any public library entry point raises ValueError.

Each entry point is called with valid arguments in which one scalar slot is
replaced by nan, +inf, -inf or 1e400 (which parses to inf); in a complex
slot the bad value goes into the real or the imaginary part.  The call must
raise ValueError: returning anything, a nan above all, fails the test.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epp_lab import protocols, sampling, vidal
from epp_lab.kraus import KrausParams
from epp_lab.linalg import as_state, two_qubit_state

BAD = [math.nan, math.inf, -math.inf, float("1e400")]

STATE = [0.5, 0.5, 0.5, 0.5]
SCHMIDT_STATE = [0.6, 0.0, 0.0, 0.8]
PARAMS = [0.5, 0.3]


def state_or_batch(flat):
    """Four values are one state; eight are a batch of two."""
    return np.array(flat, dtype=complex).reshape(-1, 4) if len(flat) > 4 else flat


def closed_form(fn, state):
    return (fn.__name__, lambda *v: fn(state_or_batch(v)), state, True)


# (name, call taking the flat slot values, valid slot values, complex slots?)
ENTRY_POINTS = [
    ("as_state", lambda *v: as_state(v), STATE, True),
    ("two_qubit_state", two_qubit_state, STATE, True),
    ("KrausParams", KrausParams, PARAMS, True),
    ("stage1", lambda *v: protocols.stage1(state_or_batch(v[:-2]), KrausParams(*v[-2:])),
     STATE + STATE + PARAMS, True),
    ("stage2", lambda *v: protocols.stage2(state_or_batch(v)), SCHMIDT_STATE, True),
    ("full_pipeline",
     lambda *v: protocols.full_pipeline(state_or_batch(v[:-2]), KrausParams(*v[-2:])),
     STATE + PARAMS, True),
    *[closed_form(fn, state) for fn in (
        protocols.schmidt_conversion_bound,
        protocols.four_copy_bell_bound,
        protocols.kalman_stage1_prob,
        protocols.kalman_stage2_prob,
        protocols.phase_term,
        protocols.bell_fidelity,
    ) for state in (STATE, STATE + SCHMIDT_STATE)],
    ("schmidt_pair_bound", protocols.schmidt_pair_bound, [0.6, 0.8], True),
    ("schmidt_pair_bound[batch]",
     lambda *v: protocols.schmidt_pair_bound(np.array(v[:2]), np.array(v[2:])),
     [0.6, 1.0, 0.8, 0.0], True),
    ("vidal_probability", lambda *v: vidal.vidal_probability(v[:2], v[2:]),
     [0.7, 0.3, 0.5, 0.5], False),
    ("monotones", lambda *v: vidal.monotones(v), [0.7, 0.3], False),
    ("optimal_two_copy_prob", vidal.optimal_two_copy_prob, [0.8], False),
    ("universal_two_copy_prob", vidal.universal_two_copy_prob, [0.8], False),
    ("schmidt_lambda_pdf", sampling.schmidt_lambda_pdf, [0.8], False),
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
    if complex_slots and data.draw(st.booleans(), label="imaginary"):
        bad = complex(valid[slot], bad)
    args = list(valid)
    args[slot] = bad
    with pytest.raises(ValueError):
        call(*args)
