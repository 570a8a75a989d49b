import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epp_lab import kraus
from epp_lab.kraus import (
    CANONICAL_PARAMS,
    KILL_VECTOR_LABELS,
    KILL_VECTORS,
    KrausParams,
    apply_kraus,
    build_kraus,
    check_universality_constraints,
    lift_local_kraus,
    pauli_expand,
    pauli_relation_residuals,
    region,
)
from epp_lab.linalg import ATOL, basis_state, bell_phi_plus
from epp_lab.protocols import _stage1_rows
from epp_lab.sampling import haar_state_block
from oracles import kalman_kraus, pauli_reconstruct, permute_qubits, scalar_region_tests

SQRT_HALF = np.sqrt(2) / 2
# pairs on the edges of the two regions: both zero, the constraint corners,
# and sqrt(2)/2 and one ulp to either side of it
EDGE_PAIRS = [
    (0j, 0j), (2**-0.25, 0), (0, 2**-0.25), (SQRT_HALF, SQRT_HALF),
    (np.nextafter(SQRT_HALF, 0), SQRT_HALF), (np.nextafter(SQRT_HALF, 1), 0.5),
    (np.nextafter(SQRT_HALF, 1), np.nextafter(SQRT_HALF, 1)), (0, np.nextafter(SQRT_HALF, 0)),
]


def magnitude_pairs():
    # moduli kept inside the constraint region, both nonzero
    return st.tuples(
        st.floats(min_value=0.05, max_value=0.84),
        st.floats(min_value=0.05, max_value=0.84),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )


def params_from(raw):
    ra, rb, pa, pb = raw
    assume(2 * (ra**4 + rb**4) <= 1.0)
    return KrausParams(ra * np.exp(2j * np.pi * pa), rb * np.exp(2j * np.pi * pb))


def test_build_kraus_entries():
    a, b = 0.3 + 0.1j, 0.25 - 0.2j
    K = build_kraus(KrausParams(a, b))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = a
    expected[0, 2] = a
    expected[2, 1] = b
    expected[2, 2] = -b
    assert np.array_equal(K, expected[None])
    # a raw pair is refused by type, not read as one
    with pytest.raises(ValueError, match="expected a KrausParams, got tuple"):
        build_kraus((a, b))


def test_kalman_circuit_matches_family():
    K = kalman_kraus()
    assert np.allclose(K, build_kraus(CANONICAL_PARAMS), atol=1e-15)
    # action on |01>: (|00> + |10>)/sqrt(2)
    out = K @ basis_state(2, "01")
    assert np.allclose(out, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0], atol=1e-15)
    # |11> is annihilated
    assert np.linalg.norm(K @ basis_state(2, "11")) == 0.0


def test_params_validation():
    KrausParams(0.5, 0.5)  # constraint value 0.25, fine
    assert region(0.5, 0.5).constraint == pytest.approx(0.25)
    with pytest.raises(ValueError):
        KrausParams(0, 0)
    with pytest.raises(ValueError):
        KrausParams(1.0, 1.0)
    # boundary point survives rounding
    p = CANONICAL_PARAMS
    assert region(p.a, p.b).constraint == pytest.approx(1.0, abs=1e-12)
    assert region(p.a, p.b).physical
    # the constraint corner is valid; both zero and both one are not
    assert region(2**-0.25, 0).valid
    assert not region(0, 0).valid
    assert not region(1, 1).valid


def pair_values():
    modulus = st.one_of(st.sampled_from([0.0, 2**-0.25, SQRT_HALF, np.nextafter(SQRT_HALF, 0),
                                         np.nextafter(SQRT_HALF, 1)]),
                        st.floats(min_value=0.0, max_value=1.2))
    phase = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
    return st.builds(lambda r, t: complex(r * np.exp(2j * np.pi * t)), modulus, phase)


@given(st.lists(st.tuples(pair_values(), pair_values()), max_size=12))
@settings(max_examples=100, deadline=None)
def test_region_tests_on_arrays_match_scalar_reference(drawn):
    """Entry [i] of every field of region on (P,) arrays equals the scalar
    reference on pair i, the whole (constraint, valid, f, physical) tuple;
    the floats are finite and non-negative, so equal means bitwise equal.
    A scalar a broadcasts against an array b."""
    pairs = EDGE_PAIRS + drawn
    a, b = (np.array(column, dtype=complex) for column in zip(*pairs))
    got = region(a, b)
    assert [field.shape for field in got] == [(len(pairs),)] * 4
    assert list(zip(*(field.tolist() for field in got))) == [
        scalar_region_tests(x, y) for x, y in pairs]
    assert list(zip(*(field.tolist() for field in region(a[3], b)))) == [
        scalar_region_tests(a[3], y) for y in b]


@pytest.mark.parametrize("n", [100, 400])
def test_region_tests_on_the_f_grid_axis_are_bitwise_the_complex_route(n):
    """f-grid's real axis takes real moduli; each field of each row equals,
    bit for bit, the same field with the axis given as complex."""
    grid = np.linspace(0.0, 1.0, n)
    for a in grid:
        for real, cplx in zip(region(a, grid), region(complex(a), grid.astype(complex))):
            assert real.dtype == cplx.dtype and real.tobytes() == cplx.tobytes()


def test_region_tests_convert_each_argument_once(count_calls):
    calls = count_calls(kraus, "_as_array")
    grid = np.linspace(0.0, 1.0, 100)
    for a, b in [(grid[70], grid), (0.5 + 0.1j, 0.3)]:
        calls.clear()
        region(a, b)
        assert len(calls) <= 2


def test_kraus_params_converts_each_argument_once(count_calls):
    """The validity test runs on the arrays __post_init__ has just made."""
    calls = count_calls(kraus, "_as_array")
    grid = np.linspace(0.0, 0.8, 100)
    for a, b in [(grid, grid[::-1]), (0.5 + 0.1j, 0.3), ([0.5], [0.3j])]:
        calls.clear()
        KrausParams(a, b)
        assert len(calls) <= 2


def test_build_kraus_stack_equals_stacks_of_one():
    """Entry i of build_kraus on a stack is bitwise build_kraus on pair i alone."""
    params = KrausParams([0.31 + 0.2j, SQRT_HALF, 0.6, 0, -0.2j],
                         [0.57 - 0.1j, SQRT_HALF, 0, 0.5, 0.4])
    K = build_kraus(params)
    assert K.shape == (5, 4, 4) and len(params.a) == 5
    for i in range(len(params.a)):
        assert np.array_equal(K[i], build_kraus(KrausParams(params.a[i], params.b[i]))[0])
        assert np.array_equal(K[i:i + 2],
                              build_kraus(KrausParams(params.a[i:i + 2], params.b[i:i + 2])))


@pytest.mark.parametrize(
    "bad", [(np.nan, 0.5), (0.5, complex(0.1, np.inf)), (0, 0), (1.0, 1.0), (0.5, 0.85)],
    ids=["nan", "inf", "both-zero", "over", "over-b"],
)
def test_stack_with_one_bad_pair_names_its_index(bad):
    a, b = [0.5, 0.3, 0.6, 0.1], [0.4, 0.3, 0, 0.2]
    a[2], b[2] = bad
    with pytest.raises(ValueError, match="pair 2"):
        KrausParams(a, b)


@pytest.mark.parametrize(
    "a, b", [([0.5, 0.3], [0.4]), ([], []), ([[0.5]], [[0.4]])], ids=["unequal", "empty", "2d"]
)
def test_params_reject_bad_shape(a, b):
    with pytest.raises(ValueError, match="P >= 1"):
        KrausParams(a, b)


def test_params_hold_copies_of_their_input():
    a = np.array([0.5 + 0j, 0.3])
    params = KrausParams(a, [0.4, 0.3])
    a[0] = 5.0
    assert params.a[0] == 0.5 and region(params.a, params.b).valid.all()


def test_overflowing_fourth_power_raises_value_error():
    """|a|^4 beyond the float range raises ValueError, not Python's OverflowError."""
    for a in (1e200, 1e100j, np.float64(1e200)):
        for fn in (region, KrausParams):
            with pytest.raises(ValueError):
                fn(a, 0.5)
            with pytest.raises(ValueError):
                fn(0.5, a)


def test_degenerate_params_flagged_not_fatal():
    corner = KrausParams(2**-0.25, 0)
    # _stage1_rows's third value marks a defined but unentangled output
    assert _stage1_rows(bell_phi_plus()[None], build_kraus(corner), corner.a, corner.b)[2].all()
    assert region(corner.a, corner.b).f == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(build_kraus(corner)[0]) == 1
    canonical = (build_kraus(CANONICAL_PARAMS), CANONICAL_PARAMS.a, CANONICAL_PARAMS.b)
    assert not _stage1_rows(bell_phi_plus()[None], *canonical)[2].any()
    assert region(CANONICAL_PARAMS.a, CANONICAL_PARAMS.b).f == pytest.approx(0.0, abs=1e-12)


@given(magnitude_pairs())
@settings(max_examples=50)
def test_f_parameter_range(raw):
    """The asymmetry f of a valid pair lies in [0, 1]."""
    p = params_from(raw)
    assert 0.0 <= region(p.a, p.b).f[0] <= 1.0 + 1e-12
    # symmetric moduli zero it out
    assert region(p.a, abs(p.a)).f == pytest.approx(0.0, abs=1e-12)


def test_lift_identity_is_identity():
    assert np.allclose(lift_local_kraus(np.eye(4)[None]), np.eye(16), atol=1e-15)


def test_lift_matches_permuted_kron():
    """Column j of the lift is kron(K, K) applied between two interleaving
    reorders of the basis vector e_j, the definition of the lift."""
    rng = np.random.default_rng(12)
    K = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    kk = np.kron(K, K)
    expected = np.column_stack([
        permute_qubits(kk @ permute_qubits(e, (0, 2, 1, 3)), (0, 2, 1, 3))
        for e in np.eye(16)
    ])
    assert np.array_equal(lift_local_kraus(K[None]), expected[None])


def test_lift_stack_equals_single_lifts():
    """Entry p of a lifted (P, 4, 4) stack is bitwise the lift of the stack
    of one K[p:p + 1], which is bitwise the reordered np.kron."""
    rng = np.random.default_rng(31)
    stack = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
    stack[0] = build_kraus(CANONICAL_PARAMS)
    stack[1] = build_kraus(KrausParams(0.6, 0))
    lifted = lift_local_kraus(stack)
    assert lifted.shape == (7, 16, 16)
    # np.matmul rounds by operand layout, so the stage kernel's bits need a C-ordered lift
    assert lifted.flags.c_contiguous
    for p, (K, M) in enumerate(zip(stack, lifted)):
        assert np.array_equal(M, lift_local_kraus(stack[p:p + 1])[0])
        kron = np.kron(K, K).reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
        assert np.array_equal(M, kron.reshape(16, 16))


def test_check_and_expansion_stack_equal_stacks_of_one():
    """Entry p of check_universality_constraints and of pauli_expand on a
    stack is bitwise the result on the stack of one K[p:p + 1]."""
    rng = np.random.default_rng(32)
    stack = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
    stack[0] = build_kraus(CANONICAL_PARAMS)
    stack[1] = build_kraus(KrausParams(0.31 + 0.2j, 0.57 - 0.1j))
    stack[2] = stack[1]
    stack[2, 0, 0] += 0.05
    residuals = check_universality_constraints(lift_local_kraus(stack))
    coeffs = pauli_expand(stack)
    assert residuals.shape == (7, 8) and coeffs.shape == (7, 4, 4)
    relations = pauli_relation_residuals(coeffs)
    assert all(value.shape == (7,) for value in relations.values())
    for p in range(len(stack)):
        one = stack[p:p + 1]
        assert np.array_equal(residuals[p], check_universality_constraints(lift_local_kraus(one))[0])
        assert np.array_equal(coeffs[p], pauli_expand(one)[0])
        for name, value in pauli_relation_residuals(coeffs[p:p + 1]).items():
            assert value.shape == (1,) and value[0] == relations[name][p], name


@pytest.mark.parametrize("shape", [(4, 4), (4,), (2, 4, 5), (2, 2, 4, 4)])
def test_pauli_expand_rejects_wrong_shape(shape):
    with pytest.raises(ValueError):
        pauli_expand(np.ones(shape))


@pytest.mark.parametrize("shape", [(4,), (4, 4), (3, 3), (2, 4, 3), (2, 2, 4, 4)])
def test_pauli_relation_residuals_rejects_wrong_shape(shape):
    """A (P, 4, 4) stack only, as pauli_expand returns it; one operator is a stack of one."""
    with pytest.raises(ValueError):
        pauli_relation_residuals(np.ones(shape))


@pytest.mark.parametrize("shape", [(16, 16), (16,), (2, 16, 8), (2, 2, 16, 16)])
def test_check_universality_constraints_rejects_wrong_shape(shape):
    with pytest.raises(ValueError):
        check_universality_constraints(np.ones(shape))


def test_lift_rejects_wrong_shape():
    for shape in [(4, 4), (2, 2), (4,), (3, 4, 5), (2, 2, 4, 4)]:
        with pytest.raises(ValueError):
            lift_local_kraus(np.ones(shape))


def test_lifted_branch_on_bell_pair():
    """Two copies of the Bell state succeed with probability 1/2 and stay Bell."""
    M = lift_local_kraus(build_kraus(CANONICAL_PARAMS))
    doubled = np.kron(bell_phi_plus(), bell_phi_plus())
    out, prob = apply_kraus(M, doubled[None])
    assert out.shape == (1, 1, 16) and prob.shape == (1, 1)
    assert prob[0, 0] == pytest.approx(0.5, abs=1e-12)
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = 0.5
    expected[0b1100] = 0.5
    assert np.allclose(out[0, 0], expected, atol=1e-12)


def test_apply_kraus_basics():
    s = bell_phi_plus()
    out, prob = apply_kraus(np.eye(4)[None], s[None])
    assert prob.shape == (1, 1) and prob[0, 0] == pytest.approx(1.0)
    proj0 = np.zeros((1, 2, 2)); proj0[0, 0, 0] = 1.0
    plus = np.array([[1, 1]]) / np.sqrt(2)
    _, prob = apply_kraus(proj0, plus)
    assert prob[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        apply_kraus(np.eye(4)[None], plus)


def test_apply_kraus_batch_matches_rows():
    """Each row of an (n, 16) batch is bitwise the batch-of-one result, which
    is bitwise the plain product and vdot."""
    rng = np.random.default_rng(7)
    M = lift_local_kraus(build_kraus(KrausParams(0.31 + 0.2j, 0.57 - 0.1j)))
    batch = rng.standard_normal((50, 16)) + 1j * rng.standard_normal((50, 16))
    out, prob = apply_kraus(M, batch)
    assert out.shape == (1, 50, 16) and prob.shape == (1, 50)
    for k, s in enumerate(batch):
        row_out, row_prob = apply_kraus(M, batch[k:k + 1])
        assert np.array_equal(out[:, k:k + 1], row_out)
        assert np.array_equal(prob[:, k:k + 1], row_prob)
        assert np.array_equal(row_out[0, 0], M[0] @ s)
        assert row_prob[0, 0] == np.vdot(M[0] @ s, M[0] @ s).real


def test_apply_kraus_stack_matches_single_operators():
    """Entry [p, k] of a (P, 16, 16) stack on an (n, 16) batch is bitwise op[p] on row k."""
    rng = np.random.default_rng(8)
    ops = lift_local_kraus(np.concatenate([
        build_kraus(KrausParams(0.31 + 0.2j, 0.57 - 0.1j)),
        build_kraus(CANONICAL_PARAMS),
        build_kraus(KrausParams(0, 0.5)),
    ]))
    batch = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
    out, prob = apply_kraus(ops, batch)
    assert out.shape == (3, 20, 16) and prob.shape == (3, 20)
    one_out, one_prob = apply_kraus(ops, batch[4:5])
    assert one_out.shape == (3, 1, 16) and one_prob.shape == (3, 1)
    for p in range(len(ops)):
        row_out, row_prob = apply_kraus(ops[p:p + 1], batch)
        assert np.array_equal(out[p], row_out[0])
        assert np.array_equal(prob[p], row_prob[0])
        assert np.array_equal(one_out[p, 0], out[p, 4]) and one_prob[p, 0] == prob[p, 4]


def test_apply_kraus_rounds_any_layout_as_c_order():
    """np.matmul rounds by operand layout, so apply_kraus makes both operands
    C-ordered.  The lift's entries gathered by fancy indexing, which numpy
    lays out with strides (16, 2048, 128), and a Fortran-ordered batch give
    bitwise the result on the C-ordered lift_local_kraus output; applied as
    they are, that gather moves the last bits of hundreds of outputs."""
    rng = np.random.default_rng(33)
    K = build_kraus(KrausParams(rng.uniform(0.05, 0.6, 8) * np.exp(2j * np.pi * rng.random(8)),
                                rng.uniform(0.05, 0.6, 8) * np.exp(2j * np.pi * rng.random(8))))
    kron = K[:, :, None, :, None] * K[:, None, :, None, :]
    gathered = kron.reshape(-1, 256)[:, kraus._LIFT_ORDER].reshape(-1, 16, 16)
    M = lift_local_kraus(K)
    assert not gathered.flags.c_contiguous and np.array_equal(gathered, M)
    c = haar_state_block(34, 12)
    doubled = (c[:, :, None] * c[:, None, :]).reshape(-1, 16)
    out, prob = apply_kraus(M, doubled)
    for op, s in [(gathered, doubled), (M, np.asfortranarray(doubled))]:
        strided_out, strided_prob = apply_kraus(op, s)
        assert np.array_equal(strided_out, out) and np.array_equal(strided_prob, prob)


@pytest.mark.parametrize(
    "shape", [(2, 3, 16), (5, 8), (5, 17), (16,)], ids=["3d", "narrow", "wide", "one-state"]
)
def test_apply_kraus_rejects_bad_batch(shape):
    with pytest.raises(ValueError):
        apply_kraus(np.eye(16)[None], np.ones(shape))


@pytest.mark.parametrize("shape", [(16,), (16, 8), (2, 16, 8), (2, 2, 16, 16), (16, 16)])
def test_apply_kraus_rejects_bad_operator(shape):
    with pytest.raises(ValueError):
        apply_kraus(np.ones(shape), np.ones((3, 16)))


def test_kill_vectors_exactly_annihilated():
    M = lift_local_kraus(build_kraus(KrausParams(0.31 + 0.2j, 0.57 - 0.1j)))
    residuals = check_universality_constraints(M)
    assert residuals.shape == (1, len(KILL_VECTOR_LABELS)) == (1, 8)
    assert residuals.max() <= 1e-14
    assert "0000" in KILL_VECTOR_LABELS and "0001+0100" in KILL_VECTOR_LABELS


def test_other_cross_pair_also_annihilated():
    # |0111>+|1101> (the c2*c4 component of the doubled state) dies too,
    # because the local operator kills |11>; kept alongside the listed set
    M = lift_local_kraus(build_kraus(KrausParams(0.5, 0.4)))
    v = basis_state(4, "0111") + basis_state(4, "1101")
    assert np.linalg.norm(M[0] @ (v / np.sqrt(2))) <= 1e-14


@given(magnitude_pairs())
@settings(max_examples=50, deadline=None)
def test_universality_sweep(raw):
    p = params_from(raw)
    residuals = check_universality_constraints(lift_local_kraus(build_kraus(p)))
    assert np.all(residuals <= ATOL)


def test_identity_fails_constraints():
    residuals = check_universality_constraints(np.eye(16, dtype=complex)[None])
    assert not np.all(residuals <= ATOL)
    assert residuals.max() == pytest.approx(1.0)


def test_pauli_expand_identity():
    r = pauli_expand(np.eye(4, dtype=complex)[None])[0]
    assert r[3, 3] == pytest.approx(1.0)
    r[3, 3] = 0.0
    assert np.allclose(r, 0.0, atol=1e-15)


def test_pauli_expand_roundtrip_random():
    rng = np.random.default_rng(8)
    K = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(pauli_reconstruct(pauli_expand(K[None])[0]), K, atol=1e-12)


@given(magnitude_pairs())
@settings(max_examples=50, deadline=None)
def test_pauli_relations_on_family(raw):
    p = params_from(raw)
    r = pauli_expand(build_kraus(p))
    residuals = pauli_relation_residuals(r)
    assert max(residuals.values())[0] <= 1e-12
    assert abs(r[0, 0, 3] - p.a[0] / 4) <= 1e-12
    assert abs(r[0, 2, 3] - p.b[0] / 4) <= 1e-12


@given(
    st.floats(min_value=0.05, max_value=0.707),
    st.floats(min_value=0.05, max_value=0.707),
)
@settings(max_examples=40, deadline=None)
def test_trace_nonincreasing_inside_operator_region(ra, rb):
    """The single branch is a physical map when both moduli stay at or below
    sqrt(2)/2, where the largest eigenvalue of M^dag M is (2 max(|a|,|b|)^2)^2."""
    p = KrausParams(ra, rb)
    M = lift_local_kraus(build_kraus(p))[0]
    assert np.linalg.eigvalsh(M.conj().T @ M).max() <= 1.0 + ATOL
    assert region(p.a, p.b).physical


def test_trace_condition_fails_at_constraint_corner():
    # 2(|a|^4+|b|^4) <= 1 admits moduli up to 2**-0.25, but beyond sqrt(2)/2
    # the lone branch is no longer completable to a physical instrument:
    # the parameter constraint is necessary, not sufficient.
    corner = KrausParams(2**-0.25, 0)
    assert not region(corner.a, corner.b).physical
    M = lift_local_kraus(build_kraus(corner))[0]
    largest = np.linalg.eigvalsh(M.conj().T @ M).max()
    assert largest > 1.0 + ATOL
    # smallest eigenvalue of 1 - M^dag M
    assert 1.0 - largest == pytest.approx(-1.0, abs=1e-9)


@given(magnitude_pairs())
@settings(max_examples=50)
def test_physical_matches_branch_eigenvalues(raw):
    """physical holds exactly when the largest eigenvalue of K^dag K,
    2 max(|a|, |b|)^2, is at most 1."""
    p = params_from(raw)
    K = build_kraus(p)[0]
    largest = np.linalg.eigvalsh(K.conj().T @ K).max()
    assume(abs(largest - 1.0) > 1e-9)
    assert region(p.a, p.b).physical[0] == (largest <= 1.0)


def test_kill_vector_list_normalized():
    """Column j of KILL_VECTORS is the normalized sum of the basis states its label names."""
    assert KILL_VECTORS.shape == (16, len(KILL_VECTOR_LABELS))
    for label, v in zip(KILL_VECTOR_LABELS, KILL_VECTORS.T):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12), label
        expected = sum(basis_state(4, bits) for bits in label.split("+"))
        assert np.array_equal(v, expected / np.linalg.norm(expected)), label
