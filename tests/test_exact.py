"""The exact route: the two-copy branch in symbolic algebra, built from its definition.

The local operator is written out from its definition, independently of
epp_lab.kraus.  Each party holds her halves of the two copies, so the
branch is the Kronecker product of two local operators acting on the
(A, A', B, B') order, between two reorders of the (A, B, A', B') registers
in which the two copies are stored.  The identities below hold exactly in
the symbols a, b, c1..c4; at a few float points the same expressions are
compared with protocols.stage1, which ties the algebra to the code.

From the same branch: stage 2 (the branch at a = b = sqrt(2)/2 on a state
in the {|00>, |11>} basis) saturates 2|alpha beta|^2; four copies succeed
with weight 2|(c1 c4)^2 - (c2 c3)^2|^2; the paper's averages 1/5 and
2/105 follow by exact integration; the Pauli expansion of the local
operator obeys the 14 relations verify's c04 checks, and K^dag K has
eigenvalues 2|a|^2, 2|b|^2, 0, 0.  Each is compared with the package's
function at a few float points.
"""
import numpy as np
import pytest

from epp_lab import protocols, sampling
from epp_lab.kraus import (CANONICAL_PARAMS, KrausParams, pauli_expand, pauli_relation_residuals,
                           region)
from epp_lab.protocols import four_copy_bell_bound, stage1, stage2

sp = pytest.importorskip("sympy")

SYMBOLS = sp.symbols("a b c1 c2 c3 c4")
a, b, c1, c2, c3, c4 = SYMBOLS
# the closed forms of stage1's docstring
ALPHA = 2 * a**2 * (c1 * c4 + c2 * c3)
BETA = 2 * b**2 * (c1 * c4 - c2 * c3)


def ket_bra(row: str, col: str):
    m = sp.zeros(4, 4)
    m[int(row, 2), int(col, 2)] = 1
    return m


# the success branch a(|00><01| + |00><10|) + b(|10><01| - |10><10|) on one party's two qubits
LOCAL = (a * (ket_bra("00", "01") + ket_bra("00", "10"))
         + b * (ket_bra("10", "01") - ket_bra("10", "10")))


def swap_middle(v):
    """A 16-vector with qubits 1 and 2 exchanged: (A, B, A', B') <-> (A, A', B, B')."""
    def source(i):
        bits = format(i, "04b")
        return int(bits[0] + bits[2] + bits[1] + bits[3], 2)

    return sp.Matrix([v[source(i)] for i in range(16)])


def branch():
    """The unnormalized two-copy branch output, in (A, B, A', B') order, expanded."""
    psi = sp.Matrix([c1, c2, c3, c4])
    lifted = sp.kronecker_product(LOCAL, LOCAL)  # Alice's (A, A') times Bob's (B, B')
    return sp.expand(swap_middle(lifted * swap_middle(sp.kronecker_product(psi, psi))))


BRANCH = branch()


def test_branch_is_the_closed_form_exactly():
    """Every amplitude but |00>|00> (slot 0) and |11>|00> (slot 12) is identically
    zero, and those two are alpha' and beta' as identities."""
    assert [i for i in range(16) if BRANCH[i] != 0] == [0, 12]
    assert sp.expand(BRANCH[0] - ALPHA) == 0
    assert sp.expand(BRANCH[12] - BETA) == 0


@pytest.mark.parametrize("seed, pair", [
    (1, (0.6, 0.3)),
    (2, (CANONICAL_PARAMS.a[0], CANONICAL_PARAMS.b[0])),
    (3, (0.6 * np.exp(0.3j), 0.4 * np.exp(-1.1j))),
])
def test_stage1_is_the_exact_branch_at_float_points(seed, pair):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state /= np.linalg.norm(state)
    point = dict(zip(SYMBOLS, map(complex, (*pair, *state))))
    amplitudes = np.array([complex(x.subs(point)) for x in BRANCH])
    prob = np.sum(np.abs(amplitudes) ** 2)
    result = stage1(state, KrausParams(*pair))
    assert abs(result.success_prob[0, 0] - prob) <= 1e-12
    expected = np.array([amplitudes[0], 0, 0, amplitudes[12]]) / np.sqrt(prob)
    assert np.max(np.abs(result.output[0, 0] - expected)) <= 1e-12


# ------------------------------------------------------------- two stages

HALF = sp.sqrt(2) / 2  # the symmetric point a = b = sqrt(2)/2 of stage 2
conj = sp.conjugate


def squared_norm(amplitudes):
    return sp.expand(sum(x * conj(x) for x in amplitudes))


def schmidt_branch(alpha, beta):
    """The branch at the symmetric point on two copies of alpha|00> + beta|11>."""
    return BRANCH.xreplace({a: HALF, b: HALF, c1: alpha, c2: 0, c3: 0, c4: beta})


def random_states(seed, n, schmidt=False):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    if schmidt:
        c[:, 1:3] = 0
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def at(expr, state, symbols=(c1, c2, c3, c4)):
    return complex(expr.subs(dict(zip(symbols, map(complex, state)))))


def test_stage2_saturates_the_schmidt_pair_bound():
    """c01: both amplitudes are alpha beta, so the output is Bell, with weight 2|alpha beta|^2."""
    al, be = sp.symbols("alpha beta")
    out = schmidt_branch(al, be)
    assert [i for i in range(16) if out[i] != 0] == [0, 12]
    assert sp.expand(out[0] - al * be) == 0
    assert sp.expand(out[12] - al * be) == 0
    prob = squared_norm(out)
    assert sp.expand(prob - 2 * al * be * conj(al * be)) == 0
    for state in random_states(4, 3, schmidt=True):
        result = stage2(state)
        expected = at(prob, state[::3], (al, be)).real
        assert abs(result.success_prob[0] - expected) <= 1e-15
        assert abs(result.success_prob[0] - 2 * abs(state[0] * state[3]) ** 2) <= 1e-15
        amplitude = at(out[0], state[::3], (al, be)) / np.sqrt(expected)
        assert np.max(np.abs(result.output[0] - [amplitude, 0, 0, amplitude])) <= 1e-15


# stage 1 on each of two pairs, then stage 2 on two copies of its unnormalized output:
# the branch is quadratic in its input, so the weight of this output is p1^2 p2
FIRST = {a: HALF, b: HALF}
FOUR_COPY = squared_norm(schmidt_branch(BRANCH[0].xreplace(FIRST), BRANCH[12].xreplace(FIRST)))


def test_four_copy_weight_is_the_bell_bound():
    """c02: p1^2 p2 = 2|(c1 c4)^2 - (c2 c3)^2|^2, and four_copy_bell_bound's expanded form."""
    u, w = c1 * c4, c2 * c3
    assert sp.expand(FOUR_COPY - 2 * (u**2 - w**2) * conj(u**2 - w**2)) == 0
    expanded = 2 * (w * conj(w))**2 + 2 * (u * conj(u))**2 - 2 * (u**2 * conj(w)**2
                                                                   + conj(u)**2 * w**2)
    assert sp.expand(FOUR_COPY - expanded) == 0
    states = random_states(5, 4)
    bounds = four_copy_bell_bound(states)
    for state, bound in zip(states, bounds):
        assert abs(bound - at(FOUR_COPY, state).real) <= 1e-15


# ------------------------------------------------------------ Haar averages

def test_known_basis_average_is_one_fifth():
    """Two copies of sqrt(lam)|00> + sqrt(1 - lam)|11> succeed with 2 lam (1 - lam);
    against the density 6(2 lam - 1)^2 of lam on [1/2, 1] the average is 1/5."""
    p, q = sp.symbols("p q", positive=True)
    lam = sp.symbols("lam", positive=True)
    prob = squared_norm(schmidt_branch(p, q)).xreplace({p: sp.sqrt(lam), q: sp.sqrt(1 - lam)})
    assert sp.expand(prob - 2 * lam * (1 - lam)) == 0
    average = sp.integrate(prob * 6 * (2 * lam - 1)**2, (lam, sp.Rational(1, 2), 1))
    assert average == sp.Rational(1, 5)
    assert abs(sampling.known_basis_average_quadrature() - 0.2) <= 1e-16


R = sp.symbols("r1:5", positive=True)
THETA = sp.symbols("theta1:5", real=True)
X = [r**2 for r in R]  # |c_k|^2, flat-Dirichlet distributed for a Haar state
ETA = 2 * (THETA[0] + THETA[3] - THETA[1] - THETA[2])
CROSS = X[0] * X[1] * X[2] * X[3] * sp.cos(ETA)


def test_four_copy_weight_in_polar_form():
    """With c_k = r_k exp(i theta_k) the weight is
    2 x1^2 x4^2 + 2 x2^2 x3^2 - 4 x1 x2 x3 x4 cos eta, eta = 2(theta1 + theta4 - theta2 - theta3);
    the cosine term is protocols._cross_term."""
    polar = FOUR_COPY.xreplace({c: r * sp.exp(sp.I * t)
                                for c, r, t in zip((c1, c2, c3, c4), R, THETA)})
    magnitudes = 2 * X[0]**2 * X[3]**2 + 2 * X[1]**2 * X[2]**2
    assert sp.expand((polar - magnitudes + 4 * CROSS).rewrite(sp.exp)) == 0
    states = random_states(6, 4)
    for state, cross in zip(states, protocols._cross_term(states)):
        point = dict(zip(R + THETA, (*np.abs(state), *np.angle(state))))
        assert abs(cross - float(CROSS.subs(point))) <= 1e-16


def test_phase_average_vanishes():
    """The phases are uniform and independent of the magnitudes, so the cosine term
    averages to zero (c09)."""
    average = sp.cos(ETA)
    for theta in THETA:
        average = sp.integrate(average, (theta, 0, 2 * sp.pi)) / (2 * sp.pi)
    assert average == 0


def simplex_average(f, x):
    """The flat-Dirichlet mean of f(x1..x4), 3! times its integral over the simplex, iterated."""
    f = f.subs(x[3], 1 - x[0] - x[1] - x[2])
    f = sp.integrate(f, (x[2], 0, 1 - x[0] - x[1]))
    f = sp.integrate(f, (x[1], 0, 1 - x[0]))
    return 6 * sp.integrate(f, (x[0], 0, 1))


def test_unknown_basis_average_is_2_over_105():
    x = sp.symbols("x1:5", nonnegative=True)
    m14 = simplex_average(x[0]**2 * x[3]**2, x)
    m23 = simplex_average(x[1]**2 * x[2]**2, x)
    assert 2 * m14 + 2 * m23 == sp.Rational(2, 105)
    ones = (1, 1, 1, 1)
    assert sampling.dirichlet_moment_exact(ones, (2, 0, 0, 2)) == m14
    assert sampling.dirichlet_moment_exact(ones, (0, 2, 2, 0)) == m23
    assert sampling.unknown_basis_average_exact() == 2 / 105


# --------------------------------------------------------- local operator

PAULI = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
         sp.Matrix([[1, 0], [0, -1]]), sp.eye(2))
# coefficients r_kl of LOCAL = sum_kl r_kl sigma_k tensor sigma_l, basis (x, y, z, 1)
PAULI_COEFFS = sp.Matrix(4, 4, lambda k, l: sp.expand(
    (sp.kronecker_product(PAULI[k], PAULI[l]).H * LOCAL).trace() / 4))
PAIRS = [(0.6, 0.3), (0.3j, 0.7 * np.exp(0.4j)), (0.8, 0.1), (0.5 * np.exp(2.0j), -0.6)]


def relation(name):
    """A relation name such as "r23-i*r14" as an expression in 4 x 4 coefficients, 1-based."""
    r = sp.MatrixSymbol("r", 4, 4)
    names = {f"r{k + 1}{l + 1}": r[k, l] for k in range(4) for l in range(4)}
    return r, sp.sympify(name, locals={**names, "i": sp.I})


def local_at(pair):
    return np.array(LOCAL.subs(dict(zip((a, b), map(complex, pair)))), dtype=complex)


def test_pauli_relations_hold_exactly():
    """c04: the expansion has two free entries, r14 = a/4 and r34 = b/4, and each of
    the 14 relations verify checks is identically zero on it."""
    assert PAULI_COEFFS[0, 3] == a / 4 and PAULI_COEFFS[2, 3] == b / 4
    names = list(pauli_relation_residuals(np.zeros((1, 4, 4))))
    assert len(set(names)) == 14
    rng = np.random.default_rng(7)
    for name in names:
        r, expr = relation(name)
        assert sp.expand(expr.subs(r, PAULI_COEFFS).doit()) == 0, name
        # the package's residual is |relation| on any coefficients, not just the family's
        coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        residual = pauli_relation_residuals(coeffs[None])[name][0]
        assert abs(residual - abs(complex(expr.subs(r, sp.Matrix(coeffs)).doit()))) <= 1e-15
    for pair in PAIRS:
        K = local_at(pair)[None]
        exact = np.array(PAULI_COEFFS.subs(dict(zip((a, b), map(complex, pair)))), dtype=complex)
        assert np.max(np.abs(pauli_expand(K)[0] - exact)) <= 1e-16
        assert max(v[0] for v in pauli_relation_residuals(pauli_expand(K)).values()) <= 1e-16


def test_kdagk_eigenvalues():
    """K^dag K has characteristic polynomial x^2 (x - 2|a|^2)(x - 2|b|^2), so the branch is
    a contraction exactly when max(|a|, |b|) <= sqrt(2)/2: region's physical."""
    x = sp.symbols("x")
    charpoly = (LOCAL.H * LOCAL).charpoly(x).as_expr()
    assert sp.expand(charpoly - x**2 * (x - 2 * a * conj(a)) * (x - 2 * b * conj(b))) == 0
    edge = float(HALF)
    # about 3e-10 above and below an eigenvalue of 1, beyond region's slack of 1e-12
    for pair in PAIRS + [(edge, 0.3), (edge + 1e-10, 0.3), (0.3, edge - 1e-10), (0.3j, edge)]:
        eigenvalues = np.linalg.eigvalsh(local_at(pair).conj().T @ local_at(pair))
        expected = sorted([0, 0, 2 * abs(pair[0])**2, 2 * abs(pair[1])**2])
        assert np.max(np.abs(eigenvalues - expected)) <= 1e-15
        assert region(*pair).physical == (eigenvalues[-1] <= 1 + 1e-11), pair
