"""The exact route: the two-copy branch in symbolic algebra, built from its definition.

The local operator is written out from its definition, independently of
epp_lab.kraus.  Each party holds her halves of the two copies, so the
branch is the Kronecker product of two local operators acting on the
(A, A', B, B') order, between two reorders of the (A, B, A', B') registers
in which the two copies are stored.  The identities below hold exactly in
the symbols a, b, c1..c4; at a few float points the same expressions are
compared with protocols.stage1, which ties the algebra to the code.
"""
import numpy as np
import pytest

from epp_lab.kraus import CANONICAL_PARAMS, KrausParams
from epp_lab.protocols import stage1

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
