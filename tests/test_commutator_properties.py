"""Property test: ``kgraph.first_noncommuting``, which tests each row of a
commutator as one packed int, gives the verdict and the first failing pair of
the plain definition, (ab - ba)[i][j] divisible by moduli[i] (zero where
moduli[i] is 0), on n = 0..6, entries of either sign up to 2^4000 and moduli
from {0, 2, 3, 4, 6}, in both pair orders the calculator uses."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.kgraph import first_noncommuting  # noqa: E402


def plain_first_noncommuting(mats, moduli, pairs):
    n = len(moduli)
    for c, d in pairs:
        a, b = mats[c], mats[d]
        for i, m in enumerate(moduli):
            for j in range(n):
                x = (sum(a[i][r] * b[r][j] for r in range(n))
                     - sum(b[i][r] * a[r][j] for r in range(n)))
                if x % m if m else x:
                    return c, d
    return None


def lexicographic(k):
    return list(combinations(range(k), 2))


def descending(k):
    return [(c, d) for c in range(k) for d in range(c)]


coefficients = st.one_of(st.integers(-3, 3), st.integers(-2 ** 3990, 2 ** 3990))


@st.composite
def cases(draw):
    """k polynomials a I + b S + c S^2 in one seed S, which commute, with a
    few entries then moved by a multiple of 12 (so that they still commute
    modulo every torsion row) or by anything."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(2, 4))
    moduli = tuple(draw(st.sampled_from((0, 2, 3, 4, 6))) for _ in range(n))
    seed = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    square = [[sum(seed[i][r] * seed[r][j] for r in range(n)) for j in range(n)]
              for i in range(n)]
    mats = []
    for _ in range(k):
        a, b, c = draw(coefficients), draw(coefficients), draw(coefficients)
        mats.append([[a * (i == j) + b * seed[i][j] + c * square[i][j] for j in range(n)]
                     for i in range(n)])
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        m, i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mats[m][i][j] += draw(st.one_of(st.integers(-3, 3).map(lambda t: 12 * t), coefficients))
    order = draw(st.sampled_from((lexicographic, descending)))
    return [tuple(map(tuple, m)) for m in mats], moduli, order(k)


# The commutator of these pairs is 0 in every torsion row, while a decode one
# bit too narrow (first) or without the sign borrow (second) reads an odd slot:
# [[0, 6, 2], 0, 0] puts 6 = 2 n max|entry|^2 in a slot below another, and
# [[2, -2], [-2, -2]] a negative slot below another.
EDGES = [
    ([((1, 1, 1), (0, -1, 0), (0, -1, 0)), ((-1, 1, 1), (0, 1, 0), (0, 1, 0))], (2, 0, 0)),
    ([((2, 2), (0, 0)), ((1, 0), (1, 0))], (2, 2)),
]


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(cases())
@hypothesis.example((EDGES[0][0], EDGES[0][1], [(0, 1)]))
@hypothesis.example((EDGES[1][0], EDGES[1][1], [(1, 0)]))
@hypothesis.example(([(), ()], (), [(0, 1)]))
def test_packed_kernel_matches_the_plain_commutator(case):
    mats, moduli, pairs = case
    assert first_noncommuting(mats, moduli, pairs) == plain_first_noncommuting(mats, moduli, pairs)


def test_edge_cases_commute_modulo_their_torsion_rows():
    for mats, moduli in EDGES:
        assert first_noncommuting(mats, moduli, [(0, 1)]) is None
        assert first_noncommuting(mats, (0,) * len(moduli), [(0, 1)]) == (0, 1)
