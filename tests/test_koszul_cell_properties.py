"""Property test: the cells of a Koszul complex read off the Smith diagonals
of its first maps F_0, ..., F_k (torsion from diag F_p, free rank
n C(k, p) - rank F_p - (rank F_{p-1} - t C(k, p-1))) are the groups that
``homology`` reads, and for g = 0 and k <= 3 the kernel lattice, on
complexes that no k-graph input gives.  Each F_p laid out from the rho
blocks is the first map laid out from the dense boundaries
(``helpers.dense_first_map``).  The rho^c are polynomials with no constant
term in one singular integer matrix S, so they commute.  A_j is free, mixed
or all torsion, each torsion coordinate of a modulus from 2, 3, 4 and 6, so
g = 0 unless every coordinate is torsion, and then g is the lcm of the
moduli and the diagonals are read modulo g."""

from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import (  # noqa: E402
    FgAbGroup,
    IntMatrix,
    _lattice_homology,
    homology,
    smith_diagonal,
)
from kktheory.koszul import GradedChainComplex  # noqa: E402

from helpers import dense_first_map  # noqa: E402


@st.composite
def complexes(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    moduli = draw(st.lists(st.sampled_from([0, 2, 3, 4, 6]), min_size=n, max_size=n))
    entry = st.integers(-2, 2)

    def step(i, j):
        # S[i][j] is a multiple of this, so that S sends m_j e_j into the
        # relations: a free row is 0 at torsion columns
        if moduli[i]:
            return moduli[i] // gcd(moduli[i], moduli[j])
        return 0 if moduli[j] else 1

    s = [[draw(entry) * step(i, j) for j in range(n)] for i in range(n)]
    # one row becomes a combination of the others, each scaled so that the
    # row still descends, and det S = 0
    r = draw(st.integers(0, n - 1))
    coeffs = [(i, draw(entry) * step(r, i)) for i in range(n) if i != r]
    s[r] = [sum(c * s[i][j] for i, c in coeffs) for j in range(n)]
    s = IntMatrix(n, n, s)
    square = s @ s
    rhos = tuple(s.scaled(draw(entry)) + square.scaled(draw(entry)) for _ in range(k))
    return GradedChainComplex(FgAbGroup(tuple(moduli)), rhos)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(complexes())
def test_cells_read_off_the_first_maps_are_the_homology(cx):
    assert cx.annihilator == (lcm(*cx.aj.moduli) if all(cx.aj.moduli) else 0)
    for p, cell in enumerate(cx.cells):
        d_in, d_out = cx.boundary(p + 1), cx.boundary(p)
        assert cx._first(p) == dense_first_map(d_in, d_out), p
        assert cell.group == homology(d_in, d_out).group, p
        if cx.k <= 3 and not cx.annihilator:  # elsewhere its Smith transforms can grow for minutes
            assert cell.group == _lattice_homology(d_in.matrix, d_in.target, d_out)[0], p
    for p, b in enumerate(cx.boundaries, start=1):
        assert cx.diagonal(p) == smith_diagonal(b.matrix), p
