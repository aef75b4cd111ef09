"""Property test: the cells of a Koszul complex read off the Smith diagonals
of its first maps F_0, ..., F_k (torsion from diag F_p, free rank
n C(k, p) - rank F_p - (rank F_{p-1} - t C(k, p-1))) are the groups that
``homology`` and the kernel lattice read, on complexes that no k-graph
input gives.  The rho^c are polynomials with no constant term in one
singular integer matrix S, so they commute and g = 0, and A_j is free or
mixed, its torsion coordinates of one modulus from 2, 3, 4 and 6."""

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


@st.composite
def complexes(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    modulus = draw(st.sampled_from([2, 3, 4, 6]))
    moduli = draw(st.lists(st.sampled_from([0, modulus]), min_size=n - 1, max_size=n - 1))
    moduli.insert(draw(st.integers(0, n - 1)), 0)
    entry = st.integers(-2, 2)
    # a free row of S is 0 at torsion columns, so S descends to A_j
    s = [[draw(entry) if moduli[i] or not moduli[j] else 0 for j in range(n)] for i in range(n)]
    # one row becomes a combination of the rows it may combine, so det S = 0
    r = draw(st.integers(0, n - 1))
    coeffs = [(i, draw(entry)) for i in range(n) if i != r and (moduli[r] or not moduli[i])]
    s[r] = [sum(c * s[i][j] for i, c in coeffs) for j in range(n)]
    s = IntMatrix(n, n, s)
    square = s @ s
    rhos = tuple(s.scaled(draw(entry)) + square.scaled(draw(entry)) for _ in range(k))
    return GradedChainComplex(FgAbGroup(tuple(moduli)), rhos)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(complexes())
def test_cells_read_off_the_first_maps_are_the_homology(cx):
    assert cx.annihilator == 0
    for p, cell in enumerate(cx.cells):
        d_in, d_out = cx.boundary(p + 1), cx.boundary(p)
        assert cell.group == homology(d_in, d_out).group, p
        assert cell.group == _lattice_homology(d_in.matrix, d_in.target, d_out)[0], p
    for p, b in enumerate(cx.boundaries, start=1):
        assert cx.diagonal(p) == smith_diagonal(b.matrix), p
