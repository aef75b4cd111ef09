"""Property test: the homology group read from Smith diagonals of the
augmented free complex equals the group of the kernel lattice, and, where
the middle and target groups are finite, the group found by enumerating
their elements."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import (  # noqa: E402
    FgAbGroup,
    GroupHom,
    IntMatrix,
    free_group,
    homology,
    kernel_lattice,
)
from kktheory.abelian import _lattice_homology  # noqa: E402

from helpers import oracle_homology_invariants  # noqa: E402

moduli = st.lists(st.sampled_from([0, 2, 3, 4, 6]), max_size=4).map(tuple)


def step(nu, mu):
    """The least positive b with b * mu divisible by nu (zero when nu = 0
    and mu != 0): every entry of a well-defined map is a multiple of it."""
    if mu == 0:
        return 1
    return nu // gcd(nu, mu) if nu else 0


@st.composite
def cells(draw):
    """A well-defined d_out: M -> N and a d_in: Z^s -> M whose columns are
    integer combinations of the kernel lattice of d_out."""
    middle, target = FgAbGroup(draw(moduli)), FgAbGroup(draw(moduli))
    n, m = middle.ambient_rank, target.ambient_rank
    coeff = st.integers(-3, 3)
    b = [[draw(coeff) * step(nu, mu) for mu in middle.moduli] for nu in target.moduli]
    d_out = GroupHom(middle, target, IntMatrix(m, n, b))
    lattice = kernel_lattice(d_out).basis
    s = draw(st.integers(0, 3))
    combos = IntMatrix(lattice.cols, s, [[draw(coeff) for _ in range(s)]
                                         for _ in range(lattice.cols)])
    d_in = GroupHom(free_group(s), middle, lattice @ combos)
    return d_in, d_out


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(cells())
def test_diagonal_group_equals_the_lattice_and_element_groups(cell):
    d_in, d_out = cell
    group = homology(d_in, d_out).group
    assert group == _lattice_homology(d_in.matrix, d_in.target, d_out)[0]
    mods_b, mods_c = d_in.target.moduli, d_out.target.moduli
    if 0 not in mods_b + mods_c:
        assert group.free_rank == 0
        assert group.invariant_factors == oracle_homology_invariants(
            [list(row) for row in d_in.matrix.data], list(mods_b),
            [list(row) for row in d_out.matrix.data], list(mods_c))
