"""Property test: a kernel lattice comes with the decomposition of its basis
that the Smith form picking the basis already holds, u @ basis = [diag; 0]
with v = I_r, and it solves exactly as a fresh Smith form of the basis does.
Into a group with no coordinates the lattice is Z^n with the identity
decomposition, entry for entry what the two Smith forms give."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import (  # noqa: E402
    FgAbGroup,
    GroupHom,
    IntMatrix,
    kernel_lattice,
    smith_normal_form,
)

from helpers import two_snf_kernel_lattice  # noqa: E402

MODULI = [0, 2, 3, 4, 6]


def step(nu, mu):
    """The least positive b with b * mu divisible by nu (zero when nu = 0
    and mu != 0): every entry of a well-defined map is a multiple of it."""
    if mu == 0:
        return 1
    return nu // gcd(nu, mu) if nu else 0


@st.composite
def homs(draw):
    """A well-defined map into a free, torsion, mixed or zero target, with
    vectors to solve for: combinations of the lattice and arbitrary ones."""
    source = FgAbGroup(tuple(draw(st.lists(st.sampled_from(MODULI), max_size=5))))
    target_moduli = draw(st.one_of(st.just(()),
                                   st.lists(st.just(0), min_size=1, max_size=4),
                                   st.lists(st.sampled_from(MODULI[1:]), min_size=1, max_size=4),
                                   st.lists(st.sampled_from(MODULI), min_size=1, max_size=4)))
    target = FgAbGroup(tuple(target_moduli))
    coeff = st.integers(-4, 4)
    rows = [[draw(coeff) * step(nu, mu) for mu in source.moduli] for nu in target.moduli]
    h = GroupHom(source, target, IntMatrix(target.ambient_rank, source.ambient_rank, rows))
    n = source.ambient_rank
    vectors = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), max_size=4))
    combos = draw(st.lists(st.lists(coeff, min_size=5, max_size=5), max_size=4))
    return h, vectors, combos


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(homs())
def test_kernel_lattice_solves_with_the_smith_form_that_picked_its_basis(case):
    h, vectors, combos = case
    basis, snf = kernel_lattice(h)
    n, r = basis.shape
    assert basis == two_snf_kernel_lattice(h)[0]
    assert snf.shape == (n, r) and snf.rank == r and snf.v == IntMatrix.identity(r)
    assert snf.u @ snf.u_inv == IntMatrix.identity(n)
    assert snf.u @ basis == IntMatrix(n, r, [[snf.diagonal[j] if i == j else 0 for j in range(r)]
                                             for i in range(n)])
    fresh = smith_normal_form(basis)
    members = [basis @ IntMatrix.column(c[:r]) for c in combos]
    for b in members + [IntMatrix.column(v) for v in vectors]:
        assert snf.solve(b) == fresh.solve(b)
    for b, c in zip(members, combos):
        assert snf.solve(b) == IntMatrix.column(c[:r])
    if not h.target.ambient_rank:
        assert (basis, snf) == two_snf_kernel_lattice(h)
        assert basis == snf.u == IntMatrix.identity(n)


def test_a_vector_off_the_lattice_has_no_solution():
    # x -> x into Z_2: the lattice is 2Z, and 1 is off it
    h = GroupHom(FgAbGroup((0,)), FgAbGroup((2,)), IntMatrix(1, 1, [[1]]))
    basis, snf = kernel_lattice(h)
    assert basis.shape == (1, 1) and abs(basis[0, 0]) == 2
    assert snf.solve(IntMatrix.column([1])) is None
    assert basis @ snf.solve(IntMatrix.column([6])) == IntMatrix.column([6])
