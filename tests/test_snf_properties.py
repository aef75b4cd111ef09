"""Property tests: the diagonal-only Smith form, computed modulo one nonzero
minor, equals the diagonal of the form with transforms on matrices built
from a planted diagonal by unimodular operations, on sparse matrices with no
entry +-1 (so no unit pivot is taken over Z) and on matrices where entries
+-1 dominate (so nearly every pivot is one)."""

from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import (  # noqa: E402
    IntMatrix,
    _rank_and_minor,
    smith_diagonal,
    smith_normal_form,
)

from helpers import eager_rank_and_minor, hadamard_bound_squared, planted_matrix  # noqa: E402


@st.composite
def planted(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    # diagonal entries in any order, zeros included, so that the invariant
    # factors differ from them and the rank can fall below min(rows, cols)
    n = min(rows, cols)
    values = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7),
                                  st.integers(-5, 5)), max_size=40))
    return planted_matrix(rows, cols, values, ops), values


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(planted())
def test_diagonal_only_form_equals_transforms_form(case):
    m, values = case
    bare = smith_diagonal(m)
    assert bare == smith_normal_form(m).diagonal
    # unimodular operations keep the rank and the product of the nonzero
    # invariant factors
    nonzero = [e for e in bare if e]
    assert len(nonzero) == sum(1 for v in values if v)
    assert prod(nonzero) == prod(v for v in values if v)


def matrices(entries):
    @st.composite
    def draw_matrix(draw):
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return IntMatrix(rows, cols, data)
    return draw_matrix()


# half the entries 0, the rest in +-2..+-9
SPARSE_NO_UNITS = st.sampled_from([0] * 16 + [s * v for v in range(2, 10) for s in (1, -1)])
# more than half the entries +-1
MOSTLY_UNITS = st.sampled_from([1, -1] * 4 + [0, 0, 2, -2, 3, -5])


def check_diagonal_rank_and_bound(m):
    assert smith_diagonal(m) == smith_normal_form(m).diagonal
    rank, minor, _, rest = _rank_and_minor(m)
    assert rank == eager_rank_and_minor(m)[0]
    bound = hadamard_bound_squared(m)
    assert minor ** 2 <= bound
    assert all(x * x <= bound for row in rest for x in row)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(matrices(SPARSE_NO_UNITS))
def test_sparse_matrices_without_unit_entries(m):
    check_diagonal_rank_and_bound(m)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(matrices(MOSTLY_UNITS))
def test_matrices_where_unit_entries_dominate(m):
    check_diagonal_rank_and_bound(m)
