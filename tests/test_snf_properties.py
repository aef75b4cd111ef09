"""Property test: the diagonal-only Smith form, computed modulo one nonzero
minor, equals the diagonal of the form with transforms on matrices built
from a planted diagonal by unimodular operations."""

from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import smith_diagonal, smith_normal_form  # noqa: E402

from helpers import planted_matrix  # noqa: E402


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
