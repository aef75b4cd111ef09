"""Property test: ``IntMatrix.__matmul__``, which sums over nonzero entries
only, equals the dense row-by-column product on every shape up to 7, on
mostly-zero matrices with whole zero rows and columns, and on entries of
either sign beyond 64 bits."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import IntMatrix  # noqa: E402

from helpers import dense_matmul  # noqa: E402

# zero twice as often as each other kind, so most matrices are sparse
entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                    st.integers(2 ** 64, 2 ** 72), st.integers(-2 ** 72, -2 ** 64))


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols matrix whose chosen rows and columns are zero."""
    zero_rows = draw(st.sets(st.integers(0, 6)))
    zero_cols = draw(st.sets(st.integers(0, 6)))
    return IntMatrix(rows, cols, [[0 if i in zero_rows or j in zero_cols else draw(entries)
                                   for j in range(cols)] for i in range(rows)])


@st.composite
def factor_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 7)) for _ in range(3))
    return draw(matrices(rows, inner)), draw(matrices(inner, cols))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=400)
@hypothesis.given(factor_pairs())
@hypothesis.example((IntMatrix.zeros(0, 5), IntMatrix.zeros(5, 3)))
@hypothesis.example((IntMatrix.zeros(4, 0), IntMatrix.zeros(0, 6)))
@hypothesis.example((IntMatrix(1, 2, [[2 ** 65, -3]]), IntMatrix(2, 1, [[-(2 ** 70)], [7]])))
def test_product_equals_the_dense_product(pair):
    a, b = pair
    assert a @ b == dense_matmul(a, b)


def test_product_refuses_mismatched_shapes():
    for a, b in ((IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 3)),
                 (IntMatrix.zeros(0, 1), IntMatrix.zeros(0, 1)),
                 (IntMatrix.zeros(3, 0), IntMatrix.zeros(1, 3))):
        with pytest.raises(ValueError, match="shape mismatch"):
            a @ b
