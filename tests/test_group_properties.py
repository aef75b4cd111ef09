"""Property tests: a group held as one modulus per coordinate has the canonical
form of its relations matrix, and the per-coordinate divisibility checks of
``GroupHom`` agree with integer spans of the target relations."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import (  # noqa: E402
    FgAbGroup,
    GroupHom,
    IntMatrix,
    NotWellDefined,
)

from helpers import direct_sum, group_from_presentation, hom_equals, hom_is_zero, in_span  # noqa: E402

# 0 (free), 1 (trivial) and repeats all occur
moduli = st.lists(st.integers(0, 12), max_size=6).map(tuple)


def matrices(rows, cols):
    return st.lists(st.lists(st.integers(-15, 15), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda m: IntMatrix(rows, cols, m))


@st.composite
def hom_cases(draw):
    """Source and target moduli, a matrix between them, and a second matrix
    that is either arbitrary or the first plus multiples of the target moduli."""
    source, target = draw(moduli), draw(moduli)
    rows, cols = len(target), len(source)
    first = draw(matrices(rows, cols))
    if draw(st.booleans()):
        # scale the first by the target moduli, so that it is often zero
        first = IntMatrix(rows, cols, [[m * x for x in row]
                                       for m, row in zip(target, first.data)])
    shift = draw(matrices(rows, cols))
    if draw(st.booleans()):
        second = draw(matrices(rows, cols))
    else:
        second = first + IntMatrix(rows, cols, [[m * x for x in row]
                                                for m, row in zip(target, shift.data)])
    return FgAbGroup(source), FgAbGroup(target), first, second


def hom_or_none(source, target, matrix):
    try:
        return GroupHom(source, target, matrix)
    except NotWellDefined:
        return None


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(moduli, moduli)
@hypothesis.example((2,) * 12, (2, 4, 4, 12))  # chains, returned at once
@hypothesis.example((4, 6), ())  # not a chain: Z_2 + Z_12
def test_canonical_form_equals_the_smith_form_of_the_relations(a, b):
    g = FgAbGroup(a)
    assert g.ambient_rank == len(a)
    assert g.relations.shape == (len(a), sum(1 for m in a if m))
    assert g.canonical == group_from_presentation(g.relations).canonical
    total = direct_sum(g, FgAbGroup(b))
    assert total.moduli == a + b
    assert total.canonical == group_from_presentation(total.relations).canonical


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(hom_cases())
def test_hom_checks_agree_with_spans_of_the_target_relations(case):
    source, target, first, second = case
    rel = target.relations
    homs = []
    for matrix in (first, second):
        h = hom_or_none(source, target, matrix)
        assert (h is not None) == in_span(rel, matrix @ source.relations)
        if h is not None:
            assert hom_is_zero(h) == in_span(rel, matrix)
        homs.append(h)
    if None not in homs:
        assert hom_equals(homs[0], homs[1]) == in_span(rel, first - second)
