"""Property test: ``_json_text`` writes a complex's boundaries from its rho
blocks (``cli._boundaries_text``), byte for byte the text that
``json.dumps(indent=2)`` gives for the dense ``tolist()`` boundaries, at any
nesting depth, and lays no boundary out to do it.  A_j is free, mixed or all
torsion, n = 0..4 and k = 0..4; the rho^c are polynomials with no constant
term in one integer matrix S, so they commute, and S maps the relations of
A_j into themselves."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kktheory.abelian import FgAbGroup, IntMatrix  # noqa: E402
from kktheory.cli import _json_text  # noqa: E402
from kktheory.koszul import GradedChainComplex  # noqa: E402


@st.composite
def complexes(draw):
    kind = draw(st.sampled_from(["free", "mixed", "torsion"]))
    n = draw(st.integers({"free": 0, "mixed": 2, "torsion": 1}[kind], 4))
    k, modulus = draw(st.integers(0, 4)), draw(st.sampled_from([2, 3, 4, 6]))
    if kind == "mixed":
        moduli = draw(st.lists(st.sampled_from([0, modulus]), min_size=n - 2, max_size=n - 2))
        for m in (0, modulus):
            moduli.insert(draw(st.integers(0, len(moduli))), m)
    else:
        moduli = [modulus if kind == "torsion" else 0] * n
    entry = st.integers(-3, 3)
    # a free row of S is 0 at torsion columns, so S descends to A_j
    s = IntMatrix(n, n, [[draw(entry) if moduli[i] or not moduli[j] else 0 for j in range(n)]
                         for i in range(n)])
    square = s @ s
    rhos = tuple(s.scaled(draw(entry)) + square.scaled(draw(entry)) for _ in range(k))
    return GradedChainComplex(FgAbGroup(tuple(moduli)), rhos), draw(st.integers(0, 3))


def nested(value, depth):
    """``value`` inside ``depth`` containers, dicts and lists in turn."""
    for level in range(depth):
        value = {"boundaries": value} if level % 2 else [value]
    return value


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(complexes())
def test_block_writer_equals_json_dumps_of_the_dense_boundaries(drawn):
    cx, depth = drawn
    text = _json_text(nested(cx, depth))
    assert "boundaries" not in vars(cx)
    dense = [b.matrix.tolist() for b in cx.boundaries]
    assert text == json.dumps(nested(dense, depth), indent=2)
