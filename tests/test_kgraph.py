import json
import pathlib
import random

import pytest

from kktheory.abelian import IntMatrix
from kktheory.kgraph import (
    IncompatibleInvolution,
    KGraphSpec,
    NegativeEntry,
    NonCommutingMatrices,
    NotInvolutive,
    SourceAtVertex,
    first_noncommuting,
    validate,
)

from helpers import (
    asymmetric_three_vertex_spec,
    block_decompose,
    from_rows,
    one_vertex_spec,
    random_valid_spec,
    reordered_boundary_matrix,
    symmetric_three_vertex_spec,
    transpose,
)


def test_validate_asymmetric_three_vertex():
    spec = asymmetric_three_vertex_spec(3)
    part = validate(spec)
    assert part.fixed == (0,)
    assert part.paired == (1,)
    assert part.partners == (2,)


def test_validate_one_vertex():
    part = validate(one_vertex_spec(4, 7))
    assert part.fixed == (0,)
    assert part.paired == () and part.partners == ()


def test_validate_incompatible_involution():
    spec = KGraphSpec.from_lists(
        2, ["a", "b"], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [1, 0])
    with pytest.raises(IncompatibleInvolution) as err:
        validate(spec)
    assert str(err.value) == "IncompatibleInvolution(2)"


def test_validate_non_commuting():
    m1 = [[1, 1], [0, 1]]
    m2 = [[1, 0], [1, 1]]
    spec = KGraphSpec.from_lists(2, ["a", "b"], [m1, m2], [0, 1])
    with pytest.raises(NonCommutingMatrices) as err:
        validate(spec)
    assert str(err.value) == "NonCommutingMatrices(1,2)"


def test_validate_names_the_first_noncommuting_pair_in_lexicographic_order():
    # (1,2) and (1,3) commute, (1,4) and (2,3) do not: colour pairs i < j are
    # tested in lexicographic order, so (1,4) comes before (2,3)
    doc = json.loads((pathlib.Path(__file__).parent / "data" / "noncommuting_k4.json").read_text())
    spec = KGraphSpec.from_lists(doc["k"], doc["vertices"], doc["matrices"], doc["involution"])
    rows = [m.data for m in spec.matrices]
    assert [first_noncommuting(rows, (0,) * 3, [pair]) is None
            for pair in ((0, 1), (0, 2), (0, 3), (1, 2))] == [True, True, False, False]
    with pytest.raises(NonCommutingMatrices) as err:
        validate(spec)
    assert err.value.colors == (1, 4)
    assert str(err.value) == "NonCommutingMatrices(1,4)"


def test_validate_reports_the_first_negative_entry_in_row_major_order():
    m1 = [[1, 1, 1], [1, -2, -1], [-1, 1, 1]]
    spec = KGraphSpec.from_lists(2, ["a", "b", "c"], [m1, [[-1, 0, 0]] * 3], [0, 1, 2])
    with pytest.raises(NegativeEntry) as err:
        validate(spec)
    assert str(err.value) == "NegativeEntry(color=1,b,b)"


def test_validate_reports_the_first_incompatible_color():
    spec = KGraphSpec.from_lists(
        2, ["a", "b"], [[[1, 0], [0, 2]], [[2, 0], [0, 1]]], [1, 0])
    with pytest.raises(IncompatibleInvolution) as err:
        validate(spec)
    assert str(err.value) == "IncompatibleInvolution(1)"


def test_validate_source_free():
    spec = KGraphSpec.from_lists(1, ["a", "b"], [[[1, 1], [0, 0]]], [0, 1])
    with pytest.raises(SourceAtVertex) as err:
        validate(spec)
    assert "b" in str(err.value)


def test_validate_involution_squares():
    spec = KGraphSpec.from_lists(1, ["a", "b", "c"],
                                 [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], [1, 2, 0])
    with pytest.raises(NotInvolutive):
        validate(spec)


def test_validate_negative_entry():
    spec = KGraphSpec.from_lists(1, ["a"], [[[-1]]], [0])
    with pytest.raises(NegativeEntry):
        validate(spec)


def test_validate_bad_shapes():
    with pytest.raises(ValueError):
        validate(KGraphSpec.from_lists(2, ["a"], [[[1]]], [0]))


def test_blocks_symmetric_family():
    n = 5
    spec = symmetric_three_vertex_spec(n)
    part = validate(spec)
    bd = block_decompose(spec, 1, part)
    assert bd.b11 == from_rows([[0]])
    assert bd.b12 == from_rows([[-1]])
    assert bd.b21 == from_rows([[-1]])
    assert bd.b22 == from_rows([[1]])
    assert bd.b23 == from_rows([[1 - n]])


def test_blocks_identity_involution():
    spec = KGraphSpec.from_lists(
        2, ["a", "b"], [[[2, 1], [1, 2]], [[1, 1], [1, 1]]], [0, 1])
    part = validate(spec)
    assert part.paired == ()
    bd = block_decompose(spec, 1, part)
    m = spec.matrices[0]
    expected = IntMatrix.identity(2) - transpose(m)
    assert bd.b11 == expected
    assert bd.b22.shape == (0, 0)


def test_blocks_asymmetric_second_color():
    n = 4
    spec = asymmetric_three_vertex_spec(n)
    bd = block_decompose(spec, 2)
    assert bd.b22 == from_rows([[2 - n]])
    assert bd.b23 == from_rows([[0]])


def test_block_reassembly_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        spec = random_valid_spec(rng)
        part = validate(spec)
        for color in range(1, spec.k + 1):
            bd = block_decompose(spec, color, part)
            assert bd.reassemble() == reordered_boundary_matrix(spec, color, part)


def test_validation_is_label_independent():
    # conjugating all data by a vertex relabeling preserves partition sizes
    rng = random.Random(23)
    for _ in range(10):
        spec = random_valid_spec(rng, nv=4)
        part = validate(spec)
        perm = list(range(4))
        rng.shuffle(perm)
        inv = [0] * 4
        for i, x in enumerate(perm):
            inv[x] = i
        mats = [IntMatrix(4, 4, [[m[perm[i], perm[j]] for j in range(4)]
                                 for i in range(4)]) for m in spec.matrices]
        gamma = tuple(inv[spec.involution[perm[i]]] for i in range(4))
        relabeled = KGraphSpec(k=spec.k, vertices=spec.vertices,
                               matrices=tuple(mats), involution=gamma)
        part2 = validate(relabeled)
        assert part2.n_fixed == part.n_fixed
        assert part2.n_paired == part.n_paired
