import dataclasses
import random

from kktheory.abelian import FgAbGroup, IntMatrix, cyclic_group, free_group
from kktheory.crmodule import build_graded_group, build_rho, psi_on_A
from kktheory.kgraph import validate

from helpers import (
    CrBlockTables,
    check_cr_relations,
    complexification_degree0,
    complex_block_table,
    random_valid_spec,
    real_block_table,
    standard_tables,
    symmetric_three_vertex_spec,
)


# ---------------------------------------------------------------------------
# Block tables and their relations
# ---------------------------------------------------------------------------

def test_real_table_groups():
    tab = real_block_table()
    assert [g.describe() for g in tab.ko] == \
        ["Z", "Z_2", "Z_2", "0", "Z", "0", "0", "0"]
    assert [g.describe() for g in tab.ku] == \
        ["Z", "0", "Z", "0", "Z", "0", "Z", "0"]


def test_complex_table_groups():
    tab = complex_block_table()
    assert [g.describe() for g in tab.ko] == \
        ["Z", "0", "Z", "0", "Z", "0", "Z", "0"]
    assert [g.describe() for g in tab.ku] == \
        ["Z + Z", "0", "Z + Z", "0", "Z + Z", "0", "Z + Z", "0"]


def test_relations_pass_on_standard_tables():
    report = check_cr_relations(standard_tables())
    assert report.all_passed
    degree2 = [c for c in report.checks
               if c.relation == "c.r = 1 + psi" and c.block == "C" and c.degree == 2]
    assert degree2 and degree2[0].passed


def _with_entry(table, field, degree, matrix):
    mats = list(getattr(table, field))
    mats[degree] = matrix
    return dataclasses.replace(table, **{field: tuple(mats)})


def test_relations_fail_on_flipped_psi2():
    corrupted = _with_entry(real_block_table(), "psi", 2, IntMatrix.from_rows([[1]]))
    report = check_cr_relations(CrBlockTables(corrupted, complex_block_table()))
    fails = report.failures()
    assert any(c.relation == "c.r = 1 + psi" and c.degree == 2 and c.block == "R"
               for c in fails)


CORRUPTIONS = [
    ("R", "c", 0, [[2]]),
    ("R", "r", 0, [[1]]),
    ("R", "psi", 0, [[-1]]),
    ("R", "psi", 2, [[1]]),
    ("R", "c", 4, [[1]]),
    ("R", "r", 4, [[3]]),
    ("C", "psi", 0, [[1, 1], [1, 0]]),
    ("C", "c", 2, [[1], [1]]),
]


def test_each_corruption_is_detected():
    for block, field, degree, rows in CORRUPTIONS:
        real, cplx = real_block_table(), complex_block_table()
        bad = IntMatrix.from_rows(rows)
        if block == "R":
            real = _with_entry(real, field, degree, bad)
        else:
            cplx = _with_entry(cplx, field, degree, bad)
        report = check_cr_relations(CrBlockTables(real, cplx))
        assert not report.all_passed, (block, field, degree)


# ---------------------------------------------------------------------------
# The graded module A
# ---------------------------------------------------------------------------

def test_graded_groups_single_fixed_vertex():
    part = validate(symmetric_three_vertex_spec(2))
    # restrict to the fixed part only: fake a partition with no orbits
    from kktheory.kgraph import VertexPartition
    a = build_graded_group(VertexPartition(fixed=(0,), paired=(), partners=()))
    assert a.group("real", 0) == free_group(1)
    assert a.group("real", 1) == cyclic_group(2)
    assert a.group("real", 6).is_trivial


def test_graded_groups_two_orbits_no_fixed():
    from kktheory.kgraph import VertexPartition
    a = build_graded_group(VertexPartition(fixed=(), paired=(0, 1), partners=(2, 3)))
    assert a.group("real", 1).is_trivial
    assert a.group("real", 6) == free_group(2)
    assert a.group("complex", 0) == free_group(4)


def test_graded_groups_mixed():
    part = validate(symmetric_three_vertex_spec(4))
    a = build_graded_group(part)
    assert a.group("real", 2) == FgAbGroup.from_invariants([2], 1)
    assert a.group("complex", 0) == free_group(3)
    assert a.group("complex", 1).is_trivial


# ---------------------------------------------------------------------------
# rho maps
# ---------------------------------------------------------------------------

def test_rho_degree_matrices_symmetric_family():
    n = 5
    spec = symmetric_three_vertex_spec(n)
    rho = build_rho(spec, 1)
    assert rho.hom("real", 0).matrix == IntMatrix.from_rows([[0, -2], [-1, 2 - n]])
    assert rho.hom("real", 6).matrix == IntMatrix.from_rows([[n]])
    assert rho.hom("real", 1).matrix == IntMatrix.from_rows([[0]])
    assert rho.hom("real", 2).matrix == IntMatrix.from_rows([[0, 1], [0, n]])
    assert rho.hom("real", 4).matrix == IntMatrix.from_rows([[0, -1], [-2, 2 - n]])
    assert rho.hom("real", 3).matrix.shape == (0, 0)


def test_rho_complex_part_is_full_matrix():
    n = 3
    spec = symmetric_three_vertex_spec(n)
    rho = build_rho(spec, 1)
    assert rho.hom("complex", 0).matrix == IntMatrix.from_rows(
        [[0, -1, -1], [-1, 1, 1 - n], [-1, 1 - n, 1]])


def test_rho_well_defined_for_random_specs():
    rng = random.Random(17)
    for _ in range(20):
        spec = random_valid_spec(rng)
        part = validate(spec)
        for color in range(1, spec.k + 1):
            rho = build_rho(spec, color, part)   # constructors certify
            for j in range(8):
                rho.hom("real", j)
            rho.hom("complex", 0)


# ---------------------------------------------------------------------------
# psi and naturality
# ---------------------------------------------------------------------------

def test_psi_swaps_orbit_coordinates():
    part = validate(symmetric_three_vertex_spec(2))
    psi = psi_on_A(part)
    assert psi.matrix == IntMatrix.from_rows(
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_psi_trivial_involution_is_identity():
    from kktheory.kgraph import VertexPartition
    psi = psi_on_A(VertexPartition(fixed=(0, 1), paired=(), partners=()))
    assert psi.matrix == IntMatrix.identity(2)


def test_psi_two_orbits_is_double_swap():
    from kktheory.kgraph import VertexPartition
    psi = psi_on_A(VertexPartition(fixed=(), paired=(0, 1), partners=(2, 3)))
    expected = IntMatrix.assemble([
        [IntMatrix.zeros(2, 2), IntMatrix.identity(2)],
        [IntMatrix.identity(2), IntMatrix.zeros(2, 2)]])
    assert psi.matrix == expected


def test_psi_is_involution_and_commutes_with_rho():
    rng = random.Random(31)
    for _ in range(15):
        spec = random_valid_spec(rng)
        part = validate(spec)
        psi = psi_on_A(part)
        n = psi.matrix.rows
        assert psi.matrix @ psi.matrix == IntMatrix.identity(n)
        for color in range(1, spec.k + 1):
            rho = build_rho(spec, color, part).hom("complex", 0).matrix
            assert psi.matrix @ rho == rho @ psi.matrix


def test_complexification_naturality_degree_zero():
    rng = random.Random(47)
    for _ in range(20):
        spec = random_valid_spec(rng)
        part = validate(spec)
        c = complexification_degree0(part)
        for color in range(1, spec.k + 1):
            rho = build_rho(spec, color, part)
            assert rho.hom("complex", 0).matrix @ c == c @ rho.hom("real", 0).matrix
