import dataclasses
import functools
import random
from itertools import product as cartesian
from math import gcd

import pytest

from kktheory.abelian import (
    CompositionNotZero,
    GroupHom,
    IntMatrix,
    _diagonal_mod,
    annihilated_smith_diagonal,
    free_group,
    homology,
    smith_diagonal,
)
from kktheory.kgraph import KGraphSpec, validate
from kktheory.koszul import GradedChainComplex, build_complex, index_tuples
from kktheory.spectral import compute_e2

from helpers import (
    asymmetric_three_vertex_spec,
    dense_koszul_boundaries,
    from_rows,
    one_vertex_spec,
    random_valid_spec,
    symmetric_three_vertex_spec,
    transpose,
    verify_square_zero,
)


def test_index_tuples_counts_and_order():
    assert index_tuples(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert index_tuples(4, 0) == [()]
    assert len(index_tuples(4, 2)) == 6
    assert index_tuples(2, 3) == []


def test_one_vertex_complex_degree_zero():
    m, n = 4, 6
    cx = build_complex(one_vertex_spec(m, n), 0, "complex")
    assert [g.describe() for g in cx.groups] == ["Z", "Z + Z", "Z"]
    # colors: rho^1 = 1 - m, rho^2 = 1 - n
    assert cx.boundaries[0].matrix == from_rows([[1 - m, 1 - n]])
    assert cx.boundaries[1].matrix == from_rows([[-(1 - n)], [1 - m]])


def test_rank_one_degree_three_is_trivial():
    spec = KGraphSpec.from_lists(1, ["v"], [[[3]]], [0])
    cx = build_complex(spec, 3, "real")
    assert all(g.is_trivial for g in cx.groups)
    assert cx.boundaries[0].matrix.shape == (0, 0)


def test_rank_one_boundary_is_rho():
    from kktheory.crmodule import build_rho
    spec = KGraphSpec.from_lists(1, ["a", "b"], [[[1, 2], [2, 1]]], [1, 0])
    rho = build_rho(spec, 1)
    for part, degrees in (("real", range(8)), ("complex", range(2))):
        for j in degrees:
            cx = build_complex(spec, j, part)
            assert cx.boundaries[0].matrix == rho.hom(part, j).matrix


def test_rank_three_top_boundary_signs():
    spec = KGraphSpec.from_lists(
        3, ["v"], [[[2]], [[3]], [[4]]], [0])
    cx = build_complex(spec, 0, "complex")
    r1, r2, r3 = 1 - 2, 1 - 3, 1 - 4
    assert cx.boundaries[2].matrix == from_rows([[r3], [-r2], [r1]])
    assert cx.boundaries[1].matrix == from_rows([
        [-r2, -r3, 0], [r1, 0, -r3], [0, r1, r2]])


def test_square_zero_for_built_complexes():
    spec = symmetric_three_vertex_spec(3)
    for part, degrees in (("real", range(8)), ("complex", range(2))):
        for j in degrees:
            report = verify_square_zero(build_complex(spec, j, part))
            assert report.all_passed


def test_square_zero_detects_sign_error():
    m, n = 4, 4
    z = free_group(1)
    z2 = free_group(2)
    d1 = GroupHom(z2, z, from_rows([[1 - n, 1 - m]]))
    bad_d2 = GroupHom(z, z2, from_rows([[-(1 - n)], [-(1 - m)]]))
    cx = GradedChainComplex(part="complex", degree=0, k=2,
                            groups=(z, z2, z), boundaries=(d1, bad_d2))
    report = verify_square_zero(cx)
    assert not report.all_passed
    assert [c.position for c in report.checks if not c.passed] == [1]


def test_square_zero_passes_zero_boundaries():
    z = free_group(1)
    cx = GradedChainComplex(part="complex", degree=0, k=1, groups=(z, z),
                            boundaries=(GroupHom(z, z, IntMatrix.zeros(1, 1)),))
    assert verify_square_zero(cx).all_passed


def test_build_complex_raises_on_noncommuting_rhos():
    # force the internal assembly check: patch rho matrices is invasive, so
    # instead verify the error type is raised through a hand-built complex
    with pytest.raises(CompositionNotZero):
        m, n = 4, 4
        z = free_group(1)
        z2 = free_group(2)
        d1 = GroupHom(z2, z, from_rows([[1 - n, 1 - m]]))
        bad_d2 = GroupHom(z, z2, from_rows([[-(1 - n)], [-(1 - m)]]))
        cx = GradedChainComplex(part="complex", degree=0, k=2,
                                groups=(z, z2, z), boundaries=(d1, bad_d2))
        report = verify_square_zero(cx)
        if not report.all_passed:
            raise CompositionNotZero("hand-built complex fails square-zero")


def test_e2_page_refuses_boundaries_that_do_not_compose_to_zero(monkeypatch):
    # build_complex checks nothing; homology is the one square-zero guard
    from kktheory import spectral
    m, n = 4, 4
    z = free_group(1)
    z2 = free_group(2)
    d1 = GroupHom(z2, z, from_rows([[1 - n, 1 - m]]))
    bad_d2 = GroupHom(z, z2, from_rows([[-(1 - n)], [-(1 - m)]]))
    bad = GradedChainComplex(part="complex", degree=0, k=2,
                             groups=(z, z2, z), boundaries=(d1, bad_d2))
    monkeypatch.setattr(spectral, "build_complex", lambda *args: bad)
    with pytest.raises(CompositionNotZero):
        spectral.compute_e2(one_vertex_spec(m, n))


def test_e2_page_refuses_a_rank_three_boundary_off_its_first_blocks(monkeypatch):
    # one entry of d_2 beyond the first block row and column: a product that
    # skipped entries there would let the broken complex through
    from kktheory import spectral
    spec = random_valid_spec(random.Random(0), 3, 4)
    spectral.compute_e2(spec)

    def broken(spec, degree, part, *args):
        cx = build_complex(spec, degree, part, *args)
        if (part, degree) != ("complex", 0):
            return cx
        d2 = cx.boundaries[1]
        n = cx.groups[0].ambient_rank
        rows = [list(r) for r in d2.matrix.data]
        assert len(rows) > n and len(rows[-1]) > n
        rows[-1][-1] += 1
        bad = GroupHom(d2.source, d2.target, IntMatrix(len(rows), len(rows[0]), rows))
        return dataclasses.replace(cx, boundaries=(cx.boundaries[0], bad, cx.boundaries[2]))

    monkeypatch.setattr(spectral, "build_complex", broken)
    with pytest.raises(CompositionNotZero):
        spectral.compute_e2(spec)


def test_boundaries_match_the_dense_block_grid():
    rng = random.Random(5)
    for k in range(1, 6):
        spec = random_valid_spec(rng, k)
        for part, degrees in (("real", range(8)), ("complex", range(2))):
            for j in degrees:
                built = [b.matrix for b in build_complex(spec, j, part).boundaries]
                assert built == dense_koszul_boundaries(spec, j, part), (k, part, j)


def test_trivial_involution_complex_part_is_plain_koszul():
    # with no orbits the degree-0 complex part blocks are exactly I - M^t
    spec = KGraphSpec.from_lists(
        2, ["a", "b"], [[[2, 1], [1, 2]], [[1, 1], [1, 1]]], [0, 1])
    cx = build_complex(spec, 0, "complex")
    b1 = IntMatrix.identity(2) - transpose(spec.matrices[0])
    b2 = IntMatrix.identity(2) - transpose(spec.matrices[1])
    assert cx.boundaries[0].matrix == IntMatrix.hstack(b1, b2)
    assert cx.boundaries[1].matrix == IntMatrix.vstack(-b2, b1)


def test_square_zero_random_specs_all_degrees():
    rng = random.Random(71)
    for _ in range(10):
        spec = random_valid_spec(rng)
        part = validate(spec)
        for part_name, degrees in (("real", range(8)), ("complex", range(2))):
            for j in degrees:
                assert verify_square_zero(build_complex(spec, j, part_name, part)).all_passed


# ---------------------------------------------------------------------------
# The annihilator g = gcd_c |det rho^c| of each complex
# ---------------------------------------------------------------------------

# the benchmark's families and lattice inputs, and the 108-input scan
FAMILIES = ([one_vertex_spec(m, n) for m, n in ((4, 4), (6, 4), (6, 6), (3, 5), (5, 5), (7, 7))]
            + [symmetric_three_vertex_spec(n) for n in (2, 3)]
            + [asymmetric_three_vertex_spec(n) for n in (3, 4)])
LATTICE = ((4, 6, 12), (4, 5, 14), (4, 4, 2), (4, 6, 13),
           (4, 5, 6), (4, 4, 15), (3, 6, 13), (3, 4, 14))
SCAN = tuple(cartesian((2, 3, 4), (4, 5, 6), range(12)))


@functools.lru_cache(maxsize=None)
def annihilator_complexes():
    """(complex, its E2 cells, the cells' groups read without g) for every
    distinct complex of the scan, families and lattice inputs."""
    specs = FAMILIES + [random_valid_spec(random.Random(seed), k, nv)
                        for k, nv, seed in LATTICE + SCAN]
    out = []
    for spec in specs:
        page = compute_e2(spec)
        done = set()
        for (part, j), cx in page.complexes.items():
            if id(cx) in done:
                continue
            done.add(id(cx))
            cells = [page.cells[(part, p, j)] for p in range(cx.k + 1)]
            reference = [homology(cx.boundary(p + 1), cx.boundary(p)).group
                         for p in range(cx.k + 1)]
            out.append((cx, cells, reference))
    return out


def test_every_cell_is_killed_by_the_annihilator_of_its_complex():
    # the groups come from the path that does not know g
    paths = {"g = 1": 0, "free, g >= 2": 0, "other": 0}
    for cx, _, reference in annihilator_complexes():
        g = cx.annihilator
        if g:
            for h in reference:
                assert h.is_finite and g % h.exponent() == 0, (cx.part, cx.degree, g, h)
        if any(not h.is_trivial for h in cx.groups):
            paths["g = 1" if g == 1 else "free, g >= 2" if g and cx.is_free else "other"] += 1
    assert all(paths.values()), paths


def test_cells_read_through_the_annihilator_match_the_general_path():
    fast = 0
    for cx, cells, reference in annihilator_complexes():
        assert [h.group for h in cells] == reference, (cx.part, cx.degree)
        fast += cx.annihilator == 1 or (cx.annihilator and cx.is_free)
    assert fast


def test_free_boundary_diagonals_read_modulo_g_are_the_smith_diagonals():
    # cx.diagonal is what --emit-intermediate prints
    read = 0
    for cx, _, _ in annihilator_complexes():
        if cx.is_free:
            for p, b in enumerate(cx.boundaries, start=1):
                assert cx.diagonal(p) == smith_diagonal(b.matrix), (cx.part, cx.degree, p)
                read += cx.annihilator >= 2
    assert read


def test_composite_annihilator_cuts_the_chain_at_the_rank_after_sorting():
    # scan input (4,6,3), complex degree 0: g = 79300 = 2^2 5^2 13 61, and the
    # 24 x 36 boundary d_2 has rank 6 C(3, 1) = 18.  Modulo g it leaves 19
    # nonzero residues, ending in 4 and 39650; sorted into a chain these are
    # 2 and 79300 = g, so cutting at 18 before sorting would read a 4
    cx = build_complex(random_valid_spec(random.Random(3), 4, 6), 0, "complex")
    b = cx.boundaries[1].matrix
    assert (cx.annihilator, cx.is_free, b.shape) == (79300, True, (24, 36))
    residues = sorted(gcd(e, 79300) for e in _diagonal_mod(b.data, 79300))
    assert len(residues) == 19 and residues[-2:] == [4, 39650]
    expected = (1,) * 12 + (2,) * 6 + (0,) * 6
    assert cx.diagonal(2) == smith_diagonal(b) == expected


def test_annihilated_diagonal_refuses_a_wrong_rank():
    m = from_rows([[2, 0], [0, 3]])
    assert annihilated_smith_diagonal(m, 2, 6) == (1, 6)
    assert annihilated_smith_diagonal(m, 2, 1) == (1, 1)
    with pytest.raises(RuntimeError):
        annihilated_smith_diagonal(from_rows([[2]]), 0, 4)


def test_annihilator_of_one_vertex_complexes():
    # rho^1 = 1 - m and rho^2 = 1 - n, so g = gcd(m - 1, n - 1) on the free
    # degrees; real degree 1 is Z_2, so there g also divides 2
    for m, n in ((4, 4), (6, 4), (3, 5), (7, 7)):
        spec = one_vertex_spec(m, n)
        assert build_complex(spec, 0, "complex").annihilator == gcd(m - 1, n - 1)
        assert build_complex(spec, 1, "real").annihilator == gcd(m - 1, n - 1, 2)
        assert build_complex(spec, 3, "real").annihilator == 1
