import functools
import io
import json
import random
from itertools import product as cartesian
from math import comb, gcd

import pytest

from kktheory import abelian, koszul, spectral
from kktheory.abelian import (
    CompositionNotZero,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _diagonal_mod,
    _peel_units,
    annihilated_smith_diagonal,
    free_group,
    homology,
    smith_diagonal,
)
from kktheory.cli import JobConfig, run
from kktheory.kgraph import KGraphSpec, validate
from kktheory.crmodule import build_graded_group
from kktheory.koszul import GradedChainComplex, build_complex, index_tuples
from kktheory.spectral import compute_e2

from helpers import (
    LaidOutComplex,
    asymmetric_three_vertex_spec,
    complex_of,
    dense_first_map,
    dense_koszul_boundaries,
    from_rows,
    one_vertex_spec,
    random_valid_spec,
    rho_of,
    spec_doc,
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
    cx = complex_of(one_vertex_spec(m, n), 0, "complex")
    assert [g.describe() for g in cx.groups] == ["Z", "Z + Z", "Z"]
    # colors: rho^1 = 1 - m, rho^2 = 1 - n
    assert cx.boundaries[0].matrix == from_rows([[1 - m, 1 - n]])
    assert cx.boundaries[1].matrix == from_rows([[-(1 - n)], [1 - m]])


def test_rank_one_degree_three_is_trivial():
    spec = KGraphSpec.from_lists(1, ["v"], [[[3]]], [0])
    cx = complex_of(spec, 3, "real")
    assert all(g.is_trivial for g in cx.groups)
    assert cx.boundaries[0].matrix.shape == (0, 0)


def test_rank_one_boundary_is_rho():
    spec = KGraphSpec.from_lists(1, ["a", "b"], [[[1, 2], [2, 1]]], [1, 0])
    rho = rho_of(spec, 1)
    for part, degrees in (("real", range(8)), ("complex", range(2))):
        for j in degrees:
            cx = complex_of(spec, j, part)
            assert cx.boundaries[0].matrix == rho.hom(part, j).matrix


def test_rank_three_top_boundary_signs():
    spec = KGraphSpec.from_lists(
        3, ["v"], [[[2]], [[3]], [[4]]], [0])
    cx = complex_of(spec, 0, "complex")
    r1, r2, r3 = 1 - 2, 1 - 3, 1 - 4
    assert cx.boundaries[2].matrix == from_rows([[r3], [-r2], [r1]])
    assert cx.boundaries[1].matrix == from_rows([
        [-r2, -r3, 0], [r1, 0, -r3], [0, r1, r2]])


def test_square_zero_for_built_complexes():
    spec = symmetric_three_vertex_spec(3)
    for part, degrees in (("real", range(8)), ("complex", range(2))):
        for j in degrees:
            report = verify_square_zero(complex_of(spec, j, part))
            assert report.all_passed


def test_square_zero_detects_sign_error():
    m, n = 4, 4
    z = free_group(1)
    z2 = free_group(2)
    d1 = GroupHom(z2, z, from_rows([[1 - n, 1 - m]]))
    bad_d2 = GroupHom(z, z2, from_rows([[-(1 - n)], [-(1 - m)]]))
    cx = LaidOutComplex(k=2, groups=(z, z2, z), boundaries=(d1, bad_d2))
    report = verify_square_zero(cx)
    assert not report.all_passed
    assert [c.position for c in report.checks if not c.passed] == [1]


def test_square_zero_passes_zero_boundaries():
    z = free_group(1)
    cx = LaidOutComplex(k=1, groups=(z, z), boundaries=(GroupHom(z, z, IntMatrix.zeros(1, 1)),))
    assert verify_square_zero(cx).all_passed


def with_block(rho, part, degree, rows):
    """``rho`` with its matrix on one degree of one part replaced."""
    old = rho.hom(part, degree)
    field = "real" if part == "real" else "cplx"
    homs = list(getattr(rho, field))
    homs[degree] = GroupHom(old.source, old.target, from_rows(rows))
    return rho._replace(**{field: tuple(homs)})


def test_build_complex_raises_on_noncommuting_rhos():
    # two fixed vertices: Z^2 in real degree 0 and complex degree 0, Z_2^2 in
    # real degree 1.  The shears [[1, 1], [0, 1]] and [[1, 0], [1, 1]] do not
    # commute over Z nor mod 2; with [[1, 0], [2, 1]] the commutator is
    # diag(2, -2), which vanishes in Z_2^2 only
    spec = KGraphSpec.from_lists(2, ["a", "b"], [[[1, 0], [0, 1]]] * 2, [0, 1])
    graded = build_graded_group(validate(spec))
    rhos = (rho_of(spec, 1), rho_of(spec, 2))

    def pair(part, degree, second):
        return (with_block(rhos[0], part, degree, [[1, 1], [0, 1]]),
                with_block(rhos[1], part, degree, second))

    def build(degree, part, rhos):
        return build_complex(graded.group(part, degree),
                             tuple(rho.hom(part, degree).matrix for rho in rhos))

    for part, degree in (("real", 0), ("complex", 0), ("real", 1)):
        with pytest.raises(CompositionNotZero, match="rho.1 and rho.2"):
            build(degree, part, pair(part, degree, [[1, 0], [1, 1]]))
    with pytest.raises(CompositionNotZero):
        build(0, "real", pair("real", 0, [[1, 0], [2, 1]]))
    cx = build(1, "real", pair("real", 1, [[1, 0], [2, 1]]))
    assert verify_square_zero(cx).all_passed
    # the unchanged maps commute in every degree
    for part, degrees in (("real", range(8)), ("complex", range(2))):
        for j in degrees:
            build(j, part, rhos)


def test_build_complex_takes_a_j_and_the_rho_matrices_alone():
    # the commutator of [[1, 1], [0, 1]] and diag(1, 3) is [[0, 2], [0, 0]]:
    # nonzero on Z^2, zero on Z_2 + Z, whose Z_2 row takes the 2
    first, second = from_rows([[1, 1], [0, 1]]), from_rows([[1, 0], [0, 3]])
    with pytest.raises(CompositionNotZero, match="rho.1 and rho.2"):
        build_complex(free_group(2), (first, second))
    with pytest.raises(CompositionNotZero, match="rho.1 and rho.3"):
        build_complex(free_group(2), (first, first, second))
    cx = build_complex(FgAbGroup((2, 0)), (first, second))
    assert (cx.k, cx.aj, cx.rhos) == (2, FgAbGroup((2, 0)), (first, second))
    assert verify_square_zero(cx).all_passed


def test_a_complex_derives_k_and_its_annihilator():
    # one-vertex (3, 3), complex degree 0: rho^1 = rho^2 = 1 - 3, so g = 2,
    # and the cells are Z_2, Z_2, 0
    rhos = (from_rows([[-2]]), from_rows([[-2]]))
    cx = GradedChainComplex(free_group(1), rhos)
    assert (cx.k, cx.annihilator) == (2, 2)
    assert [h.group.describe() for h in cx.cells] == ["Z_2", "Z_2", "0"]
    assert [h.group for h in cx.cells] == \
        [h.group for h in compute_e2(one_vertex_spec(3, 3)).complexes[("complex", 0)].cells]
    for k in (1, 3, 4):
        assert GradedChainComplex(free_group(1), rhos[:1] * k).k == k


def test_e2_page_refuses_boundaries_that_do_not_compose_to_zero(monkeypatch):
    # rho^2 + E_11 in complex degree 0 no longer commutes with rho^1: the
    # complex is refused when it is built, before any boundary is laid out
    from kktheory import spectral
    spec = symmetric_three_vertex_spec(3)
    spectral.compute_e2(spec)
    build = spectral.build_rho

    def broken(spec, color, *args):
        rho = build(spec, color, *args)
        if color != 2:
            return rho
        rows = rho.hom("complex", 0).matrix.tolist()
        rows[0][0] += 1
        return with_block(rho, "complex", 0, rows)

    monkeypatch.setattr(spectral, "build_rho", broken)
    with pytest.raises(CompositionNotZero, match="rho.1 and rho.2"):
        spectral.compute_e2(spec)


def test_e2_page_refuses_a_rank_three_boundary_off_its_first_blocks(monkeypatch):
    # rho^1 = -1 commutes with everything, and one entry in the last row and
    # column of rho^3 breaks only the last pair (2, 3): a certificate that
    # stopped at the first pairs, or rows, would let the broken complex through
    from kktheory import spectral
    base = random_valid_spec(random.Random(0), 3, 4)
    n = base.vertex_count
    spec = base._replace(matrices=(IntMatrix.identity(n).scaled(2),) + base.matrices[1:])
    spectral.compute_e2(spec)
    build = spectral.build_rho

    def broken(spec, color, *args):
        rho = build(spec, color, *args)
        if color != 3:
            return rho
        rows = rho.hom("complex", 0).matrix.tolist()
        rows[-1][-1] += 1
        return with_block(rho, "complex", 0, rows)

    rho2 = spectral.compute_e2(spec).complexes[("complex", 0)].rhos[1]
    assert any(rho2[n - 1, j] for j in range(n - 1)) or any(rho2[i, n - 1] for i in range(n - 1))
    monkeypatch.setattr(spectral, "build_rho", broken)
    with pytest.raises(CompositionNotZero, match="rho.2 and rho.3"):
        spectral.compute_e2(spec)


def test_boundaries_match_the_dense_block_grid():
    rng = random.Random(5)
    for k in range(1, 6):
        spec = random_valid_spec(rng, k)
        for part, degrees in (("real", range(8)), ("complex", range(2))):
            for j in degrees:
                built = [b.matrix for b in complex_of(spec, j, part).boundaries]
                assert built == dense_koszul_boundaries(spec, j, part), (k, part, j)


def test_trivial_involution_complex_part_is_plain_koszul():
    # with no orbits the degree-0 complex part blocks are exactly I - M^t
    spec = KGraphSpec.from_lists(
        2, ["a", "b"], [[[2, 1], [1, 2]], [[1, 1], [1, 1]]], [0, 1])
    cx = complex_of(spec, 0, "complex")
    b1 = IntMatrix.identity(2) - transpose(spec.matrices[0])
    b2 = IntMatrix.identity(2) - transpose(spec.matrices[1])
    assert cx.boundaries[0].matrix == IntMatrix.hstack(b1, b2)
    assert cx.boundaries[1].matrix == IntMatrix.vstack(-b2, b1)


def test_square_zero_random_specs_all_degrees():
    rng = random.Random(71)
    for _ in range(10):
        spec = random_valid_spec(rng)
        for part_name, degrees in (("real", range(8)), ("complex", range(2))):
            for j in degrees:
                assert verify_square_zero(complex_of(spec, j, part_name)).all_passed


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
LADDER = ((7, 6), (8, 6), (10, 4))


def source_specs(source):
    """The inputs of one source: "families", "lattice", "scan" or "ladder k,nv"."""
    if source == "families":
        return FAMILIES
    if source.startswith("ladder"):
        k, nv = map(int, source.split()[1].split(","))
        return [random_valid_spec(random.Random(0), k, nv)]
    return [random_valid_spec(random.Random(seed), k, nv)
            for k, nv, seed in {"lattice": LATTICE, "scan": SCAN}[source]]


def fresh_complex(cx):
    """A copy of ``cx`` with nothing built yet."""
    return GradedChainComplex(cx.aj, cx.rhos)


@functools.lru_cache(maxsize=None)
def distinct_complexes(source):
    """(page key, complex, its E2 cells, the cells' groups read without g)
    for every distinct complex of one source's inputs."""
    out = []
    for spec in source_specs(source):
        page = compute_e2(spec)
        done = set()
        for key, cx in page.complexes.items():
            if id(cx) in done:
                continue
            done.add(id(cx))
            reference = [homology(cx.boundary(p + 1), cx.boundary(p)).group
                         for p in range(cx.k + 1)]
            out.append((key, cx, cx.cells, reference))
    return out


def annihilator_complexes():
    """``distinct_complexes`` of the scan, families and lattice inputs."""
    return [c for source in ("families", "lattice", "scan") for c in distinct_complexes(source)]


def test_every_cell_is_killed_by_the_annihilator_of_its_complex():
    # the groups come from the path that does not know g
    paths = {"g = 1": 0, "free, g >= 2": 0, "mixed or torsion, g >= 2": 0, "g = 0": 0}
    for key, cx, _, reference in annihilator_complexes():
        g = cx.annihilator
        if g:
            for h in reference:
                assert h.is_finite and g % h.exponent() == 0, (key, g, h)
        if any(not h.is_trivial for h in cx.groups):
            paths["g = 0" if not g else "g = 1" if g == 1 else
                  "free, g >= 2" if cx.is_free else "mixed or torsion, g >= 2"] += 1
    assert all(paths.values()), paths


def test_cells_read_through_the_annihilator_match_the_general_path():
    fast = 0
    for key, cx, cells, reference in annihilator_complexes():
        assert [h.group for h in cells] == reference, key
        fast += cx.annihilator != 0
    assert fast


def test_cells_with_g_at_least_2_take_no_minor(monkeypatch):
    """A cell killed by g >= 2 is read modulo g alone: no Bareiss minor and
    no boundary Smith diagonal, whether A_j is free, mixed or torsion."""
    complexes = [(key, fresh_complex(cx), reference)
                 for key, cx, _, reference in annihilator_complexes() if cx.annihilator >= 2]

    def refuse(*args):
        raise AssertionError("a Smith diagonal was taken through a minor")

    monkeypatch.setattr(abelian, "_rank_and_minor", refuse)
    monkeypatch.setattr(abelian, "smith_diagonal", refuse)
    kinds = set()
    for key, cx, reference in complexes:
        assert [h.group for h in cx.cells] == reference, key
        kinds.add("free" if cx.is_free else "mixed" if 0 in cx.aj.moduli else "torsion")
    assert kinds == {"free", "mixed", "torsion"}


def test_free_boundary_diagonals_read_modulo_g_are_the_smith_diagonals():
    # cx.diagonal is what --emit-intermediate prints
    read = 0
    for key, cx, _, _ in annihilator_complexes():
        if cx.is_free:
            for p, b in enumerate(cx.boundaries, start=1):
                assert cx.diagonal(p) == smith_diagonal(b.matrix), (key, p)
                read += cx.annihilator >= 2
    assert read


def test_composite_annihilator_cuts_the_chain_at_the_rank_after_sorting():
    # scan input (4,6,3), complex degree 0: g = 79300 = 2^2 5^2 13 61, and the
    # 24 x 36 boundary d_2 has rank 6 C(3, 1) = 18.  Modulo g it leaves 19
    # nonzero residues, ending in 4 and 39650; sorted into a chain these are
    # 2 and 79300 = g, so cutting at 18 before sorting would read a 4
    cx = complex_of(random_valid_spec(random.Random(3), 4, 6), 0, "complex")
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
    # a rank above min(rows, cols) would pad with a negative count of zeros
    with pytest.raises(RuntimeError):
        annihilated_smith_diagonal(from_rows([[2]]), 2, 4)


def test_annihilator_of_one_vertex_complexes():
    # rho^1 = 1 - m and rho^2 = 1 - n, so g = gcd(m - 1, n - 1) on the free
    # degrees; real degree 1 is Z_2, so there g also divides 2
    for m, n in ((4, 4), (6, 4), (3, 5), (7, 7)):
        spec = one_vertex_spec(m, n)
        assert complex_of(spec, 0, "complex").annihilator == gcd(m - 1, n - 1)
        assert complex_of(spec, 1, "real").annihilator == gcd(m - 1, n - 1, 2)
        assert complex_of(spec, 3, "real").annihilator == 1


@pytest.mark.parametrize("k, nv", [(7, 6), (8, 6), (10, 4)])
def test_ladder_boundaries_are_the_dense_grid_and_square_zero(k, nv):
    # the E2 page certifies commutators and lays out boundaries only when
    # read; laid out here, every degree's boundaries still match the dense
    # block grid and compose to zero
    spec = random_valid_spec(random.Random(0), k, nv)
    page = compute_e2(spec)
    checked = set()
    for (part, j), cx in page.complexes.items():
        assert [b.matrix for b in cx.boundaries] == dense_koszul_boundaries(spec, j, part), (part, j)
        if id(cx) not in checked:
            checked.add(id(cx))
            assert verify_square_zero(cx).all_passed, (part, j)


# ---------------------------------------------------------------------------
# H_0 first: a complex whose H_0 is 0 is exact (Nakayama)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source", ["families", "lattice", "scan"]
                         + [f"ladder {k},{nv}" for k, nv in LADDER])
def test_h0_is_0_exactly_when_every_reference_cell_is_0(source):
    for key, cx, cells, reference in distinct_complexes(source):
        assert cx.exact == all(h.is_trivial for h in reference), key
        assert cx.exact == cells[0].group.is_trivial, key


def test_counts_of_short_circuited_complexes_with_g_at_least_2():
    # (exact, all) among the distinct complexes with g >= 2: an exact one
    # reads F_0 alone, where it read all k + 1 cells modulo g before
    counts = {}
    for source in ("lattice", "scan", "ladder 7,6", "ladder 8,6"):
        g2 = [cx for _, cx, _, _ in distinct_complexes(source) if cx.annihilator >= 2]
        counts[source] = (sum(cx.exact for cx in g2), len(g2))
    assert counts == {"lattice": (6, 8), "scan": (60, 157),
                      "ladder 7,6": (4, 4), "ladder 8,6": (4, 4)}


def test_first_maps_laid_out_from_the_rho_blocks_are_the_dense_first_maps():
    # F_0 .. F_k of every distinct complex of the scan, the families and the
    # lattice inputs, against the first maps laid out from dense boundaries
    kinds = set()
    for key, cx, _, _ in annihilator_complexes():
        fresh = fresh_complex(cx)
        for p in range(fresh.k + 1):
            assert fresh._first(p) == dense_first_map(fresh.boundary(p + 1), fresh.boundary(p)), (key, p)
        kinds.add("free" if cx.is_free else "mixed" if 0 in cx.aj.moduli else "torsion")
    assert kinds == {"free", "mixed", "torsion"}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_h0_is_0_where_unit_pivots_alone_do_not_show_it(k):
    # scan input (k, 5, 3), complex degree 0: g = 6 and H_0 = 0, but modulo 6
    # the unit pivots of F_0 leave two rows with no unit entry, so only the
    # Smith loop finds that every invariant factor of F_0 is 1
    cx = complex_of(random_valid_spec(random.Random(3), k, 5), 0, "complex")
    units, rest = _peel_units([[x % 6 for x in row] for row in cx._first(0).data], 6)
    assert (cx.annihilator, cx.is_free, units, len(rest)) == (6, True, 3, 2)
    assert not any(gcd(x, 6) == 1 for row in rest for x in row)
    assert cx.exact and all(h.group.is_trivial for h in cx.cells)
    assert "boundaries" not in vars(cx)


def test_a_g_at_least_2_complex_reads_f0_once(monkeypatch):
    # an exact complex reads F_0 and lays out no boundary; any other reads
    # F_0 once, as its exactness test and as cell 0, then F_1 .. F_k
    calls, read = [], annihilated_smith_diagonal

    def counting(m, rank, modulus):
        calls.append(m)
        return read(m, rank, modulus)

    monkeypatch.setattr(koszul, "annihilated_smith_diagonal", counting)
    kinds = set()
    for key, cx, _, reference in annihilator_complexes():
        if cx.annihilator < 2:
            continue
        fresh, calls[:] = fresh_complex(cx), []
        assert [h.group for h in fresh.cells] == reference, key
        f0 = fresh._first(0)
        if fresh.exact:
            assert calls == [f0] and "boundaries" not in vars(fresh), key
        else:
            assert len(calls) == fresh.k + 1 and calls[0] == f0 and f0 not in calls[1:], key
            if fresh.is_free:  # what --emit-intermediate prints is read already
                [fresh.diagonal(p) for p in range(1, fresh.k + 1)]
                assert len(calls) == fresh.k + 1, key
        kinds.add((fresh.exact, fresh.is_free))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("source", ["lattice", "families"])
def test_a_text_run_lays_out_boundaries_only_for_lifts(tmp_path, monkeypatch, source):
    # a text run reads every cell off F_0 .. F_k laid out from the rho blocks:
    # a complex holds its dense boundaries only where psi read a cell's lift,
    # and F_p multiplies the t C(k, p - 1) torsion rows of d_p alone
    pages, e2, first_map, multiplied = [], spectral.compute_e2, koszul._first_map, []

    def keep_page(spec):
        pages.append(e2(spec))
        return pages[-1]

    def counting(top, rows, moduli):
        multiplied.append(len(rows))
        return first_map(top, rows, moduli)

    monkeypatch.setattr(spectral, "compute_e2", keep_page)
    monkeypatch.setattr(koszul, "_first_map", counting)
    lifted = products = 0
    for i, spec in enumerate(source_specs(source)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(spec_doc(spec)), encoding="utf-8")
        pages[:], multiplied[:] = [], []
        assert run(JobConfig(input_path=str(path)), stdout=io.StringIO(), stderr=io.StringIO()) == 0
        expected = []
        for cx in set(pages[0].complexes.values()):
            read = any("_lattice" in vars(cell) for cell in cx.cells)
            assert ("boundaries" in vars(cx)) == read, i
            lifted += read
            t = sum(1 for m in cx.aj.moduli if m)
            expected += [0] * ("_f0_diagonal" in vars(cx))
            expected += [] if cx.exact else [t * comb(cx.k, p - 1) for p in range(1, cx.k + 1)]
        assert sorted(multiplied) == sorted(expected), i
        products += sum(multiplied)
    assert (lifted > 0, products > 0) == (source == "families",) * 2


def test_an_exact_free_complex_prints_unit_diagonals_with_no_smith_loop(monkeypatch):
    # d_p of an exact complex of free modules has every invariant factor 1,
    # so --emit-intermediate reads its diagonal off the rank alone, for
    # g = 0, g = 1 and g >= 2
    exact = [(key, fresh_complex(cx), [smith_diagonal(b.matrix) for b in cx.boundaries])
             for source in ("scan", "ladder 7,6")
             for key, cx, _, _ in distinct_complexes(source) if cx.is_free and cx.exact]
    for _, cx, _ in exact:
        cx.cells

    def refuse(*args):
        raise AssertionError("a Smith loop ran")

    for name in ("_diagonal_mod", "_rank_and_minor", "smith_diagonal"):
        monkeypatch.setattr(abelian, name, refuse)
    kinds = set()
    for key, cx, expected in exact:
        assert [cx.diagonal(p) for p in range(1, cx.k + 1)] == expected, key
        kinds.add(min(cx.annihilator, 2))
    assert kinds == {0, 1, 2}


def read_g_0_complexes(monkeypatch):
    # yields each distinct g = 0 complex of the scan, read afresh with no
    # homology call allowed, with the smith_diagonal arguments and the rows
    # of d_p that the first maps multiplied
    taken, products = [], []
    general, first_map = smith_diagonal, koszul._first_map

    def counting(m):
        taken.append(m)
        return general(m)

    def multiplying(top, rows, moduli):
        products.extend(rows)
        return first_map(top, rows, moduli)

    def refuse(*args):
        raise AssertionError("a cell was read through homology")

    monkeypatch.setattr(koszul, "smith_diagonal", counting)
    monkeypatch.setattr(koszul, "_first_map", multiplying)
    monkeypatch.setattr(abelian, "_diagonal_homology", refuse)
    for spec in source_specs("scan"):
        done = set()
        for key, cx in compute_e2(spec).complexes.items():
            if cx.annihilator or id(cx) in done:
                continue
            done.add(id(cx))
            fresh, taken[:], products[:] = fresh_complex(cx), [], []
            fresh.cells
            yield key, cx, fresh, list(taken), list(products)


def test_an_exact_g_0_complex_reads_h0_from_f0_alone(monkeypatch):
    # g = 0 reads every cell off the Smith diagonals of F_0 .. F_k over Z,
    # with no homology call: the six exact g = 0 complexes of the scan read
    # F_0 alone, laid out from the rho rows, and lay out no boundary
    exact = 0
    for key, cx, fresh, taken, _ in read_g_0_complexes(monkeypatch):
        if fresh.exact:
            exact += 1
            assert taken == [fresh._first(0)], key
            assert "boundaries" not in vars(cx) and "boundaries" not in vars(fresh), key
    assert exact == 6


def test_a_free_g_0_complex_takes_the_smith_diagonal_of_f0_once(monkeypatch):
    # a g = 0 complex that is not exact takes k + 1 diagonals, one per F_p,
    # F_0's once; a free one multiplies no rows, as F_p is d_{p+1}, whose
    # diagonal --emit-intermediate prints
    kinds = set()
    for key, _, fresh, taken, products in read_g_0_complexes(monkeypatch):
        if fresh.exact:
            continue
        if fresh.is_free:
            assert products == [], key
            diagonals = [fresh.diagonal(p) for p in range(1, fresh.k + 1)]
            assert diagonals == [smith_diagonal(b.matrix) for b in fresh.boundaries], key
        first = [dense_first_map(fresh.boundary(p + 1), fresh.boundary(p))
                 for p in range(fresh.k + 1)]
        assert taken == first, key
        assert sum(1 for m in taken if m == fresh._first(0)) == 1, key
        kinds.add(fresh.is_free)
    assert kinds == {True, False}


@pytest.mark.parametrize("source", ["scan", "families"])
def test_h0_of_a_g_0_complex_is_the_general_homology_cell(source):
    read = 0
    for key, cx, cells, reference in distinct_complexes(source):
        if cx.annihilator:
            continue
        assert cells[0].group == reference[0] == \
            homology(cx.boundary(1), cx.boundary(0)).group, key
        if not cx.exact:  # the lift's lattice agrees with the group read off F_0
            assert cells[0].lift.cols == cells[0].group.generator_count(), key
            read += 1
    assert read
