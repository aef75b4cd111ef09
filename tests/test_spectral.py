import pathlib
import random
import signal
from itertools import combinations

import pytest

from kktheory import abelian, spectral
from kktheory.abelian import (
    BoundExceeded,
    FgAbGroup,
    GroupHom,
    InfiniteInput,
    IntMatrix,
    free_group,
    homology,
    induced_hom,
    injection_cokernels,
    trivial_group,
    zero_hom,
)
from kktheory.cli import _assembly_json, _render_assembly_lines, load_spec
from kktheory.spectral import (
    CoreConstraints,
    DiagonalAssembly,
    DifferentialEntry,
    DifferentialReport,
    KuPsiResult,
    NoSolution,
    assemble_diagonals,
    compute_e2,
    compute_ku_with_psi,
    compute_mu,
    derive_core_constraints,
    differential_report,
    enumerate_core_solutions,
    run_pipeline,
)

from helpers import (
    abelian_groups_of_order,
    asymmetric_three_vertex_spec,
    complex_of,
    core_table_consistent,
    cyclic_group,
    enumerate_cycle_by_sweep,
    hom_equals,
    identity_hom,
    injective_variants_by_homs,
    ku_psi,
    one_vertex_spec,
    random_valid_spec,
    symmetric_three_vertex_spec,
    transpose,
)

Z2 = cyclic_group(2)


def grid(page, part, k, period):
    return {q: [page.group(part, p, q).describe() for p in range(k + 1)]
            for q in range(period)}


# ---------------------------------------------------------------------------
# E2 pages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_e2_symmetric_three_vertex(n):
    page = compute_e2(symmetric_three_vertex_spec(n))
    real = grid(page, "real", 2, 8)
    z2n = cyclic_group(2 * n).describe()
    zn = cyclic_group(n).describe()
    mixed = FgAbGroup.from_invariants([2, 2 * n]).describe()
    assert real[0] == ["Z_2", "Z_2", "0"]
    assert real[1] == ["Z_2", "Z_2 + Z_2", "Z_2"]
    assert real[2] == [z2n, mixed, "Z_2"]
    assert real[3] == ["0", "0", "0"]
    assert real[4] == ["Z_2", "Z_2", "0"]
    assert real[5] == ["0", "0", "0"]
    assert real[6] == [zn, zn, "0"]
    assert real[7] == ["0", "0", "0"]
    cplx = grid(page, "complex", 2, 2)
    assert cplx[0] == [z2n, z2n, "0"]
    assert cplx[1] == ["0", "0", "0"]


def test_e2_one_vertex_odd_gcd():
    m, n = 4, 4   # gcd(m-1, n-1) = 3
    page = compute_e2(one_vertex_spec(m, n))
    for q in range(0, 8, 2):
        assert page.group("complex", 0, q) == cyclic_group(3)
        assert page.group("complex", 1, q) == cyclic_group(3)
        assert page.group("complex", 2, q).is_trivial
    for (p, q) in [(0, 0), (1, 0), (0, 4), (1, 4)]:
        assert page.group("real", p, q) == cyclic_group(3)
    for q in [1, 2, 3, 5, 6, 7]:
        for p in range(3):
            assert page.group("real", p, q).is_trivial


@pytest.mark.parametrize("n", [2, 4])
def test_e2_asymmetric_even_n_has_degree_six_row(n):
    page = compute_e2(asymmetric_three_vertex_spec(n))
    assert page.group("real", 0, 6) == Z2
    assert page.group("real", 1, 6) == Z2
    assert page.group("real", 2, 6).is_trivial


def test_e2_is_periodic():
    page = compute_e2(symmetric_three_vertex_spec(2))
    for p in range(3):
        for q in range(8):
            assert page.group("real", p, q) == page.group("real", p, q + 8)
            assert page.group("complex", p, q) == page.group("complex", p, q + 2)


def test_e2_vanishes_outside_columns():
    page = compute_e2(symmetric_three_vertex_spec(2))
    for p in (-1, 3, 7):
        assert page.group("real", p, 0).is_trivial
        assert page.group("complex", p, 0).is_trivial


def test_complexes_with_equal_boundaries_are_shared():
    """Two degrees share one complex and its cells exactly when their
    boundaries have the same source and target moduli and matrices."""
    def boundaries(cx):
        return tuple((b.source.moduli, b.target.moduli, b.matrix) for b in cx.boundaries)

    rng = random.Random(31)
    # one_vertex_spec(1, 1) has zero boundaries everywhere, so degrees 0 and 1
    # differ only in their moduli
    specs = [symmetric_three_vertex_spec(2), one_vertex_spec(3, 3), one_vertex_spec(1, 1)]
    specs += [random_valid_spec(rng) for _ in range(6)]
    for spec in specs:
        page = compute_e2(spec)
        for (part, j), cx in page.complexes.items():
            assert boundaries(complex_of(spec, j, part)) == boundaries(cx)
        for (a, cx), (b, cy) in combinations(page.complexes.items(), 2):
            assert (cx is cy) == (boundaries(cx) == boundaries(cy)), (a, b)
            assert (cx is cy) == all(page.cell(a[0], p, a[1]) is page.cell(b[0], p, b[1])
                                     for p in range(spec.k + 1)), (a, b)
        shared = page.complexes
        assert shared[("real", 3)] is shared[("real", 5)] is shared[("real", 7)]


# ---------------------------------------------------------------------------
# Differential report
# ---------------------------------------------------------------------------

def test_report_empty_for_odd_gcd():
    page = compute_e2(one_vertex_spec(4, 4))
    assert differential_report(page).is_empty


def test_report_single_entry_for_even_gcd():
    page = compute_e2(one_vertex_spec(3, 3))
    entries = differential_report(page).entries
    assert len(entries) == 1
    e = entries[0]
    assert (e.r, e.source, e.target, e.part) == (2, (2, 1), (0, 2), "real")


def test_report_covers_higher_differentials():
    # rank 3, one loop of each color: B_i = 0, so every cell is free and
    # every degree-possible d^2 and d^3 must be reported
    from kktheory.kgraph import KGraphSpec
    spec = KGraphSpec.from_lists(3, ["v"], [[[1]], [[1]], [[1]]], [0])
    report = differential_report(compute_e2(spec))
    rs = {e.r for e in report.entries}
    assert rs == {2, 3}
    assert any(e.part == "complex" and e.r == 3 and e.source == (3, 0)
               and e.target == (0, 0) for e in report.entries)


def test_report_symmetric_family_target_group():
    n = 3
    page = compute_e2(symmetric_three_vertex_spec(n))
    entries = differential_report(page).entries
    assert len(entries) == 1
    assert entries[0].source == (2, 1) and entries[0].target == (0, 2)
    assert entries[0].target_group == cyclic_group(2 * n)


# ---------------------------------------------------------------------------
# Diagonal assembly
# ---------------------------------------------------------------------------

def test_diagonals_odd_gcd_all_determined():
    page = compute_e2(one_vertex_spec(4, 4))
    report = differential_report(page)
    asm = assemble_diagonals(page, report, "real")
    expected = {0: cyclic_group(3), 1: cyclic_group(3), 4: cyclic_group(3),
                5: cyclic_group(3)}
    for a in asm:
        assert a.status == "determined"
        assert a.candidates[0] == expected.get(a.q, trivial_group())


def test_diagonal_q1_extension_candidates():
    page = compute_e2(symmetric_three_vertex_spec(3))
    asm = assemble_diagonals(page, differential_report(page), "real")
    q1 = asm[1]
    assert q1.status == "extension_ambiguous"
    assert set(q1.candidates) == {cyclic_group(4), FgAbGroup.from_invariants([2, 2])}


def test_diagonal_variants_even_gcd():
    page = compute_e2(one_vertex_spec(3, 3))
    asm = assemble_diagonals(page, differential_report(page), "real")
    q2 = asm[2]
    assert q2.status == "d2_ambiguous"
    labels = [v.label for v in q2.variants]
    assert labels == ["d2=0", "d2!=0"]
    # d2 != 0 kills the (0,2) cell, leaving the Z_2^2 factor alone
    assert q2.variants[1].candidates == (FgAbGroup.from_invariants([2, 2]),)
    assert FgAbGroup.from_invariants([2, 2, 2]) in q2.variants[0].candidates


def test_single_factor_diagonal_is_determined():
    page = compute_e2(symmetric_three_vertex_spec(2))
    asm = assemble_diagonals(page, differential_report(page), "real")
    q0 = asm[0]
    assert q0.status == "determined" and q0.candidates == (Z2,)


def test_determined_diagonal_order_identity():
    page = compute_e2(one_vertex_spec(4, 4))
    for a in assemble_diagonals(page, differential_report(page), "real"):
        assert a.status == "determined"
        product = 1
        for (_, _, g) in a.factors:
            product *= g.order()
        assert a.candidates[0].order() == product


# ---------------------------------------------------------------------------
# KU and psi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,signs", [(2, [-1, -1, 1, 1, -1, -1, 1, 1]),
                                      (3, [-1, -1, 1, 1, -1, -1, 1, 1])])
def test_ku_psi_symmetric_family(n, signs):
    spec = symmetric_three_vertex_spec(n)
    page = compute_e2(spec)
    result = ku_psi(page)
    assert not result.ambiguous
    assert all(g == cyclic_group(2 * n) for g in result.ku)
    assert [result.psi_scalar(q) for q in range(8)] == signs


def test_ku_psi_one_vertex():
    spec = one_vertex_spec(4, 4)
    page = compute_e2(spec)
    result = ku_psi(page)
    assert all(g == cyclic_group(3) for g in result.ku)
    assert result.psi_scalar(0) == 1 and result.psi_scalar(1) == 1


def test_ku_psi_asymmetric_family():
    for n in (2, 5):
        spec = asymmetric_three_vertex_spec(n)
        page = compute_e2(spec)
        result = ku_psi(page)
        assert all(g == Z2 for g in result.ku)
        assert all(result.psi_scalar(q) == 1 for q in range(8))


# ---------------------------------------------------------------------------
# MU
# ---------------------------------------------------------------------------

def scalar_psi(g, value):
    n = g.ambient_rank
    return GroupHom(g, g, IntMatrix.identity(n).scaled(value))


def test_mu_odd_cyclic_with_trivial_psi():
    g = cyclic_group(9)
    mu = compute_mu([g] * 8, [scalar_psi(g, 1)] * 8)
    assert all(x.is_trivial for x in mu)


def test_mu_cyclic_with_negation():
    g = cyclic_group(6)
    mu = compute_mu([g] * 8, [scalar_psi(g, -1)] * 8)
    assert all(x == Z2 for x in mu)


def test_mu_even_cyclic_with_trivial_psi():
    g = cyclic_group(4)
    mu = compute_mu([g] * 8, [scalar_psi(g, 1)] * 8)
    assert all(x == Z2 for x in mu)


# the benchmark's families, then the five exit-0 scan inputs whose psi is
# printed as a matrix
SHARING = ([(f"one_vertex_{m}_{n}", one_vertex_spec(m, n))
            for m, n in ((4, 4), (6, 4), (6, 6), (3, 5), (5, 5), (7, 7))]
           + [(f"symmetric_{n}", symmetric_three_vertex_spec(n)) for n in (2, 3)]
           + [(f"asymmetric_{n}", asymmetric_three_vertex_spec(n)) for n in (3, 4)]
           + [(f"scan_{k}_{nv}_{seed}", random_valid_spec(random.Random(seed), k, nv))
              for k, nv, seed in ((2, 4, 7), (2, 4, 9), (2, 5, 11), (2, 6, 3), (2, 6, 6))])


@pytest.mark.parametrize("name, spec", SHARING, ids=[name for name, _ in SHARING])
def test_psi_and_the_core_tables_share_their_values(name, spec):
    # psi has period 4: psi_{q+4} is psi_q itself and psi_{q+2} is -psi_q,
    # reduced into [0, d) on a Z_d row; the MO tables hold one Z_2^r per rank
    result = run_pipeline(spec)
    ku, psi = result.kupsi.ku, result.kupsi.psi
    for q in range(4):
        assert psi[q + 4] is psi[q] and ku[q + 4] is ku[q], q
    for q in range(2):
        g, a, b = ku[q], psi[q].matrix, psi[q + 2].matrix
        assert ku[q + 2] is g and psi[q + 2].source is g
        moduli = g.invariant_factors + (0,) * g.free_rank
        for i, d in enumerate(moduli):
            for j in range(len(moduli)):
                assert ((a[i, j] + b[i, j]) % d == 0 and 0 <= b[i, j] < d if d
                        else b[i, j] == -a[i, j]), (q, i, j)
    if name.startswith("scan"):
        assert result.kupsi.psi_scalar(0) is None
    shared = {}
    for table in result.solutions:
        for group in table:
            assert shared.setdefault(group.ambient_rank, group) is group
    assert trivial_group() is trivial_group()


def test_psi_on_a_is_not_built_when_every_ku_group_is_0(monkeypatch):
    # scan input (2, 4, 1): KU = 0 in every degree
    def refuse(partition):
        raise AssertionError("the swap on A was laid out")

    monkeypatch.setattr(spectral, "psi_on_A", refuse)
    page = compute_e2(random_valid_spec(random.Random(1), 2, 4))
    result = ku_psi(page)
    assert not result.ambiguous and all(g.is_trivial for g in result.ku)
    assert all(h.matrix.shape == (0, 0) for h in result.psi)


def test_mu_from_pipeline_is_two_torsion():
    spec = symmetric_three_vertex_spec(4)
    page = compute_e2(spec)
    result = ku_psi(page)
    mu = compute_mu(result.ku, result.psi)
    assert all(x == Z2 for x in mu)


# ---------------------------------------------------------------------------
# Core solver
# ---------------------------------------------------------------------------

def ranks(table):
    return tuple(len(g.invariant_factors) for g in table)


def test_core_solver_one_vertex_even_case():
    mu = [Z2] * 8
    sols = enumerate_core_solutions(mu, CoreConstraints(known_mo={0: 0, 6: 0, 7: 0}))
    assert [ranks(t) for t in sols] == [
        (0, 1, 1, 2, 1, 1, 0, 0),
        (0, 1, 2, 2, 2, 1, 0, 0),
    ]


def test_core_solver_trivial_mu_forces_zero():
    sols = enumerate_core_solutions([trivial_group()] * 8, CoreConstraints())
    assert [ranks(t) for t in sols] == [(0,) * 8]


def test_core_solver_asymmetric_constraints():
    mu = [Z2] * 8
    cons = CoreConstraints(known_mo={0: 1, 1: 1, 2: 1, 5: 1, 6: 1, 7: 0})
    sols = enumerate_core_solutions(mu, cons)
    assert [ranks(t) for t in sols] == [(1, 1, 1, 2, 1, 1, 1, 0)]


def test_core_solver_solutions_pass_independent_recheck():
    mu = [Z2] * 8
    for cons in (CoreConstraints(known_mo={0: 0, 6: 0, 7: 0}),
                 CoreConstraints(known_mo={0: 1, 1: 1, 2: 1, 5: 1, 6: 1, 7: 0})):
        for table in enumerate_core_solutions(mu, cons):
            assert core_table_consistent(list(ranks(table)), [1] * 8)


def test_core_solver_rejects_inconsistent_constraints():
    with pytest.raises(NoSolution):
        enumerate_core_solutions([trivial_group()] * 8,
                                 CoreConstraints(known_mo={0: 1}))


def test_core_solver_validates_mu():
    with pytest.raises(ValueError):
        enumerate_core_solutions([cyclic_group(4)] * 8, CoreConstraints())


def test_derived_constraints_one_vertex_even():
    page = compute_e2(one_vertex_spec(3, 3))
    asm = assemble_diagonals(page, differential_report(page), "real")
    cons = derive_core_constraints(asm)
    assert cons.known_mo == {0: 0, 6: 0, 7: 0}


# ---------------------------------------------------------------------------
# Cross-checks and randomized properties
# ---------------------------------------------------------------------------

def plain_koszul_homology(matrices):
    """Independent complex-part pipeline: builds the boundary blocks straight
    from I - M^t with its own sign bookkeeping, then takes homology of free
    groups.  Cross-checks the block machinery for trivial involutions."""
    k = len(matrices)
    nv = matrices[0].rows
    bs = {i + 1: IntMatrix.identity(nv) - transpose(m)
          for i, m in enumerate(matrices)}
    levels = [list(combinations(range(1, k + 1), p)) for p in range(k + 1)]
    groups = [free_group(nv * len(lv)) for lv in levels]
    boundaries = []
    for p in range(1, k + 1):
        rows_idx = {lam: a for a, lam in enumerate(levels[p - 1])}
        grid = [[IntMatrix.zeros(nv, nv) for _ in levels[p]] for _ in levels[p - 1]]
        for b, mu in enumerate(levels[p]):
            for pos in range(len(mu)):
                lam = tuple(c for t, c in enumerate(mu) if t != pos)
                sign = 1 if pos % 2 == 0 else -1
                grid[rows_idx[lam]][b] = bs[mu[pos]].scaled(sign)
        boundaries.append(GroupHom(groups[p], groups[p - 1], IntMatrix.assemble(grid)))
    out = []
    for p in range(k + 1):
        d_out = boundaries[p - 1] if p >= 1 else zero_hom(groups[0], trivial_group())
        d_in = boundaries[p] if p < k else zero_hom(trivial_group(), groups[k])
        out.append(homology(d_in, d_out).group)
    return out


def test_complex_part_matches_plain_koszul_for_trivial_involution():
    rng = random.Random(1234)
    for _ in range(8):
        spec = random_valid_spec(rng)
        trivial = spec.__class__(k=spec.k, vertices=spec.vertices,
                                 matrices=spec.matrices,
                                 involution=tuple(range(spec.vertex_count)))
        page = compute_e2(trivial)
        expected = plain_koszul_homology(list(trivial.matrices))
        for p in range(trivial.k + 1):
            assert page.group("complex", p, 0) == expected[p]


def test_random_pages_are_periodic_and_square_zero():
    rng = random.Random(321)
    for _ in range(8):
        spec = random_valid_spec(rng)
        page = compute_e2(spec)    # homology verifies square-zero
        for p in range(spec.k + 1):
            for q in range(8):
                assert page.group("real", p, q) == page.group("real", p, q + 8)
                assert page.group("complex", p, q) == page.group("complex", p, q + 2)


def test_all_zero_page_builds_no_kernel_lattice(monkeypatch):
    """Input S (k = 4, six vertices, trivial involution): every middle group is
    free or an F_2-space, so the page is read from Smith diagonals alone."""
    rng = random.Random(1)
    spec = [random_valid_spec(rng, k=k, nv=nv)
            for k, nv in [(2, 4), (3, 4), (3, 6), (4, 4), (4, 6)]][-1]
    assert (spec.k, spec.vertex_count) == (4, 6)
    assert spec.involution == tuple(range(6))

    def refuse(h):
        raise AssertionError("a kernel lattice was built")

    monkeypatch.setattr(abelian, "kernel_lattice", refuse)
    page = compute_e2(spec)
    assert all(cell.group.is_trivial for cx in page.complexes.values() for cell in cx.cells)
    report = differential_report(page)
    assert report.is_empty
    for part in ("real", "complex"):
        for asm in assemble_diagonals(page, report, part):
            assert asm.status == "determined"
            assert asm.candidates[0].is_trivial


def test_a_kernel_lattice_is_decomposed_once(monkeypatch):
    """Once a cell's kernel lattice is built, expressing elements, inducing
    maps and psi all solve against the decomposition it keeps."""
    sample = load_spec(str(pathlib.Path(__file__).parent.parent / "sample_inputs" /
                           "three_vertex_symmetric_n2.json"))
    page = compute_e2(sample)
    report = differential_report(page)
    ku_cells = [page.cell("complex", p, q - p) for q in (0, 1) for p in range(page.k + 1)
                if not page.group("complex", p, q - p).is_trivial]
    assert ku_cells
    for cell in ku_cells:
        cell.lift  # builds the kernel lattice

    def refuse(*args, **kwargs):
        raise AssertionError("a Smith form was computed")

    monkeypatch.setattr(abelian, "smith_normal_form", refuse)
    for cell in ku_cells:
        n = cell.lift.cols
        assert [cell.express(cell.lift.col(i)) for i in range(n)] == \
            [tuple(int(j == i) for j in range(n)) for i in range(n)]
        assert hom_equals(induced_hom(identity_hom(cell.middle), cell, cell),
                          identity_hom(cell.group))
    result = compute_ku_with_psi(page, assemble_diagonals(page, report, "complex"))
    assert all(g == cyclic_group(4) for g in result.ku)
    assert [result.psi_scalar(q) for q in range(8)] == [-1, -1, 1, 1, -1, -1, 1, 1]


def test_ambiguous_complex_part_is_flagged():
    # a singular matrix puts a nonzero group in column p = 2 of the complex
    # part, so the q = 0 diagonal has two candidate factors
    from kktheory.kgraph import KGraphSpec
    m = [[2, 1], [1, 2]]
    spec = KGraphSpec.from_lists(2, ["a", "b"], [m, m], [0, 1])
    page = compute_e2(spec)
    assert not page.group("complex", 2, 0).is_trivial
    # the factors are infinite, so assemble_diagonals refuses to fold them
    # (the pipeline stops there); KU is handed their classification alone
    with pytest.raises(InfiniteInput):
        assemble_diagonals(page, differential_report(page), "complex")
    cplx = []
    for q in (0, 1):
        factors = tuple((p, (q - p) % 2, page.group("complex", p, q - p)) for p in range(3))
        nonzero = sum(1 for _, _, g in factors if not g.is_trivial)
        cplx.append(DiagonalAssembly("complex", q, factors, "extension_ambiguous"
                                     if nonzero > 1 else "determined", (), None))
    result = compute_ku_with_psi(page, cplx)
    assert result.ambiguous
    assert result.reason == "complex diagonal q=0 has 2 nonzero factors"
    assert result.ku is None


def test_a_complex_differential_leaves_ku_ambiguous():
    # scan input (4, 4, 3): d3 may map the complex cell (3, 0) onto (0, 2),
    # so both complex diagonals carry d3 variants
    page = compute_e2(random_valid_spec(random.Random(3), 4, 4))
    report = differential_report(page)
    assert [(e.r, e.source, e.target) for e in report.entries if e.part == "complex"] == \
        [(3, (3, 0), (0, 0))]
    cplx = assemble_diagonals(page, report, "complex")
    assert [asm.status for asm in cplx] == ["d2_ambiguous"] * 2
    assert compute_ku_with_psi(page, cplx) == KuPsiResult(
        True, "possible nonzero differential in the complex part", None, None)


def test_e2_groups_are_relabeling_invariant():
    from kktheory.abelian import IntMatrix
    from kktheory.kgraph import KGraphSpec
    rng = random.Random(77)
    for _ in range(5):
        spec = random_valid_spec(rng, nv=4)
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
        page1 = compute_e2(spec)
        page2 = compute_e2(relabeled)
        for part, period in (("real", 8), ("complex", 2)):
            for p in range(spec.k + 1):
                for q in range(period):
                    assert page1.group(part, p, q) == page2.group(part, p, q)


def test_core_solver_bound_exceeded():
    from kktheory.abelian import BoundExceeded
    with pytest.raises(BoundExceeded):
        enumerate_core_solutions([Z2] * 8, CoreConstraints(known_mo={0: 9}),
                                 rank_bound=8)


def test_pipeline_core_bundle():
    result = run_pipeline(one_vertex_spec(3, 3))
    assert all(g == cyclic_group(2) for g in result.kupsi.ku)
    assert all(g == Z2 for g in result.mu)
    assert result.constraints.known_mo == {0: 0, 6: 0, 7: 0}
    assert len(result.solutions) == 2


def test_core_solver_handles_rank_two_mu():
    mu = [FgAbGroup.from_invariants([2, 2])] * 8
    sols = enumerate_core_solutions(mu, CoreConstraints(), rank_bound=4)
    assert (0,) * 8 not in [ranks(t) for t in sols]  # zero MO forces MU = 0
    for table in sols:
        assert core_table_consistent(list(ranks(table)), [2] * 8)


def test_larger_torsion_families():
    n = 7
    spec = symmetric_three_vertex_spec(n)
    page = compute_e2(spec)
    result = ku_psi(page)
    assert all(g == cyclic_group(2 * n) for g in result.ku)
    assert all(x == Z2 for x in compute_mu(result.ku, result.psi))
    spec = asymmetric_three_vertex_spec(n)
    page = compute_e2(spec)
    assert page.group("real", 0, 6).is_trivial      # odd n kills the q=6 row
    result = ku_psi(page)
    assert all(g == Z2 for g in result.ku)


def test_pipeline_skips_the_core_when_ku_ambiguous():
    # the complex q=0 diagonal has two nonzero factors, all of them finite,
    # so both assemblies finish and only KU is left open
    from kktheory.kgraph import KGraphSpec
    spec = KGraphSpec.from_lists(3, ["a", "b"], [[[5, 0], [0, 5]], [[3, 0], [0, 3]],
                                                 [[3, 0], [0, 3]]], [1, 0])
    result = run_pipeline(spec)
    assert result.kupsi.ambiguous
    assert result.mu is None and result.constraints is None and result.solutions is None


# ---------------------------------------------------------------------------
# Combinatorial answers against the brute-force enumerators
# ---------------------------------------------------------------------------

def test_injective_variants_match_the_hom_enumeration_oracle():
    """``injection_cokernels`` against every hom, on every pair of groups
    A, B with |A|, |B| <= 16 or |A| |B| <= 64 (about 4 s): the same set,
    sorted by invariant factors.  Hom order is that order except on
    Z_2 -> Z_4 + Z_8."""
    groups = {n: abelian_groups_of_order(n) for n in range(1, 65)}
    pairs = [(source, target) for a in range(1, 65) for b in range(1, 65)
             if max(a, b) <= 16 or a * b <= 64
             for source in groups[a] for target in groups[b]]
    multi = reordered = 0
    for source, target in pairs:
        found = injection_cokernels(source, target)
        by_homs = injective_variants_by_homs(source, target)
        assert found == sorted(by_homs, key=lambda g: g.invariant_factors), (source, target)
        multi += len(found) > 1
        reordered += found != by_homs
    assert (len(pairs), multi, reordered) == (883, 11, 1)


def test_injective_variants_refuse_a_target_above_the_bound(monkeypatch):
    # the checks run in order, infinite cell, then no injection, then the
    # bound, all before any Littlewood-Richardson shape is read
    z2z4 = FgAbGroup.from_invariants([2, 4])
    assert injection_cokernels(Z2, z2z4, 8) == [FgAbGroup.from_invariants([2, 2]), cyclic_group(4)]

    def refuse(mu, nu):
        raise AssertionError("LR shapes were read")

    monkeypatch.setattr(abelian, "_lr_shapes", refuse)
    with pytest.raises(BoundExceeded, match=r"^order 8 exceeds bound 7$"):
        injection_cokernels(Z2, z2z4, 7)
    with pytest.raises(BoundExceeded, match=r"^order 131072 exceeds bound 65536$"):
        injection_cokernels(Z2, FgAbGroup.from_invariants([2] * 17))
    assert injection_cokernels(Z2, cyclic_group(3), 1) == []
    with pytest.raises(InfiniteInput):
        injection_cokernels(free_group(1), cyclic_group(3), 1)


class _FactorPage:
    """Just the part of an E2 page that diagonal assembly reads."""

    def __init__(self, k, groups):
        self.k = k
        self.groups = groups

    def group(self, part, p, q):
        return self.groups.get((p, q % 8), trivial_group())


def test_variant_labels_name_the_differential_page():
    # scan input (3, 5, 7): KO_5 is touched only by d3: (3,2) -> (0,4), and
    # KO_4 by a d2 and by that d3
    result = run_pipeline(random_valid_spec(random.Random(7), k=3, nv=5))
    assert [(e.r, e.source, e.target) for e in result.report.touching("real", 5)] == \
        [(3, (3, 2), (0, 4))]
    assert [v.label for v in result.real[5].variants] == ["d3=0", "d3!=0"]
    assert [v.label for v in result.real[4].variants] == [
        "d2=0, d3=0", "d2=0, d3!=0", "d2!=0, d3=0", "d2!=0, d3!=0"]


def test_injective_variant_labels_follow_sorted_cokernels():
    z2z4 = FgAbGroup.from_invariants([2, 4])
    z2z2 = FgAbGroup.from_invariants([2, 2])
    assert injection_cokernels(Z2, z2z4) == [z2z2, cyclic_group(4)]
    page = _FactorPage(2, {(2, 1): Z2, (0, 2): z2z4})
    entry = DifferentialEntry(r=2, source=(2, 1), target=(0, 2), part="real",
                              source_group=Z2, target_group=z2z4)
    asm = assemble_diagonals(page, DifferentialReport((entry,)), "real")[2]
    assert asm.status == "d2_ambiguous"
    assert [(v.label, v.factors[0][2]) for v in asm.variants] == [
        ("d2=0", z2z4), ("d2!=0 (1)", z2z2), ("d2!=0 (2)", cyclic_group(4))]
    lines = _render_assembly_lines("KO", [_assembly_json(asm)])
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "d2=0", "d2!=0 (1)", "d2!=0 (2)"]


def _random_core_constraints(rng, table=None):
    """Known ranks and rank bounds on random terms, read off ``table`` when
    one is given (bounds then sit within 1 of the table's ranks)."""
    cons = CoreConstraints()
    for q in range(8):
        roll = rng.random()
        if roll < 0.25:
            cons.known_mo[q] = rng.randint(0, 3) if table is None else table[q]
        elif roll < 0.5:
            cons.mo_bounds[q] = (rng.randint(0, 4) if table is None
                                 else max(0, table[q] + rng.randint(-1, 1)))
    return cons


def _core_tables_by_sweep(mu, bound, cons):
    return sorted(mo for mo in enumerate_cycle_by_sweep(0, mu, bound, cons)
                  if core_table_consistent(list(mo), mu))


def test_core_search_matches_the_full_sweep():
    """The sweep of one cycle, each table rechecked over both cycles, is the
    oracle; NoSolution is raised exactly when it finds nothing.  MU repeats
    with period 4 in every other case, as ``compute_mu`` returns it, and
    those cases draw their constraints from a table the unconstrained search
    finds, so that most of them have a solution."""
    rng = random.Random(3)
    solved = 0
    for trial in range(30):
        mu = [rng.randint(0, 3) for _ in range(4 if trial % 2 else 8)]
        mu = (mu * 2)[:8]
        bound = rng.randint(2, 5)
        groups = [FgAbGroup.from_invariants([2] * r) for r in mu]
        table = None
        if trial % 2:
            try:
                table = ranks(rng.choice(enumerate_core_solutions(groups, None, bound)))
            except NoSolution:
                pass
        cons = _random_core_constraints(rng, table)
        if any(rank > bound for rank in cons.known_mo.values()):
            with pytest.raises(BoundExceeded):
                enumerate_core_solutions(groups, cons, bound)
            continue
        expected = _core_tables_by_sweep(mu, bound, cons)
        if expected:
            solved += 1
            assert [ranks(t) for t in enumerate_core_solutions(groups, cons, bound)] \
                == expected, (trial, mu, bound, cons)
        else:
            with pytest.raises(NoSolution):
                enumerate_core_solutions(groups, cons, bound)
    assert solved >= 10


def test_core_search_tells_a_truncated_search_from_no_solution():
    """Every table has MO_m <= mu_{m-1} + mu_{m+2}, so the sweep at the
    largest of these bounds is the sweep without a rank bound.  A search
    that finds nothing raises NoSolution exactly when that sweep is empty,
    and BoundExceeded, naming the least bound that admits a table,
    otherwise."""
    rng = random.Random(11)
    outcomes = set()
    for trial in range(30):
        mu = [rng.randint(0, 2) for _ in range(4)] * 2
        bound = rng.randint(0, 3)
        cons = _random_core_constraints(rng) if trial % 2 else CoreConstraints()
        if any(rank > bound for rank in cons.known_mo.values()):
            continue
        groups = [FgAbGroup.from_invariants([2] * r) for r in mu]
        expected = _core_tables_by_sweep(mu, bound, cons)
        if expected:
            outcomes.add("solved")
            assert [ranks(t) for t in enumerate_core_solutions(groups, cons, bound)] \
                == expected, (trial, mu, bound, cons)
            continue
        wide = _core_tables_by_sweep(
            mu, max(mu[m - 1] + mu[(m + 2) % 8] for m in range(8)), cons)
        if wide:
            outcomes.add("bound")
            least = min(max(table) for table in wide)
            with pytest.raises(BoundExceeded, match=f"least bound that admits one is {least}$"):
                enumerate_core_solutions(groups, cons, bound)
            assert enumerate_core_solutions(groups, cons, least)
        else:
            outcomes.add("none")
            with pytest.raises(NoSolution):
                enumerate_core_solutions(groups, cons, bound)
    assert outcomes == {"solved", "bound", "none"}


def test_a_bound_that_cuts_every_table_runs_the_core_search_once(monkeypatch):
    # MU_q = Z_2 for every q: each table has some MO of rank 1, so bound 0
    # cuts all of them, and the one search names the least bound
    calls = []
    search = spectral._core_tables
    monkeypatch.setattr(spectral, "_core_tables", lambda *args: calls.append(args) or search(*args))
    with pytest.raises(BoundExceeded, match="least bound that admits one is 1$"):
        enumerate_core_solutions([Z2] * 8, CoreConstraints(), rank_bound=0)
    assert len(calls) == 1


def test_core_rank_bound_only_filters():
    """Every loop of the search runs over MU ranks, so a huge rank bound
    finds the same tables as a small one, at no extra cost."""
    def too_slow(signum, frame):
        raise TimeoutError("the core search grows with the rank bound")

    mu = [FgAbGroup.from_invariants([2, 2])] * 8
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        small = enumerate_core_solutions(mu, CoreConstraints(), rank_bound=8)
        huge = enumerate_core_solutions(mu, CoreConstraints(), rank_bound=10**9)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(small) == 366 and huge == small
    for table in small:
        assert core_table_consistent(list(ranks(table)), [2] * 8)
