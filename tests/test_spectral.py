import random
from itertools import combinations

import pytest

from kktheory import abelian
from kktheory.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    abelian_groups_of_order,
    cyclic_group,
    free_group,
    homology,
    smith_normal_form,
    trivial_group,
    zero_hom,
)
from kktheory.cli import _assembly_json, _render_assembly_lines
from kktheory.spectral import (
    CoreConstraints,
    DifferentialEntry,
    DifferentialReport,
    NoSolution,
    _enumerate_cycle,
    _injective_variants,
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
    asymmetric_three_vertex_spec,
    core_table_consistent,
    enumerate_cycle_by_sweep,
    injective_variants_by_homs,
    one_vertex_spec,
    random_valid_spec,
    symmetric_three_vertex_spec,
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
    result = compute_ku_with_psi(page, differential_report(page))
    assert not result.ambiguous
    assert all(g == cyclic_group(2 * n) for g in result.ku)
    assert [result.psi_scalar(q) for q in range(8)] == signs


def test_ku_psi_one_vertex():
    spec = one_vertex_spec(4, 4)
    page = compute_e2(spec)
    result = compute_ku_with_psi(page, differential_report(page))
    assert all(g == cyclic_group(3) for g in result.ku)
    assert result.psi_scalar(0) == 1 and result.psi_scalar(1) == 1


def test_ku_psi_asymmetric_family():
    for n in (2, 5):
        spec = asymmetric_three_vertex_spec(n)
        page = compute_e2(spec)
        result = compute_ku_with_psi(page, differential_report(page))
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


def test_mu_from_pipeline_is_two_torsion():
    spec = symmetric_three_vertex_spec(4)
    page = compute_e2(spec)
    result = compute_ku_with_psi(page, differential_report(page))
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
    bs = {i + 1: IntMatrix.identity(nv) - m.transpose()
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
    assert all(cell.group.is_trivial for cell in page.cells.values())
    report = differential_report(page)
    assert report.is_empty
    for part in ("real", "complex"):
        for asm in assemble_diagonals(page, report, part):
            assert asm.status == "determined"
            assert asm.candidates[0].is_trivial


def test_ambiguous_complex_part_is_flagged():
    # a singular matrix puts a nonzero group in column p = 2 of the complex
    # part, so the q = 0 diagonal has two candidate factors
    from kktheory.kgraph import KGraphSpec
    m = [[2, 1], [1, 2]]
    spec = KGraphSpec.from_lists(2, ["a", "b"], [m, m], [0, 1])
    page = compute_e2(spec)
    assert not page.group("complex", 2, 0).is_trivial
    result = compute_ku_with_psi(page, differential_report(page))
    assert result.ambiguous
    assert result.ku is None


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
    result = compute_ku_with_psi(page, differential_report(page))
    assert all(g == cyclic_group(2 * n) for g in result.ku)
    assert all(x == Z2 for x in compute_mu(result.ku, result.psi))
    spec = asymmetric_three_vertex_spec(n)
    page = compute_e2(spec)
    assert page.group("real", 0, 6).is_trivial      # odd n kills the q=6 row
    result = compute_ku_with_psi(page, differential_report(page))
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
    """Set and order, on every pair of groups of order <= 16."""
    groups = [g for n in range(1, 17) for g in abelian_groups_of_order(n)]
    multi = 0
    for target in groups:
        for source in groups:
            found = _injective_variants(source, target)
            assert found == injective_variants_by_homs(source, target), (source, target)
            multi += len(found) > 1
            smith_normal_form.cache_clear()  # the oracle leaves one entry per hom
    assert multi == 5


class _FactorPage:
    """Just the part of an E2 page that diagonal assembly reads."""

    def __init__(self, k, groups):
        self.k = k
        self.groups = groups

    def group(self, part, p, q):
        return self.groups.get((p, q % 8), trivial_group())


def test_injective_variant_labels_follow_sorted_cokernels():
    z2z4 = FgAbGroup.from_invariants([2, 4])
    z2z2 = FgAbGroup.from_invariants([2, 2])
    assert _injective_variants(Z2, z2z4) == [z2z2, cyclic_group(4)]
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


def _random_core_constraints(rng):
    cons = CoreConstraints()
    for q in range(8):
        roll = rng.random()
        if roll < 0.25:
            cons.known_mo[q] = rng.randint(0, 3)
        elif roll < 0.5:
            cons.mo_bounds[q] = rng.randint(0, 4)
    for _ in range(rng.randint(0, 3)):
        arrow = (rng.choice(["eta", "c", "r"]), rng.randrange(8))
        cons.arrows[arrow] = rng.choice(["zero", "injective", "surjective"])
    return cons


def test_pruned_core_search_matches_the_full_sweep():
    """Same MO vectors with the same eta-rank sets, for both cycles."""
    rng = random.Random(11)
    bounds = [3, 4] * 10 + [8]
    for trial, bound in enumerate(bounds):
        mu = [rng.randint(0, 2) for _ in range(8)]
        cons = _random_core_constraints(rng)
        for start in (0, 1):
            fast = _enumerate_cycle(start, mu, bound, cons)
            slow = enumerate_cycle_by_sweep(start, mu, bound, cons)
            assert {key: sorted(sorted(e.items()) for e in etas) for key, etas in fast.items()} \
                == {key: sorted(sorted(e.items()) for e in etas) for key, etas in slow.items()}, \
                (trial, start, mu, bound, cons)
