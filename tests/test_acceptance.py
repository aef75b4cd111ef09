"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or ``pytest -v`` for the pass/fail listing.

Criterion 1 classifies each one-vertex pair (m, n) by the parity of
g = gcd(m - 1, n - 1) and checks it against the pattern that parity calls
for. (3, 5) has g = gcd(2, 4) = 2, so it is checked against the even-g answer
that criterion 2 asserts on (3, 3), not against the odd-g one.
"""

import dataclasses
import random
from math import gcd

import pytest

from kktheory.abelian import (
    FgAbGroup,
    IntMatrix,
    smith_normal_form,
    trivial_group,
)
from kktheory.kgraph import validate
from kktheory.spectral import (
    CoreConstraints,
    assemble_diagonals,
    compute_e2,
    compute_mu,
    differential_report,
    enumerate_core_solutions,
)

from helpers import (
    CrBlockTables,
    asymmetric_three_vertex_spec,
    check_cr_relations,
    complex_block_table,
    complexification_degree0,
    cyclic_group,
    determinant,
    from_rows,
    ku_psi,
    one_vertex_spec,
    oracle_homology_invariants,
    random_finite_complex,
    random_valid_spec,
    real_block_table,
    rho_of,
    snf_d,
    standard_tables,
    symmetric_three_vertex_spec,
    transpose,
)

Z2 = cyclic_group(2)
Z2Z2 = FgAbGroup.from_invariants([2, 2])


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def real_grid(page, k=2):
    return {q: [page.group("real", p, q) for p in range(k + 1)] for q in range(8)}


def assert_even_g_pattern(page, g, where):
    """Assert the g-generic answer for a one-vertex 2-graph with g even.

    Rows q=0 and q=4 of the real E2 page are ``[Z_g, Z_g, 0]``, rows q=1 and
    q=2 are ``[Z_2, Z_2+Z_2, Z_2]`` and every other row is 0; the report holds
    the single degree-possible d2 from (2,1) to (0,2), and the q=2 diagonal
    carries both of its outcomes. ``where`` prefixes every failure message.
    """
    zg = cyclic_group(g)
    expected = {
        0: [zg, zg, trivial_group()],
        1: [Z2, Z2Z2, Z2],
        2: [Z2, Z2Z2, Z2],
        4: [zg, zg, trivial_group()],
    }
    grid = real_grid(page)
    for q in range(8):
        want = expected.get(q, [trivial_group()] * 3)
        assert grid[q] == want, \
            f"{where}: row q={q}: {[x.describe() for x in grid[q]]}"

    report = differential_report(page)
    assert len(report.entries) == 1, f"{where}: expected one differential entry"
    entry = report.entries[0]
    assert (entry.r, entry.source, entry.target, entry.part) == \
        (2, (2, 1), (0, 2), "real"), f"{where}: wrong differential entry"

    asm = assemble_diagonals(page, report, "real")
    q2 = asm[2]
    assert q2.status == "d2_ambiguous", f"{where}: q=2 must be d2_ambiguous"
    assert [v.label for v in q2.variants] == ["d2=0", "d2!=0"], \
        f"{where}: q=2 d2 variants"


# ---------------------------------------------------------------------------
# 1. one-vertex family, classified by the parity of g
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(4, 4), (3, 5), (6, 4)])
def test_criterion_1_one_vertex_odd_gcd(m, n):
    # (4, 4) and (6, 4) have odd g (3 and 1) and are checked against the odd-g
    # pattern; (3, 5) has g = gcd(2, 4) = 2 and is checked against the even-g
    # answer of criterion 2.
    g = gcd(m - 1, n - 1)
    zg = cyclic_group(g)
    parity = "odd" if g % 2 else "even"
    where = f"(m,n)=({m},{n}): g={g} {parity}"
    spec = one_vertex_spec(m, n)
    page = compute_e2(spec)
    result = ku_psi(page)
    assert not result.ambiguous, f"{where}: KU must not be ambiguous"
    assert all(group == zg for group in result.ku), \
        f"{where}: KU_q must equal {zg.describe()}"
    if parity == "even":
        assert_even_g_pattern(page, g, where)
        detail = ("even grid, single (2,1)->(0,2) differential, both d2 "
                  "variants on q=2")
    else:
        report = differential_report(page)
        assert report.is_empty, f"{where}: odd-g differential report must be empty"
        asm = assemble_diagonals(page, report, "real")
        pattern = [zg, zg, trivial_group(), trivial_group(),
                   zg, zg, trivial_group(), trivial_group()]
        for q in range(8):
            assert asm[q].status == "determined", f"{where}: KO_{q} not determined"
            assert asm[q].candidates[0] == pattern[q], \
                f"{where}: KO_{q} mismatch against the odd-g pattern"
        detail = "KO pattern matches, empty differential report"
    _passed(1, f"{where}, {parity}-g pattern holds: KU_q = {zg.describe()}, {detail}")


# ---------------------------------------------------------------------------
# 2. one-vertex family, even gcd
# ---------------------------------------------------------------------------

def test_criterion_2_one_vertex_even_gcd():
    m = n = 3
    g = gcd(m - 1, n - 1)
    assert g == 2
    spec = one_vertex_spec(m, n)
    page = compute_e2(spec)
    assert_even_g_pattern(page, g, f"(m,n)=({m},{n}): g={g} even")

    sols = enumerate_core_solutions([Z2] * 8,
                                    CoreConstraints(known_mo={0: 0, 6: 0, 7: 0}))
    tables = [tuple(g.invariant_factors for g in table) for table in sols]
    assert tables == [
        ((), (2,), (2,), (2, 2), (2,), (2,), (), ()),
        ((), (2,), (2, 2), (2, 2), (2, 2), (2,), (), ()),
    ]
    _passed(2, "(3,3): even grid, single (2,1)->(0,2) differential, both "
               "d2 variants on q=2, exactly the two MO tables")


# ---------------------------------------------------------------------------
# 3. symmetric 3-vertex family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5])
def test_criterion_3_symmetric_family(n):
    spec = symmetric_three_vertex_spec(n)
    b = IntMatrix.identity(3) - transpose(spec.matrices[0])
    assert smith_normal_form(b).diagonal == (1, 1, 2 * n)

    page = compute_e2(spec)
    z2n = cyclic_group(2 * n)
    zn = cyclic_group(n)
    expected = {
        0: [Z2, Z2, trivial_group()],
        1: [Z2, Z2Z2, Z2],
        2: [z2n, FgAbGroup.from_invariants([2, 2 * n]), Z2],
        4: [Z2, Z2, trivial_group()],
        6: [zn, zn, trivial_group()],
    }
    grid = real_grid(page)
    for q in range(8):
        want = expected.get(q, [trivial_group()] * 3)
        assert grid[q] == want, f"row q={q}"

    result = ku_psi(page)
    assert all(group == z2n for group in result.ku)
    assert [result.psi_scalar(q) for q in range(8)] == [-1, -1, 1, 1, -1, -1, 1, 1]

    mu = compute_mu(result.ku, result.psi)
    assert all(x == Z2 for x in mu)

    asm = assemble_diagonals(page, differential_report(page), "real")
    assert asm[1].status == "extension_ambiguous"
    assert set(asm[1].candidates) == {cyclic_group(4), Z2Z2}
    _passed(3, f"n={n}: SNF diag (1,1,{2 * n}), E2 grid, KU=Z_{2 * n} with the "
               "psi sign pattern, MU=Z_2, q=1 candidates {Z_4, Z_2+Z_2}")


# ---------------------------------------------------------------------------
# 4. asymmetric 3-vertex family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_4_asymmetric_family(n):
    spec = asymmetric_three_vertex_spec(n)
    page = compute_e2(spec)

    for q in (0, 2, 4, 6):
        assert page.group("complex", 0, q) == Z2
        assert page.group("complex", 1, q) == Z2
        assert page.group("complex", 2, q).is_trivial
    for q in (1, 3, 5, 7):
        for p in range(3):
            assert page.group("complex", p, q).is_trivial

    expected = {
        0: [Z2, Z2, trivial_group()],
        1: [Z2, Z2Z2, Z2],
        2: [Z2, Z2Z2, Z2],
        4: [Z2, Z2, trivial_group()],
    }
    if n % 2 == 0:
        expected[6] = [Z2, Z2, trivial_group()]
    grid = real_grid(page)
    for q in range(8):
        want = expected.get(q, [trivial_group()] * 3)
        assert grid[q] == want, f"row q={q} for n={n}"

    result = ku_psi(page)
    assert all(group == Z2 for group in result.ku)
    assert all(result.psi_scalar(q) == 1 for q in range(8))
    mu = compute_mu(result.ku, result.psi)
    assert all(x == Z2 for x in mu)

    if n % 2 == 0:
        # facts pinned before the core sequence is consulted: the outer MO
        # values forced by the determined KO groups and the eta computations
        cons = CoreConstraints(known_mo={0: 1, 1: 1, 2: 1, 5: 1, 6: 1, 7: 0})
        sols = enumerate_core_solutions(mu, cons)
        displayed = (Z2, Z2, Z2, Z2Z2, Z2, Z2, Z2, trivial_group())
        assert displayed in [tuple(t) for t in sols]
        _passed(4, f"n={n}: complex/real grids, psi=1, MU=Z_2, core solution "
                   "set contains the displayed MO table")
    else:
        _passed(4, f"n={n}: complex and odd-n real grids, psi=1, MU=Z_2")


# ---------------------------------------------------------------------------
# 5. SNF property suite
# ---------------------------------------------------------------------------

def test_criterion_5_snf_property_suite():
    rng = random.Random(0xC0FFEE)
    for trial in range(500):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = IntMatrix(rows, cols, [[rng.randint(-20, 20) for _ in range(cols)]
                                   for _ in range(rows)])
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == snf_d(s), f"trial {trial}: u m v != d"
        assert abs(determinant(s.u)) == 1, f"trial {trial}: u not unimodular"
        assert abs(determinant(s.v)) == 1, f"trial {trial}: v not unimodular"
        diag = s.diagonal
        assert all(e >= 0 for e in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0, f"trial {trial}: chain broken"
    _passed(5, "500 random matrices: u m v = d, unimodular transforms, "
               "divisibility chain")


# ---------------------------------------------------------------------------
# 6. homology vs element-enumeration oracle
# ---------------------------------------------------------------------------

def test_criterion_6_homology_oracle_equivalence():
    from kktheory.abelian import homology
    rng = random.Random(0xFEED)
    for trial in range(100):
        f_hom, g_hom, (f_cols, mods_b, g_rows, mods_c) = random_finite_complex(rng)
        result = homology(f_hom, g_hom)
        f_matrix = [[col[i] for col in f_cols] for i in range(len(mods_b))]
        expected = oracle_homology_invariants(f_matrix, mods_b, g_rows, mods_c)
        assert result.group.invariant_factors == expected, f"trial {trial}"
        assert result.group.free_rank == 0
    _passed(6, "100 random finite complexes: Smith-form homology equals "
               "element-enumeration homology")


# ---------------------------------------------------------------------------
# 7. square-zero and periodicity over random specs
# ---------------------------------------------------------------------------

def test_criterion_7_square_zero_suite():
    rng = random.Random(0xBEEF)
    for trial in range(50):
        spec = random_valid_spec(rng)   # k <= 4, |V| <= 4
        assert spec.k <= 4 and spec.vertex_count <= 4
        page = compute_e2(spec)         # raises CompositionNotZero on failure
        for p in range(spec.k + 1):
            for q in range(8):
                assert page.group("real", p, q) == page.group("real", p, q + 8)
            for q in range(2):
                assert page.group("complex", p, q) == page.group("complex", p, q + 2)
    _passed(7, "50 random specs (k <= 4, |V| <= 4): boundaries square to zero "
               "and pages are 8/2-periodic")


# ---------------------------------------------------------------------------
# 8. CR relation suite
# ---------------------------------------------------------------------------

def _with_entry(table, field, degree, matrix):
    mats = list(getattr(table, field))
    mats[degree] = matrix
    return dataclasses.replace(table, **{field: tuple(mats)})


def test_criterion_8_cr_relations():
    assert check_cr_relations(standard_tables()).all_passed
    corruptions = [
        ("R", "c", 0, [[2]]),
        ("R", "r", 0, [[1]]),
        ("R", "psi", 0, [[-1]]),
        ("R", "psi", 2, [[1]]),
        ("R", "c", 4, [[1]]),
        ("R", "r", 4, [[3]]),
        ("C", "psi", 0, [[1, 1], [1, 0]]),
        ("C", "c", 2, [[1], [1]]),
    ]
    assert len(corruptions) == 8
    for block, field, degree, rows in corruptions:
        real, cplx = real_block_table(), complex_block_table()
        bad = from_rows(rows)
        if block == "R":
            real = _with_entry(real, field, degree, bad)
        else:
            cplx = _with_entry(cplx, field, degree, bad)
        report = check_cr_relations(CrBlockTables(real, cplx))
        assert not report.all_passed, f"corruption {(block, field, degree)} undetected"
    _passed(8, "block tables satisfy all relations; each of 8 single-entry "
               "corruptions is detected")


# ---------------------------------------------------------------------------
# 9. degree-0 complexification naturality
# ---------------------------------------------------------------------------

def test_criterion_9_complexification_naturality():
    rng = random.Random(0xABCD)
    for trial in range(50):
        spec = random_valid_spec(rng)
        part = validate(spec)
        c = complexification_degree0(part)
        for color in range(1, spec.k + 1):
            rho = rho_of(spec, color, part)
            lhs = rho.hom("complex", 0).matrix @ c
            rhs = c @ rho.hom("real", 0).matrix
            assert lhs == rhs, f"trial {trial}, color {color}"
    _passed(9, "50 random specs, every color: complex rho o c == c o real rho "
               "exactly in degree 0")
