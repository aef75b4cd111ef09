import random
from itertools import product as cartesian

import pytest

from kktheory.abelian import (
    BoundExceeded,
    CompositionNotZero,
    FgAbGroup,
    GroupHom,
    InfiniteInput,
    HomologyResult,
    IntMatrix,
    NotChainMap,
    NotWellDefined,
    extension_candidates,
    free_group,
    homology,
    induced_hom,
    kernel_lattice,
    same_presentation,
    smith_diagonal,
    smith_normal_form,
    trivial_group,
    zero_hom,
)

from kktheory import abelian
from kktheory.abelian import (
    _diagonal_homology,
    _diagonal_mod,
    _first_map,
    _lattice_homology,
    _rank_and_minor,
)
from kktheory.crmodule import COMPLEX_PERIOD, REAL_PERIOD, build_graded_group, build_rho
from kktheory.kgraph import validate
from kktheory.koszul import build_complex
from kktheory.spectral import compute_e2

from helpers import (
    abelian_groups_of_order,
    column_span_basis,
    compose,
    cyclic_group,
    determinant,
    diagonal_matrix,
    direct_sum,
    eager_rank_and_minor,
    extension_candidates_by_homs,
    fold_extensions,
    from_rows,
    group_from_presentation,
    group_of,
    hadamard_bound_squared,
    hom_add,
    hom_equals,
    hom_is_zero,
    hom_neg,
    identity_hom,
    in_span,
    kernel_basis,
    matrix_is_zero,
    oracle_homology_invariants,
    planted_matrix,
    random_finite_complex,
    random_valid_spec,
    restarting_diagonal_mod,
    snf_d,
    solve_in_span,
    transpose,
)


def symmetric_b(n):
    return from_rows([[0, -1, -1], [-1, 1, 1 - n], [-1, 1 - n, 1]])


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_three_vertex_matrix():
    s = smith_normal_form(symmetric_b(2))
    assert s.diagonal == (1, 1, 4)
    assert s.u @ symmetric_b(2) @ s.v == snf_d(s)


def test_snf_zero_matrix():
    z = IntMatrix.zeros(2, 2)
    s = smith_normal_form(z)
    assert snf_d(s) == z
    assert s.u == IntMatrix.identity(2)
    assert s.v == IntMatrix.identity(2)


def test_snf_stacked_pair():
    n = 3
    b1 = symmetric_b(n)
    b2 = from_rows([[0, -1, -1], [-1, 2 - n, 0], [-1, 0, 2 - n]])
    s = smith_normal_form(IntMatrix.hstack(b1, b2))
    assert snf_d(s) == diagonal_matrix([1, 1, 2], rows=3, cols=6)


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zeros(*shape)
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == snf_d(s)


def test_snf_random_properties():
    rng = random.Random(20240)
    for _ in range(120):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = IntMatrix(rows, cols,
                      [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == snf_d(s)
        assert abs(determinant(s.u)) == 1
        assert abs(determinant(s.v)) == 1
        assert s.u @ s.u_inv == IntMatrix.identity(rows)
        diag = s.diagonal
        assert all(e >= 0 for e in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0


def test_diagonal_only_snf_matches_full_decomposition():
    rng = random.Random(4711)
    shapes = [(0, 0), (0, 4), (4, 0), (3, 3), (2, 5)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(80)]
    for idx, (rows, cols) in enumerate(shapes):
        if idx < 5:
            m = IntMatrix.zeros(rows, cols)
        else:
            m = IntMatrix(rows, cols,
                          [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)])
        bare = smith_diagonal(m)
        assert bare == smith_normal_form(m).diagonal
        assert len(bare) == min(rows, cols)
    # the fix-ups of the computation modulo one nonzero minor D
    big = 2 ** 40
    cases = [
        # an invariant factor equal to D = 6, read from a 0 modulo D
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
        # rank below min(rows, cols)
        ([[2, 4, 6], [1, 2, 3], [3, 6, 9]], (1, 0, 0)),
        (planted_matrix(4, 5, [2, 6], [(True, 0, 3, 2), (False, 4, 1, -3),
                                       (True, 2, 1, 5), (False, 0, 2, 1)]).tolist(),
         (2, 6, 0, 0)),
        # 40-bit and negative entries
        ([[-big, 3], [5, -big + 1]], None),
        ([[big, 2 * big], [-3 * big, big + 6]], None),
        ([[-(2 ** 39) + 7, big - 1, 3], [-5, 0, -big]], None),
        # D = 1
        ([[1, 2], [3, 5]], (1, 1)),
        # rank 1: the gcd of the entries
        ([[7]], (7,)),
        ([[6, -10, 4]], (2,)),
        # zero rows and zero columns
        ([[0, 0, 0], [0, 4, 0], [0, 0, 0], [0, 6, 2]], (2, 4, 0)),
        ([[0, 0], [0, 0], [0, -9]], (9, 0)),
    ]
    for rows, expected in cases:
        m = from_rows(rows)
        bare = smith_diagonal(m)
        assert bare == smith_normal_form(m).diagonal
        assert expected is None or bare == expected


def scan_boundaries():
    """Every distinct boundary matrix of the 108 complexes of the robustness
    scan: random_valid_spec with k in {2, 3, 4}, 4-6 vertices, seeds 0-11."""
    matrices = {}
    for k, nv, seed in cartesian((2, 3, 4), (4, 5, 6), range(12)):
        spec = random_valid_spec(random.Random(seed), k=k, nv=nv)
        partition = validate(spec)
        graded = build_graded_group(partition)
        rhos = tuple(build_rho(spec, c, partition, graded) for c in range(1, k + 1))
        for part, period in (("real", REAL_PERIOD), ("complex", COMPLEX_PERIOD)):
            for j in range(period):
                cx = build_complex(graded.group(part, j),
                                   tuple(rho.hom(part, j).matrix for rho in rhos))
                for b in cx.boundaries:
                    matrices.setdefault(b.matrix, (k, nv, seed))
    return matrices


def test_diagonal_only_snf_on_every_scan_boundary():
    for m, name in scan_boundaries().items():
        # the oracle runs the integer loop on the taller orientation, where
        # its own coefficient growth stays small on these matrices
        oracle = smith_normal_form(m if m.rows >= m.cols else transpose(m))
        assert smith_diagonal(m) == oracle.diagonal, name
        rank, minor, _, rest = _rank_and_minor(m)
        assert rank == oracle.rank, name
        bound = hadamard_bound_squared(m)
        assert minor ** 2 <= bound, name
        # each entry the unit pivots leave is +- a minor of m (Sylvester)
        assert all(x * x <= bound for row in rest for x in row), name


def test_unit_search_rescans_a_row_once_an_elimination_changed_it():
    # over Z the first row has no entry +-1 until three times the second
    # row is taken off it
    assert _rank_and_minor(from_rows([[3, 2], [1, 1]])) == (2, 1, 2, [])
    # modulo 30 neither of the first two rows has a unit; the last row's
    # unit 1 turns the second row into [0, 5, 1], whose unit 1 then turns
    # the first row, [0, 2, 5] by then, into [0, 7, 0]
    rows = [[5, 2, 15], [2, 5, 5], [1, 0, 2]]
    assert _diagonal_mod(rows, 30) == [1, 1, 1]
    assert restarting_diagonal_mod(from_rows(rows), 30) == [1, 1, 1]


def test_bareiss_catches_up_a_row_left_alone_for_two_steps():
    # no entry is +-1, so Bareiss runs on the whole matrix, taking pivot
    # rows from the bottom.  The top row has zeros in the first two pivot
    # columns (0 and 1), so it is left alone for two steps.  It is then the
    # last pivot row in ``staircase`` and is combined with the third pivot
    # row in ``combined``; both are exact only once it is caught up to the
    # pivot 6 it skipped
    staircase = from_rows([[0, 0, 5], [0, 3, 5], [2, 4, 7]])
    combined = from_rows([[0, 0, 3, 2], [0, 0, 4, 6], [0, 3, 5, 4], [2, 4, 7, 9]])
    for m, det in ((staircase, -30), (combined, -60)):
        assert determinant(m) == det
        assert _rank_and_minor(m)[:3] == (m.rows, abs(det), 0)
        assert eager_rank_and_minor(m) == (m.rows, abs(det))
        assert smith_diagonal(m) == smith_normal_form(m).diagonal


def test_matrix_shape_checks_and_immutability():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        from_rows([[1, 2]]) @ from_rows([[1, 2]])
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert IntMatrix.zeros(0, 3) @ IntMatrix.zeros(3, 0) == IntMatrix.zeros(0, 0)
    assert determinant(IntMatrix.zeros(0, 0)) == 1


def test_kernel_and_span_helpers():
    m = from_rows([[2, 4], [1, 2]])
    kb = kernel_basis(m)
    assert kb.cols == 1
    assert matrix_is_zero(m @ kb)
    basis = column_span_basis(m)
    assert in_span(basis, m) and in_span(m, basis)
    h = GroupHom(free_group(2), cyclic_group(6), from_rows([[2, 4]]))
    stacked = IntMatrix.hstack(h.matrix, h.target.relations)
    assert kernel_lattice(h).basis == column_span_basis(kernel_basis(stacked).top_rows(2))
    assert solve_in_span(m, IntMatrix.column([2, 1])) is not None
    assert solve_in_span(m, IntMatrix.column([1, 0])) is None


# ---------------------------------------------------------------------------
# Presented groups
# ---------------------------------------------------------------------------

def test_group_from_stacked_presentation():
    b = symmetric_b(2)
    g = group_from_presentation(IntMatrix.hstack(b, b))
    assert g == cyclic_group(4)


def test_group_free_of_rank_three():
    g = group_from_presentation(IntMatrix.zeros(3, 0))
    assert g.free_rank == 3 and not g.invariant_factors


def test_group_already_diagonal():
    g = group_from_presentation(diagonal_matrix([2, 2, 6]))
    assert g.invariant_factors == (2, 2, 6)


def test_group_equality_is_isomorphism():
    a = group_from_presentation(diagonal_matrix([2, 3]))
    assert a == cyclic_group(6)
    assert a != cyclic_group(12)
    assert group_of("Z_2 + Z_4 + Z") == \
        group_from_presentation(from_rows([[2, 0], [0, 4], [0, 0]]))


def test_presentation_invariance_under_column_operations():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        rel = IntMatrix(rows, cols,
                        [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        g = group_from_presentation(rel)
        coeffs = [rng.randint(-3, 3) for _ in range(cols)]
        combo = [sum(c * rel[i, j] for j, c in enumerate(coeffs))
                 for i in range(rows)]
        widened = IntMatrix.hstack(rel, IntMatrix.column(combo))
        assert group_from_presentation(widened) == g


def test_relations_are_one_column_per_nonzero_modulus():
    # the lattice path and the emitted lifts depend on this exact layout
    g = FgAbGroup.from_invariants([2, 1, 3], 2)
    assert g.moduli == (2, 1, 3, 0, 0)
    assert g.relations == diagonal_matrix([2, 1, 3], rows=5, cols=3)
    assert FgAbGroup((2, 0, 3)).relations == \
        IntMatrix.from_columns([[2, 0, 0], [0, 0, 3]], rows=3)
    assert free_group(3).relations == IntMatrix.zeros(3, 0)
    assert g.canonical == ((6,), 2)


def test_a_group_with_no_generator_is_the_shared_zero_group():
    assert FgAbGroup.from_invariants([]) is trivial_group()
    assert FgAbGroup.from_invariants([], 0) is trivial_group()
    assert FgAbGroup.from_invariants([1]).moduli == (1,)


def test_same_presentation_compares_moduli_in_order():
    a, b = FgAbGroup((2, 3)), FgAbGroup((3, 2))
    assert a == b and not same_presentation(a, b)
    assert same_presentation(a, direct_sum(cyclic_group(2), cyclic_group(3)))
    with pytest.raises(ValueError):
        homology(zero_hom(trivial_group(), a), zero_hom(b, trivial_group()))


def test_groups_and_homs_need_no_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Smith form was computed")

    monkeypatch.setattr(abelian, "smith_normal_form", refuse)
    a = FgAbGroup.from_invariants([2, 4], 1)
    b = direct_sum(a, free_group(2), cyclic_group(3), trivial_group())
    assert b.describe() == "Z_2 + Z_12 + Z + Z + Z"
    assert b.moduli == (2, 4, 0, 0, 0, 3)
    embed = IntMatrix.from_columns([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                    [0, 0, 1, 0, 0, 0]], rows=6)
    h = GroupHom(a, b, embed)
    assert not hom_is_zero(h)
    assert hom_is_zero(hom_add(h, hom_neg(h)))
    assert hom_equals(h, hom_add(hom_add(h, h), hom_neg(h)))
    twice = GroupHom(cyclic_group(2), a, from_rows([[0], [2], [0]]))
    assert not hom_is_zero(twice)
    assert hom_is_zero(GroupHom(cyclic_group(2), a, twice.matrix.scaled(2)))
    with pytest.raises(NotWellDefined):
        GroupHom(a, free_group(1), from_rows([[1, 0, 0]]))


def test_describe_round_trip():
    for desc in ["0", "Z", "Z_2 + Z_4", "Z_2 + Z_6 + Z + Z"]:
        assert group_of(desc).describe() == desc


# ---------------------------------------------------------------------------
# Homomorphisms and kernel lattices
# ---------------------------------------------------------------------------

def test_hom_certificate_rejects_bad_map():
    z2 = cyclic_group(2)
    z = free_group(1)
    with pytest.raises(NotWellDefined):
        GroupHom(z2, z, from_rows([[1]]))
    GroupHom(z, z2, from_rows([[1]]))  # reduction is fine
    with pytest.raises(ValueError):  # a free source still has its shape checked
        GroupHom(z, z2, from_rows([[1, 0]]))


def test_kernel_lattice_of_doubled_map():
    b = symmetric_b(2)
    h = GroupHom(free_group(6), free_group(3), IntMatrix.hstack(b, b))
    lattice = kernel_lattice(h).basis
    expected = from_rows([
        [1, 0, 0], [0, 1, 0], [0, 0, 1],
        [-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert in_span(lattice, expected) and in_span(expected, lattice)


def test_kernel_lattice_identity_and_zero():
    z2 = free_group(2)
    ident = identity_hom(z2)
    assert kernel_lattice(ident).basis.cols == 0
    zero = zero_hom(z2, free_group(1))
    lattice = kernel_lattice(zero).basis
    assert abs(determinant(lattice)) == 1  # all of Z^2


def test_kernel_lattice_includes_torsion_directions():
    h = GroupHom(free_group(1), cyclic_group(2), from_rows([[1]]))
    lattice = kernel_lattice(h).basis
    assert in_span(lattice, IntMatrix.column([2]))
    assert not in_span(lattice, IntMatrix.column([1]))


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

def one_vertex_complex(m, n):
    d2 = GroupHom(free_group(1), free_group(2),
                  from_rows([[m - 1], [1 - n]]))
    d1 = GroupHom(free_group(2), free_group(1),
                  from_rows([[1 - n, 1 - m]]))
    return d2, d1


def test_homology_one_vertex_degree_zero():
    d2, d1 = one_vertex_complex(4, 4)
    h0 = homology(d1, zero_hom(free_group(1), trivial_group()))
    h1 = homology(d2, d1)
    h2 = homology(zero_hom(trivial_group(), free_group(1)), d2)
    assert h0.group == cyclic_group(3)
    assert h1.group == cyclic_group(3)
    assert h2.group.is_trivial


def test_homology_of_zero_maps_returns_the_groups():
    z2 = cyclic_group(2)
    middle = direct_sum(z2, z2)
    h = homology(zero_hom(z2, middle), zero_hom(middle, z2))
    assert h.group == FgAbGroup.from_invariants([2, 2])


def test_homology_middle_of_mixed_torsion_row():
    # degree-2 middle homology of the symmetric 3-vertex family
    n = 3
    mixed = FgAbGroup.from_invariants([2], 1)       # Z_2 + Z
    middle = direct_sum(mixed, mixed)
    rho = from_rows([[0, 1], [0, -n], [0, -1], [0, n]])
    d2 = GroupHom(mixed, middle, rho)
    d1 = GroupHom(middle, mixed,
                  from_rows([[0, 1, 0, 1], [0, n, 0, n]]))
    h = homology(d2, d1)
    assert h.group == FgAbGroup.from_invariants([2, 2 * n])


def test_homology_rejects_nonzero_composition():
    z = free_group(1)
    with pytest.raises(CompositionNotZero):
        homology(GroupHom(z, z, from_rows([[1]])),
                 GroupHom(z, z, from_rows([[1]])))
    # the first map of the augmented complex reads the product where it
    # divides it, at a torsion coordinate of the target: 1 -> Z -> Z_3 is
    # not exact, and 1 / 3 is not an integer
    with pytest.raises(CompositionNotZero):
        _first_map(from_rows([[1]]), [(1,)], [3])
    assert _first_map(from_rows([[3]]), [(1,)], [3]) == from_rows([[3], [-1]])


def test_homology_lift_round_trip():
    d2, d1 = one_vertex_complex(3, 5)
    h1 = homology(d2, d1)
    for i in range(h1.lift.cols):
        coords = h1.express(h1.lift.col(i))
        expected = tuple(1 if j == i else 0 for j in range(h1.lift.cols))
        assert coords == expected


def test_homology_lift_round_trip_mixed_torsion():
    n = 3
    mixed = FgAbGroup.from_invariants([2], 1)
    middle = direct_sum(mixed, mixed)
    d2 = GroupHom(mixed, middle,
                  from_rows([[0, 1], [0, -n], [0, -1], [0, n]]))
    d1 = GroupHom(middle, mixed,
                  from_rows([[0, 1, 0, 1], [0, n, 0, n]]))
    h = homology(d2, d1)
    assert h.group == FgAbGroup.from_invariants([2, 2 * n])
    for i in range(h.lift.cols):
        coords = h.express(h.lift.col(i))
        assert coords == tuple(1 if j == i else 0 for j in range(h.lift.cols))


def cell_kind(d_in, d_out):
    """Free middle and target (read from the two boundaries' diagonals), a
    Z_2^n middle with a Z_2^m (or no) target, or any other mixed cell; the
    last two are read through the augmented complex."""
    middle, target = set(d_in.target.moduli), set(d_out.target.moduli)
    if middle <= {0} and target <= {0}:
        return "free"
    return "elementary" if middle == {2} and target <= {2} else "mixed"


def test_diagonal_cells_match_the_lattice_path():
    """Every cell, whether its middle and target are free, Z_2^n or mixed,
    has the group the kernel lattice gives, and its lazily built lifts
    round-trip."""
    rng = random.Random(2718)
    read = {"free": 0, "elementary": 0, "mixed": 0}
    for _ in range(12):
        page = compute_e2(random_valid_spec(rng))
        for cx in page.complexes.values():
            for p in range(cx.k + 1):
                d_in, d_out = cx.boundary(p + 1), cx.boundary(p)
                read[cell_kind(d_in, d_out)] += 1
                group = _diagonal_homology(d_in, d_out)
                h = homology(d_in, d_out)
                assert group == h.group
                assert _lattice_homology(d_in.matrix, d_in.target, d_out)[0] == group
                n = h.lift.cols
                assert n == h.group.generator_count()
                for i in range(n):
                    assert h.express(h.lift.col(i)) == tuple(int(j == i) for j in range(n))
    assert read["free"] and read["elementary"] and read["mixed"]


def test_elementary_middles_match_the_element_oracle():
    """Z_p^n middles, with boundary entries left unreduced (so Smith diagonals
    carry nonzero multiples of p); every one is read from diagonals."""
    rng = random.Random(1618)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n, m = rng.randint(1, 3), rng.randint(0, 2)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        kernel = [x for x in cartesian(range(p), repeat=n)
                  if all(sum(r * v for r, v in zip(row, x)) % p == 0 for row in a)]
        cols = [[v + p * rng.randint(-2, 2) for v in rng.choice(kernel)]
                for _ in range(rng.randint(0, 3))]
        middle = FgAbGroup.from_invariants([p] * n)
        d_in = GroupHom(free_group(len(cols)), middle,
                        IntMatrix.from_columns(cols, rows=n))
        d_out = GroupHom(middle, FgAbGroup.from_invariants([p] * m), IntMatrix(m, n, a))
        group = _diagonal_homology(d_in, d_out)
        h = homology(d_in, d_out)
        f_rows = [[c[i] for c in cols] for i in range(n)]
        assert group == h.group
        assert group.invariant_factors == oracle_homology_invariants(
            f_rows, [p] * n, a, [p] * m)
        assert group.free_rank == 0


def test_lazy_lattice_rejects_a_wrong_diagonal_group():
    z = free_group(1)
    d_in = GroupHom(z, z, from_rows([[2]]))
    d_out = zero_hom(z, trivial_group())
    right = homology(d_in, d_out)
    assert right.group == cyclic_group(2)
    wrong = HomologyResult(cyclic_group(3), right.maps)
    with pytest.raises(RuntimeError):
        wrong.lift


def test_homology_matches_element_oracle():
    rng = random.Random(99)
    for _ in range(25):
        f_hom, g_hom, (f_cols, mods_b, g_rows, mods_c) = random_finite_complex(rng)
        result = homology(f_hom, g_hom)
        f_matrix = [[col[i] for col in f_cols] for i in range(len(mods_b))]
        expected = oracle_homology_invariants(f_matrix, mods_b, g_rows, mods_c)
        assert result.group.invariant_factors == expected
        assert result.group.free_rank == 0


# ---------------------------------------------------------------------------
# Induced maps on homology
# ---------------------------------------------------------------------------

def swap_last_two():
    return from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def three_vertex_h0(n):
    b = symmetric_b(n)
    middle = free_group(3)
    d_in = GroupHom(free_group(6), middle, IntMatrix.hstack(b, b))
    d_out = zero_hom(middle, trivial_group())
    return homology(d_in, d_out), middle


def test_induced_involution_is_minus_one():
    n = 2
    h0, middle = three_vertex_h0(n)
    assert h0.group == cyclic_group(2 * n)
    psi = GroupHom(middle, middle, swap_last_two())
    induced = induced_hom(psi, h0, h0)
    assert induced.matrix[0, 0] % (2 * n) == 2 * n - 1


def test_induced_identity_is_identity():
    h0, middle = three_vertex_h0(3)
    ind = induced_hom(identity_hom(middle), h0, h0)
    assert hom_equals(ind, identity_hom(h0.group))


def test_induced_involution_trivial_on_two_torsion():
    n = 3
    b1 = symmetric_b(n)
    b2 = from_rows([[0, -1, -1], [-1, 2 - n, 0], [-1, 0, 2 - n]])
    middle = free_group(3)
    d_in = GroupHom(free_group(6), middle, IntMatrix.hstack(b1, b2))
    h0 = homology(d_in, zero_hom(middle, trivial_group()))
    assert h0.group == cyclic_group(2)
    ind = induced_hom(GroupHom(middle, middle, swap_last_two()), h0, h0)
    assert hom_equals(ind, identity_hom(h0.group))


def test_induced_respects_composition():
    h0, middle = three_vertex_h0(2)
    psi = GroupHom(middle, middle, swap_last_two())
    once = induced_hom(psi, h0, h0)
    twice = induced_hom(compose(psi, psi), h0, h0)
    assert hom_equals(twice, compose(once, once))
    assert hom_equals(twice, identity_hom(h0.group))


def test_induced_rejects_non_chain_map():
    n = 2
    h0, middle = three_vertex_h0(n)
    d1 = GroupHom(free_group(2), free_group(1), from_rows([[2, 0]]))
    h_mid = homology(zero_hom(trivial_group(), free_group(2)), d1)
    bad = GroupHom(free_group(3), free_group(2),
                   from_rows([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(NotChainMap):
        induced_hom(bad, h0, h_mid)


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------

def test_extension_z2_by_z2():
    found = extension_candidates(cyclic_group(2), cyclic_group(2))
    assert set(found) == {cyclic_group(4), FgAbGroup.from_invariants([2, 2])}


def test_extension_trivial_subgroup():
    g = FgAbGroup.from_invariants([2, 4])
    assert extension_candidates(trivial_group(), g) == [g]


def test_extension_coprime_orders():
    # brute-force-derived: of the abelian groups of order 6 only Z_6 exists
    assert abelian_groups_of_order(6) == [cyclic_group(6)]
    assert extension_candidates(cyclic_group(2), cyclic_group(3)) == [cyclic_group(6)]


def test_extension_order_eight_cases():
    z8 = cyclic_group(8)
    z4z2 = FgAbGroup.from_invariants([2, 4])
    z2cubed = FgAbGroup.from_invariants([2, 2, 2])
    assert set(extension_candidates(cyclic_group(2), cyclic_group(4))) == {z8, z4z2}
    assert set(extension_candidates(cyclic_group(4), cyclic_group(2))) == {z8, z4z2}
    assert set(extension_candidates(cyclic_group(2), FgAbGroup.from_invariants([2, 2]))) \
        == {z4z2, z2cubed}
    assert z8 not in extension_candidates(FgAbGroup.from_invariants([2, 2]),
                                          cyclic_group(2))


def test_extension_always_contains_direct_sum():
    rng = random.Random(3)
    smalls = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              FgAbGroup.from_invariants([2, 2]), trivial_group()]
    for _ in range(12):
        sub, quot = rng.choice(smalls), rng.choice(smalls)
        assert direct_sum(sub, quot) in extension_candidates(sub, quot)


def test_extension_bounds_and_infinite_inputs():
    with pytest.raises(BoundExceeded):
        extension_candidates(cyclic_group(1024), cyclic_group(1024), order_bound=1000)
    with pytest.raises(InfiniteInput):
        extension_candidates(free_group(1), cyclic_group(2))


def test_extension_candidates_match_the_hom_enumeration_oracle():
    """Hall's theorem against every hom sub -> G, on all |sub| |quot| <= 16."""
    groups = {n: abelian_groups_of_order(n) for n in range(1, 17)}
    pairs = [(sub, quot) for a in range(1, 17) for b in range(1, 16 // a + 1)
             for sub in groups[a] for quot in groups[b]]
    assert len(pairs) == 79
    for sub, quot in pairs:
        assert extension_candidates(sub, quot) == extension_candidates_by_homs(sub, quot), \
            (sub, quot)


def test_a_fold_of_three_factors_matches_the_pairwise_hom_fold():
    """One pass of ``extension_candidates`` over every list of three factors
    with product order <= 32 (528 lists, about 10 s), against the
    group-level fold of the hom oracle, one factor at a time."""
    groups = {n: abelian_groups_of_order(n) for n in range(1, 33)}
    lists = [(x, y, z) for a in range(1, 33) for b in range(1, 32 // a + 1)
             for c in range(1, 32 // (a * b) + 1)
             for x in groups[a] for y in groups[b] for z in groups[c]]
    assert len(lists) == 528
    pairs = {}

    def by_homs(sub, quot):
        # an extension by 0 is the subgroup itself; the hom oracle would list
        # all 2^25 endomorphisms of Z_2^5 to say so
        if quot.is_trivial:
            return [sub]
        key = (sub.invariant_factors, quot.invariant_factors)
        if key not in pairs:
            pairs[key] = extension_candidates_by_homs(sub, quot)
        return pairs[key]

    for factors in lists:
        assert extension_candidates(*factors) == fold_extensions(factors, by_homs), factors


def test_a_fold_raises_at_the_first_factor_that_fails():
    """Factors are checked in order, as in a fold of two-factor calls:
    InfiniteInput for an infinite factor, and BoundExceeded, naming the
    running order, as soon as that order passes the bound."""
    z4, z64, z = cyclic_group(4), cyclic_group(64), free_group(1)

    def outcome(call):
        try:
            return call()
        except (BoundExceeded, InfiniteInput) as exc:
            return type(exc), str(exc)

    def pairwise(sub, quot):
        return extension_candidates(sub, quot, order_bound=32)

    for factors, expected in [
            ((z4, z4, z4), (BoundExceeded, "order 64 exceeds bound 32")),
            ((z64, z), (BoundExceeded, "order 64 exceeds bound 32")),
            ((z, z64), (InfiniteInput, "extension enumeration needs finite groups"))]:
        assert outcome(lambda: extension_candidates(*factors, order_bound=32)) == expected
        assert outcome(lambda: fold_extensions(factors, pairwise)) == expected
