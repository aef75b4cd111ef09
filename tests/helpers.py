"""Shared test utilities: random valid inputs and independent oracles.

The homology and core oracles deliberately avoid the library's Smith-form
machinery: homology is recomputed by enumerating group elements, and core
tables are re-verified by direct rank propagation around the exact cycles.
Brute-force enumerators (every group of an order, tested by every
homomorphism for extensions, folded factor by factor, and for d2 variants;
the full sweep of one core cycle) are the oracles for the library's
combinatorial answers to the same questions.  The rank-one building-block
tables with their relation checker, and the square-zero check of a chain
complex on its laid-out boundaries (``verify_square_zero``, also for a
hand-built ``LaidOutComplex``), are written out here for the tests that pin
down the structure the library builds on.  ``group_from_presentation`` and
``in_span`` read a group and a span from a general relations matrix by Smith
normal form: the oracles for the library's groups, which are held as one
modulus per coordinate.  ``kernel_basis`` and ``column_span_basis`` are the
two steps of ``kernel_lattice``, written out on their own, and
``two_snf_kernel_lattice`` takes both for every target, the zero group too.  ``dense_matmul``
(every row against every column) and ``dense_koszul_boundaries`` (a full
grid of n x n blocks, zero blocks included) are the oracles for the
library's product over nonzero entries and its row-by-row boundary layout;
``eager_rank_and_minor`` (Bareiss rescaling every row at every step) and
``restarting_diagonal_mod`` (a unit search that restarts from the first row
after each unit) are the oracles for the library's Smith diagonal steps.  ``block_rho`` (the blocks of I - M^t,
assembled per degree) is the oracle for ``build_rho``, which reads the rows
of I - M^t once.  ``rho_of`` and ``ku_psi`` build what ``build_rho`` and
``compute_ku_with_psi`` take from the stages before them, and ``complex_of``
builds one degree's complex on its own, outside ``compute_e2``.
Matrix, group and hom constructors that no calculator code needs
(``from_rows``, ``transpose``, ``cyclic_group``, ``direct_sum``,
``identity_hom``, ``compose``, ...) live here too.
"""

from dataclasses import dataclass
from itertools import product as cartesian
from math import gcd
import random

from kktheory.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    SnfDecomposition,
    free_group,
    same_presentation,
    smith_diagonal,
    smith_normal_form,
    trivial_group,
    _combine,
    _vanishes_in,
)
from kktheory.crmodule import RhoMap, build_graded_group, build_rho
from kktheory.kgraph import KGraphSpec, VertexPartition, validate
from kktheory.koszul import GradedChainComplex, build_complex, index_tuples
from kktheory.spectral import assemble_diagonals, compute_ku_with_psi, differential_report


# ---------------------------------------------------------------------------
# Constructors and comparisons that only tests use
# ---------------------------------------------------------------------------

def from_rows(rows) -> IntMatrix:
    """The matrix with the given rows (0 x 0 for no rows)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    return IntMatrix(len(rows), ncols, rows)


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, [m.col(j) for j in range(m.cols)])


def diagonal_matrix(values, rows=None, cols=None) -> IntMatrix:
    """The rows x cols matrix (square by default) with ``values`` down its
    diagonal."""
    values = list(values)
    rows = len(values) if rows is None else rows
    cols = len(values) if cols is None else cols
    m = [[0] * cols for _ in range(rows)]
    for i, v in enumerate(values):
        m[i][i] = v
    return IntMatrix(rows, cols, m)


def snf_d(s: SnfDecomposition) -> IntMatrix:
    """The diagonal matrix d of ``u @ m @ v == d``."""
    return diagonal_matrix(s.diagonal, *s.shape)


def solve_in_span(a: IntMatrix, b: IntMatrix):
    """Solve ``a @ x == b`` over the integers (see ``SnfDecomposition.solve``)."""
    return smith_normal_form(a).solve(b)


def cyclic_group(n: int) -> FgAbGroup:
    return free_group(1) if n == 0 else FgAbGroup.from_invariants([n])


def direct_sum(*groups) -> FgAbGroup:
    return FgAbGroup(sum((g.moduli for g in groups), ()))


def identity_hom(g: FgAbGroup) -> GroupHom:
    return GroupHom(g, g, IntMatrix.identity(g.ambient_rank))


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """f after g, certified again as a hom g.source -> f.target."""
    if not same_presentation(g.target, f.source):
        raise ValueError("composition mismatch: inner target != outer source")
    return GroupHom(g.source, f.target, f.matrix @ g.matrix)


def matrix_is_zero(m: IntMatrix) -> bool:
    return not any(any(row) for row in m.data)


def hom_is_zero(f: GroupHom) -> bool:
    """Every column of the matrix vanishes modulo the target relations."""
    return _vanishes_in(f.target, f.matrix.data)


def hom_add(f: GroupHom, g: GroupHom) -> GroupHom:
    if not (same_presentation(f.source, g.source)
            and same_presentation(f.target, g.target)):
        raise ValueError("sum of homs with different endpoints")
    return GroupHom(f.source, f.target, f.matrix + g.matrix)


def hom_neg(f: GroupHom) -> GroupHom:
    return GroupHom(f.source, f.target, -f.matrix)


def hom_equals(f: GroupHom, g: GroupHom) -> bool:
    """Same endpoints, and the two matrices agree modulo the target relations."""
    return (same_presentation(f.source, g.source)
            and same_presentation(f.target, g.target)
            and hom_is_zero(hom_add(f, hom_neg(g))))


# ---------------------------------------------------------------------------
# Oracles for the matrix product, the Smith diagonal steps and the Koszul
# boundaries
# ---------------------------------------------------------------------------

def dense_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product as a dot product of every row of ``a`` with every column
    of ``b``, zeros included."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    bt = transpose(b).data
    return IntMatrix(a.rows, b.cols,
                     [[sum(x * y for x, y in zip(row, c)) for c in bt]
                      for row in a.data])


def eager_rank_and_minor(m: IntMatrix):
    """The rank r of ``m`` and the absolute value of one nonzero r x r minor.

    Bareiss elimination: after each step every remaining entry is the minor
    on the pivot rows and columns so far plus its own row and column, so the
    divisions are exact and the last pivot is the minor returned.  A pivot
    column is dropped once it is cleared.
    """
    rows = [list(row) for row in m.data if any(row)]
    rank, prev = 0, 1
    while rows:
        prow = rows.pop()
        j = min((j for j, e in enumerate(prow) if e), key=lambda j: abs(prow[j]))
        pivot = prow.pop(j)
        if pivot < 0:  # negating a row only flips the sign of the minors
            pivot, prow = -pivot, [-x for x in prow]
        remaining = []
        for row in rows:
            c = row.pop(j)
            if c:
                row = [(pivot * x - c * y) // prev for x, y in zip(row, prow)]
            elif pivot != prev:
                row = [pivot * x // prev for x in row]
            if any(row):
                remaining.append(row)
        rows, rank, prev = remaining, rank + 1, pivot
    return rank, prev


def restarting_diagonal_mod(m: IntMatrix, modulus):
    """The nonzero entries of a diagonal matrix equivalent to ``m`` over Z/modulus.

    Unit pivots are peeled off by plain elimination, dropping each pivot row
    and column; what is left goes through a Smith loop of extended-gcd row
    and column operations.
    """
    rows = [row for row in ([x % modulus for x in row] for row in m.data) if any(row)]
    diag = []
    while True:
        unit = next(((i, j) for i, row in enumerate(rows) for j, e in enumerate(row)
                     if e and gcd(e, modulus) == 1), None)
        if unit is None:
            break
        i, j = unit
        prow = rows.pop(i)
        inv = pow(prow.pop(j), -1, modulus)
        remaining = []
        for row in rows:
            c = row.pop(j)
            if c:
                q = c * inv
                row = [(x - q * y) % modulus for x, y in zip(row, prow)]
            if any(row):
                remaining.append(row)
        rows = remaining
        diag.append(1)
    while rows:
        i, j = min(((i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e),
                   key=lambda ij: rows[ij[0]][ij[1]])
        rows[0], rows[i] = rows[i], rows[0]
        p = rows[0][j]
        while True:
            for i in range(1, len(rows)):
                if rows[i][j]:
                    p, rows[0], rows[i] = _combine(p, rows[i][j], rows[0], rows[i], modulus)
            for l in range(len(rows[0])):
                if l != j and rows[0][l]:
                    p, col_j, col_l = _combine(p, rows[0][l], [r[j] for r in rows],
                                               [r[l] for r in rows], modulus)
                    for row, a, b in zip(rows, col_j, col_l):
                        row[j], row[l] = a, b
            if not any(row[j] for row in rows[1:]):
                break
        diag.append(p)
        rows = [row for row in rows[1:] if any(row)]
    return diag


def dense_koszul_boundaries(spec: KGraphSpec, degree: int, part: str) -> list:
    """The boundary matrices of one degree of one part, assembled as a full
    grid of n x n blocks: a zero block everywhere, then (-1)^i rho^{mu_i}
    (i counted from 0) from tuple mu to mu with mu_i removed."""
    partition = validate(spec)
    graded = build_graded_group(partition)
    k = spec.k
    n = graded.group(part, degree).ambient_rank
    rho = {c: build_rho(spec, c, partition, graded).hom(part, degree).matrix
           for c in range(1, k + 1)}
    zero = IntMatrix.zeros(n, n)
    out = []
    for p in range(1, k + 1):
        lower, upper = index_tuples(k, p - 1), index_tuples(k, p)
        grid = [[zero] * len(upper) for _ in lower]
        for b, mu in enumerate(upper):
            for i, color in enumerate(mu):
                grid[lower.index(mu[:i] + mu[i + 1:])][b] = \
                    rho[color] if i % 2 == 0 else -rho[color]
        # row r of a stripe is row r of each of its blocks, left to right
        rows = [[x for block in stripe for x in block.data[r]]
                for stripe in grid for r in range(n)]
        out.append(IntMatrix(len(rows), n * len(upper), rows))
    return out


# ---------------------------------------------------------------------------
# Random valid k-graph specs
# ---------------------------------------------------------------------------

def random_involution(rng, nv):
    idx = list(range(nv))
    rng.shuffle(idx)
    gamma = list(range(nv))
    while len(idx) >= 2 and rng.random() < 0.7:
        a, b = idx.pop(), idx.pop()
        gamma[a], gamma[b] = b, a
    return gamma


def random_valid_spec(rng, k=None, nv=None) -> KGraphSpec:
    """Commuting matrices are built as polynomials in one symmetrized seed,
    which also guarantees compatibility with the involution."""
    nv = nv if nv is not None else rng.randint(1, 4)
    k = k if k is not None else rng.randint(1, 4)
    gamma = random_involution(rng, nv)
    p = IntMatrix(nv, nv, [[1 if gamma[i] == j else 0 for j in range(nv)]
                           for i in range(nv)])
    base = IntMatrix(nv, nv, [[rng.randint(0, 2) for _ in range(nv)] for _ in range(nv)])
    seed = base + (p @ base @ p)
    seed2 = seed @ seed
    mats = []
    for _ in range(k):
        a, b, c = rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 1)
        mats.append(IntMatrix.identity(nv).scaled(a) + seed.scaled(b) + seed2.scaled(c))
    return KGraphSpec(k=k, vertices=tuple(f"v{i}" for i in range(nv)),
                      matrices=tuple(mats), involution=tuple(gamma))


def rho_of(spec: KGraphSpec, color: int, partition: VertexPartition | None = None) -> RhoMap:
    """``build_rho`` with the partition (``validate(spec)`` unless given) and
    the graded module that it takes."""
    partition = validate(spec) if partition is None else partition
    return build_rho(spec, color, partition, build_graded_group(partition))


def complex_of(spec: KGraphSpec, degree: int, part: str) -> GradedChainComplex:
    """``build_complex`` of one degree of one part of ``spec``, on its own."""
    partition = validate(spec)
    graded = build_graded_group(partition)
    return build_complex(graded.group(part, degree), tuple(
        build_rho(spec, c, partition, graded).hom(part, degree).matrix
        for c in range(1, spec.k + 1)))


def ku_psi(page):
    """``compute_ku_with_psi`` on the complex diagonal assemblies of ``page``."""
    return compute_ku_with_psi(page, assemble_diagonals(page, differential_report(page), "complex"))


def one_vertex_spec(m, n) -> KGraphSpec:
    return KGraphSpec.from_lists(2, ["v"], [[[m]], [[n]]], [0])


def symmetric_three_vertex_spec(n) -> KGraphSpec:
    m = [[1, 1, 1], [1, 0, n - 1], [1, n - 1, 0]]
    return KGraphSpec.from_lists(2, ["v1", "v2", "v3"], [m, m], [0, 2, 1])


def asymmetric_three_vertex_spec(n) -> KGraphSpec:
    m1 = [[1, 1, 1], [1, 0, n - 1], [1, n - 1, 0]]
    m2 = [[1, 1, 1], [1, n - 1, 0], [1, 0, n - 1]]
    return KGraphSpec.from_lists(2, ["v1", "v2", "v3"], [m1, m2], [0, 2, 1])


# ---------------------------------------------------------------------------
# Element-enumeration homology oracle (no Smith forms anywhere)
# ---------------------------------------------------------------------------

def _closure(generators, mods):
    zero = tuple(0 for _ in mods)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple((a + b) % m for a, b, m in zip(x, g, mods))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _apply_mod(matrix_rows, vec, mods_out):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) % m
                 for row, m in zip(matrix_rows, mods_out))


def _prime_factors(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_homology_invariants(f_matrix, mods_b, g_matrix, mods_c):
    """Invariant factors of ker(g)/im(f) inside prod Z_mods_b, by brute force.

    f_matrix columns are elements of the middle group; g_matrix maps the
    middle group to prod Z_mods_c.  Returns the ascending invariant-factor
    tuple of the quotient.
    """
    gens = [tuple(f_matrix[i][j] % mods_b[i] for i in range(len(mods_b)))
            for j in range(len(f_matrix[0]) if f_matrix else 0)]
    image = _closure(gens, mods_b)
    zero_c = tuple(0 for _ in mods_c)
    kernel = [b for b in cartesian(*[range(m) for m in mods_b])
              if _apply_mod(g_matrix, b, mods_c) == zero_c]
    assert image <= set(kernel)
    quotient_order = len(kernel) // len(image)
    per_prime = {}
    for p, _ in _prime_factors(quotient_order).items():
        layer_sizes = [1]
        i = 1
        while True:
            power = p ** i
            count = sum(1 for x in kernel
                        if tuple((power * a) % m for a, m in zip(x, mods_b)) in image)
            layer_sizes.append(count // len(image))
            if layer_sizes[-1] == layer_sizes[-2]:
                break
            i += 1
        m_counts = []  # m_counts[i] = number of cyclic p-factors of exponent > i
        for i in range(len(layer_sizes) - 1):
            ratio = layer_sizes[i + 1] // layer_sizes[i]
            exponent_count = 0
            while ratio > 1:
                ratio //= p
                exponent_count += 1
            m_counts.append(exponent_count)
        exps = []
        for i in range(len(m_counts)):
            exactly = m_counts[i] - (m_counts[i + 1] if i + 1 < len(m_counts) else 0)
            exps.extend([i + 1] * exactly)
        per_prime[p] = sorted(exps, reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors_desc = []
    for t in range(width):
        d = 1
        for p, exps in per_prime.items():
            if t < len(exps):
                d *= p ** exps[t]
        factors_desc.append(d)
    return tuple(sorted(factors_desc))


def random_finite_complex(rng, max_order=2 ** 12):
    """A -> B -> C with zero composition, as presented groups plus homs.

    B and C are random direct sums of small cyclic groups; the map out is an
    arbitrary well-defined hom, and the map in hits random elements of its
    elementwise kernel.
    """
    def random_mods(limit, max_parts):
        mods = []
        total = 1
        for _ in range(rng.randint(1, max_parts)):
            m = rng.choice([2, 2, 3, 4, 5, 8, 9])
            if total * m > limit:
                break
            mods.append(m)
            total *= m
        return mods or [2]

    mods_b = random_mods(max_order, 4)
    mods_c = random_mods(64, 2)
    g_rows = []
    for mc in mods_c:
        row = []
        for mb in mods_b:
            g = _gcd(mb, mc)
            step = mc // g
            row.append(step * rng.randrange(g))
        g_rows.append(row)
    kernel = [b for b in cartesian(*[range(m) for m in mods_b])
              if _apply_mod(g_rows, b, mods_c) == tuple(0 for _ in mods_c)]
    picks = [rng.choice(kernel) for _ in range(rng.randint(0, 3))]
    mods_a = []
    f_cols = []
    for v in picks:
        order = 1
        for a, m in zip(v, mods_b):
            order = _lcm(order, m // _gcd(a, m))
        mods_a.append(order)
        f_cols.append(list(v))
    group_a = FgAbGroup(tuple(mods_a))
    group_b = FgAbGroup(tuple(mods_b))
    group_c = FgAbGroup(tuple(mods_c))
    f_hom = GroupHom(group_a, group_b,
                     IntMatrix.from_columns(f_cols, rows=len(mods_b)))
    g_hom = GroupHom(group_b, group_c, IntMatrix(len(mods_c), len(mods_b), g_rows))
    return f_hom, g_hom, (f_cols, mods_b, g_rows, mods_c)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _lcm(a, b):
    return a * b // _gcd(a, b) if a and b else 0


# ---------------------------------------------------------------------------
# Independent re-check of core MO tables
# ---------------------------------------------------------------------------

_CYCLE_STARTS = (0, 1)


def _cycle_terms(start):
    """Alternating term list [(kind, index), ...] of one 12-term cycle."""
    terms = []
    s = start
    for _ in range(4):
        terms.extend([("mo", s % 8), ("mo", (s + 1) % 8), ("mu", s % 8)])
        s -= 2
    return terms


def _cycle_eta_assignments(terms, ranks):
    """All consistent arrow-rank propagations; yields the eta ranks
    (positions 0, 3, 6, 9 are the eta arrows)."""
    term_ranks = [ranks[t] for t in terms]
    arrow_caps = [min(term_ranks[i], term_ranks[(i + 1) % 12]) for i in range(12)]
    for t in range(arrow_caps[0] + 1):
        vs = [t]
        good = True
        for i in range(1, 12):
            v = term_ranks[i] - vs[-1]
            if not 0 <= v <= arrow_caps[i]:
                good = False
                break
            vs.append(v)
        if good and vs[-1] + vs[0] == term_ranks[0]:
            yield {terms[i][1]: vs[i] for i in (0, 3, 6, 9)}


def core_table_consistent(mo_ranks, mu_ranks):
    """Re-verify a candidate MO rank table directly: both cycles must admit
    arrow ranks satisfying exactness, and the combined eta ranks must respect
    rank(eta_i) + rank(eta_{i+1}) <= rank(MO_{i+1})."""
    ranks = {("mo", q): mo_ranks[q] for q in range(8)}
    ranks.update({("mu", q): mu_ranks[q] for q in range(8)})
    options = []
    for start in _CYCLE_STARTS:
        assignments = list(_cycle_eta_assignments(_cycle_terms(start), ranks))
        if not assignments:
            return False
        options.append(assignments)
    for eta_a in options[0]:
        for eta_b in options[1]:
            etas = {**eta_a, **eta_b}
            if all(etas[i] + etas[(i + 1) % 8] <= mo_ranks[(i + 1) % 8]
                   for i in range(8)):
                return True
    return False


def group_of(desc: str) -> FgAbGroup:
    """Parse a rendered group ("0", "Z", "Z_2 + Z_4 + Z"; factors in any order)."""
    desc = desc.strip()
    if desc == "0":
        return trivial_group()
    factors, free = [], 0
    for token in desc.split("+"):
        token = token.strip()
        if token == "Z":
            free += 1
        elif token.startswith("Z_"):
            factors.append(int(token[2:]))
        else:
            raise ValueError(f"cannot parse group token {token!r}")
    return FgAbGroup.from_invariants(factors, free)


# ---------------------------------------------------------------------------
# Groups and spans of a general relations matrix, by Smith normal form
# ---------------------------------------------------------------------------

def group_from_presentation(relations: IntMatrix) -> FgAbGroup:
    """Canonical form of Z^rows / (column span of ``relations``), read from
    its Smith diagonal."""
    diag = smith_diagonal(relations)
    rank = sum(1 for e in diag if e)
    return FgAbGroup.from_invariants([e for e in diag if e >= 2], relations.rows - rank)


def in_span(a: IntMatrix, b: IntMatrix) -> bool:
    """Does every column of ``b`` lie in the integer column span of ``a``?"""
    return solve_in_span(a, b) is not None


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer null space of ``a``."""
    s = smith_normal_form(a)
    return s.v.columns(range(s.rank, a.cols))


def column_span_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of the lattice spanned by the columns of ``a``."""
    s = smith_normal_form(a)
    diag = s.diagonal
    cols = [tuple(diag[j] * x for x in s.u_inv.col(j)) for j in range(s.rank)]
    return IntMatrix.from_columns(cols, rows=a.rows)


def two_snf_kernel_lattice(h: GroupHom):
    """The kernel lattice of ``h`` by its two Smith forms for every target,
    one with no coordinates included: the basis u_inv[:, :r] diag(d) of the
    span of the generators (``column_span_basis``), and the decomposition
    u, I_r of that basis."""
    n = h.source.ambient_rank
    generators = kernel_basis(IntMatrix.hstack(h.matrix, h.target.relations)).top_rows(n)
    g, basis = smith_normal_form(generators), column_span_basis(generators)
    return basis, SnfDecomposition(g.diagonal[:g.rank], (n, g.rank), g.u,
                                   IntMatrix.identity(g.rank), g.u_inv)


# ---------------------------------------------------------------------------
# Exact determinant, and brute-force extension, d2-variant and core-cycle
# enumerators
# ---------------------------------------------------------------------------

def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hadamard_bound_squared(m: IntMatrix) -> int:
    """The square of the Hadamard bound on every minor of ``m``: the smaller
    of the products of the squared lengths of its nonzero rows and of its
    nonzero columns."""
    def product_of_norms(vectors):
        out = 1
        for vec in vectors:
            out *= max(1, sum(x * x for x in vec))
        return out
    return min(product_of_norms(m.data), product_of_norms(transpose(m).data))


def planted_matrix(rows, cols, factors, ops) -> IntMatrix:
    """diag(factors) (padded with zeros to rows x cols) after the elementary
    operations ``ops``: (on_rows, i, j, q) adds q times line j to line i,
    indices taken modulo the line count, and is skipped when i == j.  The
    Smith diagonal of the result is that of diag(factors)."""
    a = [[factors[i] if i == j and i < len(factors) else 0 for j in range(cols)]
         for i in range(rows)]
    for on_rows, i, j, q in ops:
        n = rows if on_rows else cols
        if n < 2 or i % n == j % n:
            continue
        i, j = i % n, j % n
        if on_rows:
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        else:
            for row in a:
                row[i] += q * row[j]
    return IntMatrix(rows, cols, a)


def _homs_between(a, b):
    """Every hom prod Z_a -> prod Z_b as a matrix of entry choices, one
    column per generator of the source."""
    m = len(b)
    choices = []
    for ai in a:
        for bj in b:
            g = _gcd(ai, bj)
            choices.append([t * (bj // g) for t in range(g)])
    for flat in cartesian(*choices):
        yield IntMatrix.from_columns([flat[i * m:(i + 1) * m] for i in range(len(a))],
                                     rows=m)


def _cokernels(sub: FgAbGroup, g: FgAbGroup):
    """The cokernel of every homomorphism sub -> g, one per hom."""
    b = g.invariant_factors
    diag_b = diagonal_matrix(b)
    for hom in _homs_between(sub.invariant_factors, b):
        yield hom, group_from_presentation(IntMatrix.hstack(hom, diag_b))


def admits_extension(g: FgAbGroup, sub: FgAbGroup, quot: FgAbGroup) -> bool:
    """Does g contain a copy of sub with quotient quot?  Checked by listing
    every homomorphism sub -> g.  When |g| = |sub| |quot|, a cokernel of type
    quot has |g| / |sub| elements, so that hom is injective."""
    assert g.order() == sub.order() * quot.order()
    return any(coker == quot for _, coker in _cokernels(sub, g))


def _partitions(n, largest=None):
    if n == 0:
        yield ()
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def abelian_groups_of_order(n: int):
    """All isomorphism classes of abelian groups of order n, one partition of
    each prime's exponent per group, sorted by invariant factors."""
    if n <= 0:
        raise ValueError("order must be positive")
    per_prime = [[[p ** e for e in lam] for lam in _partitions(k)]
                 for p, k in sorted(_prime_factors(n).items())]
    return sorted((FgAbGroup.from_invariants([d for part in combo for d in part])
                   for combo in cartesian(*per_prime)),
                  key=lambda g: g.invariant_factors)


def extension_candidates_by_homs(sub: FgAbGroup, quot: FgAbGroup):
    """Every abelian group of order |sub| |quot| that passes ``admits_extension``."""
    return [g for g in abelian_groups_of_order(sub.order() * quot.order())
            if admits_extension(g, sub, quot)]


def fold_extensions(factors, extensions=extension_candidates_by_homs):
    """The groups with a filtration by ``factors``, subgroup end first: the
    group-level fold of a two-factor enumerator, ``extension_candidates_by_homs``
    by default, one factor at a time, sorted by invariant factors."""
    acc = [trivial_group()]
    for quot in factors:
        nxt = []
        for sub in acc:
            for g in extensions(sub, quot):
                if g not in nxt:
                    nxt.append(g)
        acc = nxt
    return sorted(acc, key=lambda g: g.invariant_factors)


def injective_variants_by_homs(source: FgAbGroup, target: FgAbGroup):
    """Cokernel classes of the nonzero injective homs source -> target, in
    hom-enumeration order.  A hom is injective when its cokernel has
    |target| / |source| elements."""
    out = []
    for hom, coker in _cokernels(source, target):
        if (not matrix_is_zero(hom) and coker.order() * source.order() == target.order()
                and coker not in out):
            out.append(coker)
    return out


def enumerate_cycle_by_sweep(start, mu, bound, constraints):
    """The full sweep of one core cycle: every choice of the four eta image
    ranks and the four c/r splits, each checked in full.  The cycle from
    MO_start passes the MU terms start, start - 2, start - 4, start - 6."""
    segs = [(start - 2 * t) % 8 for t in range(4)]
    results = {}
    eta_range = range(bound + 1)
    c_ranges = [range(mu[s] + 1) for s in segs]
    for etas in cartesian(*([eta_range] * 4)):
        for cs in cartesian(*c_ranges):
            mo = {}
            for t, s in enumerate(segs):
                mo[(s + 1) % 8] = etas[t] + cs[t]
                nxt = segs[(t + 1) % 4]
                mo[nxt] = (mu[s] - cs[t]) + etas[(t + 1) % 4]
            if all(rank <= bound
                   and constraints.known_mo.get(q, rank) == rank
                   and rank <= constraints.mo_bounds.get(q, rank)
                   for q, rank in mo.items()):
                key = tuple(mo[q] for q in range(8))
                results.setdefault(key, []).append({s: e for s, e in zip(segs, etas)})
    return results


# ---------------------------------------------------------------------------
# The two rank-one building-block tables and their relations
# ---------------------------------------------------------------------------

def _grp(*factors, free=0):
    return FgAbGroup.from_invariants(list(factors), free)


def _mat(rows, cols, entries=None):
    if entries is None:
        return IntMatrix.zeros(rows, cols)
    return IntMatrix(rows, cols, entries)


@dataclass(frozen=True)
class BlockTable:
    """One rank-one building block: its eight KO and KU groups and the
    degreewise matrices of eta (degree +1), c, r and psi."""

    name: str
    ko: tuple
    ku: tuple
    eta: tuple
    c: tuple
    r: tuple
    psi: tuple


def real_block_table() -> BlockTable:
    Z, Z2, O = _grp(free=1), _grp(2), trivial_group()
    ko = (Z, Z2, Z2, O, Z, O, O, O)
    ku = (Z, O, Z, O, Z, O, Z, O)
    ko_n = [g.ambient_rank for g in ko]
    ku_n = [g.ambient_rank for g in ku]
    eta_vals = [1, 1, 0, 0, 0, 0, 0, 0]
    c_vals = [1, 0, 0, 0, 2, 0, 0, 0]
    r_vals = [2, 0, 1, 0, 1, 0, 0, 0]
    psi_vals = [1, 0, -1, 0, 1, 0, -1, 0]
    eta = tuple(_mat(ko_n[(n + 1) % 8], ko_n[n],
                     [[eta_vals[n]]] if ko_n[(n + 1) % 8] and ko_n[n] else None)
                for n in range(8))
    c = tuple(_mat(ku_n[n], ko_n[n],
                   [[c_vals[n]]] if ku_n[n] and ko_n[n] else None)
              for n in range(8))
    r = tuple(_mat(ko_n[n], ku_n[n],
                   [[r_vals[n]]] if ko_n[n] and ku_n[n] else None)
              for n in range(8))
    psi = tuple(_mat(ku_n[n], ku_n[n],
                     [[psi_vals[n]]] if ku_n[n] else None)
                for n in range(8))
    return BlockTable("R", ko, ku, eta, c, r, psi)


def complex_block_table() -> BlockTable:
    Z, Z2f, O = _grp(free=1), _grp(free=2), trivial_group()
    ko = (Z, O, Z, O, Z, O, Z, O)
    ku = (Z2f, O, Z2f, O, Z2f, O, Z2f, O)
    ko_n = [g.ambient_rank for g in ko]
    ku_n = [g.ambient_rank for g in ku]
    swap = [[0, 1], [1, 0]]
    nswap = [[0, -1], [-1, 0]]
    c_cols = {0: [[1], [1]], 2: [[-1], [1]], 4: [[1], [1]], 6: [[-1], [1]]}
    r_rows = {0: [[1, 1]], 2: [[-1, 1]], 4: [[1, 1]], 6: [[-1, 1]]}
    psi_mats = {0: swap, 2: nswap, 4: swap, 6: nswap}
    eta = tuple(_mat(ko_n[(n + 1) % 8], ko_n[n]) for n in range(8))
    c = tuple(_mat(ku_n[n], ko_n[n], c_cols.get(n)) for n in range(8))
    r = tuple(_mat(ko_n[n], ku_n[n], r_rows.get(n)) for n in range(8))
    psi = tuple(_mat(ku_n[n], ku_n[n], psi_mats.get(n)) for n in range(8))
    return BlockTable("C", ko, ku, eta, c, r, psi)


@dataclass(frozen=True)
class CrBlockTables:
    real_block: BlockTable
    complex_block: BlockTable


def standard_tables() -> CrBlockTables:
    return CrBlockTables(real_block_table(), complex_block_table())


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    block: str
    degree: int
    passed: bool


@dataclass(frozen=True)
class CrRelationReport:
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _equal_mod(target: FgAbGroup, lhs: IntMatrix, rhs: IntMatrix) -> bool:
    return in_span(target.relations, lhs - rhs)


def check_cr_relations(tables: CrBlockTables) -> CrRelationReport:
    """Verify the defining relations of both block tables, degree by degree.

    Equalities are taken modulo the target group's relations (so e.g. r o c
    lands on 2*id even when the target is 2-torsion).
    """
    checks = []
    for tab in (tables.real_block, tables.complex_block):
        for n in range(8):
            n1, n2, n3 = (n + 1) % 8, (n + 2) % 8, (n + 3) % 8
            ko_id = IntMatrix.identity(tab.ko[n].ambient_rank)
            ku_id = IntMatrix.identity(tab.ku[n].ambient_rank)
            cases = [
                ("r.c = 2", tab.ko[n], tab.r[n] @ tab.c[n], ko_id.scaled(2)),
                ("c.r = 1 + psi", tab.ku[n], tab.c[n] @ tab.r[n], ku_id + tab.psi[n]),
                ("2.eta = 0", tab.ko[n1], tab.eta[n].scaled(2),
                 IntMatrix.zeros(*tab.eta[n].shape)),
                ("eta.r = 0", tab.ko[n1], tab.eta[n] @ tab.r[n],
                 IntMatrix.zeros(tab.ko[n1].ambient_rank, tab.ku[n].ambient_rank)),
                ("c.eta = 0", tab.ku[n1], tab.c[n1] @ tab.eta[n],
                 IntMatrix.zeros(tab.ku[n1].ambient_rank, tab.ko[n].ambient_rank)),
                ("eta^3 = 0", tab.ko[n3], tab.eta[n2] @ tab.eta[n1] @ tab.eta[n],
                 IntMatrix.zeros(tab.ko[n3].ambient_rank, tab.ko[n].ambient_rank)),
                ("psi.c = c", tab.ku[n], tab.psi[n] @ tab.c[n], tab.c[n]),
                ("r.psi = r", tab.ko[n], tab.r[n] @ tab.psi[n], tab.r[n]),
                ("psi^2 = 1", tab.ku[n], tab.psi[n] @ tab.psi[n], ku_id),
            ]
            for relation, target, lhs, rhs in cases:
                checks.append(RelationCheck(relation, tab.name, n,
                                            _equal_mod(target, lhs, rhs)))
    return CrRelationReport(tuple(checks))




def complexification_degree0(partition: VertexPartition) -> IntMatrix:
    """Degree-0 complexification A^O_0 -> A^U_0: identity into the fixed
    block, diagonal into the two halves of each 2-orbit."""
    nf, n1 = partition.n_fixed, partition.n_paired
    return IntMatrix.assemble([
        [IntMatrix.identity(nf), IntMatrix.zeros(nf, n1)],
        [IntMatrix.zeros(n1, nf), IntMatrix.identity(n1)],
        [IntMatrix.zeros(n1, nf), IntMatrix.identity(n1)],
    ])


# ---------------------------------------------------------------------------
# The block route from I - M^t to rho: the oracle for ``build_rho``
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of B = I - M^t in (fixed, paired, partners) coordinates.

    The involution forces the reordered B to be [[b11, b12, b12],
    [b21, b22, b23], [b21, b23, b22]], so these five blocks carry everything.
    """

    color: int
    b11: IntMatrix
    b12: IntMatrix
    b21: IntMatrix
    b22: IntMatrix
    b23: IntMatrix

    def reassemble(self) -> IntMatrix:
        return IntMatrix.assemble([
            [self.b11, self.b12, self.b12],
            [self.b21, self.b22, self.b23],
            [self.b21, self.b23, self.b22],
        ])


def reordered_boundary_matrix(spec: KGraphSpec, color: int,
                              partition: VertexPartition) -> IntMatrix:
    """I - M_color^t with rows and columns permuted to partition order."""
    nv = spec.vertex_count
    m = spec.matrices[color - 1]
    order = partition.order
    return IntMatrix(nv, nv, [
        [(1 if order[a] == order[b] else 0) - m[order[b], order[a]]
         for b in range(nv)]
        for a in range(nv)])


def block_decompose(spec: KGraphSpec, color: int,
                    partition: VertexPartition | None = None) -> BlockDecomposition:
    """Extract the five independent blocks of I - M_color^t."""
    if partition is None:
        partition = validate(spec)
    if not 1 <= color <= spec.k:
        raise ValueError(f"color must be in 1..{spec.k}")
    b = reordered_boundary_matrix(spec, color, partition)
    nf, n1 = partition.n_fixed, partition.n_paired
    f = range(nf)
    g1 = range(nf, nf + n1)
    g2 = range(nf + n1, nf + 2 * n1)

    def slice_block(rows, cols):
        return IntMatrix(len(rows), len(cols),
                         [[b[i, j] for j in cols] for i in rows])

    return BlockDecomposition(
        color=color,
        b11=slice_block(f, f),
        b12=slice_block(f, g1),
        b21=slice_block(g1, f),
        b22=slice_block(g1, g1),
        b23=slice_block(g1, g2),
    )


def _reduce_rows(mat: IntMatrix, moduli) -> IntMatrix:
    """Reduce entries of row i modulo moduli[i] (0 means leave alone)."""
    rows = []
    for i, row in enumerate(mat.data):
        m = moduli[i]
        rows.append([x % m for x in row] if m else list(row))
    return IntMatrix(mat.rows, mat.cols, rows)


def block_rho(spec: KGraphSpec, color: int, partition: VertexPartition) -> RhoMap:
    """rho^color assembled from the blocks of B = I - M^t: degree 0 complex is
    the reassembled B, the real degrees follow the fixed block pattern with
    torsion rows reduced mod 2."""
    graded = build_graded_group(partition)
    blocks = block_decompose(spec, color, partition)
    nf, n1 = partition.n_fixed, partition.n_paired
    b11, b12, b21 = blocks.b11, blocks.b12, blocks.b21
    plus = blocks.b22 + blocks.b23
    minus = blocks.b22 - blocks.b23

    deg0 = IntMatrix.assemble([[b11, b12.scaled(2)], [b21, plus]])
    deg1 = _reduce_rows(b11, graded.group("real", 1).moduli)
    deg2 = _reduce_rows(IntMatrix.assemble([[b11, b12], [IntMatrix.zeros(n1, nf), minus]]),
                        graded.group("real", 2).moduli)
    deg4 = IntMatrix.assemble([[b11, b12], [b21.scaled(2), plus]])
    deg6 = minus

    def endo(degree, mat):
        g = graded.group("real", degree)
        return GroupHom(g, g, mat)

    zero_endo = GroupHom(trivial_group(), trivial_group(), IntMatrix.zeros(0, 0))
    real = (
        endo(0, deg0), endo(1, deg1), endo(2, deg2), zero_endo,
        endo(4, deg4), zero_endo, endo(6, deg6), zero_endo,
    )
    cplx_group = graded.group("complex", 0)
    cplx = (GroupHom(cplx_group, cplx_group, blocks.reassemble()), zero_endo)
    return RhoMap(real=real, cplx=cplx)


# ---------------------------------------------------------------------------
# Square-zero check of a chain complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquareZeroCheck:
    position: int
    passed: bool


@dataclass(frozen=True)
class SquareZeroReport:
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class LaidOutComplex:
    """0 -> C_k -> ... -> C_0 -> 0 given by its groups and boundary maps
    (``boundaries[p - 1]`` is C_p -> C_{p-1}), for hand-built complexes
    that no rho maps describe."""

    k: int
    groups: tuple
    boundaries: tuple

    boundary = GradedChainComplex.boundary


def verify_square_zero(cx) -> SquareZeroReport:
    """Compose every adjacent boundary pair of a ``GradedChainComplex`` or a
    ``LaidOutComplex`` and test for the zero map."""
    checks = []
    for p in range(1, cx.k + 1):
        composite = compose(cx.boundary(p), cx.boundary(p + 1))
        checks.append(SquareZeroCheck(position=p, passed=hom_is_zero(composite)))
    return SquareZeroReport(tuple(checks))
