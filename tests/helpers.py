"""Shared test utilities: random valid inputs and independent oracles.

The homology and core oracles deliberately avoid the library's Smith-form
machinery: homology is recomputed by enumerating group elements, and core
tables are re-verified by direct rank propagation around the exact cycles.
Brute-force enumerators (every homomorphism for extensions and d2 variants,
the full sweep of one core cycle) are the oracles for the library's
combinatorial answers to the same questions.  The rank-one building-block
tables with their relation checker, and the square-zero check of a chain
complex, are written out here for the tests that pin down the structure the
library builds on.
"""

from dataclasses import dataclass
from itertools import product as cartesian
import random

from kktheory.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    abelian_groups_of_order,
    group_from_presentation,
    in_span,
    trivial_group,
)
from kktheory.kgraph import KGraphSpec, VertexPartition
from kktheory.koszul import GradedChainComplex
from kktheory.spectral import _arrow_fact_ok, _core_cycle


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
    group_a = group_from_presentation(IntMatrix.diagonal(mods_a, rows=len(mods_a)))
    group_b = group_from_presentation(IntMatrix.diagonal(mods_b, rows=len(mods_b)))
    group_c = group_from_presentation(IntMatrix.diagonal(mods_c, rows=len(mods_c)))
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
    return FgAbGroup.from_description(desc)


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
    diag_b = IntMatrix.diagonal(list(b), rows=len(b), cols=len(b))
    for hom in _homs_between(sub.invariant_factors, b):
        yield hom, group_from_presentation(IntMatrix.hstack(hom, diag_b))


def admits_extension(g: FgAbGroup, sub: FgAbGroup, quot: FgAbGroup) -> bool:
    """Does g contain a copy of sub with quotient quot?  Checked by listing
    every homomorphism sub -> g.  When |g| = |sub| |quot|, a cokernel of type
    quot has |g| / |sub| elements, so that hom is injective."""
    assert g.order() == sub.order() * quot.order()
    return any(coker == quot for _, coker in _cokernels(sub, g))


def extension_candidates_by_homs(sub: FgAbGroup, quot: FgAbGroup):
    """Every abelian group of order |sub| |quot| that passes ``admits_extension``."""
    return [g for g in abelian_groups_of_order(sub.order() * quot.order())
            if admits_extension(g, sub, quot)]


def injective_variants_by_homs(source: FgAbGroup, target: FgAbGroup):
    """Cokernel classes of the nonzero injective homs source -> target, in
    hom-enumeration order.  A hom is injective when its cokernel has
    |target| / |source| elements."""
    out = []
    for hom, coker in _cokernels(source, target):
        if (not hom.is_zero() and coker.order() * source.order() == target.order()
                and coker not in out):
            out.append(coker)
    return out


def enumerate_cycle_by_sweep(start, mu, bound, constraints):
    """The full sweep of one core cycle: every choice of the four eta image
    ranks and the four c/r splits, each checked in full."""
    segs = _core_cycle(start)
    results = {}
    eta_range = range(bound + 1)
    c_ranges = [range(mu[s] + 1) for s in segs]
    for etas in cartesian(*([eta_range] * 4)):
        for cs in cartesian(*c_ranges):
            mo = {}
            ok = True
            for t, s in enumerate(segs):
                mo[(s + 1) % 8] = etas[t] + cs[t]
                nxt = segs[(t + 1) % 4]
                mo[nxt] = (mu[s] - cs[t]) + etas[(t + 1) % 4]
            for q, rank in mo.items():
                if rank > bound:
                    ok = False
                    break
                if q in constraints.known_mo and constraints.known_mo[q] != rank:
                    ok = False
                    break
                if q in constraints.mo_bounds and rank > constraints.mo_bounds[q]:
                    ok = False
                    break
            if not ok:
                continue
            for t, s in enumerate(segs):
                v_eta, v_c = etas[t], cs[t]
                v_r = mu[s] - cs[t]
                fact = constraints.arrows.get(("eta", s))
                if fact and not _arrow_fact_ok(fact, v_eta, mo[s], mo[(s + 1) % 8]):
                    ok = False
                    break
                fact = constraints.arrows.get(("c", s))
                if fact and not _arrow_fact_ok(fact, v_c, mo[(s + 1) % 8], mu[s]):
                    ok = False
                    break
                fact = constraints.arrows.get(("r", s))
                if fact and not _arrow_fact_ok(fact, v_r, mu[s], mo[(s - 2) % 8]):
                    ok = False
                    break
            if not ok:
                continue
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


def verify_square_zero(cx: GradedChainComplex) -> SquareZeroReport:
    """Compose every adjacent boundary pair and test for the zero map."""
    checks = []
    for p in range(1, cx.k + 1):
        composite = cx.boundary(p) @ cx.boundary(p + 1)
        checks.append(SquareZeroCheck(position=p, passed=composite.is_zero()))
    return SquareZeroReport(tuple(checks))
