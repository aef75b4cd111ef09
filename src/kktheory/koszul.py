"""The length-(k+1) chain complex whose homology is the E2 page.

For each degree (and each part, real or complex) the p-th group is a direct
sum of one copy of A over every strictly increasing p-tuple of colors, and
the boundary block from tuple mu to the tuple with mu_i removed is
(-1)^(i+1) rho^{mu_i}.  For k = 1, 2, 3 this reproduces the familiar
two/three/four column complexes; for larger k the same block formula is used.

A complex is made from A_j and the k matrices of rho^c on it alone, and
computes its annihilator g (below) when it is made; its groups, its
boundaries and its homology cells are built on first read.  The block
formula is kept once, in ``boundary_blocks``: row block lambda of d_p has a
nonzero block only in the k - p + 1 column blocks lambda + {c}.  One method,
``_layout``, lays d_p out from it, row by row into preallocated zero rows,
with or without the relation columns of C_{p-1}: the dense ``boundaries``
and every first map F_p read it, and ``--emit-intermediate`` writes its text
from the blocks with nothing laid out.  So ``boundaries`` is built only where
something reads it: a lift, or ``diagonal(p)`` of a non-free complex.

``build_complex`` certifies d o d = 0 with nothing laid out.  The block of
d_{p-1} d_p from e_mu to e_{mu - {c, c'}} is +-[rho^c, rho^c'], every other
block is 0, and every pair c < c' occurs at p = 2, so d o d = 0 exactly when
each commutator vanishes in A_j (Eisenbud, *Commutative Algebra*, ch. 17).
The packed-row kernel ``kgraph.first_noncommuting`` tests them, one int
per row of the commutator.

This is the Koszul complex of the commuting maps rho^1, ..., rho^k on
A_j = Z^n / diag(mu), and every cell of it is killed by

    g = gcd_c |det R^c|,  R^c an integer lift of rho^c,

and also by the lcm of the moduli when every coordinate is torsion (real
degree 1 is Z_2^nf).  Proof: contracting with e_c is a homotopy h with
dh + hd = rho^c, so rho^c is 0 on homology.  By Cayley-Hamilton
R adj(R) = det(R) I with adj(R) a polynomial in R; R maps the relations
diag(mu) into themselves, so adj(R) does too and descends to A_j, where
it commutes with every rho^d.  Applied blockwise it is a chain map, so
det(R) = rho^c adj(R) is 0 on homology.  A torsion A_j is killed by the
lcm of its moduli outright.  |det R^c| is read from ``_rank_and_minor``:
the minor when the rank is n, else 0.

A complex whose H_0 is 0 is exact (Nakayama's lemma).  Proof: the
certified commutators make A_j a module over P = Z[x_1, ..., x_k], x_c
acting as rho^c, finitely generated since it is over Z.  With I = (x_1, ...,
x_k), H_0 = A_j / I A_j, so H_0 = 0 means I A_j = A_j, and Nakayama gives a
in I with (1 - a) A_j = 0 (Atiyah-Macdonald, Cor. 2.5).  Every cell is a
P-module killed by I (the contraction homotopy above) and by Ann(A_j),
which kills every group C_p = A_j^C(k, p).  So 1 = a + (1 - a) kills every
cell.

Every cell is read by one rule (``GradedChainComplex.cells``), H_0 first,
off the Smith diagonals of the first maps F_0, ..., F_k.  F_p is the first
map of ``abelian._diagonal_homology`` for the cell: with R_p the relation
columns of C_p, it is [d_{p+1} | R_p] over one row -(d_p)_i [d_{p+1} | R_p] /
nu_i per torsion coordinate i of C_{p-1}, nu_i its modulus
(``abelian._first_map``).  Each division is exact: (d_p)_i d_{p+1} vanishes
modulo nu_i as ``build_complex`` certified d o d = 0, and (d_p)_i R_p as each
rho^c is a certified ``GroupHom``.  d_0 has no rows, so F_0 = [rho^1 | ... |
rho^k | relations of A_j].  If g = 1, or the diagonal of F_0 is all 1s,
H_0 = 0 and every cell is 0: no other F_p is read.  Otherwise, with n the
coordinates of A_j and t the torsion ones:

    the torsion of H_p is the entries >= 2 of diag F_p, and its free rank is
    n C(k, p) - rank F_p - (rank F_{p-1} - t C(k, p-1)), the bracket 0 at p = 0.

A kernel is saturated, so the torsion is read off F_p, and the free rank is
n C(k, p) - rank F_p - rk(free rows of d_p).  The bracket is that rank: the
relation columns R_{p-1} cover the t C(k, p-1) torsion rows of C_{p-1}, so
rk [d_p | R_{p-1}] = t C(k, p-1) + rk(free rows of d_p), and the rows of
F_{p-1} below [d_p | R_{p-1}] are rational combinations of them, so
rank F_{p-1} = rk [d_p | R_{p-1}].  The diagonal of F_p is read over Z
(``abelian.smith_diagonal``) when g = 0, and modulo g with its rank known
when g != 0.  With g != 0, H_p is finite, and the nonzero invariant factors
of F_p are 1s and those of H_p, which divide g.  A row of rho^c at a free
coordinate is 0 on torsion columns, so R^c is block triangular, its free
block S^c has det S^c | det R^c, and the free rows of d_p form the Koszul
complex of the S^c on Z^(n-t), exact over Q as g != 0.  So
rk [d_p | R_{p-1}] = t C(k, p-1) + (n - t) C(k-1, p-1), and rank
F_p = n C(k, p) - (n - t) C(k-1, p-1) = t C(k, p) + (n - t) C(k-1, p): the
cell is ``abelian.annihilated_smith_diagonal(F_p, rank F_p, g)``, with no
minor, and the free rank is 0.  For a free A_j, F_p is d_{p+1}, and these are
the Smith diagonals that ``--emit-intermediate`` prints.  On an exact free
complex (any g) d_p has rank n C(k-1, p-1) and every invariant factor 1, as
coker d_{p+1} = im d_p is free, so its diagonal is read off the rank.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations, cycle
from math import comb, gcd, lcm

from .abelian import (CompositionNotZero, FgAbGroup, GroupHom, HomologyResult, IntMatrix,
                      _first_map, _rank_and_minor, annihilated_smith_diagonal,
                      smith_diagonal, trivial_group, zero_hom)
from .kgraph import first_noncommuting


def index_tuples(k: int, p: int):
    """Strictly increasing p-tuples from 1..k, in lexicographic order."""
    if not 0 <= p <= k:
        return []
    return list(combinations(range(1, k + 1), p))


class GradedChainComplex:
    """0 -> C_k -> ... -> C_0 -> 0 for one degree of one part, and for every
    degree with the same A_j and rho matrices.

    ``rhos[c - 1]`` is the matrix of rho^c on ``aj`` = A_j, and k is
    ``len(rhos)``.  ``annihilator`` is the g of the module docstring,
    computed here from ``aj`` and ``rhos``: g H = 0 for every homology cell,
    and g = 0 when the determinants and moduli give no such bound.
    ``groups``, ``boundaries`` (``boundaries[p - 1]`` is the map C_p ->
    C_{p-1}) and ``cells`` (H_p for p = 0..k) are built on first read;
    ``exact`` tells whether every cell is 0.  Immutable, but for what is
    built on first read, cached in its ``__dict__``.
    """

    def __init__(self, aj: FgAbGroup, rhos: tuple):
        object.__setattr__(self, "k", len(rhos))
        object.__setattr__(self, "aj", aj)
        object.__setattr__(self, "rhos", rhos)
        object.__setattr__(self, "annihilator", _annihilator(aj, rhos))

    def __setattr__(self, name, value):
        raise AttributeError("GradedChainComplex is immutable")

    @property
    def is_free(self) -> bool:
        return not any(self.aj.moduli)

    @cached_property
    def groups(self) -> tuple:
        return tuple(FgAbGroup(self.aj.moduli * comb(self.k, p)) for p in range(self.k + 1))

    @cached_property
    def boundaries(self) -> tuple:
        return tuple(GroupHom(self.groups[p], self.groups[p - 1], self._layout(p, False))
                     for p in range(1, self.k + 1))

    def _layout(self, p: int, relations: bool) -> IntMatrix:
        """d_p laid out from ``boundary_blocks``, row by row into preallocated
        zero rows, and with ``relations`` followed by the relation columns
        of C_{p-1}; d_0 has no rows and d_{k+1} no columns."""
        n, moduli = self.aj.ambient_rank, self.aj.moduli
        torsion = [r for r, m in enumerate(moduli) if m] if relations else []
        blocks, cols = boundary_blocks(self.k, p), n * comb(self.k, p)
        # the rows of (-1)^odd rho^c for odd = 0 and 1
        signed = [(m.data, [[-x for x in row] for row in m.data]) for m in self.rhos]
        width = cols + len(torsion) * len(blocks)
        rows = [[0] * width for _ in range(n * len(blocks))]
        for a, row_blocks in enumerate(blocks):
            for b, color, odd in row_blocks:
                for r, row in enumerate(signed[color - 1][odd]):
                    rows[a * n + r][b * n:(b + 1) * n] = row
            for i, r in enumerate(torsion):
                rows[a * n + r][cols + a * len(torsion) + i] = moduli[r]
        return IntMatrix(len(rows), width, rows)

    @cached_property
    def cells(self) -> tuple:
        """H_p for p = 0..k, by the one rule of the module docstring: H_0
        first, and no other cell read when the complex is exact."""
        if self.exact:
            groups = [trivial_group()] * (self.k + 1)
        else:
            k, n, t = self.k, self.aj.ambient_rank, self.aj.ambient_rank - self.aj.free_rank
            diags = self._first_diagonals
            ranks = [sum(1 for e in diag if e) for diag in diags]
            # rank F_{p-1} - t C(k, p-1) is the rank of the free rows of d_p; d_0 has none
            groups = [FgAbGroup.from_invariants(
                [e for e in diag if e > 1],
                n * comb(k, p) - ranks[p] - (ranks[p - 1] - t * comb(k, p - 1) if p else 0))
                for p, diag in enumerate(diags)]
        return tuple(self._cell(p, group) for p, group in enumerate(groups))

    def _cell(self, p: int, group: FgAbGroup) -> HomologyResult:
        return HomologyResult(group, lambda: (self.boundary(p + 1), self.boundary(p)))

    @cached_property
    def exact(self) -> bool:
        """Whether every cell is 0: g = 1, or H_0 = 0 (Nakayama, module
        docstring), read off F_0's diagonal."""
        return self.annihilator == 1 or all(e == 1 for e in self._f0_diagonal)

    @cached_property
    def _f0_diagonal(self) -> tuple:
        """The Smith diagonal of F_0."""
        return self._first_diagonal(0)

    @cached_property
    def _first_diagonals(self) -> tuple:
        """The Smith diagonal of F_p for p = 0..k; on an exact complex its 1s
        alone, up to the rank, with no F_p laid out (module docstring)."""
        if self.exact:
            return tuple((1,) * self._rank(p) for p in range(self.k + 1))
        return (self._f0_diagonal,) + tuple(self._first_diagonal(p) for p in range(1, self.k + 1))

    def _first(self, p: int) -> IntMatrix:
        """F_p: d_{p+1} with the relation columns of C_p, over one row per
        torsion row of d_p (``abelian._first_map``, module docstring)."""
        moduli = self.aj.moduli
        rows = self._layout(p, False).data if any(moduli) else ()
        torsion = [(row, m) for row, m in zip(rows, cycle(moduli)) if m]
        return _first_map(self._layout(p + 1, True), [row for row, _ in torsion], [m for _, m in torsion])

    def _first_diagonal(self, p: int) -> tuple:
        """The Smith diagonal of F_p: over Z when g = 0, else modulo g with
        the rank of the module docstring."""
        if not self.annihilator:
            return smith_diagonal(self._first(p))
        return annihilated_smith_diagonal(self._first(p), self._rank(p), self.annihilator)

    def _rank(self, p: int) -> int:
        """rank F_p = t C(k, p) + (n - t) C(k-1, p), when g != 0 or the
        complex is exact (module docstring)."""
        n, t = self.aj.ambient_rank, sum(1 for m in self.aj.moduli if m)
        return t * comb(self.k, p) + (n - t) * comb(self.k - 1, p)

    def diagonal(self, p: int) -> tuple:
        """The Smith diagonal of the map leaving C_p, () for the end maps;
        for a free complex d_p is F_{p-1}, whose diagonal the cells read."""
        if not 1 <= p <= self.k:
            return ()
        if self.is_free:
            diag = self._first_diagonals[p - 1]
            size = self.aj.ambient_rank * min(comb(self.k, p - 1), comb(self.k, p))
            return diag + (0,) * (size - len(diag))
        return smith_diagonal(self.boundaries[p - 1].matrix)

    def boundary(self, p: int) -> GroupHom:
        """The map leaving C_p, extended by zero maps at both ends."""
        if 1 <= p <= self.k:
            return self.boundaries[p - 1]
        if p == 0:
            return zero_hom(self.groups[0], trivial_group())
        if p == self.k + 1:
            return zero_hom(trivial_group(), self.groups[self.k])
        raise ValueError(f"no boundary at position {p}")


@cache
def boundary_blocks(k: int, p: int) -> tuple:
    """The block formula of d_p, the one description that ``_layout`` and
    the JSON writer both read, kept per (k, p) as every complex of a run
    reads the same few, F_p two of them.  Entry a is row block a, the a-th
    (p-1)-tuple lambda of ``index_tuples``; it lists (b, color, odd) over
    the colors not in lambda, b ascending: column block b is the p-tuple
    mu = lambda + {color}, color = mu_i (i from 0), and the block is
    (-1)^i rho^color, odd = i % 2.  Every other block is 0."""
    position = {lam: a for a, lam in enumerate(index_tuples(k, p - 1))}
    out = [[] for _ in position]
    for b, mu in enumerate(index_tuples(k, p)):
        for i, color in enumerate(mu):
            out[position[mu[:i] + mu[i + 1:]]].append((b, color, i % 2))
    return tuple(map(tuple, out))


def build_complex(aj: FgAbGroup, rhos: tuple) -> GradedChainComplex:
    """The complex of the matrices ``rhos`` of rho^1, ..., rho^k on ``aj`` =
    A_j.  Raises CompositionNotZero unless every commutator ab - ba, taken
    over the pairs (c, d < c), vanishes in A_j: row i divisible by
    moduli[i], zero when free (``kgraph.first_noncommuting``)."""
    pair = first_noncommuting([m.data for m in rhos], aj.moduli,
                              ((c, d) for c in range(len(rhos)) for d in range(c)))
    if pair is not None:
        c, d = pair
        raise CompositionNotZero(f"boundary maps do not compose to zero: "
                                 f"rho^{d + 1} and rho^{c + 1} do not commute")
    return GradedChainComplex(aj, rhos)


def _annihilator(aj, mats) -> int:
    """gcd_c |det rho^c|, and with it the lcm of the moduli when every
    coordinate of A_j is torsion (see the module docstring)."""
    n, g = aj.ambient_rank, 0
    for m in mats:
        rank, minor, _, _ = _rank_and_minor(m)
        g = gcd(g, minor if rank == n else 0)
        if g == 1:
            return 1
    if n and all(aj.moduli):
        g = gcd(g, lcm(*aj.moduli))
    return g
