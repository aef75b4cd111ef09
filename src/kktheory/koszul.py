"""The length-(k+1) chain complex whose homology is the E2 page.

For each degree (and each part, real or complex) the p-th group is a direct
sum of one copy of A over every strictly increasing p-tuple of colors, and
the boundary block from tuple mu to the tuple with mu_i removed is
(-1)^(i+1) rho^{mu_i}.  For k = 1, 2, 3 this reproduces the familiar
two/three/four column complexes; for larger k the same block formula is used.
Column block mu of a boundary thus holds only |mu| nonzero blocks, and each
boundary is laid out row by row from those signed rho blocks into
preallocated zero rows.  Nothing is checked at build time:
``abelian.homology`` refuses any adjacent boundary pair that does not
compose to zero, and the E2 page takes the homology at every position.

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

The E2 page uses g three ways (``spectral.compute_e2``):

* g = 1: every cell is 0 and no Smith form is needed.
* g >= 2 and A_j free (real degrees 0, 4, 6 and complex degree 0): every
  cell is finite, so the complex is exact over Q and rank d_p is
  n C(k-1, p-1).  The torsion of coker d_p is ker d_{p-1} / im d_p, a cell,
  so every nonzero invariant factor of d_p divides g, and its diagonal is
  read modulo g (``abelian.annihilated_smith_diagonal``).
* g = 0, or a mixed or torsion A_j with g >= 2: the boundaries' own Smith
  diagonals, as ``abelian.homology`` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm

from .abelian import (GroupHom, IntMatrix, _rank_and_minor, annihilated_smith_diagonal,
                      direct_sum, trivial_group, zero_hom)
from .crmodule import GradedGroupA, build_graded_group, build_rho
from .kgraph import KGraphSpec, VertexPartition, validate


def index_tuples(k: int, p: int):
    """Strictly increasing p-tuples from 1..k, in lexicographic order."""
    if not 0 <= p <= k:
        return []
    return list(combinations(range(1, k + 1), p))


@dataclass(frozen=True)
class GradedChainComplex:
    """0 -> C_k -> ... -> C_0 -> 0 for one degree of one part.

    ``boundaries[p - 1]`` is the map C_p -> C_{p-1}.  ``annihilator`` is a
    g with g H = 0 for every homology cell, 0 when none is known.
    """

    part: str
    degree: int
    k: int
    groups: tuple
    boundaries: tuple
    annihilator: int = 0

    @property
    def is_free(self) -> bool:
        return not any(self.groups[0].moduli)

    def diagonal(self, p: int) -> tuple:
        """The Smith diagonal of the map leaving C_p, () for the end maps.

        A free complex with g != 0 knows each boundary's rank and a multiple
        of its invariant factors (see the module docstring) and reads the
        diagonal modulo g; any other reads the boundary's own.
        """
        if not 1 <= p <= self.k:
            return ()
        if self.is_free and self.annihilator:
            return self._annihilated_diagonals[p - 1]
        return self.boundaries[p - 1].smith_diagonal

    @cached_property
    def _annihilated_diagonals(self) -> tuple:
        n = self.groups[0].ambient_rank
        return tuple(annihilated_smith_diagonal(b.matrix, n * comb(self.k - 1, p - 1),
                                                self.annihilator)
                     for p, b in enumerate(self.boundaries, start=1))

    def boundary(self, p: int) -> GroupHom:
        """The map leaving C_p, extended by zero maps at both ends."""
        if 1 <= p <= self.k:
            return self.boundaries[p - 1]
        if p == 0:
            return zero_hom(self.groups[0], trivial_group())
        if p == self.k + 1:
            return zero_hom(trivial_group(), self.groups[self.k])
        raise ValueError(f"no boundary at position {p}")


def build_complex(spec: KGraphSpec, degree: int, part: str,
                  partition: VertexPartition | None = None,
                  graded: GradedGroupA | None = None,
                  rhos: tuple | None = None) -> GradedChainComplex:
    """The complex for one degree of one part, laid out from the rho maps.

    Each boundary starts as zero rows; every signed ``rho`` row is written
    straight into its slot, so column block mu gets its |mu| nonzero blocks
    and no zero block is built.  Nothing is checked here (see the module
    docstring).
    """
    if part not in ("real", "complex"):
        raise ValueError(f"unknown part {part!r}")
    if partition is None:
        partition = validate(spec)
    if graded is None:
        graded = build_graded_group(partition)
    if rhos is None:
        rhos = tuple(build_rho(spec, c, partition, graded) for c in range(1, spec.k + 1))
    k = spec.k
    aj = graded.group(part, degree)
    n = aj.ambient_rank

    groups = []
    for p in range(k + 1):
        copies = len(index_tuples(k, p))
        groups.append(direct_sum(*([aj] * copies)) if copies else trivial_group())

    mats = [rho.hom(part, degree).matrix for rho in rhos]
    # the rows of (-1)^i rho^c for even and for odd i
    signed = {c: (m.data, [[-x for x in row] for row in m.data])
              for c, m in enumerate(mats, start=1)}

    boundaries = []
    for p in range(1, k + 1):
        position = {lam: a for a, lam in enumerate(index_tuples(k, p - 1))}
        upper = index_tuples(k, p)
        rows = [[0] * (n * len(upper)) for _ in range(n * len(position))]
        for b, mu in enumerate(upper):
            for i, color in enumerate(mu):
                a = position[mu[:i] + mu[i + 1:]]
                for r, row in enumerate(signed[color][i % 2]):
                    rows[a * n + r][b * n:(b + 1) * n] = row
        mat = IntMatrix(len(rows), n * len(upper), rows)
        boundaries.append(GroupHom(groups[p], groups[p - 1], mat))

    return GradedChainComplex(part=part, degree=degree, k=k,
                              groups=tuple(groups), boundaries=tuple(boundaries),
                              annihilator=_annihilator(aj, mats))


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
