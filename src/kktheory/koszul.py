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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .abelian import GroupHom, IntMatrix, direct_sum, trivial_group, zero_hom
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

    ``boundaries[p - 1]`` is the map C_p -> C_{p-1}.
    """

    part: str
    degree: int
    k: int
    groups: tuple
    boundaries: tuple

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

    # the rows of (-1)^i rho^c for even and for odd i
    signed = {c: (m.data, [[-x for x in row] for row in m.data])
              for c, m in enumerate((rho.hom(part, degree).matrix for rho in rhos), start=1)}

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
                              groups=tuple(groups), boundaries=tuple(boundaries))
