"""The length-(k+1) chain complex whose homology is the E2 page.

For each degree (and each part, real or complex) the p-th group is a direct
sum of one copy of A over every strictly increasing p-tuple of colors, and
the boundary block from tuple mu to the tuple with mu_i removed is
(-1)^(i+1) rho^{mu_i}.  For k = 1, 2, 3 this reproduces the familiar
two/three/four column complexes; for larger k the same block formula is used.
Nothing is checked at build time: ``abelian.homology`` refuses any adjacent
boundary pair that does not compose to zero, and the E2 page takes the
homology at every position.
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
    """Assemble the complex for one degree of one part from the rho maps."""
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
    rho_mats = {c: rhos[c - 1].hom(part, degree).matrix for c in range(1, k + 1)}

    groups = []
    for p in range(k + 1):
        copies = len(index_tuples(k, p))
        groups.append(direct_sum(*([aj] * copies)) if copies else trivial_group())

    boundaries = []
    for p in range(1, k + 1):
        lower = index_tuples(k, p - 1)
        upper = index_tuples(k, p)
        position = {lam: a for a, lam in enumerate(lower)}
        grid = [[IntMatrix.zeros(n, n) for _ in upper] for _ in lower]
        for b, mu in enumerate(upper):
            for i, color in enumerate(mu):
                lam = mu[:i] + mu[i + 1:]
                block = rho_mats[color] if i % 2 == 0 else -rho_mats[color]
                grid[position[lam]][b] = block
        mat = IntMatrix.assemble(grid) if lower and upper else \
            IntMatrix.zeros(groups[p - 1].ambient_rank, groups[p].ambient_rank)
        boundaries.append(GroupHom(groups[p], groups[p - 1], mat))

    return GradedChainComplex(part=part, degree=degree, k=k,
                              groups=tuple(groups), boundaries=tuple(boundaries))
