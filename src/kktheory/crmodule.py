"""The graded coefficient module A of CR K-theory and the maps on it.

The two free rank-one CR-modules (the K-theory of the reals and of the
complexes, viewed as real C*-algebras) combine, for a vertex partition, into
the graded module

    A = (real block)^{fixed vertices} + (complex block)^{2-orbits}

whose degree-0 complex part is Z^{vertices}.  Every adjacency matrix induces
a graded endomorphism rho of A determined by that complex part, and the
involution acts on that part by psi.  The blocks' full tables, with their
natural transformations eta, c, r, psi and the relations between them, are
test oracles in ``tests/helpers.py``.
"""

from __future__ import annotations

from typing import NamedTuple

from .abelian import FgAbGroup, GroupHom, IntMatrix, free_group, trivial_group
from .kgraph import KGraphSpec, VertexPartition

REAL_PERIOD = 8
COMPLEX_PERIOD = 2


# ---------------------------------------------------------------------------
# The graded module A and the endomorphisms rho
# ---------------------------------------------------------------------------

class GradedGroupA(NamedTuple):
    """Degreewise groups of A for a given partition.

    Real part (period 8), with nf fixed vertices and n1 two-orbits:
    degree 0 and 4: Z^nf + Z^n1; degree 1: Z_2^nf; degree 2: Z_2^nf + Z^n1;
    degree 6: Z^n1; degrees 3, 5, 7: 0.  Complex part (period 2): degree 0 is
    Z^(nf + 2 n1) in (fixed, paired, partners) coordinates, degree 1 is 0.
    """

    real: tuple
    cplx: tuple

    def group(self, part: str, degree: int) -> FgAbGroup:
        if part == "real":
            return self.real[degree % REAL_PERIOD]
        if part == "complex":
            return self.cplx[degree % COMPLEX_PERIOD]
        raise ValueError(f"unknown part {part!r}")


def build_graded_group(partition: VertexPartition) -> GradedGroupA:
    nf, n1 = partition.n_fixed, partition.n_paired
    mixed = FgAbGroup.from_invariants([2] * nf, n1)   # Z_2^nf + Z^n1
    full_free = free_group(nf + n1)
    real = (
        full_free,                       # 0
        FgAbGroup.from_invariants([2] * nf),  # 1
        mixed,                           # 2
        trivial_group(),                 # 3
        full_free,                       # 4
        trivial_group(),                 # 5
        free_group(n1),                  # 6
        trivial_group(),                 # 7
    )
    cplx = (free_group(nf + 2 * n1), trivial_group())
    return GradedGroupA(real, cplx)


# rho on the zero groups (real degrees 3, 5, 7 and complex degree 1), shared
# by every colour: groups, matrices and homomorphisms are immutable
_ZERO_ENDO = GroupHom(trivial_group(), trivial_group(), IntMatrix.zeros(0, 0))


class RhoMap(NamedTuple):
    """A single color's graded endomorphism of A."""

    real: tuple
    cplx: tuple

    def hom(self, part: str, degree: int) -> GroupHom:
        if part == "real":
            return self.real[degree % REAL_PERIOD]
        if part == "complex":
            return self.cplx[degree % COMPLEX_PERIOD]
        raise ValueError(f"unknown part {part!r}")


def build_rho(spec: KGraphSpec, color: int, partition: VertexPartition,
              graded: GradedGroupA) -> RhoMap:
    """The per-degree matrices of rho^color, read from B = I - M^t.

    B is read once from the input rows, in partition order (fixed, paired,
    partners), where the involution makes it [[b11, b12, b12], [b21, b22,
    b23], [b21, b23, b22]].  Complex degree 0 is B; real degree 0 is
    [[b11, 2 b12], [b21, b22 + b23]], degree 4 is [[b11, b12], [2 b21,
    b22 + b23]], degree 6 is b22 - b23, and degrees 1 and 2 are [b11] and
    [[b11, b12], [0, b22 - b23]] with their Z_2 rows reduced mod 2.
    ``partition`` is ``validate(spec)`` and ``graded`` its
    ``build_graded_group``."""
    if not 1 <= color <= spec.k:
        raise ValueError(f"color must be in 1..{spec.k}")
    m = spec.matrices[color - 1].data
    order = partition.order
    b = [[(v == w) - m[w][v] for w in order] for v in order]
    f, p = partition.n_fixed, partition.n_fixed + partition.n_paired
    fixed, paired = b[:f], b[f:p]
    plus = [[y + z for y, z in zip(row[f:p], row[p:])] for row in paired]
    minus = [[y - z for y, z in zip(row[f:p], row[p:])] for row in paired]
    zeros = [0] * f
    rows = {
        0: [row[:f] + [2 * x for x in row[f:p]] for row in fixed]
           + [row[:f] + s for row, s in zip(paired, plus)],
        1: [[x % 2 for x in row[:f]] for row in fixed],
        2: [[x % 2 for x in row[:p]] for row in fixed] + [zeros + d for d in minus],
        4: [row[:p] for row in fixed] + [[2 * x for x in row[:f]] + s
                                         for row, s in zip(paired, plus)],
        6: minus,
    }
    real = [_ZERO_ENDO] * REAL_PERIOD
    for degree, mat in rows.items():
        g = graded.group("real", degree)
        real[degree] = GroupHom(g, g, IntMatrix(len(mat), g.ambient_rank, mat))
    cplx_group = graded.group("complex", 0)
    cplx = (GroupHom(cplx_group, cplx_group, IntMatrix(len(b), len(b), b)), _ZERO_ENDO)
    return RhoMap(real=tuple(real), cplx=cplx)


def psi_on_A(partition: VertexPartition) -> GroupHom:
    """Degree-0 complex-part involution of A: fix the fixed block, swap the
    paired and partner blocks."""
    nf, n1 = partition.n_fixed, partition.n_paired
    g = free_group(nf + 2 * n1)
    zero_f1 = IntMatrix.zeros(nf, n1)
    zero_1f = IntMatrix.zeros(n1, nf)
    mat = IntMatrix.assemble([
        [IntMatrix.identity(nf), zero_f1, zero_f1],
        [zero_1f, IntMatrix.zeros(n1, n1), IntMatrix.identity(n1)],
        [zero_1f, IntMatrix.identity(n1), IntMatrix.zeros(n1, n1)],
    ])
    return GroupHom(g, g, mat)

