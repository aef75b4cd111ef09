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

from dataclasses import dataclass

from .abelian import FgAbGroup, GroupHom, IntMatrix, free_group, trivial_group
from .kgraph import KGraphSpec, VertexPartition, block_decompose, validate

REAL_PERIOD = 8
COMPLEX_PERIOD = 2


# ---------------------------------------------------------------------------
# The graded module A and the endomorphisms rho
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedGroupA:
    """Degreewise groups of A for a given partition.

    Real part (period 8), with nf fixed vertices and n1 two-orbits:
    degree 0 and 4: Z^nf + Z^n1; degree 1: Z_2^nf; degree 2: Z_2^nf + Z^n1;
    degree 6: Z^n1; degrees 3, 5, 7: 0.  Complex part (period 2): degree 0 is
    Z^(nf + 2 n1) in (fixed, paired, partners) coordinates, degree 1 is 0.
    """

    n_fixed: int
    n_paired: int
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
    return GradedGroupA(nf, n1, real, cplx)


def _reduce_rows(mat: IntMatrix, moduli) -> IntMatrix:
    """Reduce entries of row i modulo moduli[i] (0 means leave alone)."""
    rows = []
    for i, row in enumerate(mat.data):
        m = moduli[i]
        rows.append([x % m for x in row] if m else list(row))
    return IntMatrix(mat.rows, mat.cols, rows)


@dataclass(frozen=True)
class RhoMap:
    """A single color's graded endomorphism of A."""

    color: int
    real: tuple
    cplx: tuple

    def hom(self, part: str, degree: int) -> GroupHom:
        if part == "real":
            return self.real[degree % REAL_PERIOD]
        if part == "complex":
            return self.cplx[degree % COMPLEX_PERIOD]
        raise ValueError(f"unknown part {part!r}")


def build_rho(spec: KGraphSpec, color: int,
              partition: VertexPartition | None = None,
              graded: GradedGroupA | None = None) -> RhoMap:
    """Assemble the per-degree matrices of rho^color from the blocks of
    B = I - M^t.  Degree 0 complex is the full reordered B; the real degrees
    follow the fixed block pattern (torsion rows reduced mod 2)."""
    if partition is None:
        partition = validate(spec)
    if graded is None:
        graded = build_graded_group(partition)
    blocks = block_decompose(spec, color, partition)
    nf, n1 = partition.n_fixed, partition.n_paired
    b11, b12, b21 = blocks.b11, blocks.b12, blocks.b21
    plus = blocks.b22 + blocks.b23
    minus = blocks.b22 - blocks.b23
    mixed_mods = [2] * nf + [0] * n1

    deg0 = IntMatrix.assemble([[b11, b12.scaled(2)], [b21, plus]])
    deg1 = _reduce_rows(b11, [2] * nf)
    deg2 = _reduce_rows(IntMatrix.assemble([[b11, b12], [IntMatrix.zeros(n1, nf), minus]]),
                        mixed_mods)
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
    cplx = (
        GroupHom(cplx_group, cplx_group, blocks.reassemble()),
        zero_endo,
    )
    return RhoMap(color=color, real=real, cplx=cplx)


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

