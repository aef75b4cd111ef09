"""Finite higher-rank graphs with involution, reduced to matrix data.

A rank-k graph enters the K-theory computation only through its k pairwise
commuting vertex adjacency matrices and the vertex action of its involution.
``matrices[i][v][w]`` counts the color-(i+1) edges with source w and range v.
Edge-level structure (factorization rules, the involution's action on edges)
never appears here; it cannot change anything computed downstream except,
possibly, the differentials that are reported as ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import IntMatrix


class KGraphError(Exception):
    pass


class MalformedShape(KGraphError, ValueError):
    """Wrong rank, matrix count or size, or involution length."""


class NegativeEntry(KGraphError):
    def __init__(self, color, v, w):
        self.color, self.v, self.w = color, v, w
        super().__init__(f"NegativeEntry(color={color},{v},{w})")


class NonCommutingMatrices(KGraphError):
    def __init__(self, i, j):
        self.colors = (i, j)
        super().__init__(f"NonCommutingMatrices({i},{j})")


class SourceAtVertex(KGraphError):
    def __init__(self, color, vertex):
        self.color, self.vertex = color, vertex
        super().__init__(f"SourceAtVertex({color},{vertex})")


class NotInvolutive(KGraphError):
    def __init__(self, detail=""):
        super().__init__(f"NotInvolutive({detail})")


class IncompatibleInvolution(KGraphError):
    def __init__(self, color):
        self.color = color
        super().__init__(f"IncompatibleInvolution({color})")


@dataclass(frozen=True)
class KGraphSpec:
    """k adjacency matrices on a common vertex set plus an involution.

    ``involution[v]`` is the (0-based) image of vertex v.  Colors are 1-based
    in every public interface, matching the usual rho^1, ..., rho^k naming.
    """

    k: int
    vertices: tuple
    matrices: tuple
    involution: tuple

    @staticmethod
    def from_lists(k, vertices, matrices, involution) -> "KGraphSpec":
        nv = len(vertices)
        mats = tuple(IntMatrix(nv, nv, m) if not isinstance(m, IntMatrix) else m
                     for m in matrices)
        return KGraphSpec(k=int(k), vertices=tuple(str(v) for v in vertices),
                          matrices=mats, involution=tuple(int(x) for x in involution))

    @property
    def vertex_count(self):
        return len(self.vertices)


@dataclass(frozen=True)
class VertexPartition:
    """Vertex indices split into fixed points and 2-orbits of the involution.

    ``paired`` holds the smaller index of each swapped pair, ``partners`` the
    aligned images, so the canonical coordinate order for the complex part is
    fixed + paired + partners.
    """

    fixed: tuple
    paired: tuple
    partners: tuple

    @property
    def order(self):
        return self.fixed + self.paired + self.partners

    @property
    def n_fixed(self):
        return len(self.fixed)

    @property
    def n_paired(self):
        return len(self.paired)


def validate(spec: KGraphSpec) -> VertexPartition:
    """Check every structural constraint and return the canonical partition.

    Raises MalformedShape, NegativeEntry, NonCommutingMatrices,
    SourceAtVertex, NotInvolutive or IncompatibleInvolution, all KGraphErrors.
    """
    nv = spec.vertex_count
    if spec.k < 1:
        raise MalformedShape("rank k must be at least 1")
    if len(spec.matrices) != spec.k:
        raise MalformedShape(f"expected {spec.k} adjacency matrices, got {len(spec.matrices)}")
    for idx, m in enumerate(spec.matrices):
        if m.shape != (nv, nv):
            raise MalformedShape(f"matrix {idx + 1} is {m.shape}, expected {nv}x{nv}")
    if len(spec.involution) != nv:
        raise MalformedShape("involution must list one image per vertex")

    for idx, m in enumerate(spec.matrices):
        for v in range(nv):
            for w in range(nv):
                if m[v, w] < 0:
                    raise NegativeEntry(idx + 1, spec.vertices[v], spec.vertices[w])

    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            if spec.matrices[i] @ spec.matrices[j] != spec.matrices[j] @ spec.matrices[i]:
                raise NonCommutingMatrices(i + 1, j + 1)

    for idx, m in enumerate(spec.matrices):
        for v in range(nv):
            if sum(m.row(v)) == 0:
                raise SourceAtVertex(idx + 1, spec.vertices[v])

    gamma = spec.involution
    if sorted(gamma) != list(range(nv)):
        raise NotInvolutive("not a permutation")
    for v in range(nv):
        if gamma[gamma[v]] != v:
            raise NotInvolutive(f"square moves {spec.vertices[v]}")

    p = IntMatrix(nv, nv, [[1 if gamma[i] == j else 0 for j in range(nv)] for i in range(nv)])
    for idx, m in enumerate(spec.matrices):
        if p @ m @ p != m:
            raise IncompatibleInvolution(idx + 1)

    fixed = tuple(v for v in range(nv) if gamma[v] == v)
    paired = tuple(v for v in range(nv) if gamma[v] != v and v < gamma[v])
    partners = tuple(gamma[v] for v in paired)
    return VertexPartition(fixed=fixed, paired=paired, partners=partners)


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
