"""Finite higher-rank graphs with involution, reduced to matrix data.

A rank-k graph enters the K-theory computation only through its k pairwise
commuting vertex adjacency matrices and the vertex action of its involution.
``matrices[i][v][w]`` counts the color-(i+1) edges with source w and range v.
Edge-level structure (factorization rules, the involution's action on edges)
never appears here; it cannot change anything computed downstream except,
possibly, the differentials that are reported as ambiguous.

``first_noncommuting`` is the exact commutator test shared by ``validate``
(the M_c over Z) and ``koszul`` (the rho^c in A_j).
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import NamedTuple

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


class KGraphSpec(NamedTuple):
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


class VertexPartition(NamedTuple):
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


def first_noncommuting(mats, moduli, pairs):
    """The first (c, d) of ``pairs`` for which row i of the commutator
    mats[c] mats[d] - mats[d] mats[c] is not 0 modulo moduli[i] (not 0 at
    all where moduli[i] is 0), else None.  ``mats`` are n x n row tuples.

    Each row is packed once into one int with slot j at bit w j (Kronecker
    substitution).  Every commutator entry x has |x| <= 2 n max|entry|^2
    < 2^(w - 1), so sum_r a[i][r] packed_b[r] - b[i][r] packed_a[r] holds
    row i of the commutator in signed slots: it is 0 exactly when the row is,
    and a torsion row decodes its slots (``_signed_slots``).
    """
    n = len(moduli)
    top = max((max(map(abs, row)) for m in mats for row in m), default=0)
    w = (2 * n * top * top).bit_length() + 1
    shifts = [1 << (w * j) for j in range(n)]
    packed = [[sum(map(mul, row, shifts)) for row in m] for m in mats]
    for c, d in pairs:
        pa, pb = packed[c], packed[d]
        for m, a_row, b_row in zip(moduli, mats[c], mats[d]):
            x = sum(map(mul, a_row, pb)) - sum(map(mul, b_row, pa))
            if x and (not m or any(s % m for s in _signed_slots(x, n, w))):
                return c, d
    return None


def _signed_slots(x, n, w):
    """The n slots of width w packed into x, each read in [-2^(w-1), 2^(w-1))."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    for _ in range(n):
        s = x & mask
        x >>= w
        if s >= half:  # a negative slot borrowed 1 from the slot above it
            s -= 1 << w
            x += 1
        yield s


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
    for v, name in enumerate(spec.vertices):
        if name in spec.vertices[:v]:
            raise MalformedShape(f"vertex {name} is listed twice")

    rows = [m.data for m in spec.matrices]
    for idx, m in enumerate(rows):
        for v, row in enumerate(m):
            for w, x in enumerate(row):
                if x < 0:
                    raise NegativeEntry(idx + 1, spec.vertices[v], spec.vertices[w])

    pair = first_noncommuting(rows, (0,) * nv, combinations(range(spec.k), 2))
    if pair is not None:
        raise NonCommutingMatrices(pair[0] + 1, pair[1] + 1)

    for idx, m in enumerate(rows):
        for v, row in enumerate(m):
            if sum(row) == 0:
                raise SourceAtVertex(idx + 1, spec.vertices[v])

    gamma = spec.involution
    if sorted(gamma) != list(range(nv)):
        raise NotInvolutive("not a permutation")
    for v in range(nv):
        if gamma[gamma[v]] != v:
            raise NotInvolutive(f"square moves {spec.vertices[v]}")

    # P M P = M for the permutation matrix P of gamma, entry by entry
    for idx, m in enumerate(rows):
        if any(m[gamma[v]][gamma[w]] != x for v, row in enumerate(m) for w, x in enumerate(row)):
            raise IncompatibleInvolution(idx + 1)

    fixed = tuple(v for v in range(nv) if gamma[v] == v)
    paired = tuple(v for v in range(nv) if gamma[v] != v and v < gamma[v])
    partners = tuple(gamma[v] for v in paired)
    return VertexPartition(fixed=fixed, paired=paired, partners=partners)
