"""Exact linear algebra over the integers and finitely generated abelian groups.

All arithmetic is done with arbitrary-precision Python integers; nothing here
ever touches floating point, so results are exact at any size.  The pieces:

* ``IntMatrix`` -- immutable integer matrices of any shape, including empty
  shapes like 0 x n, which occur routinely as boundary maps of trivial groups.
* ``smith_normal_form`` -- ``u @ m @ v == d`` with unimodular ``u``, ``v`` and
  a divisibility chain ``d[0][0] | d[1][1] | ...`` of nonnegative entries;
  ``smith_diagonal`` computes the diagonal alone: pivots +-1 first, over Z,
  then lazily scaled Bareiss elimination on what they leave for one nonzero
  minor D, then the rest modulo D.  By Sylvester's identity no intermediate
  entry exceeds the Hadamard bound.  ``annihilated_smith_diagonal`` needs
  no minor: given the rank and a multiple of every nonzero invariant factor
  (a Koszul complex's annihilator, see ``koszul``), it reads the chain
  modulo that, as ``smith_diagonal`` does modulo D (``_chain_mod``).
  Nothing is memoized across calls: a homology cell keeps the
  decomposition of its kernel lattice.
* ``FgAbGroup`` -- a finitely generated abelian group Z^n modulo one modulus
  per coordinate (0 for a free coordinate), carrying its canonical
  invariant-factor decomposition.  Every group of the calculator has this
  form: the coefficient groups are sums of Z, Z_2 and 0, and every later
  group is built from its invariants.  Equality of groups means equality of
  canonical forms.
* ``GroupHom`` -- an integer matrix between such groups; the constructor
  certifies that the matrix descends to a well-defined homomorphism, one
  divisibility check per target coordinate.
* ``homology`` -- ker/im of a two-step complex of presented groups, returned
  in canonical form together with ambient lifts of its generators, so that
  maps induced on homology can be computed afterwards (``induced_hom``).
  Every group is read from bounded Smith diagonals of a complex of free
  modules with the same homology, whose first map is ``_first_map``; a
  cell's kernel lattice and lifts are built only when asked for.
* ``extension_candidates`` -- the isomorphism classes of finite abelian groups
  with given filtration factors, and ``injection_cokernels`` -- the cokernels
  of injections, both read prime by prime by the Hall / Littlewood-Richardson
  criterion.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from itertools import product as _cartesian
from math import gcd, prod
from typing import NamedTuple


class CompositionNotZero(Exception):
    """Two supposedly consecutive boundary maps do not compose to zero."""


class NotWellDefined(Exception):
    """A matrix does not send source relations into target relations."""


class NotChainMap(Exception):
    """A map fails to carry one kernel lattice into another."""


class BoundExceeded(Exception):
    """A configured search bound was exceeded."""


class InfiniteInput(Exception):
    """A finite group was required but an infinite one was supplied."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Immutable matrix of Python ints, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, entries):
        entries = tuple(map(tuple, entries))
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"expected {rows}x{cols} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows, cols):
        return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def column(values):
        values = list(values)
        return IntMatrix(len(values), 1, [[v] for v in values])

    @staticmethod
    def from_columns(columns, rows=None):
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValueError("row count needed for a matrix with no columns")
            rows = len(columns[0])
        return IntMatrix(rows, len(columns),
                         [[c[i] for c in columns] for i in range(rows)])

    @staticmethod
    def hstack(*mats):
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("row counts differ")
        return IntMatrix(rows, sum(m.cols for m in mats),
                         [sum((m.data[i] for m in mats), ()) for i in range(rows)])

    @staticmethod
    def vstack(*mats):
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column counts differ")
        return IntMatrix(sum(m.rows for m in mats), cols,
                         [row for m in mats for row in m.data])

    @staticmethod
    def assemble(grid):
        """Build a block matrix from a grid (list of lists) of IntMatrix."""
        stripes = [IntMatrix.hstack(*row) for row in grid]
        return IntMatrix.vstack(*stripes)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def columns(self, indices):
        return IntMatrix(self.rows, len(indices),
                         [[row[j] for j in indices] for row in self.data])

    def top_rows(self, n):
        return IntMatrix(n, self.cols, self.data[:n])

    def __matmul__(self, other):
        """The exact product, summed over nonzero entries only: each row of
        ``self`` adds ``a`` times row r of ``other`` for every nonzero entry
        ``a`` in column r, touching only the nonzero entries of that row."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        sparse = [[(j, y) for j, y in enumerate(row) if y] for row in other.data]
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for a, terms in zip(row, sparse):
                if a:
                    for j, y in terms:
                        acc[j] += a * y
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s):
        return IntMatrix(self.rows, self.cols,
                         [[s * a for a in row] for row in self.data])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def tolist(self):
        return [list(r) for r in self.data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.tolist()})"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SnfDecomposition(NamedTuple):
    """u @ m @ v == d; u, v unimodular; d diagonal, nonnegative, d_i | d_{i+1}.

    ``diagonal`` holds the min(rows, cols) diagonal entries of d and ``shape``
    the shape of m.  ``u_inv`` is
    tracked alongside because image bases and generator lifts need it.  A
    caller that solves against the same m more than once keeps this object
    and calls ``solve`` on it.
    """

    diagonal: tuple
    shape: tuple
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    @property
    def rank(self):
        return sum(1 for e in self.diagonal if e != 0)

    def solve(self, b: IntMatrix):
        """Solve ``m @ x == b`` over the integers, columnwise.

        Returns an IntMatrix ``x`` with one column per column of ``b``, or
        None if some column of ``b`` is not in the column span of m.
        """
        if self.shape[0] != b.rows:
            raise ValueError("row counts differ")
        diag, r = self.diagonal, self.rank
        xcols = []
        for j in range(b.cols):
            c = self.u.apply(b.col(j))
            if any(c[i] % diag[i] for i in range(r)) or any(c[r:]):
                return None
            xcols.append(self.v.apply([c[i] // diag[i] for i in range(r)]
                                      + [0] * (self.shape[1] - r)))
        return IntMatrix.from_columns(xcols, rows=self.shape[1])


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivoting always picks the remaining entry of smallest nonzero absolute
    value, which makes the output deterministic.  Only ``d`` is canonical;
    ``u`` and ``v`` are just *some* witnesses, so tests should check
    identities, not their literal entries.  Each call decomposes afresh;
    ``smith_diagonal`` computes the diagonal alone with bounded entries.
    """
    rows, cols = m.rows, m.cols
    d = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    ui = [row[:] for row in u]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_swap(a, b):
        d[a], d[b] = d[b], d[a]
        u[a], u[b] = u[b], u[a]
        for r in ui:
            r[a], r[b] = r[b], r[a]

    def row_add(a, b, q):  # row a += q * row b
        d[a] = [x + q * y for x, y in zip(d[a], d[b])]
        u[a] = [x + q * y for x, y in zip(u[a], u[b])]
        for r in ui:
            r[b] -= q * r[a]

    def row_negate(a):
        d[a] = [-x for x in d[a]]
        u[a] = [-x for x in u[a]]
        for r in ui:
            r[a] = -r[a]

    def col_swap(a, b):
        for r in d:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]

    def col_add(a, b, q):  # col a += q * col b
        for r in d:
            r[a] += q * r[b]
        for r in v:
            r[a] += q * r[b]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(best[0], t)
        if best[1] != t:
            col_swap(best[1], t)
        while True:
            pivot = d[t][t]
            changed = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // pivot
                    if q:
                        row_add(i, t, -q)
                    if d[i][t]:  # remainder is a strictly smaller pivot
                        row_swap(i, t)
                        changed = True
                        break
            if changed:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // pivot
                    if q:
                        col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(j, t)
                        changed = True
                        break
            if changed:
                continue
            culprit = None
            for i in range(t + 1, rows):
                if any(d[i][j] % pivot for j in range(t + 1, cols)):
                    culprit = i
                    break
            if culprit is None:
                break
            row_add(t, culprit, 1)  # absorb a non-divisible entry, then re-clear
        t += 1

    for i in range(limit):
        if d[i][i] < 0:
            row_negate(i)

    return SnfDecomposition(
        diagonal=tuple(d[i][i] for i in range(limit)),
        shape=m.shape,
        u=IntMatrix(rows, rows, u),
        v=IntMatrix(cols, cols, v),
        u_inv=IntMatrix(rows, rows, ui),
    )


def smith_diagonal(m: IntMatrix) -> tuple:
    """The Smith diagonal of ``m``, with every intermediate entry bounded.

    ``_rank_and_minor`` takes every pivot of absolute value 1 first, each
    an invariant factor 1, then runs fraction-free elimination on the
    remainder for the rank r and a nonzero r x r minor D.  Every other
    nonzero invariant factor divides D, so the remainder is read modulo D
    (``_chain_mod``).  Every stored entry is a minor of ``m`` or a residue
    below D, so none exceeds the Hadamard bound of ``m``.
    """
    rank, minor, units, rest = _rank_and_minor(m)
    zeros = (0,) * (min(m.rows, m.cols) - rank)
    if minor == 1:
        return (1,) * rank + zeros
    return (1,) * units + _chain_mod(rest, rank - units, minor) + zeros


def annihilated_smith_diagonal(m: IntMatrix, rank: int, modulus: int) -> tuple:
    """The Smith diagonal of ``m``, given its rank and a ``modulus`` >= 1
    that every nonzero invariant factor divides, read modulo that with no
    minor (``_chain_mod``).  Raises RuntimeError on a rank above
    min(rows, cols), or on one that the chain refutes."""
    size = min(m.rows, m.cols)
    if rank > size:
        raise RuntimeError(f"a {m.rows} x {m.cols} matrix cannot have rank {rank}")
    zeros = (0,) * (size - rank)
    if modulus == 1:
        return (1,) * rank + zeros
    return _chain_mod(m.data, rank, modulus) + zeros


def _chain_mod(rows, rank, modulus) -> tuple:
    """The ``rank`` nonzero invariant factors of ``rows``, each dividing
    ``modulus`` >= 2 (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.4.14).  Over Z/modulus the rows are equivalent to
    diag(d_1, ..., d_rank, 0, ...), so the gcds with ``modulus`` of a
    diagonal found there, padded with ``modulus`` to ``rank`` entries, sort
    into the chain d_1, ..., d_rank, then ``modulus`` alone.  The cut comes
    after sorting, as modulo a composite there can be more nonzero residues
    than the rank: diag(2, 3) is diag(1, 6) modulo 6.  Raises RuntimeError
    if an entry past the rank is not ``modulus``.
    """
    ideals = [gcd(e, modulus) for e in _diagonal_mod(rows, modulus)]
    chain = _divisibility_chain(ideals + [modulus] * (rank - len(ideals)))
    if any(e != modulus for e in chain[rank:]):
        raise RuntimeError(f"a matrix of rank {rank} has invariant factors "
                           f"{chain} modulo {modulus}")
    return tuple(chain[:rank])


def _rank_and_minor(m: IntMatrix):
    """(r, D, u, rest): the rank r of ``m``, the absolute value D of one
    nonzero r x r minor, and the u pivots of absolute value 1 taken first
    with the remainder ``rest`` (rows, zero columns dropped) they leave.

    A unit pivot is plain elimination (``_peel_units``).  By Sylvester's
    identity each remainder entry is the minor on the pivots so far plus its
    own row and column, divided by the pivot block's determinant +-1, so it
    is +- a minor of ``m``.  Bareiss elimination then runs on ``rest``: after
    each step every remaining entry is such a minor again, the divisions are
    exact and the last pivot is D.  A row whose pivot-column entry is 0 is
    only rescaled by pivot / prev, so it keeps the pivot it was last brought
    to, s, and is caught up when next used: as the pivot row by x * prev / s,
    and against a pivot row y by (pivot * x - c * y) / s, the scale factors
    telescoping in between.  No row is changed in place, so ``rest`` is
    returned as the unit pivots left it.
    """
    units, rest = _peel_units([list(row) for row in m.data if any(row)])
    rows = [(row, 1) for row in rest]
    rank, prev = units, 1
    while rows:
        prow, s = rows.pop()
        j = min((j for j, e in enumerate(prow) if e), key=lambda j: abs(prow[j]))
        if s != prev:
            prow = [x * prev // s for x in prow]
        pivot = prow[j]
        if pivot < 0:  # negating a row only flips the sign of the minors
            pivot, prow = -pivot, [-x for x in prow]
        remaining = []
        for row, s in rows:
            c = row[j]
            if c:
                row = [(pivot * x - c * y) // s for x, y in zip(row, prow)]
                if any(row):
                    remaining.append((row, pivot))
            else:
                remaining.append((row, s))
        rows, rank, prev = remaining, rank + 1, pivot
    return rank, prev, units, rest


def _peel_units(rows, modulus=0):
    """Eliminate unit pivots while any is left, over Z/modulus, or over Z
    with units +-1 when the modulus is 0: the number taken and the nonzero
    rows left, with their zero columns dropped.  ``rows`` (nonzero lists)
    is consumed.

    A row is scanned once, and again only after an elimination changed it.
    An elimination subtracts a multiple of the pivot row from each row with
    a nonzero entry in the pivot column, touching only the pivot row's
    nonzero columns, and so zeroes that column.
    """
    todo, queued, units = list(range(len(rows)))[::-1], [True] * len(rows), 0
    while todo:
        i = todo.pop()
        queued[i], row = False, rows[i]
        if modulus:
            j = next((j for j, e in enumerate(row) if e and gcd(e, modulus) == 1), None)
        else:
            j = row.index(1) if 1 in row else row.index(-1) if -1 in row else None
        if j is None:
            continue
        rows[i], units = None, units + 1
        inv = pow(row[j], -1, modulus) if modulus else row[j]
        terms = [(l, y * inv % modulus if modulus else y * inv) for l, y in enumerate(row) if y]
        for t, other in enumerate(rows):
            if other is not None and other[j]:
                c = other[j]
                if modulus:
                    for l, y in terms:
                        other[l] = (other[l] - c * y) % modulus
                else:
                    for l, y in terms:
                        other[l] -= c * y
                if not queued[t]:
                    queued[t] = True
                    todo.append(t)
    rest = [row for row in rows if row is not None and any(row)]
    keep = [l for l, col in enumerate(zip(*rest)) if any(col)]
    return units, [[row[l] for l in keep] for row in rest]


def _diagonal_mod(rows, modulus):
    """The nonzero entries of a diagonal matrix equivalent to ``rows`` over
    Z/modulus.

    Unit pivots are peeled off first (``_peel_units``); what is left goes
    through a Smith loop of extended-gcd row and column operations.
    """
    units, rows = _peel_units(
        [row for row in ([x % modulus for x in row] for row in rows) if any(row)], modulus)
    diag = [1] * units
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


def _combine(p, x, a, b, modulus):
    """Replace vectors a, b (with entries p, x at the pivot) by a unimodular
    combination whose pivot entries are gcd(p, x) and 0."""
    g, s, t = _xgcd(p, x)
    pg, xg = p // g, x // g
    return (g,
            [(s * y + t * z) % modulus for y, z in zip(a, b)],
            [(pg * z - xg * y) % modulus for y, z in zip(a, b)])


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b for positive a, b; (a, 1, 0)
    when a divides b, so that the combination then leaves ``a`` in place."""
    if b % a == 0:
        return a, 1, 0
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _divisibility_chain(values):
    """Invariant factors d_1 | d_2 | ... of diag(values > 0), by gcd/lcm swaps."""
    chain = sorted(values)
    if all(b % a == 0 for a, b in zip(chain, chain[1:])):
        return chain  # by transitivity no swap would change it
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            g = gcd(a, b)
            chain[i], chain[j] = g, a // g * b
    return chain


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

class FgAbGroup:
    """Z^n modulo one modulus per coordinate, plus its canonical form.

    ``moduli[i]`` is the order of the i-th generator, 0 for a free coordinate.
    ``invariant_factors`` is the divisibility chain d_1 | d_2 | ... (each at
    least 2) and ``free_rank`` the number of Z summands, both computed once
    from the moduli.  Two groups compare equal when their canonical forms
    agree, i.e. when they are isomorphic; use ``same_presentation`` when
    literal coordinates matter.  Immutable.
    """

    __slots__ = ("moduli", "invariant_factors", "free_rank")

    def __init__(self, moduli: tuple):
        chain = _divisibility_chain([abs(m) for m in moduli if m])
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "invariant_factors", tuple(d for d in chain if d != 1))
        object.__setattr__(self, "free_rank", moduli.count(0))

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

    @property
    def ambient_rank(self):
        return len(self.moduli)

    @property
    def relations(self) -> IntMatrix:
        """The relations as columns m_i e_i, one per coordinate with m_i != 0,
        in coordinate order."""
        n = len(self.moduli)
        return IntMatrix.from_columns(
            [[m if r == i else 0 for r in range(n)] for i, m in enumerate(self.moduli) if m],
            rows=n)

    @property
    def canonical(self):
        return (self.invariant_factors, self.free_rank)

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    @property
    def is_trivial(self):
        return not self.invariant_factors and self.free_rank == 0

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def exponent(self):
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def generator_count(self):
        return len(self.invariant_factors) + self.free_rank

    def describe(self) -> str:
        """Render as "0", "Z", "Z_2 + Z_4 + Z" (torsion in chain order, then Z's)."""
        parts = [f"Z_{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"

    __str__ = describe

    def __repr__(self):
        return f"FgAbGroup({self.describe()!r})"

    @staticmethod
    def from_invariants(factors, free_rank=0) -> "FgAbGroup":
        """Group with one generator per cyclic factor, then ``free_rank`` free
        ones; ``trivial_group()`` when there are none."""
        moduli = tuple(int(d) for d in factors) + (0,) * free_rank
        return FgAbGroup(moduli) if moduli else _TRIVIAL


def free_group(n: int) -> FgAbGroup:
    return FgAbGroup((0,) * n)


_TRIVIAL = FgAbGroup(())


def trivial_group() -> FgAbGroup:
    """The zero group: one shared instance, as groups are immutable."""
    return _TRIVIAL


def same_presentation(a: FgAbGroup, b: FgAbGroup) -> bool:
    return a.moduli == b.moduli


def _vanishes_in(g: FgAbGroup, rows) -> bool:
    """Whether every column of ``rows`` (one row per coordinate of g) lies in
    the relations of g: row i is divisible by moduli[i], or zero when free."""
    return all(all(x % m == 0 for x in row) if m else not any(row)
               for m, row in zip(g.moduli, rows))


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class GroupHom:
    """Integer matrix source -> target, checked well-defined on cokernels.
    Immutable."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.shape != (target.ambient_rank, source.ambient_rank):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{target.ambient_rank}x{source.ambient_rank}")
        scales = source.moduli
        if any(scales):  # a free source has no relation to map
            # the source relation m_j e_j maps to m_j times column j
            images = ([x * m for x, m in zip(row, scales) if m] for row in matrix.data)
            if not _vanishes_in(target, images):
                raise NotWellDefined(
                    "matrix does not map source relations into target relations")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("GroupHom is immutable")

    def __repr__(self):
        return f"GroupHom({self.source.describe()} -> {self.target.describe()})"


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> GroupHom:
    return GroupHom(source, target, IntMatrix.zeros(target.ambient_rank, source.ambient_rank))


class KernelLattice(NamedTuple):
    basis: IntMatrix
    snf: SnfDecomposition


def kernel_lattice(h: GroupHom) -> KernelLattice:
    """Basis of { x in Z^ambient(source) : h(x) lies in the target relations span },
    with a decomposition of it taken from the Smith form that picked it.

    The induced subgroup of the source is exactly ker(h); note the lattice
    always contains the source relations, so ker(h) is this lattice modulo
    source relations.  With g = SNF(generators), the basis is
    u_inv[:, :r] diag(d), so g.u @ basis = [diag(d); 0] with v = I_r: a
    decomposition of the basis, which has full column rank, so every
    ``solve`` against it has at most one answer.  Into a group with no
    coordinates the generators are I_n, whose Smith form moves nothing, so
    both are the identity.
    """
    n = h.source.ambient_rank
    if not h.target.ambient_rank:
        ident = IntMatrix.identity(n)
        return KernelLattice(ident, SnfDecomposition((1,) * n, (n, n), ident, ident, ident))
    stacked = IntMatrix.hstack(h.matrix, h.target.relations)
    s = smith_normal_form(stacked)
    generators = s.v.columns(range(s.rank, stacked.cols)).top_rows(n)
    g = smith_normal_form(generators)  # a basis of the span of the generators
    r = g.rank
    basis = IntMatrix.from_columns(
        [[g.diagonal[j] * x for x in g.u_inv.col(j)] for j in range(r)], rows=n)
    return KernelLattice(basis, SnfDecomposition(g.diagonal[:r], (n, r), g.u,
                                                 IntMatrix.identity(r), g.u_inv))


# ---------------------------------------------------------------------------
# Homology of two consecutive maps
# ---------------------------------------------------------------------------

class _LatticeData(NamedTuple):
    """Kernel lattice of a homology cell, the decomposition that solves
    against its basis, and its canonical change of basis."""

    basis: IntMatrix
    basis_snf: SnfDecomposition
    lift: IntMatrix
    transform: IntMatrix       # row transform of the SNF of the inner relations
    diag: tuple
    kept: tuple                # indices of canonical generators in z-coordinates


class HomologyResult:
    """ker(d_out)/im(d_in) in canonical form, with ambient generator lifts.

    ``lift`` column i is an element of the middle group's ambient lattice
    representing canonical generator i (torsion generators first, in chain
    order, then free ones).  Enough of the change of basis is retained to
    express further ambient kernel elements in these generators.  ``group``
    is read from Smith diagonals alone or known outright; ``maps()`` gives
    (d_in, d_out), read for the kernel lattice behind
    ``kernel_lattice_basis``, ``lift`` and ``express``, which is built on
    first use and raises RuntimeError if its group disagrees.  Immutable,
    but for the lattice cached in its ``__dict__``.
    """

    def __init__(self, group: FgAbGroup, maps: Callable[[], tuple]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "maps", maps)

    def __setattr__(self, name, value):
        raise AttributeError("HomologyResult is immutable")

    @property
    def middle(self) -> FgAbGroup:
        return self.maps()[0].target

    @cached_property
    def _lattice(self) -> _LatticeData:
        d_in, d_out = self.maps()
        group, data = _lattice_homology(d_in.matrix, d_in.target, d_out)
        if group != self.group:
            raise RuntimeError(f"kernel lattice gives {group.describe()}, "
                               f"Smith diagonals gave {self.group.describe()}")
        return data

    @property
    def kernel_lattice_basis(self) -> IntMatrix:
        return self._lattice.basis

    @property
    def lift(self) -> IntMatrix:
        return self._lattice.lift

    def express(self, vec):
        """Coordinates of an ambient kernel element in the canonical generators."""
        data = self._lattice
        w = data.basis_snf.solve(IntMatrix.column(vec))
        if w is None:
            raise ValueError("element does not lie in the kernel lattice")
        z = data.transform.apply(w.col(0))
        coords = []
        torsion = len(self.group.invariant_factors)
        for pos, j in enumerate(data.kept):
            if pos < torsion:
                coords.append(z[j] % data.diag[j])
            else:
                coords.append(z[j])
        return tuple(coords)


def _lattice_homology(boundary_in: IntMatrix, middle: FgAbGroup, d_out: GroupHom):
    """Homology group and lattice data through the kernel lattice of d_out,
    solved against with the decomposition that ``kernel_lattice`` returns
    with it; one more Smith form reads the image of d_in in the lattice."""
    lattice, lattice_snf = kernel_lattice(d_out)
    inner = IntMatrix.hstack(boundary_in, middle.relations)
    relations_in_lattice = lattice_snf.solve(inner)
    if relations_in_lattice is None:  # impossible once composition is zero
        raise RuntimeError("image escaped the kernel lattice")
    s = smith_normal_form(relations_in_lattice)
    diag = s.diagonal
    rank = s.rank
    torsion_idx = [j for j in range(rank) if diag[j] >= 2]
    free_idx = list(range(rank, lattice.cols))
    kept = torsion_idx + free_idx
    group = FgAbGroup.from_invariants([diag[j] for j in torsion_idx], len(free_idx))
    lift = lattice @ s.u_inv.columns(kept)
    return group, _LatticeData(lattice, lattice_snf, lift, s.u, diag, tuple(kept))


def _first_map(d_in: GroupHom, d_out: GroupHom, composite: IntMatrix | None = None) -> IntMatrix:
    """The first map of the free complex that ``_diagonal_homology`` reads,
    d_in's matrix when M and N are free.  ``composite``, the matrix of
    d_out d_in, is formed and checked (``_composite``) when None and read,
    that is when N has a torsion coordinate."""
    mu, nu = d_in.target.moduli, d_out.target.moduli
    if not any(mu) and not any(nu):
        return d_in.matrix
    if composite is None and any(nu):
        composite = _composite(d_in, d_out)
    b = d_out.matrix.data
    kept = [j for j, m in enumerate(mu) if m]
    rows = list(IntMatrix.hstack(d_in.matrix, d_in.target.relations).data)
    rows += [[-x // nu[i] for x in composite.data[i]] + [-b[i][j] * mu[j] // nu[i] for j in kept]
             for i in range(len(nu)) if nu[i]]
    return IntMatrix(len(rows), d_in.matrix.cols + len(kept), rows)


def _diagonal_homology(d_in: GroupHom, d_out: GroupHom, composite: IntMatrix) -> FgAbGroup:
    """The homology group of S -A-> M -B-> N from bounded Smith diagonals;
    ``composite`` is the matrix of B A.

    With M = Z^n / diag(mu), N = Z^m / diag(nu), their relation columns R_M
    and R_N, and T the coordinates with nu_i != 0, the cell has the homology
    of the free complex

        [[A, R_M], [-(B A)_T / nu_T, -(B R_M)_T / nu_T]]  then  [B | R_N],

    whose divisions are exact since B A and B R_M vanish in N.  Projecting
    ker [B | R_N] to its first n coordinates is injective (the columns of R_N
    are independent), with image the kernel lattice {x : Bx in span R_N};
    the first map covers im A + im R_M.  A kernel of free modules is
    saturated, so the torsion is the Smith diagonal of the first map and the
    free rank is n + |T| - rk [B | R_N] - rk(first map), where
    rk [B | R_N] = |T| + rk(rows of B outside T).  There is one path: when M
    and N are free the first map is A and every row of B is outside T.
    """
    diag_in = smith_diagonal(_first_map(d_in, d_out, composite))
    n = d_in.target.ambient_rank
    outside = [row for row, m in zip(d_out.matrix.data, d_out.target.moduli) if not m]
    rank_out = _rank_and_minor(IntMatrix(len(outside), n, outside))[0]
    rank = n - rank_out - sum(1 for e in diag_in if e)
    return FgAbGroup.from_invariants([e for e in diag_in if e >= 2], rank)


def _composite(d_in: GroupHom, d_out: GroupHom) -> IntMatrix:
    """The matrix of d_out d_in; CompositionNotZero unless it vanishes as a
    map of presented groups."""
    composite = d_out.matrix @ d_in.matrix
    if not _vanishes_in(d_out.target, composite.data):
        raise CompositionNotZero("boundary maps do not compose to zero")
    return composite


def homology(d_in: GroupHom, d_out: GroupHom) -> HomologyResult:
    """Homology at the middle of ``. -> middle -> .`` with generator lifts.

    Raises CompositionNotZero unless d_out o d_in vanishes as a map of
    presented groups.  The group is read from Smith diagonals with bounded
    entries (``_diagonal_homology``); the kernel lattice and the lifts are
    built only when asked for.
    """
    if not same_presentation(d_in.target, d_out.source):
        raise ValueError("middle groups of the two boundary maps differ")
    group = _diagonal_homology(d_in, d_out, _composite(d_in, d_out))
    return HomologyResult(group, lambda: (d_in, d_out))


def induced_hom(f: GroupHom, h_src: HomologyResult, h_tgt: HomologyResult) -> GroupHom:
    """Map induced on homology by a chain map component ``f``.

    Raises NotChainMap unless ``f`` carries the source kernel lattice into the
    target kernel lattice (which is what commuting with the boundaries means
    at this level).
    """
    if not same_presentation(f.source, h_src.middle):
        raise ValueError("f.source is not the source homology's middle group")
    if not same_presentation(f.target, h_tgt.middle):
        raise ValueError("f.target is not the target homology's middle group")
    mapped = f.matrix @ h_src.kernel_lattice_basis
    if h_tgt._lattice.basis_snf.solve(mapped) is None:
        raise NotChainMap("map does not preserve the kernel lattices")
    cols = []
    for i in range(h_src.lift.cols):
        cols.append(h_tgt.express(f.matrix.apply(h_src.lift.col(i))))
    mat = IntMatrix.from_columns(cols, rows=h_tgt.group.generator_count())
    return GroupHom(h_src.group, h_tgt.group, mat)


# ---------------------------------------------------------------------------
# Extensions of finite abelian groups
# ---------------------------------------------------------------------------

DEFAULT_EXTENSION_BOUND = 2 ** 16


def _factorint(n):
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


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples, parts at most ``largest``."""
    if n == 0:
        yield ()
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _groups_of_types(types):
    """The groups whose p-part has type lam, for each (p, lams) in ``types``
    and each choice of one lam per prime, sorted by invariant factors."""
    per_prime = [[[p ** e for e in lam] for lam in lams] for p, lams in types]
    groups = [FgAbGroup.from_invariants([d for part in combo for d in part])
              for combo in _cartesian(*per_prime)]
    groups.sort(key=lambda g: g.invariant_factors)
    return groups


def _prime_type(g: FgAbGroup, p: int):
    """The partition of exponents of p in the invariant factors of g."""
    exps = []
    for d in reversed(g.invariant_factors):
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            exps.append(e)
    return tuple(exps)


def _horizontal_strips(shape, size, prev):
    """Row counts of the horizontal strips of ``size`` boxes added to
    ``shape`` whose label keeps the reading word a lattice word after the
    previous label, placed with row counts ``prev`` (None for the first)."""
    def rec(r, left, placed, allowed):
        if r == len(shape):
            if left == 0:
                yield ()
            return
        room = left if r == 0 else min(left, shape[r - 1] - shape[r])
        if prev is not None:
            room = min(room, allowed - placed)
            allowed += prev[r]
        for a in range(room + 1):
            for rest in rec(r + 1, left - a, placed + a, allowed):
                yield (a,) + rest

    yield from rec(0, size, 0, 0)


def _lr_shapes(mu, nu):
    """Every partition lam with Littlewood-Richardson coefficient
    c^lam_{mu nu} != 0.

    An LR tableau of shape lam/mu and content nu is built one label at a time:
    label i fills a horizontal strip of nu[i] boxes, and reading right to left,
    top to bottom stays a lattice word, i.e. in each row r the (i+1)-labels in
    rows <= r number at most the i-labels in rows < r.  A partial tableau
    matters only through its shape and its last strip, so the search keeps a
    set of such pairs.
    """
    states = {(tuple(mu) + (0,) * len(nu), None)}
    for size in nu:
        states = {(tuple(x + a for x, a in zip(shape, strip)), strip)
                  for shape, prev in states
                  for strip in _horizontal_strips(shape, size, prev)}
    return sorted({tuple(x for x in shape if x) for shape, _ in states})


def extension_candidates(*factors, order_bound: int = DEFAULT_EXTENSION_BOUND):
    """Isomorphism classes of finite abelian G with subgroups
    0 = G_0 <= ... <= G_n = G and G_i / G_{i-1} == factors[i-1], sorted by
    invariant factors.

    G is the product of its p-parts.  By Hall's theorem (Macdonald, *Symmetric
    Functions and Hall Polynomials*, ch. II) a finite abelian p-group of type
    lam has a subgroup of type mu with quotient of type nu exactly when the
    Littlewood-Richardson coefficient c^lam_{mu nu} is nonzero, so each prime
    folds its types through ``_lr_shapes``.  Factors are checked in order:
    finite, then the running order by the bound.
    """
    total = 1
    for g in factors:
        if not g.is_finite:
            raise InfiniteInput("extension enumeration needs finite groups")
        total *= g.order()
        if total > order_bound:
            raise BoundExceeded(f"order {total} exceeds bound {order_bound}")
    types = []
    for p in sorted(_factorint(total)):
        shapes = {()}
        for g in factors:
            nu = _prime_type(g, p)
            shapes = {lam for mu in shapes for lam in _lr_shapes(mu, nu)}
        types.append((p, shapes))
    return _groups_of_types(types)


def injection_cokernels(sub, group, order_bound=DEFAULT_EXTENSION_BOUND):
    """The cokernels of the injections sub -> group up to isomorphism, sorted
    by invariant factors; none when sub is 0.  By Hall's criterion the p-part
    of one is each nu |- |lam| - |mu| with c^lam_{mu nu} != 0, for group and
    sub of p-types lam and mu.  Every check comes before any LR work.
    """
    if not sub.is_finite or not group.is_finite:
        raise InfiniteInput("differential variant enumeration needs finite cells")
    order = group.order()
    if sub.is_trivial or order % sub.order():
        return []
    if order > order_bound:
        raise BoundExceeded(f"order {order} exceeds bound {order_bound}")
    types = []
    for p in sorted(_factorint(order)):
        mu, lam = _prime_type(sub, p), _prime_type(group, p)
        types.append((p, [nu for nu in _partitions(sum(lam) - sum(mu))
                          if lam in _lr_shapes(mu, nu)]))
    return _groups_of_types(types)
