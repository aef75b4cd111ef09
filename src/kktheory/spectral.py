"""E2 page assembly and everything read off from it.

The E2 page is the homology of the degree-graded chain complexes; it is
8-periodic vertically in the real part and 2-periodic in the complex part,
and vanishes outside columns 0..k.  Each complex carries its annihilator
g = gcd_c |det rho^c| and reads its own cells by it, H_0 first: g = 1 makes
every cell 0 without a Smith form, an H_0 of 0 makes every cell 0 (Nakayama),
and otherwise each cell is read off the Smith diagonals of the complex's
augmented first maps, modulo g when g >= 2 and over Z when g = 0 (``koszul``).
Differentials d^r for 2 <= r <= k are not determined by the data in scope,
so this module never guesses one: it reports every position where a nonzero
d^r is degree-possible, and for each affected diagonal emits both the
d^r = 0 and the d^r != 0 outcomes, labelled with r.
K-groups are assembled per diagonal up to the reported ambiguities; extension
problems are resolved only to the set of all candidate groups, read from
Hall's theorem.

The complex K-groups together with the involution psi feed the 2-torsion core:
MU_q = ker(1 - psi_q) / im(1 + psi_q), and the MO_q groups are constrained by
a 24-term periodic exact sequence

    ... -> MO_i --eta'--> MO_{i+1} --c'--> MU_i --r'--> MO_{i-2} -> ...

which the solver enumerates at the level of Z_2-ranks by one depth-first
search over the c/r splits at the eight MU terms: each split fixes an eta
rank and an MO rank by exactness, so every loop is bounded by the MU ranks.
The search runs once, and the MO rank bound only filters its tables: when
it cuts every one, BoundExceeded names the least bound that admits one;
NoSolution means no bound helps.

``run_pipeline`` is the one pass over a k-graph: validation and the E2 page
(``compute_e2``), the differential report, both diagonal assemblies, KU with
psi, MU and the core solutions.  Each stage runs once and hands its result to
the next; the command line only renders the returned ``PipelineResult``.
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import comb
from typing import NamedTuple

from .abelian import (
    DEFAULT_EXTENSION_BOUND,
    BoundExceeded,
    FgAbGroup,
    GroupHom,
    HomologyResult,
    IntMatrix,
    extension_candidates,
    homology,
    induced_hom,
    injection_cokernels,
    trivial_group,
)
from .crmodule import COMPLEX_PERIOD, REAL_PERIOD, build_graded_group, build_rho, psi_on_A
from .koszul import build_complex
from .kgraph import KGraphSpec, VertexPartition, validate


DEFAULT_CORE_BOUND = 8


class NoSolution(Exception):
    """The core constraints admit no MO table (inconsistent inputs)."""


def _period(part: str) -> int:
    return REAL_PERIOD if part == "real" else COMPLEX_PERIOD


# ---------------------------------------------------------------------------
# The E2 page
# ---------------------------------------------------------------------------

class E2Page:
    """The E2 page: ``complexes`` maps (part, j) to its GradedChainComplex,
    one object shared by the degrees with equal rho maps.  Immutable."""

    __slots__ = ("k", "partition", "complexes")

    def __init__(self, k: int, partition: VertexPartition, complexes: dict):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "complexes", complexes)

    def __setattr__(self, name, value):
        raise AttributeError("E2Page is immutable")

    def cell(self, part: str, p: int, q: int) -> HomologyResult | None:
        if not 0 <= p <= self.k:
            return None
        return self.complexes[(part, q % _period(part))].cells[p]

    def group(self, part: str, p: int, q: int) -> FgAbGroup:
        cell = self.cell(part, p, q)
        return cell.group if cell is not None else trivial_group()


def compute_e2(spec: KGraphSpec) -> E2Page:
    """Every graded complex, with its homology cells read; each cell builds
    its generator lifts when first asked for them.

    Two degrees with the same A_j moduli and the same rho matrices share one
    complex, built (and checked square-zero) once, with the same cells.
    Real degrees 3, 5 and 7 always do; so do real 0, 4 and complex 0 when no
    vertex is paired, and real 2 and 6 when none is fixed.

    Each complex reads its cells by the one rule of ``koszul``: 0 for
    g = 1; otherwise H_0 first, and every other cell is 0 when H_0 is and
    is read off the same Smith diagonals, modulo g for g >= 2 and over Z
    for g = 0, when it is not.
    """
    partition = validate(spec)
    graded = build_graded_group(partition)
    rhos = tuple(build_rho(spec, c, partition, graded) for c in range(1, spec.k + 1))
    complexes = {}
    seen = {}              # (moduli, rho matrices) -> complex
    for part in ("real", "complex"):
        for j in range(_period(part)):
            aj, mats = graded.group(part, j), tuple(rho.hom(part, j).matrix for rho in rhos)
            key = (aj.moduli, mats)
            if key not in seen:
                seen[key] = build_complex(aj, mats)
                seen[key].cells  # read here, so that the time stays in this stage
            complexes[(part, j)] = seen[key]
    return E2Page(k=spec.k, partition=partition, complexes=complexes)


# ---------------------------------------------------------------------------
# Possible nonzero differentials
# ---------------------------------------------------------------------------

class DifferentialEntry(NamedTuple):
    r: int
    source: tuple
    target: tuple
    part: str
    source_group: FgAbGroup
    target_group: FgAbGroup

    def diagonals(self):
        period = _period(self.part)
        return ((self.source[0] + self.source[1]) % period,
                (self.target[0] + self.target[1]) % period)


class DifferentialReport(NamedTuple):
    entries: tuple

    @property
    def is_empty(self):
        return not self.entries

    def touching(self, part: str, diagonal: int):
        period = _period(part)
        return [e for e in self.entries
                if e.part == part and (diagonal % period) in e.diagonals()]


def differential_report(page: E2Page) -> DifferentialReport:
    """Every (r, source, target) with 2 <= r <= k where both cells are nonzero.

    d^r has bidegree (-r, r - 1); an empty report means E2 = Einf cellwise.
    """
    entries = []
    for part in ("real", "complex"):
        period = _period(part)
        for r in range(2, page.k + 1):
            for p in range(r, page.k + 1):
                for q in range(period):
                    src = page.group(part, p, q)
                    tgt = page.group(part, p - r, q + r - 1)
                    if not src.is_trivial and not tgt.is_trivial:
                        entries.append(DifferentialEntry(
                            r=r, source=(p, q),
                            target=(p - r, (q + r - 1) % period),
                            part=part, source_group=src, target_group=tgt))
    return DifferentialReport(tuple(entries))


# ---------------------------------------------------------------------------
# Diagonal assembly: K-groups up to the reported ambiguities
# ---------------------------------------------------------------------------

class DiagonalVariant(NamedTuple):
    label: str
    factors: tuple          # (p, j, group) with the variant's groups substituted
    candidates: tuple       # candidate K-groups for this variant


class DiagonalAssembly(NamedTuple):
    part: str
    q: int
    factors: tuple          # (p, j, group) for p = 0..k, subgroup end first
    status: str             # "determined" | "extension_ambiguous" | "d2_ambiguous"
    candidates: tuple       # for the two unambiguous statuses
    variants: tuple | None  # for d2_ambiguous


def _total_groups(factors, ext_bound):
    """("determined", (G,)) when at most one factor (p, j, G) is nonzero (G = 0
    when none is), else ("extension_ambiguous", every group they fold to)."""
    nonzero = [g for _, _, g in factors if not g.is_trivial]
    if len(nonzero) <= 1:
        return "determined", (nonzero[0] if nonzero else trivial_group(),)
    return "extension_ambiguous", tuple(extension_candidates(
        *(g for _, _, g in factors), order_bound=ext_bound))


def assemble_diagonals(page: E2Page, report: DifferentialReport,
                       part: str = "real",
                       ext_bound: int = DEFAULT_EXTENSION_BOUND):
    """Collect the filtration factors of each total degree and classify it."""
    period = _period(part)
    out = []
    for q in range(period):
        factors = tuple((p, (q - p) % period, page.group(part, p, q - p))
                        for p in range(page.k + 1))
        touching = report.touching(part, q)
        if not touching:
            status, cands = _total_groups(factors, ext_bound)
            out.append(DiagonalAssembly(part, q, factors, status, cands, None))
            continue

        # enumerate the zero / injective outcome of every touching map
        per_entry = []
        for entry in touching:
            d = f"d{entry.r}"
            options = [(f"{d}=0", entry, None)]
            injs = injection_cokernels(entry.source_group, entry.target_group, ext_bound)
            for idx, coker in enumerate(injs):
                label = f"{d}!=0" if len(injs) == 1 else f"{d}!=0 ({idx + 1})"
                options.append((label, entry, coker))
            per_entry.append(options)
        variants = []
        for combo in _cartesian(*per_entry):
            adjusted = dict()
            for label, entry, coker in combo:
                if coker is None:
                    continue
                adjusted[(entry.source[0], entry.source[1])] = trivial_group()
                adjusted[(entry.target[0], entry.target[1])] = coker
            new_factors = tuple(
                (p, j, adjusted.get((p, j), g)) for (p, j, g) in factors)
            label = ", ".join(lbl for lbl, _, _ in combo)
            variants.append(DiagonalVariant(label, new_factors,
                                            _total_groups(new_factors, ext_bound)[1]))
        out.append(DiagonalAssembly(part, q, factors, "d2_ambiguous",
                                    (), tuple(variants)))
    return out


# ---------------------------------------------------------------------------
# KU with its involution, and the 2-torsion core
# ---------------------------------------------------------------------------

class KuPsiResult(NamedTuple):
    ambiguous: bool
    reason: str | None
    ku: tuple | None        # 8 FgAbGroups
    psi: tuple | None       # 8 GroupHoms on the canonical KU groups

    def psi_scalar(self, q: int):
        """psi_q as an integer when KU_q is cyclic: the residue a with
        psi(x) = a x, reduced into (-n/2, n/2] for Z_n.  None otherwise."""
        if self.ambiguous:
            return None
        g = self.ku[q]
        if g.is_trivial:
            return 1
        if g.generator_count() != 1:
            return None
        a = self.psi[q].matrix[0, 0]
        if g.invariant_factors:
            n = g.invariant_factors[0]
            a %= n
            if a > n // 2:
                a -= n
        return a


def _normalize_endo(group: FgAbGroup, mat: IntMatrix) -> IntMatrix:
    torsion = group.invariant_factors
    rows = []
    for i in range(group.generator_count()):
        if i < len(torsion):
            rows.append([x % torsion[i] for x in mat.row(i)])
        else:
            rows.append(list(mat.row(i)))
    return IntMatrix(mat.rows, mat.cols, rows)


def compute_ku_with_psi(page: E2Page, cplx) -> KuPsiResult:
    """KU_q read off the complex diagonal assemblies ``cplx``; psi induced by
    the coordinate swap of paired vertices, extended by psi_{q+2} = -psi_q.

    psi has period 4, so four maps are built, psi_0, psi_1 and their
    negations, and psi_{q+4} is psi_q itself; the swap on A is laid out
    only when a KU cell is nonzero.  ``induced_hom`` reduces each torsion
    coordinate of psi_0 and psi_1 already; only the negations are reduced
    here.  When an assembly is ambiguous, for a possible nonzero complex
    differential or for more than one nonzero factor, the result is returned
    flagged ambiguous instead of guessing.
    """
    if any(asm.status == "d2_ambiguous" for asm in cplx):
        return KuPsiResult(True, "possible nonzero differential in the complex part",
                           None, None)
    nonzero = [[p for p, _, g in asm.factors if not g.is_trivial] for asm in cplx]
    for asm, columns in zip(cplx, nonzero):
        if asm.status == "extension_ambiguous":
            return KuPsiResult(
                True, f"complex diagonal q={asm.q} has {len(columns)} nonzero factors",
                None, None)

    psi_block = psi_on_A(page.partition).matrix if any(nonzero) else None
    ku = []
    psi = []
    for asm, columns in zip(cplx, nonzero):
        if not columns:
            g = trivial_group()
            ku.append(g)
            psi.append(GroupHom(g, g, IntMatrix.zeros(0, 0)))
            continue
        p0 = columns[0]
        cell = page.cell("complex", p0, asm.q - p0)
        cp_group = page.complexes[("complex", 0)].groups[p0]
        n, copies = psi_block.rows, comb(page.k, p0)
        chain_component = GroupHom(cp_group, cp_group, IntMatrix(n * copies, n * copies, [
            (0,) * (n * a) + row + (0,) * (n * (copies - a - 1))
            for a in range(copies) for row in psi_block.data]))
        ku.append(cell.group)
        psi.append(induced_hom(chain_component, cell, cell))
    psi += [GroupHom(h.source, h.target, _normalize_endo(g, -h.matrix))
            for g, h in zip(ku, psi)]
    return KuPsiResult(False, None, tuple(ku) * 4, tuple(psi) * 2)


def compute_mu(ku, psi):
    """MU_q = ker(1 - psi_q) / im(1 + psi_q), always elementary 2-torsion.

    KU_{q+4} = KU_q and psi_{q+4} = psi_q (since psi_{q+2} = -psi_q), so
    MU_0..MU_3 are computed and repeated.
    """
    out = []
    for q in range(4):
        g = ku[q]
        ident = IntMatrix.identity(g.ambient_rank)
        minus = GroupHom(g, g, ident - psi[q].matrix)
        plus = GroupHom(g, g, ident + psi[q].matrix)
        mu = homology(plus, minus).group
        if mu.exponent() not in (1, 2):
            raise RuntimeError(f"core group MU_{q} = {mu.describe()} is not 2-torsion")
        out.append(mu)
    return out * 2


# ---------------------------------------------------------------------------
# The core long-exact-sequence solver
# ---------------------------------------------------------------------------

class CoreConstraints:
    """Facts the solver must respect: ``known_mo`` maps q to the exact Z_2-rank
    of MO_q, ``mo_bounds`` maps q to an upper bound on it."""

    def __init__(self, known_mo: dict | None = None, mo_bounds: dict | None = None):
        self.known_mo = {} if known_mo is None else known_mo
        self.mo_bounds = {} if mo_bounds is None else mo_bounds


def _mu_ranks(mu_groups):
    ranks = []
    for q, g in enumerate(mu_groups):
        if not g.is_finite or any(d != 2 for d in g.invariant_factors):
            raise ValueError(f"MU_{q} = {g.describe()} is not an elementary 2-group")
        ranks.append(len(g.invariant_factors))
    return ranks


def enumerate_core_solutions(mu_groups, constraints: CoreConstraints | None = None,
                             rank_bound: int = DEFAULT_CORE_BOUND):
    """All MO tables consistent with exactness of the 24-term core sequence.

    Works with Z_2-ranks.  Write eta_m and c_m for the image ranks of
    eta'_m: MO_m -> MO_{m+1} and c'_m: MO_{m+1} -> MU_m, so r'_m has image
    rank mu_m - c_m.  Exactness at MO_m reads
    MO_m = eta_{m-1} + c_{m-1} = (mu_{m+2} - c_{m+2}) + eta_m, and since
    consecutive eta' arrows compose to zero, eta_{m-1} + eta_m <= MO_m, that
    is eta_m <= c_{m-1}.  The search picks c_7, c_0, c_1 and eta_0 <= c_7;
    then at MO_m each choice of c_{m+2} fixes eta_m and MO_m, and a branch
    survives only while 0 <= eta_m <= c_{m-1} and MO_m meets the
    constraints; a table is found when MO_0 = eta_7 + c_7 closes the
    sequence.  The tables whose ranks are all within ``rank_bound`` are
    returned, sorted lexicographically, each rank's group Z_2^r one object
    shared by every table.

    The search runs once, with no rank bound: every loop runs over the MU
    ranks, and every table has MO_m <= mu_{m-1} + mu_{m+2}, since
    MO_m = (mu_{m+2} - c_{m+2}) + eta_m and eta_m <= c_{m-1} <= mu_{m-1},
    so it is finite.  When it finds tables but the bound cuts all of them,
    BoundExceeded names the least bound that admits one; NoSolution means
    the constraints are inconsistent at any bound.
    """
    if constraints is None:
        constraints = CoreConstraints()
    mu = _mu_ranks(mu_groups)
    known = constraints.known_mo
    for q, rank in known.items():
        if rank > rank_bound:
            raise BoundExceeded(f"known MO_{q} rank {rank} exceeds bound {rank_bound}")
    found = _core_tables(mu, constraints)
    if not found:
        raise NoSolution("no MO table satisfies the core constraints")
    kept = sorted(vec for vec in found if max(vec) <= rank_bound)
    if not kept:
        raise BoundExceeded(f"no MO table has every rank within the core bound "
                            f"{rank_bound}; the least bound that admits one is "
                            f"{min(max(vec) for vec in found)}")
    groups = {r: FgAbGroup.from_invariants([2] * r) for r in {r for vec in kept for r in vec}}
    return [tuple(groups[r] for r in vec) for vec in kept]


def _core_tables(mu, constraints):
    """The search of ``enumerate_core_solutions``: the set of MO rank vectors
    that meet the constraints."""
    known, caps, inf = constraints.known_mo, constraints.mo_bounds, float("inf")
    lo = [known.get(q, 0) for q in range(8)]
    hi = [min(caps.get(q, inf), known.get(q, inf)) for q in range(8)]
    c = [0] * 8
    found = set()

    def descend(m, eta, mo):
        """MO_0..MO_{m-1} are ``mo``, eta_{m-1} is ``eta``, c_7 and c_0..c_{m+1} are set."""
        rank = eta + c[m - 1]
        if m == 8:
            if rank == mo[0]:
                found.add(mo)
            return
        if not lo[m] <= rank <= hi[m]:
            return
        j = (m + 2) % 8
        for c[j] in range(mu[j] + 1) if m < 5 else (c[j],):
            eta_m = rank - mu[j] + c[j]
            if 0 <= eta_m <= c[m - 1]:
                descend(m + 1, eta_m, mo + (rank,))

    for c[7], c[0], c[1], c[2] in _cartesian(*(range(mu[q] + 1) for q in (7, 0, 1, 2))):
        for eta in range(c[7] + 1):
            rank = mu[2] - c[2] + eta
            if lo[0] <= rank <= hi[0]:
                descend(1, eta, (rank,))
    return found


def derive_core_constraints(assemblies) -> CoreConstraints:
    """Constraints that follow from the determined real diagonals alone.

    A determined KO_q = 0 forces MO_q = 0 and MO_{q+1} = 0; a determined
    finite KO_q bounds MO_q by its 2-torsion rank and MO_{q+1} by the rank of
    KO_q modulo 2.  Nothing is derived from ambiguous diagonals.
    """
    constraints = CoreConstraints()
    for asm in assemblies:
        if asm.part != "real" or asm.status != "determined":
            continue
        g = asm.candidates[0]
        q = asm.q
        if g.is_trivial:
            constraints.known_mo[q] = 0
            constraints.known_mo[(q + 1) % 8] = 0
        else:
            two_rank = sum(1 for d in g.invariant_factors if d % 2 == 0)
            quotient_rank = g.free_rank + two_rank
            constraints.mo_bounds[q] = min(constraints.mo_bounds.get(q, two_rank),
                                           two_rank)
            constraints.mo_bounds[(q + 1) % 8] = min(
                constraints.mo_bounds.get((q + 1) % 8, quotient_rank), quotient_rank)
    for q, rank in constraints.known_mo.items():
        constraints.mo_bounds.pop(q, None)
    return constraints


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class PipelineResult(NamedTuple):
    """Everything one run computes.  ``mu``, ``constraints`` and ``solutions``
    are None when the complex part leaves KU ambiguous."""

    page: E2Page
    report: DifferentialReport
    real: list              # DiagonalAssembly per total degree, KO
    cplx: list              # DiagonalAssembly per total degree, KU
    kupsi: KuPsiResult
    mu: list | None
    constraints: CoreConstraints | None
    solutions: list | None


def run_pipeline(spec: KGraphSpec, ext_bound: int = DEFAULT_EXTENSION_BOUND,
                 core_bound: int = DEFAULT_CORE_BOUND) -> PipelineResult:
    """Validate, build the E2 page and read everything off it, each once."""
    page = compute_e2(spec)
    report = differential_report(page)
    real = assemble_diagonals(page, report, "real", ext_bound)
    cplx = assemble_diagonals(page, report, "complex", ext_bound)
    kupsi = compute_ku_with_psi(page, cplx)
    mu = constraints = solutions = None
    if not kupsi.ambiguous:
        mu = compute_mu(kupsi.ku, kupsi.psi)
        constraints = derive_core_constraints(real)
        solutions = enumerate_core_solutions(mu, constraints, core_bound)
    return PipelineResult(page, report, real, cplx, kupsi, mu, constraints, solutions)
