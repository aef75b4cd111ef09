"""E2 page assembly and everything read off from it.

The E2 page is the homology of the degree-graded chain complexes; it is
8-periodic vertically in the real part and 2-periodic in the complex part,
and vanishes outside columns 0..k.  Differentials d^r for 2 <= r <= k are not
determined by the data in scope, so this module never guesses one: it reports
every position where a nonzero d^r is degree-possible, and for each affected
diagonal emits both the d^r = 0 and the d^r != 0 outcomes, labelled with r.
K-groups are assembled per diagonal up to the reported ambiguities; extension
problems are resolved only to the set of all candidate groups, read from
Hall's theorem.

The complex K-groups together with the involution psi feed the 2-torsion core:
MU_q = ker(1 - psi_q) / im(1 + psi_q), and the MO_q groups are constrained by
a 24-term periodic exact sequence

    ... -> MO_i --eta'--> MO_{i+1} --c'--> MU_i --r'--> MO_{i-2} -> ...

which the solver enumerates at the level of Z_2-ranks by a depth-first
search that checks every MO term as soon as it is determined.

``run_pipeline`` is the one pass over a k-graph: validation and the E2 page
(``compute_e2``), the differential report, both diagonal assemblies, KU with
psi, MU and the core solutions.  Each stage runs once and hands its result to
the next; the command line only renders the returned ``PipelineResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _cartesian

from .abelian import (
    DEFAULT_EXTENSION_BOUND,
    BoundExceeded,
    FgAbGroup,
    GroupHom,
    HomologyResult,
    InfiniteInput,
    IntMatrix,
    abelian_groups_of_order,
    extension_candidates,
    homology,
    induced_hom,
    trivial_group,
)
from .crmodule import COMPLEX_PERIOD, REAL_PERIOD, build_graded_group, build_rho, psi_on_A
from .koszul import build_complex, index_tuples
from .kgraph import KGraphSpec, VertexPartition, validate


class NoSolution(Exception):
    """The core constraints admit no MO table (inconsistent inputs)."""


def _period(part: str) -> int:
    return REAL_PERIOD if part == "real" else COMPLEX_PERIOD


# ---------------------------------------------------------------------------
# The E2 page
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E2Page:
    k: int
    partition: VertexPartition
    cells: dict            # (part, p, j) -> HomologyResult
    complexes: dict        # (part, j) -> GradedChainComplex, shared by equal boundaries

    def cell(self, part: str, p: int, q: int) -> HomologyResult | None:
        if not 0 <= p <= self.k:
            return None
        return self.cells[(part, p, q % _period(part))]

    def group(self, part: str, p: int, q: int) -> FgAbGroup:
        cell = self.cell(part, p, q)
        return cell.group if cell is not None else trivial_group()


def compute_e2(spec: KGraphSpec) -> E2Page:
    """Homology of every graded complex; each cell builds its generator lifts
    when first asked for them.

    A complex whose boundaries equal those of an earlier one (same source
    and target moduli, same matrices) is that earlier complex, with the same
    cells.  Real degrees 3, 5 and 7 always are; so are real 0, 4 and complex
    0 when no vertex is paired, and real 2 and 6 when none is fixed.  Its
    ``part`` and ``degree`` name the first degree built.
    """
    partition = validate(spec)
    graded = build_graded_group(partition)
    rhos = tuple(build_rho(spec, c, partition, graded) for c in range(1, spec.k + 1))
    cells = {}
    complexes = {}
    seen = {}              # boundaries -> (complex, its cells for p = 0..k)
    for part in ("real", "complex"):
        for j in range(_period(part)):
            cx = build_complex(spec, j, part, partition, graded, rhos)
            key = tuple((b.source.moduli, b.target.moduli, b.matrix) for b in cx.boundaries)
            if key not in seen:
                seen[key] = (cx, [homology(cx.boundary(p + 1), cx.boundary(p))
                                  for p in range(spec.k + 1)])
            complexes[(part, j)], column = seen[key]
            cells.update(((part, p, j), h) for p, h in enumerate(column))
    return E2Page(k=spec.k, partition=partition, cells=cells, complexes=complexes)


# ---------------------------------------------------------------------------
# Possible nonzero differentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferentialEntry:
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


@dataclass(frozen=True)
class DifferentialReport:
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

@dataclass(frozen=True)
class DiagonalVariant:
    label: str
    factors: tuple          # (p, j, group) with the variant's groups substituted
    candidates: tuple       # candidate K-groups for this variant


@dataclass(frozen=True)
class DiagonalAssembly:
    part: str
    q: int
    factors: tuple          # (p, j, group) for p = 0..k, subgroup end first
    status: str             # "determined" | "extension_ambiguous" | "d2_ambiguous"
    candidates: tuple       # for the two unambiguous statuses
    variants: tuple | None  # for d2_ambiguous


def _fold_extensions(groups, ext_bound):
    """Candidate total groups of a filtration with the given ordered factors."""
    acc = [trivial_group()]
    for quot in groups:
        nxt = []
        for sub in acc:
            for g in extension_candidates(sub, quot, ext_bound):
                if g not in nxt:
                    nxt.append(g)
        acc = nxt
    return tuple(sorted(acc, key=lambda g: (g.order() or 0, g.invariant_factors)))


def _injective_variants(source: FgAbGroup, target: FgAbGroup):
    """Cokernel classes of injective maps source -> target (finite cells),
    sorted by invariant factors.

    An injection with cokernel nu exists exactly when target is an extension
    of source by nu.  Used only to spell out the possible d2 != 0 outcomes,
    never to pick one; a zero source gives none.
    """
    if source.free_rank or target.free_rank:
        raise InfiniteInput("differential variant enumeration needs finite cells")
    if source.is_trivial or target.order() % source.order():
        return []
    return [nu for nu in abelian_groups_of_order(target.order() // source.order())
            if target in extension_candidates(source, nu, target.order())]


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
            nonzero = [f for f in factors if not f[2].is_trivial]
            if len(nonzero) <= 1:
                only = nonzero[0][2] if nonzero else trivial_group()
                out.append(DiagonalAssembly(part, q, factors, "determined",
                                            (only,), None))
            else:
                cands = _fold_extensions([f[2] for f in factors], ext_bound)
                out.append(DiagonalAssembly(part, q, factors,
                                            "extension_ambiguous", cands, None))
            continue

        # enumerate the zero / injective outcome of every touching map
        per_entry = []
        for entry in touching:
            d = f"d{entry.r}"
            options = [(f"{d}=0", entry, None)]
            injs = _injective_variants(entry.source_group, entry.target_group)
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
            nonzero = [f for f in new_factors if not f[2].is_trivial]
            if len(nonzero) <= 1:
                cands = (nonzero[0][2] if nonzero else trivial_group(),)
            else:
                cands = _fold_extensions([f[2] for f in new_factors], ext_bound)
            label = ", ".join(lbl for lbl, _, _ in combo)
            variants.append(DiagonalVariant(label, new_factors, tuple(cands)))
        out.append(DiagonalAssembly(part, q, factors, "d2_ambiguous",
                                    (), tuple(variants)))
    return out


# ---------------------------------------------------------------------------
# KU with its involution, and the 2-torsion core
# ---------------------------------------------------------------------------

@dataclass
class KuPsiResult:
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


def compute_ku_with_psi(page: E2Page, report: DifferentialReport) -> KuPsiResult:
    """KU_q read off the complex diagonals; psi induced by the coordinate
    swap of paired vertices, extended by psi_{q+2} = -psi_q.

    When a complex diagonal carries more than one nonzero factor, or the
    report lists a possible nonzero complex differential, the result is
    returned flagged ambiguous instead of guessing.
    """
    complex_entries = [e for e in report.entries if e.part == "complex"]
    if complex_entries:
        return KuPsiResult(True, "possible nonzero differential in the complex part",
                           None, None)
    base = {}
    for q in (0, 1):
        nonzero = [(p, page.cell("complex", p, q - p)) for p in range(page.k + 1)
                   if not page.group("complex", p, q - p).is_trivial]
        if len(nonzero) > 1:
            return KuPsiResult(
                True, f"complex diagonal q={q} has {len(nonzero)} nonzero factors",
                None, None)
        base[q] = nonzero[0] if nonzero else None

    psi_block = psi_on_A(page.partition).matrix
    ku = []
    psi = []
    for q in (0, 1):
        if base[q] is None:
            g = trivial_group()
            ku.append(g)
            psi.append(GroupHom(g, g, IntMatrix.zeros(0, 0)))
            continue
        p0, cell = base[q]
        copies = len(index_tuples(page.k, p0))
        cp_group = page.complexes[("complex", 0)].groups[p0]
        chain_component = GroupHom(cp_group, cp_group, IntMatrix.assemble(
            [[psi_block if a == b else IntMatrix.zeros(psi_block.rows, psi_block.cols)
              for b in range(copies)] for a in range(copies)]))
        ind = induced_hom(chain_component, cell, cell)
        ku.append(cell.group)
        psi.append(GroupHom(ind.source, ind.target,
                            _normalize_endo(cell.group, ind.matrix)))

    full_ku = tuple(ku[q % 2] for q in range(8))
    full_psi = []
    for q in range(8):
        base_hom = psi[q % 2]
        mat = base_hom.matrix if (q // 2) % 2 == 0 else -base_hom.matrix
        full_psi.append(GroupHom(base_hom.source, base_hom.target,
                                 _normalize_endo(full_ku[q], mat)))
    return KuPsiResult(False, None, full_ku, tuple(full_psi))


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

@dataclass
class CoreConstraints:
    """Facts the solver must respect.

    known_mo: q -> exact Z_2-rank of MO_q.
    mo_bounds: q -> upper bound on that rank.
    arrows: ("eta", i) | ("c", i) | ("r", i) -> "zero" | "injective" |
    "surjective", where eta_i: MO_i -> MO_{i+1}, c_i: MO_{i+1} -> MU_i and
    r_i: MU_i -> MO_{i-2}.
    """

    known_mo: dict = field(default_factory=dict)
    mo_bounds: dict = field(default_factory=dict)
    arrows: dict = field(default_factory=dict)


def _core_cycle(start):
    """Arrow names of the 12-term exact cycle beginning at MO_start."""
    segs = []
    s = start
    for _ in range(4):
        segs.append(s % 8)
        s -= 2
    return segs


def _mu_ranks(mu_groups):
    ranks = []
    for q, g in enumerate(mu_groups):
        if not g.is_finite or any(d != 2 for d in g.invariant_factors):
            raise ValueError(f"MU_{q} = {g.describe()} is not an elementary 2-group")
        ranks.append(len(g.invariant_factors))
    return ranks


def _arrow_fact_ok(fact, v, src_rank, tgt_rank):
    if fact == "zero":
        return v == 0
    if fact == "injective":
        return v == src_rank
    if fact == "surjective":
        return v == tgt_rank
    raise ValueError(f"unknown arrow fact {fact!r}")


def _enumerate_cycle(start, mu, bound, constraints):
    """All consistent (mo vector, eta ranks) pairs derivable from one cycle.

    In the cycle every term rank is the sum of the two adjacent image ranks,
    so the four eta image ranks and the four c/r splits at the MU terms
    determine the whole mo vector.  They are chosen depth first in the order
    eta_0, c_0, eta_1, c_1, ..., and each MO term is checked against the rank
    bound, the known ranks and the rank bounds as soon as its two image ranks
    are fixed; arrow facts are checked once all of them are.
    """
    segs = _core_cycle(start)
    known, caps = constraints.known_mo, constraints.mo_bounds
    lo = [known.get(q, 0) for q in range(8)]
    hi = [min(bound, caps.get(q, bound), known.get(q, bound)) for q in range(8)]
    results = {}

    def allowed(q, base, top):
        """The x in 0..top with lo[q] <= base + x <= hi[q]."""
        return range(max(0, lo[q] - base), min(top, hi[q] - base) + 1)

    def leaf(etas, cs):
        mo = {}
        for t, s in enumerate(segs):
            mo[(s + 1) % 8] = etas[t] + cs[t]
            mo[segs[(t + 1) % 4]] = (mu[s] - cs[t]) + etas[(t + 1) % 4]
        for t, s in enumerate(segs):
            for arrow, v, src_rank, tgt_rank in (
                    (("eta", s), etas[t], mo[s], mo[(s + 1) % 8]),
                    (("c", s), cs[t], mo[(s + 1) % 8], mu[s]),
                    (("r", s), mu[s] - cs[t], mu[s], mo[(s - 2) % 8])):
                fact = constraints.arrows.get(arrow)
                if fact and not _arrow_fact_ok(fact, v, src_rank, tgt_rank):
                    return
        key = tuple(mo[q] for q in range(8))
        results.setdefault(key, []).append(dict(zip(segs, etas)))

    def descend(etas, cs):
        t = len(etas)
        if t == 4:
            if lo[segs[0]] <= (mu[segs[3]] - cs[3]) + etas[0] <= hi[segs[0]]:
                leaf(etas, cs)
            return
        s = segs[t]
        for eta in allowed(s, mu[segs[t - 1]] - cs[t - 1], bound) if t else range(bound + 1):
            for c in allowed((s + 1) % 8, eta, mu[s]):
                descend(etas + (eta,), cs + (c,))

    descend((), ())
    return results


def enumerate_core_solutions(mu_groups, constraints: CoreConstraints | None = None,
                             rank_bound: int = 8):
    """All MO tables consistent with exactness of the 24-term core sequence.

    Works purely with Z_2-ranks: each arrow gets an image-rank variable, and
    exactness says adjacent image ranks sum to the rank of the term between
    them.  Because MO consists of images of eta and eta cubes to zero,
    consecutive eta' arrows also compose to zero, giving the cross-cycle
    constraint rank(eta'_i) + rank(eta'_{i+1}) <= rank(MO_{i+1}).
    Returns the solutions sorted lexicographically; raises NoSolution when
    the constraints are inconsistent.
    """
    if constraints is None:
        constraints = CoreConstraints()
    mu = _mu_ranks(mu_groups)
    for q, rank in constraints.known_mo.items():
        if rank > rank_bound:
            raise BoundExceeded(f"known MO_{q} rank {rank} exceeds bound {rank_bound}")
    side_a = _enumerate_cycle(0, mu, rank_bound, constraints)
    side_b = _enumerate_cycle(1, mu, rank_bound, constraints)
    solutions = []
    for mo_vec, eta_sets_a in side_a.items():
        if mo_vec not in side_b:
            continue
        found = False
        for eta_a in eta_sets_a:
            for eta_b in side_b[mo_vec]:
                etas = {**eta_a, **eta_b}
                if all(etas[i] + etas[(i + 1) % 8] <= mo_vec[(i + 1) % 8]
                       for i in range(8)):
                    found = True
                    break
            if found:
                break
        if found:
            solutions.append(mo_vec)
    if not solutions:
        raise NoSolution("no MO table satisfies the core constraints")
    solutions.sort()
    return [tuple(FgAbGroup.from_invariants([2] * r) for r in vec)
            for vec in solutions]


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

@dataclass(frozen=True)
class PipelineResult:
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
                 core_bound: int = 8) -> PipelineResult:
    """Validate, build the E2 page and read everything off it, each once."""
    page = compute_e2(spec)
    report = differential_report(page)
    real = assemble_diagonals(page, report, "real", ext_bound)
    cplx = assemble_diagonals(page, report, "complex", ext_bound)
    kupsi = compute_ku_with_psi(page, report)
    mu = constraints = solutions = None
    if not kupsi.ambiguous:
        mu = compute_mu(kupsi.ku, kupsi.psi)
        constraints = derive_core_constraints(real)
        solutions = enumerate_core_solutions(mu, constraints, core_bound)
    return PipelineResult(page, report, real, cplx, kupsi, mu, constraints, solutions)
