"""Independent checks of the program's outputs.

Nothing here imports ``kktheory``.  Groups are parsed from their printed form
("Z_2 + Z_4 + Z") into prime-power factors; chain complexes are rebuilt from
the input matrices; ranks are computed over Q and over F_l by elimination
written here.  ``check_output`` returns a list of failure messages, empty when
every check passes.

Checks, by what they rest on:

* everywhere (the method): the complex part of the E2 page is the homology of
  the Koszul complex of the blocks B_c = I - M_c^t, so its free ranks equal
  ranks over Q and its l-torsion counts equal ranks over F_l by the universal
  coefficient theorem, for l in {2, 3}, every prime of a reported order and
  every prime of gcd_c det B_c (which annihilates that homology); real-part
  eigenspace identities, Euler characteristics and the rows that the building
  blocks force to vanish; KU 2-periodicity; MU from a scalar psi; and an
  exactness re-check of every MO table against the MU ranks and the printed
  constraints;
* families: the closed forms in g and n stated by acceptance criteria 1-4;
* lattice-emit: emitted complex-part boundaries equal the rebuilt Koszul
  matrices, every emitted lift is a cycle modulo its coordinates' relation
  moduli, and every SNF diagonal is a divisibility chain whose nonzero count
  is the Q-rank of its boundary.
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from math import gcd

# ---------------------------------------------------------------------------
# Groups in printed form
# ---------------------------------------------------------------------------


def _factor(n):
    """Prime factorisation {p: e} of n >= 1 by trial division."""
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


def group(text):
    """Canonical form of a printed group: (sorted prime powers, free rank)."""
    text = text.strip()
    if text == "0":
        return ((), 0)
    powers = []
    free = 0
    for token in text.split("+"):
        token = token.strip()
        if token == "Z":
            free += 1
        elif re.fullmatch(r"Z_\d+", token) and int(token[2:]) >= 2:
            powers.extend(p ** e for p, e in _factor(int(token[2:])).items())
        else:
            raise ValueError(f"cannot parse group {text!r}")
    return (tuple(sorted(powers)), free)


def cyclic(n):
    """Z_n as a canonical form (n = 0 gives Z, n = 1 the trivial group)."""
    if n == 0:
        return ((), 1)
    return (tuple(sorted(p ** e for p, e in _factor(n).items())), 0)


def direct_sum(*gs):
    return (tuple(sorted(x for g in gs for x in g[0])), sum(g[1] for g in gs))


ZERO = ((), 0)
Z2 = cyclic(2)


def free_rank(g):
    return g[1]


def order(g):
    """Order of a finite group; None when infinite."""
    if g[1]:
        return None
    out = 1
    for x in g[0]:
        out *= x
    return out


def l_rank(g, l):
    """Number of cyclic summands of order a power of the prime l."""
    return sum(1 for x in g[0] if x % l == 0)


def generator_count(g):
    """Number of invariant factors plus the free rank."""
    primes = [next(iter(_factor(x))) for x in g[0]]
    return max((primes.count(p) for p in primes), default=0) + g[1]


def is_elementary_2(g):
    return g[1] == 0 and all(x == 2 for x in g[0])


# ---------------------------------------------------------------------------
# Reading a report (text or kkth/1 JSON) into one normalised dict
# ---------------------------------------------------------------------------

def _cells(rest):
    return [c for c in re.split(r"\s{2,}", rest.strip()) if c]


def _assembly_entries(lines, name):
    """KO_q lines of the KO section -> {q: entry}."""
    out = {}
    current = None
    for line in lines:
        m = re.fullmatch(rf"  {name}_(\d+) = (.+?)  \[determined; factors: .*\]", line)
        if m:
            out[int(m.group(1))] = {"status": "determined",
                                    "candidates": [m.group(2)], "variants": []}
            continue
        m = re.fullmatch(rf"  {name}_(\d+): extension problem; factors: .*; candidates: (.+)", line)
        if m:
            out[int(m.group(1))] = {"status": "extension_ambiguous",
                                    "candidates": m.group(2).split(" | "), "variants": []}
            continue
        m = re.fullmatch(rf"  {name}_(\d+): depends on a differential; factors: .*", line)
        if m:
            current = {"status": "d2_ambiguous", "candidates": [], "variants": []}
            out[int(m.group(1))] = current
            continue
        m = re.fullmatch(r"    (.+?): candidates: (.+)", line)
        if m and current is not None:
            current["variants"].append((m.group(1), m.group(2).split(" | ")))
            continue
        raise ValueError(f"unexpected {name} line {line!r}")
    return out


def _sections(text):
    sections = {}
    name = None
    for line in text.splitlines():
        m = re.fullmatch(r"== (.+) ==", line)
        if m:
            name = m.group(1)
            sections[name] = []
        elif name is not None and line:
            sections[name].append(line)
    return sections


def parse_text(text):
    lines = text.splitlines()
    m = re.fullmatch(r"rank k = (\d+); vertices: .*", lines[1])
    if lines[0] != "kktheory report" or not m:
        raise ValueError("not a kktheory text report")
    k = int(m.group(1))
    sec = _sections(text)

    def grid(title):
        rows = {}
        for line in sec[title][1:]:
            mm = re.fullmatch(r"  q=(\d) \| (.*)", line)
            if not mm:
                raise ValueError(f"bad grid line {line!r}")
            cells = _cells(mm.group(2))
            if len(cells) != k + 1:
                raise ValueError(f"grid row {line!r} has {len(cells)} cells")
            rows[int(mm.group(1))] = cells
        if sorted(rows) != list(range(8)):
            raise ValueError(f"{title}: rows missing")
        return [rows[q] for q in range(8)]

    real = grid("E2 page, real part")
    cplx8 = grid("E2 page, complex part (2-periodic, rows q = 7..0)")
    if any(cplx8[q] != cplx8[q % 2] for q in range(8)):
        raise ValueError("complex rows are not 2-periodic")

    diffs = []
    for line in sec["possible nonzero differentials"]:
        if line == "  none; E2 = Einf":
            continue
        mm = re.fullmatch(r"  d(\d+): \((\d+),(\d+)\) -> \((\d+),(\d+)\) \[(\w+)\], .*", line)
        if not mm:
            raise ValueError(f"bad differential line {line!r}")
        r, a, b, c, d = (int(mm.group(i)) for i in range(1, 6))
        diffs.append((r, (a, b), (c, d), mm.group(6)))

    result = {"k": k, "real": real, "complex": cplx8[:2], "diffs": diffs,
              "ko": _assembly_entries(sec["KO groups by total degree"], "KO"),
              "ku": None, "psi": None, "mu": None, "mo": None,
              "known": {}, "bounds": {}}

    ku_lines = sec["KU groups and psi"]
    if not ku_lines[0].startswith("  ambiguous: "):
        ku, psi = [], []
        for q, line in enumerate(ku_lines):
            mm = re.fullmatch(rf"  KU_{q} = (.+); psi_{q} = (.+)", line)
            if not mm:
                raise ValueError(f"bad KU line {line!r}")
            ku.append(mm.group(1))
            psi.append(mm.group(2))
        result["ku"], result["psi"] = ku, psi

    mu_line = sec["core groups MU"][0]
    if mu_line != "  skipped (KU ambiguous)":
        cells = _cells(mu_line)
        result["mu"] = [c.split("=", 1)[1] for c in cells]
        if [c.split("=", 1)[0] for c in cells] != [f"MU_{q}" for q in range(8)]:
            raise ValueError(f"bad MU line {mu_line!r}")

    core = sec["core MO solutions"]
    if core[0] != "  skipped (KU ambiguous)":
        mm = re.fullmatch(r"  derived constraints: known: (.*); rank bounds: (.*)", core[0])
        if not mm:
            raise ValueError(f"bad constraint line {core[0]!r}")
        for item in mm.group(1).split(", "):
            if item != "none":
                q, r = re.fullmatch(r"MO_(\d)=Z_2\^(\d+)", item).groups()
                result["known"][int(q)] = int(r)
        for item in mm.group(2).split(", "):
            if item != "none":
                q, r = re.fullmatch(r"MO_(\d)<=Z_2\^(\d+)", item).groups()
                result["bounds"][int(q)] = int(r)
        tables = []
        for i, line in enumerate(core[1:], start=1):
            mm = re.fullmatch(rf"  solution {i}: (.*)", line)
            if not mm:
                raise ValueError(f"bad solution line {line!r}")
            parts = mm.group(1).split("; ")
            if [p.split("=", 1)[0] for p in parts] != [f"MO_{q}" for q in range(8)]:
                raise ValueError(f"bad solution line {line!r}")
            tables.append([p.split("=", 1)[1] for p in parts])
        result["mo"] = tables
    return result


def _json_assembly(entries):
    out = {}
    for e in entries:
        out[e["q"]] = {"status": e["status"],
                       "candidates": e.get("candidates", []),
                       "variants": [(v["label"], v["candidates"])
                                    for v in e.get("variants", [])]}
    return out


def parse_json(doc):
    if doc.get("schema") != "kkth/1":
        raise ValueError("not a kkth/1 document")
    result = {"k": doc["input"]["k"], "real": doc["e2"]["real"],
              "complex": doc["e2"]["complex"],
              "diffs": [(d["r"], tuple(d["source"]), tuple(d["target"]), d["part"])
                        for d in doc["differentials"]],
              "ko": _json_assembly(doc["ko"]),
              "ku": None, "psi": None, "mu": doc["mu"], "mo": None,
              "known": {}, "bounds": {}}
    if not doc["ku"]["ambiguous"]:
        result["ku"] = doc["ku"]["groups"]
        result["psi"] = [str(p["scalar"]) if p["scalar"] is not None else str(p["matrix"])
                         for p in doc["ku"]["psi"]]
    if doc["core"] is not None:
        cons = doc["core"]["constraints"]
        result["known"] = {int(q): r for q, r in cons["known_mo"].items()}
        result["bounds"] = {int(q): r for q, r in cons["mo_rank_bounds"].items()}
        result["mo"] = doc["core"]["solutions"]
    return result


# ---------------------------------------------------------------------------
# Exact linear algebra on lists of Python ints
# ---------------------------------------------------------------------------

def rank_mod(rows, modulus):
    """Rank over F_modulus (modulus prime); over Q when modulus is None."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m))
                      if (m[i][col] % modulus if modulus else m[i][col])), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for i in range(rank + 1, len(m)):
            row = m[i]
            if modulus:
                f = row[col] * pow(pr[col], -1, modulus) % modulus
                if f:
                    m[i] = [(x - f * y) % modulus for x, y in zip(row, pr)]
            elif row[col]:
                a, b = pr[col], row[col]
                g = gcd(a, b)
                new = [(a // g) * x - (b // g) * y for x, y in zip(row, pr)]
                c = 0
                for x in new:
                    c = gcd(c, x)
                m[i] = [x // c for x in new] if c > 1 else new
        rank += 1
        if rank == len(m):
            break
    return rank


def determinant(mat):
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matvec(rows, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in rows]


def _primes_of(n, trial_limit=10 ** 6):
    """Prime divisors of n > 0; a cofactor left after trial division is kept
    when a Miller-Rabin test (exact below 3.3e24) calls it prime."""
    primes = set()
    p = 2
    while p * p <= n and p <= trial_limit:
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1 and _probably_prime(n):
        primes.add(n)
    return primes


def _probably_prime(n):
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# The complex part rebuilt from the input
# ---------------------------------------------------------------------------

def partition_order(involution):
    """Fixed vertices, smaller vertex of each pair, then the partners."""
    nv = len(involution)
    fixed = [v for v in range(nv) if involution[v] == v]
    paired = [v for v in range(nv) if v < involution[v]]
    return fixed + paired + [involution[v] for v in paired], len(fixed), len(paired)


def koszul_boundaries(inp):
    """d_p : C_p -> C_{p-1}, p = 1..k, for the blocks B_c = I - M_c^t in the
    program's coordinate order; C_p has one copy of Z^nv per increasing
    p-tuple of colours and the block from mu to mu minus mu_i is
    (-1)^i B_{mu_i} (i counted from 0)."""
    k = inp["k"]
    order, _, _ = partition_order(inp["involution"])
    nv = len(order)
    blocks = []
    for m in inp["matrices"]:
        blocks.append([[(1 if a == b else 0) - m[order[b]][order[a]]
                        for b in range(nv)] for a in range(nv)])
    out = []
    for p in range(1, k + 1):
        upper = list(combinations(range(k), p))
        lower = {lam: i for i, lam in enumerate(combinations(range(k), p - 1))}
        d = [[0] * (len(upper) * nv) for _ in range(len(lower) * nv)]
        for col, mu in enumerate(upper):
            for i, c in enumerate(mu):
                row = lower[mu[:i] + mu[i + 1:]]
                sign = -1 if i % 2 else 1
                for a in range(nv):
                    for b in range(nv):
                        d[row * nv + a][col * nv + b] = sign * blocks[c][a][b]
        out.append(d)
    return out, blocks


def check_complex_part(inp, res):
    fails = []
    k = inp["k"]
    nv = len(inp["involution"])
    bounds, blocks = koszul_boundaries(inp)
    dims = [nv * len(list(combinations(range(k), p))) for p in range(k + 1)]
    groups = [group(g) for g in res["complex"][0]]
    if any(group(g) != ZERO for g in res["complex"][1]):
        fails.append("complex part: degree-1 row must vanish (A_1 = 0)")

    def ranks(modulus):
        rk = [rank_mod(d, modulus) for d in bounds]
        return [0] + rk + [0]          # rk[p] = rank of d_p, d_0 = d_{k+1} = 0

    rq = ranks(None)
    for p in range(k + 1):
        want = dims[p] - rq[p] - rq[p + 1]
        if free_rank(groups[p]) != want:
            fails.append(f"complex E2({p},0) = {res['complex'][0][p]}: free rank "
                         f"should be {want} (rank over Q)")
    g = 0
    for b in blocks:
        g = gcd(g, determinant(b))
    primes = {2, 3}
    for grp in groups:
        for x in grp[0]:
            primes |= _primes_of(x)
    if g:
        primes |= _primes_of(abs(g))
        for grp in groups:
            for x in grp[0]:
                if g % x:
                    fails.append(f"complex part: torsion Z_{x} is not annihilated "
                                 f"by gcd det(I - M^t) = {g}")
    for l in sorted(primes):
        rl = ranks(l)
        for p in range(k + 1):
            dim_l = dims[p] - rl[p] - rl[p + 1]
            uct = free_rank(groups[p]) + l_rank(groups[p], l) + \
                (l_rank(groups[p - 1], l) if p else 0)
            if dim_l != uct:
                fails.append(f"complex E2({p},0): dim H_{p}(C; F_{l}) = {dim_l} but the "
                             f"reported groups give {uct} by the UCT")
    return fails


# ---------------------------------------------------------------------------
# Checks that hold for every input
# ---------------------------------------------------------------------------

def check_real_part(inp, res):
    fails = []
    k = res["k"]
    real = [[group(g) for g in row] for row in res["real"]]
    cplx = [[group(g) for g in row] for row in res["complex"]]
    _, nf, n1 = partition_order(inp["involution"])
    for q in (3, 5, 7):
        if any(g != ZERO for g in real[q]):
            fails.append(f"real row q={q} must vanish (A_{q} = 0)")
    if n1 == 0 and any(g != ZERO for g in real[6]):
        fails.append("real row q=6 must vanish without swapped pairs")
    if any(not is_elementary_2(g) for g in real[1]):
        fails.append("real row q=1 must hold only Z_2 summands (A_1 = Z_2^fixed)")
    for p in range(k + 1):
        if free_rank(real[0][p]) != free_rank(real[4][p]):
            fails.append(f"rank E2(real,{p},0) != rank E2(real,{p},4)")
        if free_rank(real[0][p]) + free_rank(real[6][p]) != free_rank(cplx[0][p]):
            fails.append(f"rank E2(real,{p},0) + rank E2(real,{p},6) != "
                         f"rank E2(complex,{p},0)")
    for name, rows in (("real", real), ("complex", cplx)):
        for q, row in enumerate(rows):
            if sum((-1) ** p * free_rank(g) for p, g in enumerate(row)):
                fails.append(f"{name} q={q}: alternating sum of free ranks is not 0")
    num = den = 1
    for p, g in enumerate(real[1]):
        if p % 2:
            den *= order(g) or 0
        else:
            num *= order(g) or 0
    if num != den:
        fails.append("real q=1: alternating product of orders is not 1")
    return fails


def _mu_from_scalar(ku, a):
    """ker(1 - a) / im(1 + a) on a cyclic or trivial group, as a canonical form."""
    if ku == ZERO:
        return ZERO
    if ku == ((), 1):
        return Z2 if a == 1 else ZERO
    n = order(ku)
    size = gcd(1 - a, n) * gcd(1 + a, n) // n
    return cyclic(size)


def mo_table_exact(mo, mu):
    """Exactness of the 24-term core sequence at the level of Z_2-ranks.

    Each of the two 12-term cycles MO_i -> MO_{i+1} -> MU_i -> MO_{i-2} ->
    ... must admit image ranks a_j with a_{j-1} + a_j = rank of term j, and
    the eta image ranks must satisfy eta_i + eta_{i+1} <= MO_{i+1}.
    """
    options = []
    for start in (0, 1):
        terms = []
        i = start
        for _ in range(4):
            terms += [mo[i % 8], mo[(i + 1) % 8], mu[i % 8]]
            i -= 2
        etas_at = [(start - 2 * t) % 8 for t in range(4)]
        found = []
        for a0 in range(min(terms[0], terms[1]) + 1):
            a = [a0]
            for j in range(1, 12):
                a.append(terms[j] - a[-1])
            if a[11] + a[0] == terms[0] and all(
                    0 <= a[j] <= min(terms[j], terms[(j + 1) % 12]) for j in range(12)):
                found.append(dict(zip(etas_at, (a[0], a[3], a[6], a[9]))))
        if not found:
            return False
        options.append(found)
    return any(all(eta[i] + eta[(i + 1) % 8] <= mo[(i + 1) % 8] for i in range(8))
               for ea in options[0] for eb in options[1] for eta in [{**ea, **eb}])


def check_core(res, core_bound=8):
    fails = []
    if res["ku"] is None:
        if res["mu"] is not None or res["mo"] is not None:
            fails.append("MU/MO reported although KU is ambiguous")
        return fails
    ku = [group(g) for g in res["ku"]]
    if any(ku[q] != ku[q % 2] for q in range(8)):
        fails.append("KU is not 2-periodic")
    mu = [group(g) for g in res["mu"]]
    for q in range(8):
        if not is_elementary_2(mu[q]):
            fails.append(f"MU_{q} = {res['mu'][q]} is not elementary 2-torsion")
        if re.fullmatch(r"-?\d+", res["psi"][q]) and generator_count(ku[q]) <= 1:
            want = _mu_from_scalar(ku[q], int(res["psi"][q]))
            if mu[q] != want:
                fails.append(f"MU_{q} = {res['mu'][q]} but psi_{q} = {res['psi'][q]} "
                             f"on KU_{q} = {res['ku'][q]} gives order {order(want)}")
    mu_ranks = [len(g[0]) for g in mu]
    seen = set()
    for idx, table in enumerate(res["mo"] or [], start=1):
        gs = [group(g) for g in table]
        if not all(is_elementary_2(g) for g in gs):
            fails.append(f"MO solution {idx} has a group that is not elementary 2-torsion")
            continue
        ranks = tuple(len(g[0]) for g in gs)
        if ranks in seen:
            fails.append(f"MO solution {idx} is listed twice")
        seen.add(ranks)
        if any(r > core_bound for r in ranks):
            fails.append(f"MO solution {idx} exceeds the rank bound {core_bound}")
        if any(ranks[q] != r for q, r in res["known"].items()) or \
                any(ranks[q] > r for q, r in res["bounds"].items()):
            fails.append(f"MO solution {idx} breaks the printed constraints")
        if not mo_table_exact(ranks, mu_ranks):
            fails.append(f"MO solution {idx} fails the exactness re-check")
    if res["mo"] is not None and not res["mo"]:
        fails.append("no MO solution listed")
    return fails


# ---------------------------------------------------------------------------
# Closed forms of the paper's families (acceptance criteria 1-4)
# ---------------------------------------------------------------------------

def _grid_fails(res, part, expected, k=2):
    fails = []
    rows = res[part]
    for q in range(len(rows)):
        want = expected.get(q, [ZERO] * (k + 1))
        got = [group(g) for g in rows[q]]
        if got != want:
            fails.append(f"{part} row q={q} is {rows[q]}")
    return fails


def _all_equal(res, key, want, label):
    if res[key] is None:
        return [f"{label} missing (KU ambiguous)"]
    got = [group(g) for g in res[key]]
    return [] if all(g == want for g in got) else [f"{label} is {res[key]}"]


EVEN_G_MO = [[0, 1, 1, 2, 1, 1, 0, 0], [0, 1, 2, 2, 2, 1, 0, 0]]
ASYM_DISPLAYED_MO = [1, 1, 1, 2, 1, 1, 1, 0]


def _mo_ranks(res):
    return [[len(group(g)[0]) for g in t] for t in res["mo"] or []]


def check_family(inp, res):
    fam, params = inp["family"], inp["params"]
    fails = []
    if fam == "one_vertex":
        m, n = params
        g = gcd(m - 1, n - 1)
        zg = cyclic(g)
        fails += _all_equal(res, "ku", zg, f"KU (criterion 1: Z_{g})")
        if g % 2:
            if res["diffs"]:
                fails.append("odd g: differential report must be empty")
            pattern = [zg, zg, ZERO, ZERO, zg, zg, ZERO, ZERO]
            for q in range(8):
                e = res["ko"].get(q)
                if not e or e["status"] != "determined" or group(e["candidates"][0]) != pattern[q]:
                    fails.append(f"odd g: KO_{q} should be determined {pattern[q]}")
        else:
            fails += _grid_fails(res, "real", {
                0: [zg, zg, ZERO], 1: [Z2, direct_sum(Z2, Z2), Z2],
                2: [Z2, direct_sum(Z2, Z2), Z2], 4: [zg, zg, ZERO]})
            if res["diffs"] != [(2, (2, 1), (0, 2), "real")]:
                fails.append(f"even g: differential report is {res['diffs']}")
            e = res["ko"].get(2)
            if not e or e["status"] != "d2_ambiguous" or \
                    [v[0] for v in e["variants"]] != ["d2=0", "d2!=0"]:
                fails.append("even g: KO_2 must carry the variants d2=0, d2!=0")
            if g == 2 and _mo_ranks(res) != EVEN_G_MO:
                fails.append(f"g=2: MO tables are {_mo_ranks(res)} (criterion 2)")
    elif fam == "symmetric":
        (n,) = params
        z2n, zn = cyclic(2 * n), cyclic(n)
        fails += _grid_fails(res, "real", {
            0: [Z2, Z2, ZERO], 1: [Z2, direct_sum(Z2, Z2), Z2],
            2: [z2n, direct_sum(Z2, z2n), Z2], 4: [Z2, Z2, ZERO], 6: [zn, zn, ZERO]})
        fails += _all_equal(res, "ku", z2n, f"KU (criterion 3: Z_{2 * n})")
        if res["psi"] != ["-1", "-1", "1", "1", "-1", "-1", "1", "1"]:
            fails.append(f"psi scalars are {res['psi']}")
        fails += _all_equal(res, "mu", Z2, "MU (criterion 3: Z_2)")
        e = res["ko"].get(1)
        if not e or e["status"] != "extension_ambiguous" or \
                sorted(group(c) for c in e["candidates"]) != sorted([cyclic(4), direct_sum(Z2, Z2)]):
            fails.append("KO_1 candidates must be {Z_4, Z_2 + Z_2}")
    elif fam == "asymmetric":
        (n,) = params
        fails += _grid_fails(res, "complex", {0: [Z2, Z2, ZERO]})
        expected = {0: [Z2, Z2, ZERO], 1: [Z2, direct_sum(Z2, Z2), Z2],
                    2: [Z2, direct_sum(Z2, Z2), Z2], 4: [Z2, Z2, ZERO]}
        if n % 2 == 0:
            expected[6] = [Z2, Z2, ZERO]
        fails += _grid_fails(res, "real", expected)
        fails += _all_equal(res, "ku", Z2, "KU (criterion 4: Z_2)")
        if res["psi"] != ["1"] * 8:
            fails.append(f"psi scalars are {res['psi']}")
        fails += _all_equal(res, "mu", Z2, "MU (criterion 4: Z_2)")
        if n % 2 == 0 and ASYM_DISPLAYED_MO not in _mo_ranks(res):
            fails.append("the displayed MO table is not among the solutions")
    return fails


# ---------------------------------------------------------------------------
# Emitted intermediates and lifts
# ---------------------------------------------------------------------------

# Moduli of the coordinates of A_j: one per building-block coordinate, real
# block KO_j(R) per fixed vertex first, then complex block KO_j(C) per pair
# (0 = a Z coordinate).  From the building blocks' KO tables.
_REAL_R = {0: [0], 1: [2], 2: [2], 3: [], 4: [0], 5: [], 6: [], 7: []}
_REAL_C = {0: [0], 1: [], 2: [0], 3: [], 4: [0], 5: [], 6: [0], 7: []}


def coordinate_moduli(inp, part, j):
    _, nf, n1 = partition_order(inp["involution"])
    if part == "complex":
        return [0] * (nf + 2 * n1) if j == 0 else []
    return _REAL_R[j] * nf + _REAL_C[j] * n1


def check_emitted(inp, doc):
    fails = []
    k = inp["k"]
    own, _ = koszul_boundaries(inp)
    inter = doc.get("intermediate")
    lifts = doc.get("lifts")
    if inter is None or lifts is None:
        return ["intermediate data or lifts missing"]
    for key, data in inter.items():
        part, j = key.split("/")
        j = int(j)
        mods = coordinate_moduli(inp, part, j)
        dims = [len(mods) * len(list(combinations(range(k), p))) for p in range(k + 1)]
        for p, g in enumerate(data["groups"]):
            copies = len(list(combinations(range(k), p)))
            if group(g) != direct_sum(ZERO, *[cyclic(x) for x in mods * copies]):
                fails.append(f"[{key}] C_{p} = {g} does not match the building blocks")
        for p, (b, diag) in enumerate(zip(data["boundaries"], data["snf_diagonals"]), start=1):
            rows = len(b)
            cols = dims[p]
            if part == "complex" and j == 0 and b != own[p - 1]:
                fails.append(f"[{key}] boundary {p} differs from the rebuilt Koszul matrix")
            if len(diag) != min(rows, cols) or any(x < 0 for x in diag):
                fails.append(f"[{key}] SNF diagonal {p} has the wrong length or a negative entry")
            for a, c in zip(diag, diag[1:]):
                if (a == 0 and c != 0) or (a and c % a):
                    fails.append(f"[{key}] SNF diagonal {p} is not a divisibility chain")
                    break
            if sum(1 for x in diag if x) != rank_mod(b, None):
                fails.append(f"[{key}] SNF diagonal {p}: nonzero count != rank over Q")
    want_keys = {f"{part}/{p},{j}"
                 for part, rows in (("real", doc["e2"]["real"]), ("complex", doc["e2"]["complex"]))
                 for j, row in enumerate(rows) for p, g in enumerate(row) if g != "0"}
    if set(lifts) != want_keys:
        fails.append(f"lifts cover {sorted(lifts)}, nonzero cells are {sorted(want_keys)}")
    for key, data in lifts.items():
        part, rest = key.split("/")
        p, j = (int(x) for x in rest.split(","))
        g = group(data["group"])
        if data["group"] != doc["e2"][part][j][p]:
            fails.append(f"[{key}] lift group differs from the E2 page")
        if len(data["generators"]) != generator_count(g):
            fails.append(f"[{key}] {len(data['generators'])} generators for {data['group']}")
        mods = coordinate_moduli(inp, part, j)
        ncopies = len(list(combinations(range(k), p)))
        if p == 0:
            continue
        b = inter[f"{part}/{j}"]["boundaries"][p - 1]
        lower = mods * len(list(combinations(range(k), p - 1)))
        for i, gen in enumerate(data["generators"]):
            if len(gen) != len(mods) * ncopies:
                fails.append(f"[{key}] generator {i + 1} has length {len(gen)}")
                continue
            image = matvec(b, gen)
            if any((x % m if m else x) for x, m in zip(image, lower)):
                fails.append(f"[{key}] generator {i + 1} is not a cycle")
    return fails


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def check_output(workload, inp, text):
    """All checks for one output; returns failure messages."""
    try:
        if workload == "lattice-emit":
            doc = json.loads(text)
            res = parse_json(doc)
        else:
            doc = None
            res = parse_text(text)
        if res["k"] != inp["k"]:
            return [f"report is for k={res['k']}, input has k={inp['k']}"]
        fails = check_complex_part(inp, res) + check_real_part(inp, res) + check_core(res)
        if workload == "families":
            fails += check_family(inp, res)
        if doc is not None:
            fails += check_emitted(inp, doc)
        return fails
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
