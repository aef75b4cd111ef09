"""Base inputs of the three workloads and the seeded relabelling applied to them.

Everything here is plain Python lists; nothing imports ``kktheory``, so the
inputs (and the checks that use their parameters) do not depend on the code
under test.

A base input is a dict ``{"name", "family", "params", "k", "involution",
"matrices"}``. ``matrices[c][v][w]`` counts the colour-(c+1) edges with source
w and range v, as in the program's input format.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("families", "lattice", "lattice-emit")

# One-vertex 2-graphs (m, n): g = gcd(m - 1, n - 1) odd for the first three,
# even for the last three.  The odd-g members cost ~0.05 s, the even-g ones
# ~0.45 s (their q=2 diagonal carries d2 variants).
ONE_VERTEX = ((4, 4), (6, 4), (6, 6), (3, 5), (5, 5), (7, 7))
# Three-vertex families over even and odd n.  symmetric(2) is the input where
# extension enumeration dominates; symmetric(4) (~11 s) and symmetric(6)
# (~4 s) are left out so that one pass stays short enough to repeat.
SYMMETRIC = (2, 3)
ASYMMETRIC = (3, 4)

# (k, nv, seed) for random_valid_spec(random.Random(seed), k, nv): the inputs
# whose kernel lattices grow to thousands of bits, so homology dominates, and
# (3, 4, 14), the one scanned input with a nonzero E2 page (Z_19 torsion,
# ambiguous KU), so that the checks also see nonzero groups.  (3, 6, 2)
# (11,836-bit entries, ~3.5 s) is left out: one call that long spans several
# changes of machine speed, and (4, 5, 14) reaches 11,542 bits in ~0.8 s.
LATTICE = ((4, 6, 12), (4, 5, 14), (4, 4, 2), (4, 6, 13),
           (4, 5, 6), (4, 4, 15), (3, 6, 13), (3, 4, 14))


def _input(name, family, params, matrices, involution):
    return {"name": name, "family": family, "params": params,
            "k": len(matrices), "involution": list(involution),
            "matrices": [[list(row) for row in m] for m in matrices]}


def one_vertex(m, n):
    return _input(f"one_vertex_{m}_{n}", "one_vertex", [m, n],
                  [[[m]], [[n]]], [0])


def symmetric(n):
    m = [[1, 1, 1], [1, 0, n - 1], [1, n - 1, 0]]
    return _input(f"symmetric_{n}", "symmetric", [n], [m, m], [0, 2, 1])


def asymmetric(n):
    m1 = [[1, 1, 1], [1, 0, n - 1], [1, n - 1, 0]]
    m2 = [[1, 1, 1], [1, n - 1, 0], [1, 0, n - 1]]
    return _input(f"asymmetric_{n}", "asymmetric", [n], [m1, m2], [0, 2, 1])


# ---------------------------------------------------------------------------
# Random valid k-graphs: the construction of tests/helpers.random_valid_spec,
# restated on lists so that the same (k, nv, seed) gives the same matrices.
# ---------------------------------------------------------------------------

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_involution(rng, nv):
    idx = list(range(nv))
    rng.shuffle(idx)
    gamma = list(range(nv))
    while len(idx) >= 2 and rng.random() < 0.7:
        a, b = idx.pop(), idx.pop()
        gamma[a], gamma[b] = b, a
    return gamma


def random_lattice(k, nv, seed):
    rng = random.Random(seed)
    gamma = _random_involution(rng, nv)
    p = [[1 if gamma[i] == j else 0 for j in range(nv)] for i in range(nv)]
    base = [[rng.randint(0, 2) for _ in range(nv)] for _ in range(nv)]
    pbp = _matmul(_matmul(p, base), p)
    sym = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(base, pbp)]
    sym2 = _matmul(sym, sym)
    mats = []
    for _ in range(k):
        a, b, c = rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 1)
        mats.append([[a * (i == j) + b * sym[i][j] + c * sym2[i][j]
                      for j in range(nv)] for i in range(nv)])
    return _input(f"random_k{k}_v{nv}_s{seed}", "random", [k, nv, seed],
                  mats, gamma)


def base_inputs(workload):
    if workload == "families":
        return ([one_vertex(m, n) for m, n in ONE_VERTEX]
                + [symmetric(n) for n in SYMMETRIC]
                + [asymmetric(n) for n in ASYMMETRIC])
    if workload in ("lattice", "lattice-emit"):
        return [random_lattice(*t) for t in LATTICE]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# The seeded relabelling
# ---------------------------------------------------------------------------

def _coordinate_preserving_permutation(rng, involution):
    """A random vertex permutation pi that keeps the program's coordinate order.

    The program orders coordinates as fixed vertices (ascending), then the
    smaller vertex of each swapped pair (ascending), then the partners.  pi
    keeps the fixed vertices in order, keeps the pairs in the order of their
    smaller vertex and keeps which vertex of a pair is the smaller, so the
    reordered matrices I - M^t, and with them all the work, are unchanged.
    A free relabelling would not be: it changes the run time of the same
    input by up to two orders of magnitude (see the benchmark README).
    """
    nv = len(involution)
    fixed = [v for v in range(nv) if involution[v] == v]
    pairs = [(v, involution[v]) for v in range(nv) if v < involution[v]]
    slots = list(range(nv))
    rng.shuffle(slots)
    fixed_slots = sorted(slots[:len(fixed)])
    rest = slots[len(fixed):]
    new_pairs = sorted(tuple(sorted(rest[2 * i:2 * i + 2]))
                       for i in range(len(pairs)))
    pi = [0] * nv
    for v, s in zip(fixed, fixed_slots):
        pi[v] = s
    for (a, b), (sa, sb) in zip(pairs, new_pairs):
        pi[a], pi[b] = sa, sb
    return pi


def relabel(inp, seed):
    """Apply the workload seed's vertex relabelling to one base input.

    The involution is conjugated with the vertices, and vertex names travel
    with their vertices.  By the method no group in the output changes.
    """
    rng = random.Random(f"{seed}/{inp['name']}")
    nv = len(inp["involution"])
    pi = _coordinate_preserving_permutation(rng, inp["involution"])
    names = [""] * nv
    gamma = [0] * nv
    for v in range(nv):
        names[pi[v]] = f"v{v}"
        gamma[pi[v]] = pi[inp["involution"][v]]
    mats = []
    for m in inp["matrices"]:
        new = [[0] * nv for _ in range(nv)]
        for v in range(nv):
            for w in range(nv):
                new[pi[v]][pi[w]] = m[v][w]
        mats.append(new)
    out = dict(inp, involution=gamma, matrices=mats)
    out["vertices"] = names
    return out


def seeded_inputs(workload, seed):
    return [relabel(inp, seed) for inp in base_inputs(workload)]


def write_inputs(workload, seed, directory):
    """Write one program input file per seeded input; return the manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for inp in seeded_inputs(workload, seed):
        path = os.path.join(directory, inp["name"] + ".json")
        doc = {"k": inp["k"], "vertices": inp["vertices"],
               "involution": inp["involution"], "matrices": inp["matrices"]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        manifest.append(dict(inp, path=path))
    return manifest
