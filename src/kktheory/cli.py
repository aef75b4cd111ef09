"""Batch front end: parse a k-graph description, run the pipeline, render.

Input is a single JSON document

    { "k": int,
      "vertices": [str, ...],
      "involution": [int, ...],   # 0-based image of each vertex
      "matrices": [ k row-major |V| x |V| integer matrices ] }

where matrices[i][v][w] counts the color-(i+1) edges with source w and
range v.  Every number must be a JSON integer: a float, string or boolean in
its place is a parse error, not truncated.  Likewise every list above must
be a JSON array: a string or object in its place is a parse error, not read
as a sequence of its characters or keys.  The computation is one call of
``spectral.run_pipeline``; this module only parses, serialises and renders.
Output is a human-readable text report or a machine-readable JSON document
(schema "kkth/1"); both are deterministic byte-for-byte for a fixed input.
The JSON is written in one pass, one ``str.join`` per container, and is
byte-identical to ``json.dumps(doc, indent=2)``: with any ``indent``,
``json.dumps`` leaves its C encoder for a generator per container and a call
per value, the largest cost of an ``--emit-intermediate`` run.  There the
document holds one entry per distinct complex, shared by the degrees that
share the complex, and its "boundaries" value is the complex itself, which
``_json_text`` writes from the rho blocks of ``koszul.boundary_blocks``: no
boundary is laid out only to be printed.

Exit codes: 0 success, 2 parse/validation error, 3 computation error,
4 search bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import comb

from .abelian import DEFAULT_EXTENSION_BOUND, BoundExceeded
from .kgraph import KGraphError, KGraphSpec
from .koszul import GradedChainComplex, boundary_blocks
from .spectral import DEFAULT_CORE_BOUND, run_pipeline

SCHEMA = "kkth/1"

INVOLUTION_NOTE = (
    "note: only the vertex action of the involution enters this computation; "
    "edge-level involution data could influence at most the differentials "
    "reported as ambiguous.")


class ParseError(Exception):
    pass


class JobConfig:
    def __init__(self, input_path: str, output_format: str = "text",
                 ext_bound: int = DEFAULT_EXTENSION_BOUND,
                 core_bound: int = DEFAULT_CORE_BOUND,
                 emit_intermediate: bool = False, emit_lifts: bool = False):
        if output_format not in ("text", "json"):
            raise ParseError(f"unknown output format {output_format!r}")
        if ext_bound <= 0 or core_bound <= 0:
            raise ParseError("bounds must be positive")
        self.input_path = input_path
        self.output_format = output_format
        self.ext_bound = ext_bound
        self.core_bound = core_bound
        self.emit_intermediate = emit_intermediate
        self.emit_lifts = emit_lifts


def load_spec(path: str) -> KGraphSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    required = {"k", "vertices", "involution", "matrices"}
    missing = required - doc.keys()
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    unknown = doc.keys() - required
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    for key in ("vertices", "involution", "matrices"):
        if type(doc[key]) is not list:  # a string or object would be iterated
            raise ParseError(f"{key} must be an array")
    if not all(type(m) is list and all(type(row) is list for row in m)
               for m in doc["matrices"]):
        raise ParseError("each matrix and each of its rows must be an array")
    try:
        for x in [doc["k"], *doc["involution"],
                  *(x for m in doc["matrices"] for row in m for x in row)]:
            if type(x) is not int:  # int() would truncate floats, read strings and bools
                raise ParseError(f"non-integer value {json.dumps(x)}")
        if not all(isinstance(v, str) for v in doc["vertices"]):
            raise ParseError("vertex names must be strings")
        return KGraphSpec.from_lists(doc["k"], doc["vertices"],
                                     doc["matrices"], doc["involution"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad field value: {exc}") from exc


# ---------------------------------------------------------------------------
# Structured result
# ---------------------------------------------------------------------------

def _psi_json(kupsi, q):
    hom = kupsi.psi[q]
    return {"matrix": hom.matrix.tolist(), "scalar": kupsi.psi_scalar(q)}


def _assembly_json(asm):
    entry = {
        "q": asm.q,
        "status": asm.status,
        "factors": [{"p": p, "j": j, "group": g.describe()}
                    for (p, j, g) in asm.factors if not g.is_trivial],
    }
    if asm.status == "d2_ambiguous":
        entry["variants"] = [{"label": v.label,
                              "candidates": [c.describe() for c in v.candidates]}
                             for v in asm.variants]
    else:
        entry["candidates"] = [c.describe() for c in asm.candidates]
    return entry


def analyze(spec: KGraphSpec, config: JobConfig) -> dict:
    """Run the pipeline once and return its result document, JSON-ready
    for ``_json_text``: with ``emit_intermediate`` each complex's
    "boundaries" value is the complex."""
    result = run_pipeline(spec, config.ext_bound, config.core_bound)
    page, kupsi = result.page, result.kupsi
    partition = page.partition

    doc = {
        "schema": SCHEMA,
        "input": {
            "k": spec.k,
            "vertices": list(spec.vertices),
            "involution": list(spec.involution),
            "matrices": [m.tolist() for m in spec.matrices],
        },
        "validation": {
            "fixed": [spec.vertices[v] for v in partition.fixed],
            "orbits": [[spec.vertices[v], spec.vertices[w]]
                       for v, w in zip(partition.paired, partition.partners)],
            "note": INVOLUTION_NOTE,
        },
        "e2": {
            "real": [[page.group("real", p, q).describe() for p in range(spec.k + 1)]
                     for q in range(8)],
            "complex": [[page.group("complex", p, q).describe() for p in range(spec.k + 1)]
                        for q in range(2)],
        },
        "differentials": [
            {"r": e.r, "source": list(e.source), "target": list(e.target),
             "part": e.part, "source_group": e.source_group.describe(),
             "target_group": e.target_group.describe()}
            for e in result.report.entries
        ],
        "ko": [_assembly_json(a) for a in result.real],
        "ku_diagonals": [_assembly_json(a) for a in result.cplx],
    }

    if kupsi.ambiguous:
        doc["ku"] = {"ambiguous": True, "reason": kupsi.reason}
        doc["mu"] = None
        doc["core"] = None
    else:
        doc["ku"] = {
            "ambiguous": False,
            "groups": [kupsi.ku[q].describe() for q in range(8)],
            "psi": [_psi_json(kupsi, q) for q in range(8)],
        }
        doc["mu"] = [g.describe() for g in result.mu]
        constraints = result.constraints
        doc["core"] = {
            "constraints": {
                "known_mo": {str(q): r for q, r in sorted(constraints.known_mo.items())},
                "mo_rank_bounds": {str(q): r for q, r in sorted(constraints.mo_bounds.items())},
            },
            "solutions": [[g.describe() for g in table] for table in result.solutions],
        }

    if config.emit_intermediate:
        # one entry per distinct complex, shared by the degrees that share it;
        # its boundaries are the complex, which _json_text writes from its rho
        entries = {}
        for cx in page.complexes.values():
            if cx not in entries:
                entries[cx] = {
                    "groups": [g.describe() for g in cx.groups],
                    "boundaries": cx,
                    "snf_diagonals": [list(cx.diagonal(p)) for p in range(1, cx.k + 1)],
                }
        doc["intermediate"] = {f"{part}/{j}": entries[cx]
                               for (part, j), cx in sorted(page.complexes.items())}

    if config.emit_lifts:
        lifts = {}
        for part, p, j in sorted((part, p, j) for part, j in page.complexes
                                 for p in range(page.k + 1)):
            cell = page.cell(part, p, j)
            if not cell.group.is_trivial:
                lifts[f"{part}/{p},{j}"] = {
                    "group": cell.group.describe(),
                    "generators": [list(cell.lift.col(i))
                                   for i in range(cell.lift.cols)],
                }
        doc["lifts"] = lifts

    return doc


def _json_text(value, indent="\n") -> str:
    """``json.dumps(value, indent=2)`` for dicts with str keys, lists, str,
    int, bool and None, where ``indent`` is the newline and indentation
    before ``value``.  A list of plain ints is joined in one call, with no
    Python call per element.  A GradedChainComplex is written as the list
    of its boundaries' rows (``_boundaries_text``).  Any other type, a tuple
    or float too, is a TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        if {*map(type, value)} == {int}:  # leaves out bool
            items = map(int.__repr__, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is GradedChainComplex:
        return _boundaries_text(value, indent)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _boundaries_text(cx, indent) -> str:
    """``_json_text([b.matrix.tolist() for b in cx.boundaries], indent)``,
    with no boundary laid out.  A row of d_p is C(k, p) blocks, each 0 or a
    row of +-rho^c (``koszul.boundary_blocks``), so each row of +-rho^c is
    rendered once per sign and the zero block once.  The whole text is one
    join of these texts and the separators, with no row text built."""
    k, n = cx.k, cx.aj.ambient_rank
    if not k:
        return "[]"
    inner = indent + "  "
    row_indent = inner + "  "
    sep = "," + row_indent + "  "
    row_format = sep.join(["%d"] * n)
    texts = [([row_format % row for row in m.data],
              [row_format % tuple([-x for x in row]) for row in m.data]) for m in cx.rhos]
    # endless, so that zip stops at the n rows of a rho block
    zeros, seps = repeat(row_format % ((0,) * n)), repeat(sep)
    opening, closing = repeat("," + row_indent + "[" + row_indent + "  "), repeat(row_indent + "]")
    pieces = ["["]
    for p in range(1, k + 1):
        pieces.append(inner if p == 1 else "," + inner)
        if not n:
            pieces.append("[]")
            continue
        pieces.append("[")
        first = len(pieces)
        for row_blocks in boundary_blocks(k, p):
            # row r of the row block: opening, its C(k, p) blocks (the zero
            # block or row r of +-rho^c) with seps between them, closing
            line = [zeros] * comb(k, p)
            for b, color, odd in row_blocks:
                line[b] = texts[color - 1][odd]
            columns = [opening] + [x for block in line for x in (block, seps)]
            columns[-1] = closing
            pieces += chain.from_iterable(zip(*columns))
        pieces[first] = pieces[first][1:]  # the first row opens with no comma
        pieces.append(inner + "]")
    pieces.append(indent + "]")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _render_grid(rows_qs, table, k):
    widths = [max(len(table[q][p]) for q in rows_qs) for p in range(k + 1)]
    lines = []
    for q in rows_qs:
        cells = "  ".join(table[q][p].ljust(widths[p]) for p in range(k + 1))
        lines.append(f"  q={q} | {cells.rstrip()}")
    header = "  " + " " * len(f"q={rows_qs[0]}") + " | " + \
             "  ".join(f"p={p}".ljust(widths[p]) for p in range(k + 1))
    return [header.rstrip()] + lines


def _render_assembly_lines(name, entries):
    lines = []
    for entry in entries:
        q = entry["q"]
        factors = ", ".join(f"({f['p']},{f['j']}) {f['group']}" for f in entry["factors"])
        factors = factors or "none"
        if entry["status"] == "determined":
            lines.append(f"  {name}_{q} = {entry['candidates'][0]}  [determined; factors: {factors}]")
        elif entry["status"] == "extension_ambiguous":
            cands = " | ".join(entry["candidates"])
            lines.append(f"  {name}_{q}: extension problem; factors: {factors}; candidates: {cands}")
        else:
            lines.append(f"  {name}_{q}: depends on a differential; factors: {factors}")
            for v in entry["variants"]:
                cands = " | ".join(v["candidates"])
                lines.append(f"    {v['label']}: candidates: {cands}")
    return lines


def render_text(doc: dict) -> str:
    k = doc["input"]["k"]
    out = []
    out.append("kktheory report")
    out.append(f"rank k = {k}; vertices: " + " ".join(doc["input"]["vertices"]))
    fixed = ", ".join(doc["validation"]["fixed"]) or "(none)"
    orbits = ", ".join(f"({a} {b})" for a, b in doc["validation"]["orbits"]) or "(none)"
    out.append(f"involution: fixed vertices: {fixed}; swapped pairs: {orbits}")
    out.append(doc["validation"]["note"])
    out.append("")

    out.append("== E2 page, real part ==")
    real = {q: doc["e2"]["real"][q] for q in range(8)}
    out.extend(_render_grid(list(range(7, -1, -1)), real, k))
    out.append("")
    out.append("== E2 page, complex part (2-periodic, rows q = 7..0) ==")
    cplx = {q: doc["e2"]["complex"][q % 2] for q in range(8)}
    out.extend(_render_grid(list(range(7, -1, -1)), cplx, k))
    out.append("")

    out.append("== possible nonzero differentials ==")
    if doc["differentials"]:
        for e in doc["differentials"]:
            out.append(f"  d{e['r']}: ({e['source'][0]},{e['source'][1]}) -> "
                       f"({e['target'][0]},{e['target'][1]}) [{e['part']}], "
                       f"{e['source_group']} -> {e['target_group']}")
    else:
        out.append("  none; E2 = Einf")
    out.append("")

    out.append("== KO groups by total degree ==")
    out.extend(_render_assembly_lines("KO", doc["ko"]))
    out.append("")
    out.append("== KU diagonals ==")
    out.extend(_render_assembly_lines("KU", doc["ku_diagonals"]))
    out.append("")

    out.append("== KU groups and psi ==")
    if doc["ku"]["ambiguous"]:
        out.append(f"  ambiguous: {doc['ku']['reason']}")
    else:
        for q in range(8):
            psi = doc["ku"]["psi"][q]
            shown = psi["scalar"] if psi["scalar"] is not None else psi["matrix"]
            out.append(f"  KU_{q} = {doc['ku']['groups'][q]}; psi_{q} = {shown}")
    out.append("")

    out.append("== core groups MU ==")
    if doc["mu"] is None:
        out.append("  skipped (KU ambiguous)")
    else:
        out.append("  " + "  ".join(f"MU_{q}={doc['mu'][q]}" for q in range(8)))
    out.append("")

    out.append("== core MO solutions ==")
    if doc["core"] is None:
        out.append("  skipped (KU ambiguous)")
    else:
        known = doc["core"]["constraints"]["known_mo"]
        bounds = doc["core"]["constraints"]["mo_rank_bounds"]
        known_s = ", ".join(f"MO_{q}=Z_2^{r}" for q, r in known.items()) or "none"
        bound_s = ", ".join(f"MO_{q}<=Z_2^{r}" for q, r in bounds.items()) or "none"
        out.append(f"  derived constraints: known: {known_s}; rank bounds: {bound_s}")
        for idx, table in enumerate(doc["core"]["solutions"], start=1):
            out.append(f"  solution {idx}: " + "; ".join(
                f"MO_{q}={table[q]}" for q in range(8)))

    if "intermediate" in doc:
        out.append("")
        out.append("== intermediate data ==")
        for key, data in doc["intermediate"].items():
            out.append(f"  [{key}] groups: " + ", ".join(data["groups"]))
            for i, diag in enumerate(data["snf_diagonals"], start=1):
                out.append(f"    SNF diag of boundary {i}: {diag}")

    if "lifts" in doc:
        out.append("")
        out.append("== homology generator lifts ==")
        for key, data in doc["lifts"].items():
            out.append(f"  [{key}] {data['group']}: " +
                       "; ".join(str(g) for g in data["generators"]))

    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _input_error(exc, stderr) -> int:
    name = type(exc).__name__
    message = str(exc)
    # KGraphErrors other than MalformedShape already render as Name(args)
    print(message if message.startswith(name) else f"{name}: {message}", file=stderr)
    return 2


def run(config: JobConfig, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        spec = load_spec(config.input_path)
    except (ParseError, ValueError) as exc:  # ValueError: not UTF-8, or an overlong integer
        return _input_error(exc, stderr)
    try:
        doc = analyze(spec, config)
    except KGraphError as exc:  # validation is the pipeline's first stage
        return _input_error(exc, stderr)
    except BoundExceeded as exc:
        print(f"BoundExceeded: {exc}", file=stderr)
        return 4
    except Exception as exc:  # computation failures: surface the error name
        print(f"{type(exc).__name__}: {exc}", file=stderr)
        return 3
    if config.output_format == "json":
        print(_json_text(doc), file=stdout)
    else:
        print(render_text(doc), end="", file=stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kktheory",
        description="CR K-theory spectral-sequence calculator for finite "
                    "higher-rank graphs with involution")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("compute", help="run the full pipeline on one input file")
    cmd.add_argument("input", help="path to the k-graph JSON description")
    cmd.add_argument("--format", choices=["text", "json"], default="text")
    cmd.add_argument("--ext-bound", type=int, default=DEFAULT_EXTENSION_BOUND,
                     help="order bound for extension enumeration and for the "
                          f"target of a d_r variant (default {DEFAULT_EXTENSION_BOUND})")
    cmd.add_argument("--core-bound", type=int, default=DEFAULT_CORE_BOUND,
                     help=f"Z_2-rank search bound for the core solver (default "
                          f"{DEFAULT_CORE_BOUND})")
    cmd.add_argument("--emit-intermediate", action="store_true",
                     help="include chain complexes and SNF diagonals")
    cmd.add_argument("--emit-lifts", action="store_true",
                     help="include ambient lifts of homology generators")
    args = parser.parse_args(argv)
    try:
        config = JobConfig(
            input_path=args.input,
            output_format=args.format,
            ext_bound=args.ext_bound,
            core_bound=args.core_bound,
            emit_intermediate=args.emit_intermediate,
            emit_lifts=args.emit_lifts,
        )
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
