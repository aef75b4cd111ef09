"""Batch front end: parse a k-graph description, run the pipeline, render.

Input is a single JSON document

    { "k": int,
      "vertices": [str, ...],
      "involution": [int, ...],   # 0-based image of each vertex
      "matrices": [ k row-major |V| x |V| integer matrices ] }

where matrices[i][v][w] counts the color-(i+1) edges with source w and
range v.  Every number must be a JSON integer: a float, string or boolean in
its place is a parse error, not truncated.  The computation is one call of
``spectral.run_pipeline``; this module only parses, serialises and renders.
Output is a human-readable text report or a machine-readable JSON document
(schema "kkth/1"); both are deterministic byte-for-byte for a fixed input.

Exit codes: 0 success, 2 parse/validation error, 3 computation error,
4 search bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .abelian import DEFAULT_EXTENSION_BOUND, BoundExceeded, FgAbGroup, smith_normal_form
from .kgraph import KGraphError, KGraphSpec
from .spectral import run_pipeline

SCHEMA = "kkth/1"

INVOLUTION_NOTE = (
    "note: only the vertex action of the involution enters this computation; "
    "edge-level involution data could influence at most the differentials "
    "reported as ambiguous.")


class ParseError(Exception):
    pass


@dataclass
class JobConfig:
    input_path: str
    output_format: str = "text"
    ext_bound: int = DEFAULT_EXTENSION_BOUND
    core_bound: int = 8
    emit_intermediate: bool = False
    emit_lifts: bool = False

    def __post_init__(self):
        if self.output_format not in ("text", "json"):
            raise ParseError(f"unknown output format {self.output_format!r}")
        if self.ext_bound <= 0 or self.core_bound <= 0:
            raise ParseError("bounds must be positive")


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

def _gstr(g: FgAbGroup) -> str:
    return g.describe()


def _psi_json(kupsi, q):
    hom = kupsi.psi[q]
    return {"matrix": hom.matrix.tolist(), "scalar": kupsi.psi_scalar(q)}


def _assembly_json(asm):
    entry = {
        "q": asm.q,
        "status": asm.status,
        "factors": [{"p": p, "j": j, "group": _gstr(g)}
                    for (p, j, g) in asm.factors if not g.is_trivial],
    }
    if asm.status == "d2_ambiguous":
        entry["variants"] = [{"label": v.label,
                              "candidates": [_gstr(c) for c in v.candidates]}
                             for v in asm.variants]
    else:
        entry["candidates"] = [_gstr(c) for c in asm.candidates]
    return entry


def analyze(spec: KGraphSpec, config: JobConfig) -> dict:
    """Run the pipeline once and return its JSON-ready result document."""
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
            "real": [[_gstr(page.group("real", p, q)) for p in range(spec.k + 1)]
                     for q in range(8)],
            "complex": [[_gstr(page.group("complex", p, q)) for p in range(spec.k + 1)]
                        for q in range(2)],
        },
        "differentials": [
            {"r": e.r, "source": list(e.source), "target": list(e.target),
             "part": e.part, "source_group": _gstr(e.source_group),
             "target_group": _gstr(e.target_group)}
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
            "groups": [_gstr(kupsi.ku[q]) for q in range(8)],
            "psi": [_psi_json(kupsi, q) for q in range(8)],
        }
        doc["mu"] = [_gstr(g) for g in result.mu]
        constraints = result.constraints
        doc["core"] = {
            "constraints": {
                "known_mo": {str(q): r for q, r in sorted(constraints.known_mo.items())},
                "mo_rank_bounds": {str(q): r for q, r in sorted(constraints.mo_bounds.items())},
            },
            "solutions": [[_gstr(g) for g in table] for table in result.solutions],
        }

    if config.emit_intermediate:
        inter = {}
        for (part, j), cx in sorted(page.complexes.items()):
            inter[f"{part}/{j}"] = {
                "groups": [_gstr(g) for g in cx.groups],
                "boundaries": [b.matrix.tolist() for b in cx.boundaries],
                "snf_diagonals": [
                    list(smith_normal_form(b.matrix, transforms=False).diagonal)
                    for b in cx.boundaries],
            }
        doc["intermediate"] = inter

    if config.emit_lifts:
        lifts = {}
        for (part, p, j), cell in sorted(page.cells.items()):
            if not cell.group.is_trivial:
                lifts[f"{part}/{p},{j}"] = {
                    "group": _gstr(cell.group),
                    "generators": [list(cell.lift.col(i))
                                   for i in range(cell.lift.cols)],
                }
        doc["lifts"] = lifts

    return doc


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
        print(json.dumps(doc, indent=2, sort_keys=False), file=stdout)
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
                     help="order bound for extension enumeration (default 65536)")
    cmd.add_argument("--core-bound", type=int, default=8,
                     help="Z_2-rank search bound for the core solver (default 8)")
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
