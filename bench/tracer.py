"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install()`` replaces each layer's public functions, in every
``kktheory`` module that refers to them, by wrappers that time the call and
count it.  Times are self times: a span's duration minus the spans it caused,
so the layers add up to the traced total.  Smith normal form calls are only
counted, so their time stays with the homology (or CLI) span that made them.
Work the wrappers do themselves (scanning results for bit lengths) is kept
out of every span.
"""

from __future__ import annotations

import sys
import time

# (span name, defining module, function name)
SPANS = (
    ("cli.run", "cli", "run"),
    ("cli.load", "cli", "load_spec"),
    ("cli.analyze", "cli", "analyze"),
    ("kgraph.validate", "kgraph", "validate"),
    ("spectral.e2", "spectral", "compute_e2"),
    ("koszul.build", "koszul", "build_complex"),
    ("abelian.homology", "abelian", "homology"),
    ("spectral.report", "spectral", "differential_report"),
    ("spectral.assemble", "spectral", "assemble_diagonals"),
    ("spectral.kupsi", "spectral", "compute_ku_with_psi"),
    ("spectral.mu", "spectral", "compute_mu"),
    ("spectral.core", "spectral", "enumerate_core_solutions"),
)
SNF = ("abelian", "smith_normal_form")

# (metric, unit, the span or counter it is read from), in report order.  When
# that span was not called anywhere in a workload, the metric is reported
# missing, not as 0.
PER_LAYER = (
    ("kgraph.validate_s", "s", "kgraph.validate"),
    ("kgraph.validate_calls", "count", "kgraph.validate"),
    ("koszul.build_s", "s", "koszul.build"),
    ("koszul.complexes", "count", "koszul.build"),
    ("spectral.e2_s", "s", "spectral.e2"),
    ("abelian.homology_s", "s", "abelian.homology"),
    ("abelian.homology_calls", "count", "abelian.homology"),
    ("abelian.snf_calls", "count", "abelian.snf"),
    ("abelian.snf_misses", "count", "abelian.snf"),
    ("abelian.lattice_bits_max", "bits", "abelian.homology"),
    ("abelian.homology_pct", "%", "abelian.homology"),
    ("spectral.assemble_s", "s", "spectral.assemble"),
    ("spectral.ext_candidates", "count", "spectral.assemble"),
    ("spectral.report_s", "s", "spectral.report"),
    ("spectral.report_calls", "count", "spectral.report"),
    ("spectral.kupsi_s", "s", "spectral.kupsi"),
    ("spectral.mu_s", "s", "spectral.mu"),
    ("spectral.core_s", "s", "spectral.core"),
    ("spectral.core_solutions", "count", "spectral.core"),
    ("cli.load_s", "s", "cli.load"),
    ("cli.render_s", "s", "cli.run"),
    ("cli.output_kb", "KB", "cli.run"),
    ("trace.solve_s", "s", "cli.run"),
)


def _max_bits(matrix):
    return max((abs(x).bit_length() for row in matrix.data for x in row), default=0)


def _candidate_count(assemblies):
    """Candidate groups listed over all diagonals, plus the d2 variants."""
    n = 0
    for asm in assemblies:
        n += len(asm.candidates)
        for v in asm.variants or ():
            n += 1 + len(v.candidates)
    return n


class Tracer:
    def __init__(self):
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.extra = {}
        self._stack = []
        self.missing = []

    def reset(self):
        self.self_s = {name: 0.0 for name, _, _ in SPANS}
        self.total_s = {name: 0.0 for name, _, _ in SPANS}
        self.calls = {name: 0 for name, _, _ in SPANS}
        self.calls["abelian.snf"] = 0
        self.extra = {"bits": 0, "candidates": 0, "solutions": 0}
        self._stack = []

    def _span(self, name, fn, post=None):
        def wrapped(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[0]
                self.total_s[name] += dt
                self.calls[name] += 1
            if post is not None:
                post(result)
            if self._stack:
                self._stack[-1][0] += time.perf_counter() - t0
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    def _count_snf(self, fn):
        def wrapped(*args, **kwargs):
            self.calls["abelian.snf"] += 1
            return fn(*args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def _post_homology(self, result):
        self.extra["bits"] = max(self.extra["bits"],
                                 _max_bits(result.kernel_lattice_basis),
                                 _max_bits(result.lift))

    def _post_assemble(self, result):
        self.extra["candidates"] += _candidate_count(result)

    def _post_core(self, result):
        self.extra["solutions"] += len(result)

    def install(self):
        """Wrap every layer function wherever a kktheory module refers to it.

        Returns the wrapped ``cli.run``.
        """
        import kktheory.cli  # noqa: F401  (loads every layer module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kktheory" or name.startswith("kktheory.")]
        post = {"abelian.homology": self._post_homology,
                "spectral.assemble": self._post_assemble,
                "spectral.core": self._post_core}
        self.reset()
        targets = [(name, mod, attr) for name, mod, attr in SPANS] + [("abelian.snf",) + SNF]
        for name, mod, attr in targets:
            orig = getattr(sys.modules.get(f"kktheory.{mod}"), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            if name == "abelian.snf":
                wrapper = self._count_snf(orig)
            else:
                wrapper = self._span(name, orig, post.get(name))
            for m in modules:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapper)
        return sys.modules["kktheory.cli"].run

    def record(self, output_chars, snf_misses, scale):
        """Per-layer values of the call just made (after ``reset``); times
        are multiplied by ``scale``, the call's reference-speed factor."""
        s = {name: t * scale for name, t in self.self_s.items()}
        c = self.calls
        total = self.total_s["cli.run"] * scale
        called = {name for name, n in c.items() if n}
        rec = {
            "kgraph.validate_s": s["kgraph.validate"], "kgraph.validate_calls": c["kgraph.validate"],
            "koszul.build_s": s["koszul.build"], "koszul.complexes": c["koszul.build"],
            "spectral.e2_s": s["spectral.e2"],
            "abelian.homology_s": s["abelian.homology"],
            "abelian.homology_calls": c["abelian.homology"],
            "abelian.snf_calls": c["abelian.snf"],
            "abelian.snf_misses": c["abelian.snf"] if snf_misses is None else snf_misses,
            "abelian.lattice_bits_max": self.extra["bits"],
            "spectral.assemble_s": s["spectral.assemble"],
            "spectral.ext_candidates": self.extra["candidates"],
            "spectral.report_s": s["spectral.report"], "spectral.report_calls": c["spectral.report"],
            "spectral.kupsi_s": s["spectral.kupsi"], "spectral.mu_s": s["spectral.mu"],
            "spectral.core_s": s["spectral.core"], "spectral.core_solutions": self.extra["solutions"],
            "cli.load_s": s["cli.load"],
            "cli.render_s": s["cli.run"] + s["cli.analyze"],
            "cli.output_kb": output_chars / 1024,
            "trace.solve_s": total,
        }
        return rec, sorted(called)
