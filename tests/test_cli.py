import hashlib
import io
import itertools
import json
import pathlib
import random
import signal
import sys
import time

import hypothesis
import pytest
from hypothesis import strategies as st

from kktheory import abelian, kgraph, spectral
from kktheory.cli import (JobConfig, ParseError, _json_text, analyze, load_spec, main,
                          render_text, run)
from kktheory.spectral import compute_e2

from helpers import group_of, random_valid_spec, symmetric_three_vertex_spec


def write_input(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def symmetric_doc(n):
    m = [[1, 1, 1], [1, 0, n - 1], [1, n - 1, 0]]
    return {"k": 2, "vertices": ["v1", "v2", "v3"], "involution": [0, 2, 1],
            "matrices": [m, m]}


def one_vertex_doc(m, n):
    return {"k": 2, "vertices": ["v"], "involution": [0],
            "matrices": [[[m]], [[n]]]}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    import contextlib
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_text_report_symmetric_family(tmp_path):
    path = write_input(tmp_path, "sym.json", symmetric_doc(2))
    code, out, err = run_cli(["compute", path])
    assert code == 0 and err == ""
    assert "q=2 | Z_4  Z_2 + Z_4  Z_2" in out
    assert "d2: (2,1) -> (0,2) [real], Z_2 -> Z_4" in out
    assert "KU_0 = Z_4; psi_0 = -1" in out
    assert "MU_0=Z_2" in out
    assert "KO_1: extension problem" in out
    assert "candidates: Z_2 + Z_2 | Z_4" in out


def test_non_commuting_input_fails_with_named_error(tmp_path):
    doc = {"k": 2, "vertices": ["a", "b"], "involution": [0, 1],
           "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
    path = write_input(tmp_path, "bad.json", doc)
    code, out, err = run_cli(["compute", path])
    assert code == 2
    assert "NonCommutingMatrices(1,2)" in err


@pytest.mark.parametrize("doc, line", [
    (json.loads((pathlib.Path(__file__).parent / "data" / "noncommuting_k4.json").read_text()),
     "NonCommutingMatrices(1,4)"),
    ({"k": 1, "vertices": ["a", "b", "c"], "involution": [0, 1, 2],
      "matrices": [[[1, 1, 1], [1, -2, -1], [-1, 1, 1]]]}, "NegativeEntry(color=1,b,b)"),
    ({"k": 2, "vertices": ["a", "b"], "involution": [1, 0],
      "matrices": [[[1, 0], [0, 2]], [[2, 0], [0, 1]]]}, "IncompatibleInvolution(1)"),
])
def test_validation_errors_name_the_first_failure(tmp_path, doc, line):
    code, out, err = run_cli(["compute", write_input(tmp_path, "bad.json", doc)])
    assert (code, out, err) == (2, "", line + "\n")


def test_json_output_one_vertex(tmp_path):
    path = write_input(tmp_path, "ov.json", one_vertex_doc(4, 4))
    code, out, err = run_cli(["compute", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "kkth/1"
    assert doc["ku"]["groups"] == ["Z_3"] * 8
    ko = {entry["q"]: entry for entry in doc["ko"]}
    pattern = ["Z_3", "Z_3", "0", "0", "Z_3", "Z_3", "0", "0"]
    for q in range(8):
        assert ko[q]["status"] == "determined"
        assert ko[q]["candidates"] == [pattern[q]]
    assert doc["differentials"] == []


def test_json_round_trip_group_data(tmp_path):
    path = write_input(tmp_path, "sym.json", symmetric_doc(3))
    code, out, _ = run_cli(["compute", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    spec = load_spec(path)
    page = compute_e2(spec)
    for q in range(8):
        for p in range(3):
            rendered = doc["e2"]["real"][q][p]
            assert group_of(rendered) == page.group("real", p, q)
    for q in range(2):
        for p in range(3):
            assert group_of(doc["e2"]["complex"][q][p]) == page.group("complex", p, q)
    for s in doc["ku"]["groups"] + doc["mu"]:
        group_of(s)   # every rendered group parses back


def test_output_is_deterministic(tmp_path):
    path = write_input(tmp_path, "sym.json", symmetric_doc(2))
    for fmt in ("text", "json"):
        _, first, _ = run_cli(["compute", path, "--format", fmt])
        _, second, _ = run_cli(["compute", path, "--format", fmt])
        assert first == second


# non-ASCII, control, quote and backslash characters all need escaping
json_strings = st.text(st.characters()
                       | st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\U0001d11e'))
json_ints = st.integers() | st.integers(2**64, 2**200) | st.integers(-2**200, -2**64)
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_strings,
    lambda inner: (st.lists(inner) | st.lists(json_ints | st.booleans())
                   | st.dictionaries(json_strings, inner)),
    max_leaves=20)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
@hypothesis.given(json_values)
@hypothesis.example({"": [], "\xe9\"\\\n": {}, "k": [[1, True, -2**70], [False, None]]})
def test_json_text_equals_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)
    for bad in [(1, 2), 0.5, [1, 0.5], {"a": [(1,)]}]:
        with pytest.raises(TypeError):
            _json_text(bad)


def test_parse_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _, err = run_cli(["compute", missing])
    assert code == 2 and "ParseError" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ not json", encoding="utf-8")
    code, _, err = run_cli(["compute", str(bad_json)])
    assert code == 2 and "line 1" in err

    unknown = write_input(tmp_path, "unknown.json",
                          dict(symmetric_doc(2), extra=1))
    code, _, err = run_cli(["compute", unknown])
    assert code == 2 and "unknown keys" in err

    incomplete = write_input(tmp_path, "incomplete.json", {"k": 1})
    code, _, err = run_cli(["compute", incomplete])
    assert code == 2 and "missing keys" in err


def test_extension_bound_exit_code(tmp_path):
    path = write_input(tmp_path, "sym.json", symmetric_doc(5))
    code, _, err = run_cli(["compute", path, "--ext-bound", "2"])
    assert code == 4
    assert "BoundExceeded" in err


@pytest.mark.parametrize("k, order", [(7, 2097152), (8, 72057594037927936)])
def test_one_vertex_variant_search_stops_at_the_extension_bound(tmp_path, k, order):
    # m_c = 3, 5, 7, 3, 5, ...: k = 8 has d2: Z_2 -> Z_2^56, whose variant
    # search once listed the groups of order 2^55 and ran for minutes; the
    # bound now stops it first.  Each run takes about 0.02 s in process on a
    # 2-core VM, so a 10 s alarm leaves room for slow runners
    def too_slow(signum, frame):
        raise TimeoutError("the d2-variant search ignores --ext-bound")

    doc = {"k": k, "vertices": ["v"], "involution": [0],
           "matrices": [[[m]] for m in (3, 5, 7, 3, 5, 7, 3, 5)[:k]]}
    path = write_input(tmp_path, "ov.json", doc)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        code, out, err = run_cli(["compute", path])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (4, "")
    assert err == f"BoundExceeded: order {order} exceeds bound 65536\n"


def test_core_bound_too_small_exits_4_naming_the_least_bound(tmp_path):
    # (3,3) forces a rank-2 MO entry, so a rank bound of 1 cuts every table:
    # the search was truncated, which is not an inconsistency
    path = write_input(tmp_path, "ov.json", one_vertex_doc(3, 3))
    code, out, err = run_cli(["compute", path, "--core-bound", "1"])
    assert (code, out) == (4, "")
    assert err == ("BoundExceeded: no MO table has every rank within the core bound 1; "
                   "the least bound that admits one is 2\n")
    assert run_cli(["compute", path, "--core-bound", "2"])[0] == 0


@pytest.mark.parametrize("core_bound, code", [("8", 4), ("12", 0)])
def test_truncated_core_search_is_a_bound_error(tmp_path, core_bound, code):
    # scan input (2,6,2): every MU_q is Z_2^6 and every MO table has a rank-12
    # entry, so the default core bound truncates the search; it once exited 3
    # with NoSolution
    path = write_input(tmp_path, "r262.json", random_doc(2, 6, 2))
    got, out, err = run_cli(["compute", path, "--ext-bound", "100000000000",
                             "--core-bound", core_bound])
    assert got == code, err
    if code == 4:
        assert out == "" and err == (
            "BoundExceeded: no MO table has every rank within the core bound 8; "
            "the least bound that admits one is 12\n")
    else:
        assert err == "" and "MO_3=Z_2 + Z_2 + Z_2 + Z_2 + Z_2 + Z_2 + Z_2 + Z_2 + Z_2 + " \
            "Z_2 + Z_2 + Z_2" in out


def test_infinite_cells_surface_as_computation_error(tmp_path):
    # one loop of each color: infinite E2 entries make the candidate
    # enumeration impossible, which must fail loudly rather than guess
    path = write_input(tmp_path, "torus.json", one_vertex_doc(1, 1))
    code, _, err = run_cli(["compute", path])
    assert code == 3
    assert "InfiniteInput" in err


def test_value_error_inside_the_computation_is_exit_3(tmp_path, monkeypatch):
    from kktheory import spectral

    def broken(mu_groups):
        raise ValueError("broken rank table")

    monkeypatch.setattr(spectral, "_mu_ranks", broken)
    path = write_input(tmp_path, "ov.json", one_vertex_doc(4, 4))
    code, out, err = run_cli(["compute", path])
    assert code == 3 and out == ""
    assert "ValueError: broken rank table" in err


def test_emit_flags(tmp_path):
    path = write_input(tmp_path, "sym.json", symmetric_doc(2))
    code, out, _ = run_cli(["compute", path, "--emit-intermediate", "--emit-lifts"])
    assert code == 0
    assert "== intermediate data ==" in out
    assert "SNF diag of boundary" in out
    assert "== homology generator lifts ==" in out

    code, out, _ = run_cli(["compute", path, "--format", "json",
                            "--emit-intermediate", "--emit-lifts"])
    doc = json.loads(out)
    assert "real/0" in doc["intermediate"]
    assert any(key.startswith("real/") for key in doc["lifts"])


def test_job_config_validation():
    with pytest.raises(ParseError):
        JobConfig(input_path="x", output_format="yaml")
    with pytest.raises(ParseError):
        JobConfig(input_path="x", ext_bound=0)


def test_help_prints_the_default_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["compute", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "target of a d_r variant (default 65536)" in out
    assert "bound for the core solver (default 8)" in out
    assert (abelian.DEFAULT_EXTENSION_BOUND, spectral.DEFAULT_CORE_BOUND) == (65536, 8)


def test_records_keep_their_defaults_checks_and_immutability():
    first, second = spectral.CoreConstraints(), spectral.CoreConstraints()
    first.known_mo[0] = first.mo_bounds[1] = 0
    assert first.known_mo is not second.known_mo and first.mo_bounds is not second.mo_bounds
    assert (second.known_mo, second.mo_bounds) == ({}, {})

    config = JobConfig("x.json", output_format="json", emit_intermediate=True, emit_lifts=True)
    assert (config.input_path, config.output_format, config.ext_bound, config.core_bound,
            config.emit_intermediate, config.emit_lifts) == ("x.json", "json", 65536, 8, True, True)
    for bad in ({"output_format": "xml"}, {"ext_bound": 0}, {"core_bound": 0}):
        with pytest.raises(ParseError):
            JobConfig("x.json", **bad)

    cx = compute_e2(symmetric_three_vertex_spec(2)).complexes[("real", 0)]
    hom = cx.boundaries[0]
    for record, field in ((cx.aj, "moduli"), (hom, "matrix"), (cx, "annihilator")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_a_run_imports_neither_dataclasses_nor_inspect():
    # start-up cost: importing dataclasses pulls in inspect, ast, dis and tokenize
    import os
    import subprocess
    root = pathlib.Path(__file__).parent.parent
    script = (
        "import io, sys\n"
        "from kktheory import cli\n"
        "config = cli.JobConfig('sample_inputs/random_k2_v4_s7.json', output_format='json',\n"
        "                       emit_intermediate=True, emit_lifts=True)\n"
        "assert cli.run(config, stdout=io.StringIO()) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_text_output_matches_golden_snapshot(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "one_vertex_4_4.txt"
    path = write_input(tmp_path, "ov.json", one_vertex_doc(4, 4))
    code, out, _ = run_cli(["compute", path])
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["three_vertex_symmetric_n2", "three_vertex_asymmetric_n4"])
@pytest.mark.parametrize("snapshot, flags", [
    ("txt", []),
    ("emit.json", ["--format", "json", "--emit-intermediate", "--emit-lifts"]),
])
def test_sample_outputs_match_golden_snapshots(name, snapshot, flags):
    here = pathlib.Path(__file__).parent
    path = here.parent / "sample_inputs" / f"{name}.json"
    code, out, err = run_cli(["compute", str(path)] + flags)
    assert code == 0 and err == ""
    assert out == (here / "data" / f"{name}.{snapshot}").read_text(encoding="utf-8")


def test_seven_colour_sample_matches_its_golden_report():
    # random_valid_spec(random.Random(0), 7, 6), the scale guard for growth
    # in k: its six nonzero complexes hold 42 boundaries of up to 210 x 210,
    # half of them with no entry +-1
    here = pathlib.Path(__file__).parent
    code, out, err = run_cli(["compute", str(here.parent / "sample_inputs" / "random_k7_v6_s0.json")])
    assert (code, err) == (0, "")
    assert out == (here / "data" / "random_k7_v6_s0.txt").read_text(encoding="utf-8")


def test_seven_colour_emit_document_matches_its_golden_digest():
    # the 6 MB emit document of the same input, every boundary, Smith diagonal
    # and lift of seven colours, against the SHA-256 of its bytes
    here = pathlib.Path(__file__).parent
    code, out, err = run_cli(["compute", str(here.parent / "sample_inputs" / "random_k7_v6_s0.json"),
                              "--format", "json", "--emit-intermediate", "--emit-lifts"])
    assert (code, err) == (0, "")
    digest = (here / "data" / "random_k7_v6_s0.emit.sha256").read_text(encoding="utf-8").strip()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_eight_colour_sample_matches_its_golden_report():
    # random_valid_spec(random.Random(0), 8, 6), the scale guard for H_0
    # first: each of its four complexes with annihilator g >= 2 has H_0 = 0,
    # so it reads F_0 modulo g and no other cell
    here = pathlib.Path(__file__).parent
    code, out, err = run_cli(["compute", str(here.parent / "sample_inputs" / "random_k8_v6_s0.json")])
    assert (code, err) == (0, "")
    assert out == (here / "data" / "random_k8_v6_s0.txt").read_text(encoding="utf-8")


def test_matrix_psi_sample_matches_its_golden_report():
    # random_valid_spec(random.Random(7), 2, 4): KU_0 = Z_2 + Z_2 + Z_6 + Z_48,
    # so psi is printed as a 4 x 4 matrix, read through the kernel lattices
    # of the KU cells
    here = pathlib.Path(__file__).parent
    code, out, err = run_cli(["compute", str(here.parent / "sample_inputs" / "random_k2_v4_s7.json")])
    assert (code, err) == (0, "")
    assert out == (here / "data" / "random_k2_v4_s7.txt").read_text(encoding="utf-8")
    assert "psi_0 = [[1, 0, 0, 1], [1, 0, 1, 1], [3, 3, 0, 2], [24, 0, 32, 3]]" in out


def test_cokernel_variant_sample_matches_its_golden_report():
    # random_valid_spec(random.Random(11), 2, 5): d2: Z_2 -> Z_2 + Z_2 + Z_4
    # has two numbered cokernel variants, KO_1 and KO_4 fold extensions over
    # the primes 2, 5 and 19, psi is a 4 x 4 matrix and 34 MO tables remain
    here = pathlib.Path(__file__).parent
    code, out, err = run_cli(["compute", str(here.parent / "sample_inputs" / "random_k2_v5_s11.json")])
    assert (code, err) == (0, "")
    assert out == (here / "data" / "random_k2_v5_s11.txt").read_text(encoding="utf-8")
    assert "    d2!=0 (2): candidates: Z_2 + Z_2 + Z_2 + Z_4 | Z_2 + Z_2 + Z_8" in out
    assert "candidates: Z_2 + Z_4 + Z_4 + Z_380 | Z_4 + Z_4 + Z_760" in out
    assert "solution 34:" in out and "solution 35:" not in out


@pytest.mark.parametrize("k, nv, seed, keys", [
    (4, 6, 12, {("complex", 0)}),
    (8, 6, 0, {("real", 0), ("real", 2), ("real", 4), ("complex", 0)})])
def test_a_text_run_lays_out_no_boundary_where_h0_is_0(tmp_path, monkeypatch, k, nv, seed, keys):
    # benchmark input (4, 6, 12), complex degree 0 (g = 3), and every g >= 2
    # complex of the ladder input (8, 6): each has H_0 = 0, so the whole run
    # lays out none of its boundaries
    pages, e2 = [], spectral.compute_e2

    def keep_page(spec):
        pages.append(e2(spec))
        return pages[-1]

    monkeypatch.setattr(spectral, "compute_e2", keep_page)
    path = write_input(tmp_path, "in.json", spec_doc(random_valid_spec(random.Random(seed), k, nv)))
    assert run(JobConfig(input_path=path), stdout=io.StringIO(), stderr=io.StringIO()) == 0
    short = {key for key, cx in pages[0].complexes.items() if cx.annihilator >= 2}
    assert short == keys
    assert all(pages[0].complexes[key].exact and "boundaries" not in vars(pages[0].complexes[key])
               for key in short)


@pytest.mark.parametrize("k, nv, seed, non_free", [(4, 6, 12, 0), (7, 6, 0, 2)])
def test_an_emit_run_lays_out_only_the_boundaries_it_reads(
        tmp_path, monkeypatch, k, nv, seed, non_free):
    # benchmark input (4, 6, 12) and the ladder input (7, 6) in emit mode: a
    # free exact complex is written from its rho blocks, with no boundary
    # laid out, while each of the non_free complexes lays out (and so
    # certifies) the boundaries whose Smith diagonals it prints; degrees that
    # share a complex share its entry
    pages, e2 = [], spectral.compute_e2

    def keep_page(spec):
        pages.append(e2(spec))
        return pages[-1]

    monkeypatch.setattr(spectral, "compute_e2", keep_page)
    path = write_input(tmp_path, "in.json", spec_doc(random_valid_spec(random.Random(seed), k, nv)))
    config = JobConfig(input_path=path, output_format="json", emit_intermediate=True, emit_lifts=True)
    assert run(config, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    complexes = set(pages[0].complexes.values())
    free_exact = {cx for cx in complexes if cx.is_free and cx.exact}
    torsion = {cx for cx in complexes if not cx.is_free}
    assert free_exact and len(torsion) == non_free
    assert not any("boundaries" in vars(cx) for cx in free_exact)
    assert all("boundaries" in vars(cx) for cx in torsion)
    inter = analyze(load_spec(path), config)["intermediate"]
    page = pages[-1]
    for a, b in itertools.combinations(sorted(page.complexes), 2):
        assert (inter[f"{a[0]}/{a[1]}"] is inter[f"{b[0]}/{b[1]}"]) == \
            (page.complexes[a] is page.complexes[b])


def test_ten_colour_sample_matches_its_golden_report(monkeypatch):
    # random_valid_spec(random.Random(0), 10, 6), the scale guard for g = 1
    # growth in k: every complex has annihilator 1, so every cell is 0 and no
    # boundary (up to 1260 x 1512) is laid out
    pages, e2 = [], spectral.compute_e2

    def keep_page(spec):
        pages.append(e2(spec))
        return pages[-1]

    monkeypatch.setattr(spectral, "compute_e2", keep_page)
    here = pathlib.Path(__file__).parent
    code, out, err = run_cli(["compute", str(here.parent / "sample_inputs" / "random_k10_v6_s0.json")])
    assert (code, err) == (0, "")
    assert out == (here / "data" / "random_k10_v6_s0.txt").read_text(encoding="utf-8")
    complexes = pages[0].complexes.values()
    assert all(cx.annihilator == 1 and "boundaries" not in vars(cx) for cx in complexes)


def test_render_text_matches_analyze(tmp_path):
    path = write_input(tmp_path, "ov.json", one_vertex_doc(3, 3))
    spec = load_spec(path)
    doc = analyze(spec, JobConfig(input_path=path))
    text = render_text(doc)
    assert "d2=0: candidates:" in text
    assert "d2!=0: candidates:" in text
    assert "solution 1:" in text
    assert "solution 2:" in text
    code = run(JobConfig(input_path=path), stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0


def spec_doc(spec):
    return {"k": spec.k, "vertices": list(spec.vertices),
            "involution": list(spec.involution),
            "matrices": [m.tolist() for m in spec.matrices]}


def random_doc(k, nv, seed):
    return spec_doc(random_valid_spec(random.Random(seed), k=k, nv=nv))


@pytest.mark.parametrize("name, doc, code", [
    ("symmetric-8", spec_doc(symmetric_three_vertex_spec(8)), 0),
    ("random-3-4-3", random_doc(3, 4, 3), 0),
    ("random-4-4-3", random_doc(4, 4, 3), 0),
    ("random-3-5-7", random_doc(3, 5, 7), 0),
    ("random-2-6-2", random_doc(2, 6, 2), 4),
    ("random-4-6-0", random_doc(4, 6, 0), 0),
])
def test_inputs_with_large_extension_searches_finish(tmp_path, name, doc, code):
    # each needs large extension and d2-variant searches; (2,6,2) must stop
    # at the default order bound instead of running on
    path = write_input(tmp_path, f"{name}.json", doc)
    start = time.perf_counter()
    got, out, err = run_cli(["compute", path])
    elapsed = time.perf_counter() - start
    assert got == code, err
    if code == 4:
        assert out == "" and err.startswith("BoundExceeded: order ")
    if name == "random-4-6-0":
        # its Smith diagonals once grew coefficients without bound and hung
        assert elapsed < 2


def count_calls(monkeypatch, calls, module, attr):
    """Count the calls of module.attr in ``calls[attr]``, replacing the
    function wherever a kktheory module refers to it."""
    orig = getattr(module, attr)

    def counted(*args, **kwargs):
        calls[attr] += 1
        return orig(*args, **kwargs)

    calls[attr] = 0
    for name, mod in list(sys.modules.items()):
        if name.startswith("kktheory") and getattr(mod, attr, None) is orig:
            monkeypatch.setattr(mod, attr, counted)


def test_runs_keep_no_state(tmp_path, monkeypatch):
    # a second run in the same process finds nothing left by the first: it
    # prints the same and decomposes the same matrices again
    path = write_input(tmp_path, "sym8.json", spec_doc(symmetric_three_vertex_spec(8)))
    assert not hasattr(abelian.smith_normal_form, "cache_info")
    assert not hasattr(abelian.smith_diagonal, "cache_info")
    calls = {}
    count_calls(monkeypatch, calls, abelian, "smith_diagonal")
    count_calls(monkeypatch, calls, abelian, "smith_normal_form")
    runs = []
    for _ in range(2):
        out = io.StringIO()
        assert run(JobConfig(input_path=path), stdout=out, stderr=io.StringIO()) == 0
        runs.append((out.getvalue(), dict(calls)))
        calls.update(dict.fromkeys(calls, 0))
    assert runs[0] == runs[1]
    assert all(runs[0][1].values())


def test_a_text_run_builds_no_lattice_where_no_lift_is_read(tmp_path, monkeypatch):
    # every E2 group, mixed-torsion cells included, comes from Smith
    # diagonals; this input (benchmark input (4, 6, 13), whose real degree 2
    # cells mix Z and Z_2 coordinates) has KU = 0, so psi reads no kernel
    # lattice either
    def refuse(m):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(abelian, "smith_normal_form", refuse)
    spec = random_valid_spec(random.Random(13), 4, 6)
    path = write_input(tmp_path, "lattice.json", spec_doc(spec))
    out, err = io.StringIO(), io.StringIO()
    assert run(JobConfig(input_path=path), stdout=out, stderr=err) == 0, err.getvalue()
    assert err.getvalue() == ""


@pytest.mark.parametrize("k, nv, seed", [
    (7, 6, 0), (4, 6, 12), (4, 5, 14), (4, 4, 2), (4, 6, 13),
    (4, 5, 6), (4, 4, 15), (3, 6, 13), (3, 4, 14)])
def test_free_complexes_with_an_annihilator_take_no_minor_of_a_boundary(
        tmp_path, monkeypatch, k, nv, seed):
    # the ladder input (7,6) and the benchmark's lattice inputs: where a free
    # complex has g != 0 its diagonals are read modulo g, with ranks from
    # exactness, so no Bareiss minor of its boundaries is taken
    pages, seen = [], []
    e2, rank_and_minor = spectral.compute_e2, abelian._rank_and_minor

    def keep_page(spec):
        pages.append(e2(spec))
        return pages[-1]

    def recording(m):
        seen.append(m)
        return rank_and_minor(m)

    monkeypatch.setattr(spectral, "compute_e2", keep_page)
    monkeypatch.setattr(abelian, "_rank_and_minor", recording)
    path = write_input(tmp_path, "in.json", spec_doc(random_valid_spec(random.Random(seed), k, nv)))
    assert run(JobConfig(input_path=path), stdout=io.StringIO(), stderr=io.StringIO()) == 0
    # equal matrices are told apart by identity: the empty boundaries of a
    # zero complex equal the 0 x 0 maps that MU reads when KU = 0
    fast = {id(b.matrix) for cx in pages[0].complexes.values()
            if cx.is_free and cx.annihilator for b in cx.boundaries}
    assert fast
    assert not fast & {id(m) for m in seen}


def swap_doc(**fields):
    # one colour on two swapped vertices
    doc = {"k": 1, "vertices": ["a", "b"], "involution": [1, 0],
           "matrices": [[[0, 1], [1, 0]]]}
    return dict(doc, **fields)


@pytest.mark.parametrize("field, doc", [
    ("k", dict(one_vertex_doc(4, 4), k=2.9)),
    ("float entry", dict(one_vertex_doc(4, 4), matrices=[[[4.7]], [[4]]])),
    ("bool entry", dict(one_vertex_doc(4, 4), matrices=[[[True]], [[4]]])),
    ("string entry", dict(one_vertex_doc(4, 4), matrices=[[["4"]], [[4]]])),
    ("image", dict(one_vertex_doc(4, 4), involution=[0.2])),
    ("vertex name", dict(one_vertex_doc(4, 4), vertices=[7])),
    ("vertices string", swap_doc(vertices="ab")),
    ("vertices object", swap_doc(vertices={"a": 1, "b": 2})),
    ("involution object", swap_doc(vertices=[], involution={}, matrices=[[]])),
    ("matrices object", swap_doc(matrices={})),
    ("matrix object", swap_doc(vertices=[], involution=[], matrices=[{}])),
    ("row object", swap_doc(matrices=[[{"x": 0}, [1, 0]]])),
])
def test_non_integer_fields_are_parse_errors(tmp_path, field, doc):
    # int() would truncate each number here, and iterating a string or an
    # object would read its characters or keys, to a valid input
    path = write_input(tmp_path, "bad.json", doc)
    code, out, err = run_cli(["compute", path])
    assert code == 2 and out == ""
    assert err.startswith("ParseError: "), err


def test_malformed_shape_is_a_validation_error(tmp_path):
    # validation runs inside the pipeline; its shape errors still exit 2
    path = write_input(tmp_path, "kcount.json", dict(one_vertex_doc(4, 4), matrices=[[[4]]]))
    code, out, err = run_cli(["compute", path])
    assert (code, out) == (2, "")
    assert err == "MalformedShape: expected 2 adjacency matrices, got 1\n"


def test_repeated_vertex_name_is_a_validation_error(tmp_path):
    # a report naming "a" twice could not say which vertex is which
    doc = {"k": 1, "vertices": ["a", "a"], "involution": [0, 1],
           "matrices": [[[2, 0], [0, 2]]]}
    path = write_input(tmp_path, "twice.json", doc)
    code, out, err = run_cli(["compute", path])
    assert (code, out) == (2, "")
    assert err == "MalformedShape: vertex a is listed twice\n"


def test_one_run_validates_and_reports_once(monkeypatch):
    calls = {}
    count_calls(monkeypatch, calls, kgraph, "validate")
    count_calls(monkeypatch, calls, spectral, "differential_report")
    sample = pathlib.Path(__file__).parent.parent / "sample_inputs" / \
        "three_vertex_symmetric_n2.json"
    code = run(JobConfig(input_path=str(sample)), stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    assert calls == {"validate": 1, "differential_report": 1}


COLOUR_INPUTS = [
    ("one-vertex-3-5", one_vertex_doc(3, 5)),
    ("one-vertex-4-6", one_vertex_doc(4, 6)),
    ("one-vertex-5-5", one_vertex_doc(5, 5)),
    ("symmetric-2", symmetric_doc(2)),
    ("asymmetric-4", {"k": 2, "vertices": ["v1", "v2", "v3"], "involution": [0, 2, 1],
                      "matrices": [[[1, 1, 1], [1, 0, 3], [1, 3, 0]],
                                   [[1, 1, 1], [1, 3, 0], [1, 0, 3]]]}),
] + [(f"random-{k}-{nv}-{seed}", random_doc(k, nv, seed)) for k, nv, seed in (
    # nonzero pages, ambiguous KU, d3 variants, a bound error and an
    # infinite extension among them
    (3, 4, 3), (3, 4, 14), (3, 5, 7), (3, 6, 0), (3, 6, 13), (4, 4, 2), (4, 4, 3),
    (4, 4, 15), (4, 5, 1), (4, 5, 6), (4, 5, 14), (4, 6, 3), (4, 6, 12), (4, 6, 13))]


@pytest.mark.parametrize("name, doc", COLOUR_INPUTS, ids=[n for n, _ in COLOUR_INPUTS])
def test_colour_permutations_leave_the_report_unchanged(tmp_path, name, doc):
    # the E2 page is the homology of the Koszul complex of the rho maps, which
    # does not depend on their order, and nothing after it names a colour
    k = doc["k"]
    perms = [p for p in itertools.permutations(range(k)) if p != tuple(range(k))]
    random.Random(name).shuffle(perms)
    base = run_cli(["compute", write_input(tmp_path, "base.json", doc)])
    for perm in perms[:3]:
        permuted = dict(doc, matrices=[doc["matrices"][c] for c in perm])
        code, out, _ = run_cli(["compute", write_input(tmp_path, "perm.json", permuted)])
        assert (code, out) == base[:2], perm
