import io
import json
import random

import pytest

from kktheory.abelian import FgAbGroup, smith_normal_form
from kktheory.cli import JobConfig, ParseError, analyze, load_spec, main, render_text, run
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
        FgAbGroup.from_description(s)   # every rendered group parses back


def test_output_is_deterministic(tmp_path):
    path = write_input(tmp_path, "sym.json", symmetric_doc(2))
    for fmt in ("text", "json"):
        _, first, _ = run_cli(["compute", path, "--format", fmt])
        _, second, _ = run_cli(["compute", path, "--format", fmt])
        assert first == second


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


def test_core_bound_too_small_is_a_computation_error(tmp_path):
    # (3,3) forces a rank-2 MO entry, so a rank bound of 1 has no solution
    path = write_input(tmp_path, "ov.json", one_vertex_doc(3, 3))
    code, _, err = run_cli(["compute", path, "--core-bound", "1"])
    assert code == 3
    assert "NoSolution" in err


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


def test_text_output_matches_golden_snapshot(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "one_vertex_4_4.txt"
    path = write_input(tmp_path, "ov.json", one_vertex_doc(4, 4))
    code, out, _ = run_cli(["compute", path])
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


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
])
def test_inputs_with_large_extension_searches_finish(tmp_path, name, doc, code):
    # each needs large extension and d2-variant searches; (2,6,2) must stop
    # at the default order bound instead of running on
    path = write_input(tmp_path, f"{name}.json", doc)
    got, out, err = run_cli(["compute", path])
    assert got == code, err
    if code == 4:
        assert out == "" and err.startswith("BoundExceeded: order ")


def test_one_run_keeps_the_snf_memo_small(tmp_path):
    path = write_input(tmp_path, "sym8.json", spec_doc(symmetric_three_vertex_spec(8)))
    smith_normal_form.cache_clear()
    code, _, _ = run_cli(["compute", path])
    assert code == 0
    assert smith_normal_form.cache_info().currsize <= 200


@pytest.mark.parametrize("field, doc", [
    ("k", dict(one_vertex_doc(4, 4), k=2.9)),
    ("float entry", dict(one_vertex_doc(4, 4), matrices=[[[4.7]], [[4]]])),
    ("bool entry", dict(one_vertex_doc(4, 4), matrices=[[[True]], [[4]]])),
    ("string entry", dict(one_vertex_doc(4, 4), matrices=[[["4"]], [[4]]])),
    ("image", dict(one_vertex_doc(4, 4), involution=[0.2])),
    ("vertex name", dict(one_vertex_doc(4, 4), vertices=[7])),
])
def test_non_integer_fields_are_parse_errors(tmp_path, field, doc):
    # int() would truncate each of these to a valid input
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


def test_one_run_validates_and_reports_once(monkeypatch):
    import pathlib
    import sys
    from kktheory import kgraph, spectral

    calls = {}

    def count(module, attr):
        # replace the function wherever a kktheory module refers to it
        orig = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return orig(*args, **kwargs)

        calls[attr] = 0
        for name, mod in list(sys.modules.items()):
            if name.startswith("kktheory") and getattr(mod, attr, None) is orig:
                monkeypatch.setattr(mod, attr, counted)

    count(kgraph, "validate")
    count(spectral, "differential_report")
    sample = pathlib.Path(__file__).parent.parent / "sample_inputs" / \
        "three_vertex_symmetric_n2.json"
    code = run(JobConfig(input_path=str(sample)), stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    assert calls == {"validate": 1, "differential_report": 1}
