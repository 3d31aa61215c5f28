import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linearcat import matrices, search, sweeps
from linearcat.cli import main
from linearcat.words import MAX_NESTING, render_word

MODELS = Path(__file__).resolve().parent.parent / "models"

FAST = ["--depth", "4", "--max-size", "2", "--max-units", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_reports_cancellation(capsys):
    code, out, _ = run(capsys, "word", "(_+0)")
    assert code == 0
    assert "length:      1" in out
    assert "runit+" in out


def test_word_core_split(capsys):
    code, out, _ = run(capsys, "word", "(1*(_+_))")
    assert code == 0
    assert "core:        _ + _" in out
    assert "(*, 1, left)" in out


def test_word_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "word", "((")
    assert code == 2
    assert "parse error" in err


def test_word_nested_too_deeply_exit_2(capsys):
    deepest = "(0+" * MAX_NESTING + "_" + ")" * MAX_NESTING
    alternating = "(" * MAX_NESTING + "0" + "".join(
        "*1)" if k % 2 else "+0)" for k in range(MAX_NESTING))
    for text in (deepest, alternating):
        assert run(capsys, "word", text, "--format", "structured")[0] == 0
    code, out, err = run(capsys, "word", "(" * 3000 + "_" + "+0)" * 3000)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error") and "nested deeper" in err
    assert err.count("\n") == 1


def test_word_long_word_exit_3(capsys):
    code, out, err = run(capsys, "word", "(_+(_+_))")
    assert code == 3
    assert "length <= 2" in err


def test_word_structured(capsys):
    code, out, _ = run(capsys, "word", "(_+0)", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["cancellation"] == "runit+[_]"
    assert doc["attachments"] == [{"op": "+", "unit_word": "0", "side": "right"}]


def test_check_bundled_pointed_sets(capsys):
    code, out, _ = run(capsys, "check", "--model",
                       str(MODELS / "pointed_sets_3.json"), *FAST)
    assert code == 0
    assert "0 failed" in out


def test_check_structured_output_is_stable(capsys):
    args = ["check", "--model", str(MODELS / "pointed_sets_3.json"),
            "--format", "structured"] + FAST
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert doc["summary"]["failed"] == 0
    assert out1 == out2


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("model, flags, code, golden", [
    # counterexamples carry witness terms, which pin the flood's parent order
    ("pointed_sets_3_faulty.json", [], 1, "pointed_sets_3_faulty.json"),
    ("pointed_sets_3.json", FAST, 0, "pointed_sets_3_fast.json"),
    ("commutative_monoids_3.json", FAST, 0, "commutative_monoids_3_fast.json"),
    # the partially-linear sweeps' first failures and their witness terms
    ("pointed_sets_3_faulty.json", ["--mode", "partially-linear"], 1,
     "pointed_sets_3_faulty_plin.json"),
    # one zero-map override each, under tests/models: the identity-matrix
    # sweep fails first at (P1, P2, P2), tuple 3 of 8 at n = 3, in the
    # first two, and at every n in the third
    ("pointed_sets_3_zero_assoc_prod.json", [], 1,
     "pointed_sets_3_zero_assoc_prod.json"),
    ("pointed_sets_3_zero_assoc_sum_inv.json", [], 1,
     "pointed_sets_3_zero_assoc_sum_inv.json"),
    ("pointed_sets_3_zero_i.json", [], 1, "pointed_sets_3_zero_i.json"),
    # partially-linear on monoids, where every structure map is an identity
    ("commutative_monoids_3.json", FAST + ["--mode", "partially-linear"], 0,
     "commutative_monoids_3_plin.json"),
    # a zero-map override of a unitor inverse that the flood would otherwise
    # pass through: both partially-linear sweeps and the unit-cancellation
    # square fail, with witness terms
    ("commutative_monoids_3_zero_runit_prod_inv.json",
     FAST + ["--mode", "partially-linear"], 1,
     "commutative_monoids_3_zero_runit_prod_inv.json"),
])
def test_check_structured_matches_golden(capsys, monkeypatch, model, flags,
                                         code, golden):
    # The golden files are the output of
    # `linearcat check --model models/<model> --format structured <flags>`,
    # run from the repository root for a bundled model and from tests/ for
    # one under tests/models.
    bundled = (MODELS / model).exists()
    monkeypatch.chdir(MODELS.parent if bundled else GOLDEN.parent)
    got, out, _ = run(capsys, "check", "--model", f"models/{model}",
                      "--format", "structured", *flags)
    assert got == code
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("model, flags, golden", [
    ("pointed_sets_3_faulty.json", [], "pointed_sets_3_faulty.txt"),
    # counterexamples with matrices, printed as grids under their reports
    ("pointed_sets_3_zero_i.json", [], "pointed_sets_3_zero_i.txt"),
    # the partially-linear sweep's terms and values, the unit square's
    # term, and the identity sweep's reason-first shape
    ("pointed_sets_3_faulty.json", ["--mode", "partially-linear"],
     "pointed_sets_3_faulty_plin.txt"),
])
def test_check_text_matches_golden(capsys, monkeypatch, model, flags, golden):
    # The text goldens pin what the structured ones sort away: the order of
    # counterexample keys and the `matrix:` grids.  Each is the output of
    # `linearcat check --model models/<model> <flags>`, run as above.
    bundled = (MODELS / model).exists()
    monkeypatch.chdir(MODELS.parent if bundled else GOLDEN.parent)
    got, out, _ = run(capsys, "check", "--model", f"models/{model}", *flags)
    assert got == 1
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("model, flags, want", [
    # The identity-matrix sweeps at n = 2 and n = 3 fail on a matrix, which
    # names no term, so only the n = 1 sweep's two values and the unit
    # square's term are flooded alone for their witness terms.
    ("pointed_sets_3_zero_i.json", [], [("_", "_"), ("(_*_)", "(_*_)")]),
    # Each failing coherence sweep names two values' terms, and the unit
    # square one term.  The partially-linear sweep at n = 2 floods each
    # tuple alone, since its batched flood meets i's inverse, which is no
    # map on pointed sets: its failing tuple, (P1, P2), is flooded once.
    ("pointed_sets_3_faulty.json", ["--mode", "partially-linear"],
     [("_", "_"), ("(_+_)", "(_*_)"), ("(_+(_+_))", "(_*(_*_))"), ("_", "_"),
      ("(_*_)", "(_*_)"), ("(_*_)", "(_*_)"), ("(_*_)", "(_*_)")]),
])
def test_check_floods_a_tuple_alone_only_for_witness_terms(capsys, monkeypatch,
                                                            model, flags, want):
    floods = []
    value_flood = search.value_flood

    def counting(model, graph, objects):
        floods.append((render_word(graph.source), render_word(graph.target)))
        return value_flood(model, graph, objects)

    for module in (search, sweeps, matrices):
        monkeypatch.setattr(module, "value_flood", counting, raising=False)
    monkeypatch.chdir(MODELS.parent if (MODELS / model).exists() else GOLDEN.parent)
    got, _, _ = run(capsys, "check", "--model", f"models/{model}", *flags)
    assert got == 1
    assert floods == want


@pytest.mark.parametrize("command", ["check", "coherence"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_partially_linear_sweep_error_is_a_failed_law(capsys, command, fmt):
    # On pointed sets i is not invertible, so a partially-linear sweep
    # meets a move through its inverse: that sweep fails with the error,
    # and the run goes on and exits 1.
    code, out, err = run(capsys, command, "--model",
                         str(MODELS / "pointed_sets_3.json"), "--mode",
                         "partially-linear", "--format", fmt, *FAST)
    assert code == 1
    assert "Traceback" not in out + err
    if fmt == "text":
        assert "[FAIL] coherence/partially-linear/n=2" in out
        assert "unit-cancellation-square" in out
        return
    doc = json.loads(out)
    failed = [r for r in doc["reports"] if not r["passed"]]
    assert [r["law"] for r in failed] == ["coherence/partially-linear/n=2"]
    assert "is not bijective" in failed[0]["counterexample"]["error"]
    assert doc["reports"][-1]["law"] == ("linearity-theorem" if command == "check"
                                         else "unit-cancellation-square")


def test_check_monoids_reports_lineariser(capsys):
    code, out, _ = run(capsys, "check", "--model",
                       str(MODELS / "commutative_monoids_3.json"),
                       "--format", "structured", *FAST)
    assert code == 0
    doc = json.loads(out)
    lin = next(r for r in doc["reports"] if r["law"] == "lineariser")
    assert lin["details"]["lineariser"] is True


def test_check_faulty_model_exit_1(capsys):
    code, out, _ = run(capsys, "check", "--model",
                       str(MODELS / "pointed_sets_3_faulty.json"),
                       "--format", "structured", *FAST)
    assert code == 1
    doc = json.loads(out)
    failing = [r for r in doc["reports"] if not r["passed"]]
    assert failing
    assert any("counterexample" in r for r in failing)


def test_check_malformed_model_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", "--model", str(bad))
    assert code == 2
    assert "model error" in err


@pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 100000],
                         ids=["not-utf8", "nested-past-json-depth"])
def test_check_unreadable_model_exit_2(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run(capsys, "check", "--model", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("model error") and "Traceback" not in err


def test_check_repeated_monoid_table_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"schema": 1, "kind": "commutative_monoids",
         "objects": [{"name": "A", "table": [0, 1, 1, 0]},
                     {"name": "B", "table": [0, 1, 1, 0]}]}))
    code, out, err = run(capsys, "check", "--model", str(bad), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith("model error") and "'A' and 'B'" in err


@pytest.mark.parametrize("model", ["pointed_sets_3", "pointed_sets_3_faulty"])
def test_structured_check_is_independent_of_hash_seed(model):
    # objects hash by address, and strings by the hash seed: neither may
    # reach a report
    src = str(MODELS.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = [subprocess.run(
        [sys.executable, "-m", "linearcat", "check", "--model",
         str(MODELS / f"{model}.json"), "--format", "structured"],
        capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": path})
        for seed in ("1", "4242")]
    assert runs[0].returncode == runs[1].returncode in (0, 1)
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("graph", [[0, 7], [0, -1]])
def test_check_bad_override_entry_exit_2(capsys, tmp_path, graph):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"schema": 1, "kind": "pointed_sets", "objects": [1, 2],
         "overrides": [{"table": "lunit_sum", "objects": ["P2"],
                        "graph": graph}]}))
    code, out, err = run(capsys, "check", "--model", str(bad), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith("model error") and "Traceback" not in err


@pytest.mark.parametrize("table, names", [("i", ["P2"]), ("assoc_sum", ["P2"]),
                                          ("lunit_sum", ["P2", "P2"]),
                                          ("lunit_sum", [])])
def test_check_override_with_wrong_object_count_exit_2(capsys, tmp_path, table,
                                                       names):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"schema": 1, "kind": "pointed_sets", "objects": [1, 2],
         "overrides": [{"table": table, "objects": names, "graph": [0, 0]}]}))
    code, out, err = run(capsys, "check", "--model", str(bad), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith("model error") and "Traceback" not in err
    assert table in err and "unpack" not in err


def test_central_monoids_table(capsys):
    code, out, _ = run(capsys, "central", "M1_2", "M1_2", "--model",
                       str(MODELS / "commutative_monoids_3.json"))
    assert code == 0
    assert "2 central morphism(s)" in out
    assert "addition table" in out


def test_central_pointed_sets_witness(capsys):
    code, out, _ = run(capsys, "central", "P2", "P2", "--model",
                       str(MODELS / "pointed_sets_3.json"))
    assert code == 0
    assert "no lineariser" in out
    assert "P2" in out


def test_central_structured(capsys):
    code, out, _ = run(capsys, "central", "M1_2", "M1_2", "--model",
                       str(MODELS / "commutative_monoids_3.json"),
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["lineariser"] is True
    assert len(doc["addition_table"]) == len(doc["central"]) == 2


def test_check_reports_centrality_disagreement_exit_1(capsys, tmp_path):
    # collapsing one inverse unitor makes cover centrality and matrix
    # centrality disagree; the linearity theorem reports it as a failure
    doc = tmp_path / "disagree.json"
    doc.write_text(json.dumps(
        {"kind": "commutative_monoids",
         "objects": [[0], [0, 1, 1, 0], [0, 1, 1, 1]],
         "overrides": [{"table": "runit_sum_inv", "objects": ["M1"],
                        "graph": [1, 1]}]}))
    code, out, _ = run(capsys, "check", "--model", str(doc),
                       "--format", "structured", *FAST)
    assert code == 1
    theorem = json.loads(out)["reports"][-1]
    assert theorem["law"] == "linearity-theorem" and not theorem["passed"]
    assert "no realizer" in theorem["counterexample"]["error"]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("table, objects, graph", [
    ("i", ["M1", "M1"], [0, 2, 1, 3]),
    ("lunit_sum_inv", ["M1"], [0, 0]),
])
def test_central_integrity_failure_exit_1(capsys, tmp_path, table, objects,
                                          graph, fmt):
    doc = tmp_path / "broken.json"
    doc.write_text(json.dumps(
        {"kind": "commutative_monoids", "objects": [[0], [0, 1, 1, 0]],
         "overrides": [{"table": table, "objects": objects, "graph": graph}]}))
    code, out, err = run(capsys, "central", "M1", "M1", "--model", str(doc),
                         "--format", fmt)
    assert code == 1
    if fmt == "structured":
        assert json.loads(out)["error"] and err == ""
    else:
        assert out == "" and err.startswith("central error:")
        assert len(err.splitlines()) == 1


def test_central_bad_object_exit_2(capsys):
    code, _, err = run(capsys, "central", "P9", "P2", "--model",
                       str(MODELS / "pointed_sets_3.json"))
    assert code == 2
    assert "object error" in err


def test_bad_numeric_flags_exit_2(capsys):
    code, _, err = run(capsys, "check", "--model",
                       str(MODELS / "pointed_sets_3.json"), "--depth", "0")
    assert code == 2
    assert "--depth" in err


@pytest.mark.parametrize("command", ["check", "coherence", "central"])
def test_depth_above_cap_exit_2(capsys, command):
    names = ["P2", "P2"] if command == "central" else []
    code, out, err = run(capsys, command, *names, "--model",
                         str(MODELS / "pointed_sets_3.json"), "--depth", "9")
    assert code == 2 and out == ""
    assert "--depth must be at most 8" in err


def test_depth_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "check", "--help")
    assert "depth, 1 to 8" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["check", "coherence", "central"])
def test_max_units_above_cap_exit_2(capsys, command):
    # 5 units would build a length-2 corpus of 5,677,056 words first
    names = ["P2", "P2"] if command == "central" else []
    code, out, err = run(capsys, command, *names, "--model",
                         str(MODELS / "pointed_sets_3.json"), "--max-units", "5")
    assert code == 2 and out == ""
    assert "--max-units must be at most 4" in err


def test_max_units_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "coherence", "--help")
    assert "word corpora, 0 to 4" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("asked, used", [(3, 2), (1, 1)])
def test_coherence_max_size_is_reported(capsys, asked, used):
    code, out, _ = run(capsys, "coherence", "--model",
                       str(MODELS / "pointed_sets_3.json"), "--depth", "4",
                       "--max-units", "1", "--max-size", str(asked),
                       "--format", "structured")
    assert code == 0
    params = json.loads(out)["parameters"]
    assert params["max_size"] == asked
    assert params["coherence_max_size"] == used


def test_coherence_subcommand(capsys):
    code, out, _ = run(capsys, "coherence", "--model",
                       str(MODELS / "pointed_sets_3.json"), *FAST)
    assert code == 0
    assert "coherence-identity-matrix/n=3" in out


def test_zero_max_units_gives_empty_length_0_corpus(capsys):
    # no length-0 word has zero unit leaves, so that sweep checks no pair
    code, out, err = run(capsys, "coherence", "--model",
                         str(MODELS / "commutative_monoids_3.json"), "--mode",
                         "partially-linear", "--max-units", "0", "--depth", "6",
                         "--max-size", "1", "--format", "structured")
    assert code == 0
    assert "Traceback" not in out + err
    reports = {r["law"]: r for r in json.loads(out)["reports"]}
    n0 = reports["coherence/partially-linear/n=0"]
    assert n0["passed"] and n0["details"]["pairs"] == 0


def test_one_max_unit_passes_length_0_vacuously(capsys):
    # A pair of length-0 words carries two unit leaves at least, so at
    # --max-units 1 the n=0 sweep checks nothing and still passes.  Pinned
    # whole, so that a report which flags vacuity changes it on purpose.
    code, out, _ = run(capsys, "coherence", "--model",
                       str(MODELS / "commutative_monoids_3.json"), "--mode",
                       "partially-linear", "--max-units", "1", "--depth", "6",
                       "--max-size", "1", "--format", "structured")
    assert code == 0
    reports = {r["law"]: r for r in json.loads(out)["reports"]}
    assert reports["coherence/partially-linear/n=0"] == {
        "law": "coherence/partially-linear/n=0", "passed": True,
        "details": {"corpus": "length 0, <= 1 unit leaves, mixed stride 8,"
                              " heavy stride 16",
                    "depth": 6, "evaluations": 0, "pairs": 0}}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linearcat.cli", "word", "(_+0)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "runit+" in proc.stdout


@pytest.mark.parametrize("word, code", [("_", 0), ("x", 2)])
def test_package_runs_as_module(word, code):
    proc = subprocess.run([sys.executable, "-m", "linearcat", "word", word],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["word", "(0+(_*1))"], 0),
    (["check", "--model", str(MODELS / "pointed_sets_3.json"), "--depth", "3",
      "--max-units", "1"], 0),
    (["central", "--model", str(MODELS / "commutative_monoids_3.json"),
      "M1_2", "M1_2"], 0),
    (["check", "--model", str(MODELS / "pointed_sets_3_faulty.json"),
      "--depth", "3", "--max-units", "1"], 1),
], ids=["word", "check", "central", "check-faulty"])
def test_closed_stdout_keeps_exit_code(argv, code):
    # the read end of stdout is closed before the command starts, so its
    # first write meets a broken pipe: the command still exits with its own
    # status and prints no traceback
    src = str(MODELS.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "linearcat", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
