"""Tests of the benchmark's own oracles, input generation and tracer.

    python3 -m pytest -q bench/test_oracles.py

Each oracle must accept correct outputs and report a planted fault.  The
tests build small outputs by hand or from one cheap library call, so the
file runs in a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import common  # noqa: E402
import oracles  # noqa: E402

M2 = [[0, 1], [1, 0]]       # Z/2
M2B = [[0, 1], [1, 1]]      # {0, 1} under max


# -- plin-sweep ------------------------------------------------------------------


def test_word_table_is_the_lexicographic_direct_product():
    table = oracles.word_table(oracles.parse_word_text("(_*(0+_))"), [M2, M2B])
    assert len(table) == 4
    # (a, b) * (c, d) = (a + c mod 2, max(b, d)), numbered a * 2 + b
    assert table[1][2] == 3 and table[3][3] == 1 and table[2][2] == 0


def test_iso_oracle_accepts_the_swap_of_factors_and_rejects_a_fake():
    dom = oracles.word_table(oracles.parse_word_text("(_*_)"), [M2, M2B])
    cod = oracles.word_table(oracles.parse_word_text("(_*_)"), [M2B, M2])
    swap = [0, 2, 1, 3]  # (a, b) -> (b, a)
    assert oracles.iso_problem(swap, dom, cod) is None
    assert oracles.iso_problem([0, 1, 2, 3], dom, cod) == "value is not a homomorphism"
    assert oracles.iso_problem([0, 1, 1, 3], dom, cod) == "value is not a bijection"


def _sweep_outcome(corpus, evaluations, passed=True):
    return {"name": corpus, "ok": True, "result": {
        "law": f"coherence/{corpus}", "passed": passed, "corpus": corpus,
        "counterexample": None if passed else {"terms": []},
        "details": {"evaluations": evaluations} if passed else {}}}


def test_plin_totals_need_the_exact_evaluation_counts():
    inputs = {"expected_evaluations": {"n0": 5, "n1": 7}}
    good = [_sweep_outcome("n0", 2), _sweep_outcome("n0", 3), _sweep_outcome("n1", 7)]
    assert oracles.plin_totals(inputs, good) == []
    short = [_sweep_outcome("n0", 2), _sweep_outcome("n1", 7)]
    assert oracles.plin_totals(inputs, short) == ["corpus n0: 2 evaluations, expected 5"]
    failed = good[:2] + [_sweep_outcome("n1", 0, passed=False)]
    assert any("failed" in p for p in oracles.plin_totals(inputs, failed))


def test_expected_values_match_the_pool_the_run_draws_from():
    expected = common.load_expected()
    pool = common.plin_pool(expected["candidates"])
    assert len(pool) == common.PLIN_POOL
    assert all(p["evaluations"] == 9 for p in pool)  # 3 x 3 object tuples
    first = common.plin_sample(1, expected["candidates"])
    assert first == common.plin_sample(1, expected["candidates"])
    assert len(first) == common.PLIN_SAMPLE


# -- check-ptset -----------------------------------------------------------------


def test_corruptions_are_seeded_zero_maps_one_per_family():
    workdir = common.OUT / "test-docs"
    docs = common.check_documents(5, workdir)
    again = common.check_documents(5, workdir / "again")
    strip = [{k: v for k, v in d.items() if k != "path"} for d in docs]
    assert strip == [{k: v for k, v in d.items() if k != "path"} for d in again]
    corrupt = [d for d in docs if d["name"].startswith("corrupt-")]
    assert [d["family"] for d in corrupt] == ["sum", "prod", "i"]
    kinds = {"assoc" if d["table"].startswith("assoc") else "unitor"
             for d in corrupt[:2]}
    assert kinds == {"assoc", "unitor"}
    for d in corrupt:
        assert d["graph"] == [0] * common._domain_size(d["table"], tuple(d["objects"]))
        assert len(d["graph"]) >= 2  # so the zero map is not a bijection
    assert common._domain_size("assoc_sum", ("P2", "P1", "P2")) == 3
    assert common._domain_size("assoc_prod", ("P2", "P1", "P2")) == 4
    assert common._domain_size("i", ("P2", "P1")) == 2
    malformed = [d for d in docs if d["expect"] == 2]
    assert [d["graph"] for d in malformed] == [[0, 7], [0, -1]]
    assert malformed == [d for d in common.check_documents(6, workdir)
                         if d["expect"] == 2]


def _check_outcome(doc, failed_laws, exit_code=1):
    reports = [{"law": law, "passed": False} for law in failed_laws]
    reports.append({"law": "category/identity", "passed": True})
    stdout = json.dumps({"reports": reports,
                         "summary": {"failed": len(failed_laws), "total": len(reports)}})
    return {"name": doc["name"], "ok": exit_code == doc["expect"], "result": {
        "exit": exit_code, "exception": None, "stdout": stdout, "stderr": ""}}


def test_a_corruption_must_fail_a_law_of_its_family():
    doc = {"name": "corrupt-prod", "expect": 1, "family": "prod"}
    inputs = {"docs": [doc]}
    assert oracles.check_verdicts(inputs, [_check_outcome(doc, ["prod/unitor-iso"])]) == []
    wrong = oracles.check_verdicts(inputs, [_check_outcome(doc, ["sum/unitor-iso"])])
    assert wrong and "no prod law failed" in wrong[0]


def test_a_lawful_model_must_pass_every_law():
    doc = {"name": "pointed_sets_3", "expect": 0}
    assert oracles.check_verdicts({"docs": [doc]}, [_check_outcome(doc, [], 0)]) == []
    bad = oracles.check_verdicts({"docs": [doc]}, [_check_outcome(doc, ["i-natural"], 0)])
    assert bad and "lawful model" in bad[0]


def test_replay_reproduces_a_real_counterexample_and_catches_a_forged_one():
    from linearcat.matrices import coherence_identity_check
    from linearcat.models import load_model

    model = load_model(common.ROOT / common.PTSETS_FAULTY)
    p2 = model.object_by_name("P2")
    ce = coherence_identity_check(model, 1, (p2,)).counterexample
    assert "terms" in ce
    assert oracles.replay_problems(ce, model, "faulty") == []
    forged = dict(ce, values=[ce["values"][0], [0, 1]])
    assert any("evaluates to" in p for p in oracles.replay_problems(forged, model, "faulty"))


# -- laws ------------------------------------------------------------------------


def test_lineariser_witness_comes_from_sizes():
    assert oracles.lineariser_witness([1, 2, 3]) == ("P2", "P2")
    assert oracles.lineariser_witness([1]) is None


def test_hom_enumeration_by_brute_force():
    assert oracles.all_homs(M2, M2) == [(0, 0), (0, 1)]
    assert oracles.all_homs(M2B, M2) == [(0, 0)]


def test_central_addition_is_checked_against_pointwise_addition():
    tables = oracles.cayley_tables(common.MONOIDS)
    names = list(tables)
    homs = {(x, y): oracles.all_homs(tables[x], tables[y]) for x in names for y in names}

    def entry(x, y, wrong=False):
        elements = homs[(x, y)]
        index = {g: k for k, g in enumerate(elements)}
        table = [[index[tuple(tables[y][u][v] for u, v in zip(f, g))]
                  for g in elements] for f in elements]
        if wrong and len(elements) > 1:
            table[1][1] = (table[1][1] + 1) % len(elements)
        return {"x": x, "y": y, "elements": [list(g) for g in elements],
                "table": table, "unit": index[tuple([0] * len(tables[x]))],
                "laws": []}

    good = [{"name": "monoids/central-monoids", "ok": True,
             "result": [entry(x, y) for x in names for y in names]}]
    assert not any("Z(" in p for p in oracles.verify_laws({}, good))
    bad = [{"name": "monoids/central-monoids", "ok": True,
            "result": [entry(x, y, wrong=(x, y) == ("M1_2", "M1_2"))
                       for x in names for y in names]}]
    assert any(p.startswith("Z(M1_2, M1_2)") for p in oracles.verify_laws({}, bad))


def test_cover_and_matrix_centrality_must_agree():
    rows = [["P1", "P1", [0], True, True], ["P2", "P1", [0, 0], True, False]]
    problems = oracles.verify_laws(
        {}, [{"name": "ptsets/centrality", "ok": True, "result": rows}])
    assert any("cover True, matrix False" in p for p in problems)


# -- timing and tracing ----------------------------------------------------------


def test_scaled_seconds_removes_the_samplers_own_time():
    ref = common.REFERENCE_SAMPLE_S
    samples = [(0.1 * k, ref) for k in range(10)]
    assert abs(common.scaled_seconds(0.0, 1.0, samples) - (1.0 - 10 * ref)) < 1e-9
    slow = [(t, 2 * ref) for t, _ in samples]  # machine at half speed
    want = (1.0 - 20 * ref) * 0.5 ** common.SPEED_ELASTICITY
    assert abs(common.scaled_seconds(0.0, 1.0, slow) - want) < 1e-9


_TRACER_PROBE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import Tracer
t = Tracer()
t.install()
import linearcat.search as search, linearcat.sweeps as sweeps
import linearcat.matrices as matrices, linearcat.models as models
assert sweeps.search_graph is search.search_graph is matrices.search_graph
assert search.search_graph.__wrapped__ is not None
assert models.FinCMon.sum_mor is not models.FinCMon.prod_mor
m = models.FinPtSet((1, 2))
p2 = m.object_by_name("P2")
m.sum_mor(m.identity(p2), m.identity(p2))
from linearcat.words import parse_word
from linearcat.search import canonical_between
canonical_between(parse_word("(_+0)"), parse_word("_"), depth=2)
table = t.table()
assert table["models.sum_mor.calls"] == 1, table
assert table["search.search_graph.calls"] == 1, table
assert table["search.backward_table.calls"] == 1, table
assert 0 < table["search.search_graph.self_s"] < t.stats["search.search_graph"]["s"]
print("ok")
"""


def test_tracer_replaces_every_binding():
    code = _TRACER_PROBE.format(bench=str(BENCH), src=str(BENCH.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "ok", out.stderr
