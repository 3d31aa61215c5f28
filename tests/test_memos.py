"""The per-model memos of inclusions, projections and zero morphisms, of
the morphism kernels, and the README's list of memo concerns."""

import itertools
import re
from pathlib import Path

import pytest

from linearcat import centrality, checks, evaluate, models
from linearcat.centrality import check_linearity_theorem, is_central_matrix
from linearcat.checks import check_structure, check_transformer
from linearcat.errors import ArityMismatch
from linearcat.evaluate import eval_object, inclusion, projection, zero_morphism
from linearcat.models import (FinCMon, FinPtSet, Mor, PtObj,
                              all_commutative_monoids, load_model)
from linearcat.search import pure_bracketings
from linearcat.words import (HOLE, PROD, PROD2, SUM, SUM2, ZERO, Prod, Sum,
                             length)


def _derived_maps(model):
    """(function, arguments) for every memoised map over base objects:
    inclusions and projections of the binary and ternary pure words, and
    zero morphisms."""
    objs = model.base_objects
    for fn, op in ((inclusion, SUM), (projection, PROD)):
        for w in pure_bracketings(op, 2) + pure_bracketings(op, 3):
            for tup in itertools.product(objs, repeat=length(w)):
                for index in range(1, len(tup) + 1):
                    yield fn, (model, w, tup, index)
    for x, y in itertools.product(objs, repeat=2):
        yield zero_morphism, (model, x, y)


def test_memoised_maps_equal_fresh_computation():
    for model in (FinPtSet((1, 2)), FinCMon(all_commutative_monoids(2))):
        cached = [(fn, args, fn(*args)) for fn, args in _derived_maps(model)]
        assert {"inclusion", "projection", "zero"} <= set(model.memo)
        assert all(fn(*args) is got for fn, args, got in cached)
        for fn, args, got in cached:
            model.memo.clear()
            assert fn(*args) == got


def test_memos_never_cross_models():
    p2 = PtObj(2)
    pristine = FinPtSet((1, 2))
    inc = inclusion(pristine, SUM2, (p2, p2), 1)
    proj = projection(pristine, PROD2, (p2, p2), 2)
    # the inclusion runs through runit_sum_inv at P2, the projection
    # through lunit_prod at P2
    bad_inc = FinPtSet((1, 2), [("runit_sum_inv", ("P2",), (0, 0))])
    bad_proj = FinPtSet((1, 2), [("lunit_prod", ("P2",), (0, 0))])
    assert inclusion(bad_inc, SUM2, (p2, p2), 1) != inc
    assert projection(bad_proj, PROD2, (p2, p2), 2) != proj
    assert inclusion(pristine, SUM2, (p2, p2), 1) is inc
    assert projection(pristine, PROD2, (p2, p2), 2) is proj


def test_second_linearity_check_evaluates_no_term(monkeypatch):
    calls = []
    inner = evaluate._eval_canon

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(evaluate, "_eval_canon", counted)
    model = FinCMon(all_commutative_monoids(2))
    first = check_linearity_theorem(model)
    assert calls
    calls.clear()
    second = check_linearity_theorem(model)
    assert calls == []
    assert first.passed and second.passed
    assert first.details == second.details


ROOT = Path(__file__).resolve().parent.parent

# Each kernel memo entry recomputed from its key alone: a composite from
# (g, f), a product from (f, g, |cod g|), a wedge from (f, g, |cod f|).
KERNEL_FORMULAS = {
    "composite": lambda g, f: tuple(g[v] for v in f),
    "pair": lambda f, g, n: tuple(x * n + y for x in f for y in g),
    "wedge": lambda f, g, m: (0, *f[1:], *(y and m - 1 + y for y in g[1:])),
}

KERNEL_MODELS = {
    "pt3": lambda: FinPtSet((1, 2, 3)),
    "cmon2": lambda: FinCMon(all_commutative_monoids(2)),
    "pt3-faulty": lambda: load_model(ROOT / "models" / "pointed_sets_3_faulty.json"),
}

# the law families check_structure runs, one function each
LAW_FAMILIES = ("_check_category", "_check_bifunctor", "_check_monoidal",
                "_check_initial_terminal", "_check_joint_epi_mono")


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_kernel_memos_are_sound_and_clearing_changes_no_report(monkeypatch, name):
    model = KERNEL_MODELS[name]()
    reports = check_structure(model) + check_transformer(model)
    concerns = {"composite", "pair"} | ({"wedge"} if name.startswith("pt") else set())
    assert concerns <= set(model.memo)
    for concern, formula in KERNEL_FORMULAS.items():
        for key, graph in model.memo[concern].items():
            assert graph == formula(*key), (concern, key)

    cleared = KERNEL_MODELS[name]()
    for family in LAW_FAMILIES:
        def clearing(model, *args, _inner=getattr(checks, family)):
            model.memo.clear()
            return _inner(model, *args)
        monkeypatch.setattr(checks, family, clearing)
    again = check_structure(cleared)
    cleared.memo.clear()
    assert again + check_transformer(cleared) == reports


def test_pair_kernel_runs_once_per_distinct_input(monkeypatch):
    raw, ops = [], []
    inner = models._pair_graph
    monkeypatch.setattr(models, "_pair_graph",
                        lambda f, g: raw.append(1) or inner(f, g))
    for name in ("sum_mor", "prod_mor"):
        kernel = getattr(FinCMon, name)
        monkeypatch.setattr(FinCMon, name,
                            lambda self, f, g, _k=kernel: ops.append(1) or _k(self, f, g))
    model = FinCMon(all_commutative_monoids(2))
    check_structure(model)
    assert len(raw) == len(model.memo["pair"])
    assert 20 * len(raw) < len(ops)


def test_readme_names_every_memo_concern():
    concerns = set()
    for path in (ROOT / "src" / "linearcat").glob("*.py"):
        text = path.read_text()
        concerns |= set(re.findall(r'memo\["(\w+)"\]', text))
        concerns |= set(re.findall(r'_memoised\(\w+, "(\w+)"', text))
    assert {"batch", "cancellation", "whisker"} <= concerns
    readme = (ROOT / "README.md").read_text()
    assert sorted(c for c in concerns if f'memo["{c}"]' not in readme) == []
    # and README names no concern that nothing keeps any more
    assert sorted(set(re.findall(r'memo\["(\w+)"\]', readme)) - concerns) == []


def test_readme_names_every_process_cache():
    # Process-wide caches and intern tables outlive every model, so each one
    # is documented.
    cached = set()
    for path in (ROOT / "src" / "linearcat").glob("*.py"):
        text = path.read_text()
        names = re.findall(
            r"^@(?:functools\.)?(?:cache|lru_cache\(maxsize=\d+\))\ndef (\w+)",
            text, re.M)
        # a module-level dict that starts empty is filled as the process runs
        names += re.findall(r"^(\w+)(?:: [^=\n]+)? = \{\}$", text, re.M)
        cached |= {f"{path.stem}.{name}" for name in names}
    assert {"search.moves", "search.backward_table", "words.length",
            "models._identity_graph", "sweeps._cancellation_term",
            "models._POINTED_SETS", "models._MONOIDS"} <= cached
    readme = (ROOT / "README.md").read_text()
    assert sorted(name for name in cached if f"`{name}`" not in readme) == []
    # and the table each monoid keeps of its products with right factors
    assert "`a._products`" in readme


# -- the memo rule: one entry per key, None kept, nothing kept on a raise -------

def test_a_result_of_none_is_computed_once(monkeypatch):
    # Every pointed map has a realizer of its central matrix, since a map
    # out of a wedge into a product is free on each summand and factor.  A
    # carrier map that moves the basepoint has none.
    calls = []
    inner = centrality.realize
    monkeypatch.setattr(centrality, "realize",
                        lambda model, p: calls.append(p) or inner(model, p))
    model = FinPtSet((1, 2))
    f = Mor(PtObj(2), PtObj(2), (1, 1))
    assert not is_central_matrix(model, f)
    assert not is_central_matrix(model, f)
    assert len(calls) == 1
    assert model.memo["central"] == {(f,): None}


def test_second_eval_object_call_evaluates_nothing(monkeypatch):
    calls = []
    inner = evaluate._eval_object
    monkeypatch.setattr(evaluate, "_eval_object",
                        lambda *args: calls.append(args) or inner(*args))
    model = FinPtSet((1, 2))
    w = Prod(SUM2, Sum(HOLE, ZERO))
    at = (PtObj(2), PtObj(1), PtObj(2))
    first = eval_object(model, w, at)
    assert calls
    calls.clear()
    assert eval_object(model, w, list(at)) is first
    assert calls == []


def test_wrong_arity_eval_object_raises_and_stores_nothing():
    model = FinPtSet((1, 2))
    with pytest.raises(ArityMismatch):
        eval_object(model, SUM2, (PtObj(2),))
    assert model.memo["object"] == {}


def test_structure_reads_overrides_and_keeps_no_component():
    swap = ("i", ("P1", "P2"), (1, 0))
    model, pristine = FinPtSet((1, 2), [swap]), FinPtSet((1, 2))
    p1, p2, p3 = PtObj(1), PtObj(2), PtObj(3)
    # the override at its base objects
    assert model.structure("i", p1, p2) == Mor(p2, p2, (1, 0))
    # every other component is computed on each call, at base objects or not
    for name, objects in [("i", (p2, p2)), ("i", (p2, p3)),
                          ("lunit_sum", (p2,)), ("assoc_prod", (p1, p2, p3))]:
        first = model.structure(name, *objects)
        assert first == pristine.structure(name, *objects)
        assert model.structure(name, *objects) is not first
    assert "structure" not in model.memo
