import itertools
import re
from pathlib import Path

import pytest

from linearcat.centrality import matrix_completeness
from linearcat.errors import IntegrityError
from linearcat.evaluate import eval_object, inclusion, projection, zero_morphism
from linearcat.checks import CheckReport
from linearcat.matrices import (MatrixPresentation, _bracketing_graph,
                                _realization_map, coherence_identity_check,
                                identity_matrix, identity_matrix_sweep,
                                matrix_of, realize)
from linearcat.models import (FinCMon, FinPtSet, Mor, PtObj,
                              all_commutative_monoids, load_model)
from linearcat.search import pure_bracketings, search_graph, value_flood
from linearcat.terms import PRELINEAR
from linearcat.words import HOLE, PROD, SUM, Prod, Sum, render_word

ROOT = Path(__file__).resolve().parent.parent
S2 = Sum(HOLE, HOLE)
P2 = Prod(HOLE, HOLE)


def test_matrix_of_transformer_is_identity(pt3, cmon):
    for model, pair in ((pt3, (PtObj(2), PtObj(3))),
                        (cmon, tuple(o for o in cmon.base_objects
                                     if o.size == 2))):
        a, b = pair
        got = matrix_of(model, model.structure("i", a, b), (S2, (a, b)), (P2, (a, b)))
        want = identity_matrix(model, (a, b), S2, P2)
        assert got.entry_key() == want.entry_key()


def test_matrix_of_zero_is_all_zero(pt3):
    a, b = PtObj(2), PtObj(2)
    dom = eval_object(pt3, S2, (a, b))
    cod = eval_object(pt3, P2, (a, b))
    z = Mor(dom, cod, (0,) * dom.size)
    m = matrix_of(pt3, z, (S2, (a, b)), (P2, (a, b)))
    for row, tgt in zip(m.entries, (a, b)):
        for entry, src in zip(row, (a, b)):
            assert entry == zero_morphism(pt3, src, tgt)


def test_matrix_one_by_one(pt3):
    f = pt3.hom(PtObj(2), PtObj(3))[2]
    m = matrix_of(pt3, f, (HOLE, (PtObj(2),)), (HOLE, (PtObj(3),)))
    assert m.entries == ((f,),)
    assert realize(pt3, m) == f


def test_matrix_requires_pure_words(pt3):
    f = pt3.identity(PtObj(2))
    with pytest.raises(ValueError):
        matrix_of(pt3, f, (P2, (PtObj(2), PtObj(1))), (P2, (PtObj(2), PtObj(1))))


def test_realize_round_trip_all_small(pt3):
    a, b = PtObj(2), PtObj(2)
    dom = eval_object(pt3, S2, (a, b))
    cod = eval_object(pt3, P2, (a, b))
    for f in pt3.hom(dom, cod):
        m = matrix_of(pt3, f, (S2, (a, b)), (P2, (a, b)))
        assert realize(pt3, m) == f
        assert matrix_of(pt3, realize(pt3, m), (S2, (a, b)),
                         (P2, (a, b))).entry_key() == m.entry_key()


def test_realize_identity_carrier_off_diagonals(pt2):
    # the wedge is a genuine coproduct of pointed sets, so even this matrix
    # has a (unique) realizer: both non-base points land on (1, 1)
    a = b = PtObj(2)
    like = pt2.hom(a, b)[1]
    assert like.graph == (0, 1)
    m = MatrixPresentation(S2, (a, b), P2, (a, b), (
        (pt2.identity(a), like),
        (like, pt2.identity(b))))
    h = realize(pt2, m)
    assert h is not None and h.graph == (0, 3, 3)
    assert matrix_of(pt2, h, (S2, (a, b)), (P2, (a, b))).entry_key() == m.entry_key()


def test_identity_matrix_realizer_is_transformer_in_cmon(cmon):
    for a, b in itertools.product(
            [o for o in cmon.base_objects if o.size <= 2], repeat=2):
        m = identity_matrix(cmon, (a, b), S2, P2)
        assert realize(cmon, m) == cmon.structure("i", a, b)


def test_both_models_realize_every_matrix(pt2, cmon2):
    # the sum is a coproduct and the product a product in both instances,
    # so matrix presentations biject with boundary hom-sets
    for model in (pt2, cmon2):
        complete, witness = matrix_completeness(model)
        assert complete, witness


def test_corrupted_inclusion_breaks_realization_uniqueness():
    from linearcat.errors import IntegrityError
    from linearcat.models import FinPtSet
    # collapse the inverse right sum-unitor: the first inclusion now factors
    # through the basepoint and distinct morphisms share one matrix
    model = FinPtSet((1, 2), overrides=[("runit_sum_inv", ("P2",), (0, 0))])
    a = b = PtObj(2)
    with pytest.raises(IntegrityError):
        realize(model, identity_matrix(model, (a, b), S2, P2))


def _boundaries(model):
    """Every boundary a+b -> cxd over the base objects of ``model``."""
    for a, b, c, d in itertools.product(model.base_objects, repeat=4):
        yield (S2, (a, b)), (P2, (c, d))


@pytest.mark.parametrize("model", [FinPtSet((1, 2)),
                                   FinCMon(all_commutative_monoids(2))],
                         ids=["pointed_sets", "monoids"])
def test_realization_keys_are_matrix_presentations(model):
    for src, tgt in _boundaries(model):
        table = _realization_map(model, src, tgt)
        dom, cod = eval_object(model, *src), eval_object(model, *tgt)
        assert list(table.values()) == list(model.hom(dom, cod))
        for key, f in table.items():
            assert key == matrix_of(model, f, src, tgt).entry_key()


def test_realization_map_keeps_no_composites():
    model = FinCMon(all_commutative_monoids(2))
    for (_, src_objects), (_, tgt_objects) in _boundaries(model):
        for index in (1, 2):
            inclusion(model, S2, src_objects, index)
            projection(model, P2, tgt_objects, index)
    composites = dict(model.memo["composite"])
    for src, tgt in _boundaries(model):
        _realization_map(model, src, tgt)
    assert model.memo["composite"] == composites


def test_realization_rejects_a_repeated_morphism(monkeypatch):
    # a hom-set that lists one morphism twice gives two realizers of one
    # matrix, and the error names both graphs
    model = FinPtSet((1, 2))
    hom = model.hom
    monkeypatch.setattr(model, "hom", lambda dom, cod: hom(dom, cod) + hom(dom, cod)[-1:])
    a = PtObj(2)
    last = hom(eval_object(model, S2, (a, a)), eval_object(model, P2, (a, a)))[-1]
    with pytest.raises(IntegrityError, match=re.escape(f"{last.graph} and {last.graph}")):
        realize(model, identity_matrix(model, (a, a), S2, P2))


def test_coherence_identity_check_small(pt3, cmon):
    r = coherence_identity_check(pt3, 1, (PtObj(2),), depth=4)
    assert r.passed
    r = coherence_identity_check(pt3, 2, (PtObj(2), PtObj(2)), depth=5)
    assert r.passed
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    r = coherence_identity_check(cmon, 3, (z2,) * 3, depth=6)
    assert r.passed


def test_identity_matrix_three_by_three(pt3):
    from linearcat.search import pure_bracketings
    objs = (PtObj(2), PtObj(3), PtObj(2))
    src = pure_bracketings("+", 3)[0]
    tgt = pure_bracketings("*", 3)[0]
    m = identity_matrix(pt3, objs, src, tgt)
    assert m.rows == m.cols == 3
    for k in range(3):
        for l in range(3):
            if k == l:
                assert m.entries[k][l] == pt3.identity(objs[k])
            else:
                assert m.entries[k][l] == zero_morphism(pt3, objs[l], objs[k])
    assert realize(pt3, m) is not None


def test_identity_matrix_requires_square(pt3):
    with pytest.raises(ValueError):
        identity_matrix(pt3, (PtObj(2),), HOLE, P2)


def test_coherence_check_rejects_large_n(pt3):
    with pytest.raises(ValueError):
        coherence_identity_check(pt3, 4, (PtObj(2),) * 4)


def test_identity_check_builds_each_graph_once(monkeypatch):
    built = []

    def counting(v, w, depth, mode):
        built.append((v, w, depth, mode))
        return search_graph(v, w, depth, mode)

    monkeypatch.setattr("linearcat.matrices.search_graph", counting)
    _bracketing_graph.cache_clear()
    model = FinPtSet((1, 2))
    tuples = list(itertools.product(model.base_objects, repeat=2))
    assert len(tuples) == 4
    assert identity_matrix_sweep(model, 2, tuples, depth=4).passed
    # one sum bracketing and one product bracketing of length 2
    assert len(built) == len(set(built)) == 1


def test_identity_sweep_reports_a_missing_term_without_objects():
    # the one counterexample shape no golden reaches: a pair with no term
    # within the depth names neither objects nor terms
    model = FinPtSet((1, 2))
    tuples = list(itertools.product(model.base_objects, repeat=3))
    report = identity_matrix_sweep(model, 3, tuples, depth=1)
    assert str(report) == (
        "[FAIL] coherence-identity-matrix/n=3  counterexample:"
        " {'source': '(_+(_+_))', 'target': '(_*(_*_))',"
        " 'reason': 'no canonical term within depth 1'}")


def test_bracketing_graph_cache_keeps_reports():
    # The bracketing graphs are built once per process and shared by every
    # model.  Sweeping three models in a row, two of them failing, gives
    # each model the reports of a sweep from a cleared cache.
    paths = [ROOT / "models" / "pointed_sets_3.json",
             ROOT / "models" / "pointed_sets_3_faulty.json",
             ROOT / "tests" / "models" / "pointed_sets_3_zero_i.json"]

    def sweep(path):
        model = load_model(path)
        small = [o for o in model.base_objects if o.size <= 2]
        return [identity_matrix_sweep(model, n, list(itertools.product(small, repeat=n)))
                for n in (1, 2, 3)]

    _bracketing_graph.cache_clear()
    shared = [sweep(path) for path in paths]
    # one graph per sum and product bracketing pair, 1 + 1 + 2 * 2, built
    # by the first model and read by every later tuple and model
    assert _bracketing_graph.cache_info().misses == 6
    assert [all(r.passed for r in reports) for reports in shared] == [True, False, False]
    for path, reports in zip(paths, shared):
        _bracketing_graph.cache_clear()
        assert sweep(path) == reports, path.stem


def _reference_identity_sweep(model, n, tuples, depth):
    """The identity-matrix sweep as one value flood per tuple and pair."""
    law = f"coherence-identity-matrix/n={n}"
    for objects in tuples:
        for v in pure_bracketings(SUM, n):
            for w in pure_bracketings(PROD, n):
                graph = search_graph(v, w, depth, PRELINEAR)
                flood = value_flood(model, graph, objects)
                where = {"source": render_word(v), "target": render_word(w)}
                names = [o.name for o in objects]
                if not flood.values:
                    return CheckReport(law, False, dict(
                        where, reason=f"no canonical term within depth {depth}"))
                if len(flood.values) > 1:
                    return CheckReport(law, False, dict(
                        where, reason="two canonical terms evaluate differently",
                        objects=names,
                        terms=[str(flood.witness_term(g))
                               for g in flood.values],
                        values=[list(g) for g in flood.values]))
                [g] = flood.values
                value = Mor(eval_object(model, v, objects),
                            eval_object(model, w, objects), g)
                got = matrix_of(model, value, (v, objects), (w, objects))
                want = identity_matrix(model, objects, v, w)
                if got.entry_key() != want.entry_key():
                    return CheckReport(law, False, dict(
                        where, objects=names,
                        matrix=[[list(m.graph) for m in row]
                                for row in got.entries],
                        reason="canonical morphism matrix is not the identity"))
    return CheckReport(law, True)


@pytest.mark.parametrize("override", [
    None,
    ("lunit_sum", ("P2",), (0, 0)),
    ("assoc_prod", ("P1", "P2", "P2"), (0,) * 4),
    ("assoc_sum_inv", ("P2", "P1", "P2"), (0,) * 3),
    ("i", ("P1", "P2"), (0, 0)),
])
def test_identity_matrix_sweep_matches_per_tuple_floods(override):
    # the first failing tuple, pair and reason, and the witness terms, in
    # the order of one flood per tuple and pair
    model = FinPtSet((1, 2, 3), [override] if override else [])
    objs = [o for o in model.base_objects if o.size <= 2]
    for n in (1, 2, 3):
        tuples = list(itertools.product(objs, repeat=n))
        got = identity_matrix_sweep(model, n, tuples, depth=6)
        want = _reference_identity_sweep(model, n, tuples, 6)
        assert (got.law, got.passed, got.counterexample) == \
            (want.law, want.passed, want.counterexample)
    if override and override[0] != "lunit_sum":
        assert not got.passed
