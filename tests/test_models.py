import copy
import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linearcat.checks import (binary_inclusions, check_prelinear,
                              check_structure, check_transformer,
                              is_lineariser)
from linearcat.errors import ArityMismatch, ModelFileError, NotInvertibleInModel
from linearcat.evaluate import (eval_canon, eval_morphism, eval_object,
                                inclusion, projection, zero_morphism)
from linearcat.models import (STRUCTURE_TABLES, CMonObj, FinCMon, FinPtSet,
                              Model, Mor, PtObj, all_commutative_monoids,
                              load_model, model_from_dict)
from linearcat.search import pure_bracketings, words_with
from linearcat.terms import Generator, GenTerm, unit_cancel
from linearcat.words import (HOLE, ONE, Prod, Sum, core_split, length,
                             parse_word)


def test_eval_object_examples(pt3, cmon):
    assert eval_object(pt3, HOLE, (PtObj(2),)) == PtObj(2)
    assert eval_object(pt3, Sum(HOLE, HOLE), (PtObj(2), PtObj(3))).size == 4
    m3 = [o for o in cmon.base_objects if o.size == 3][0]
    carrier = eval_object(cmon, Prod(HOLE, ONE), (m3,))
    assert carrier.size == m3.size


def test_eval_object_arity_checked(pt3):
    with pytest.raises(ArityMismatch):
        eval_object(pt3, HOLE, (PtObj(2), PtObj(2)))


def test_eval_morphism_is_functorial(pt3):
    w = parse_word("(_+(_*_))")
    objs = (PtObj(2), PtObj(2), PtObj(3))
    ids = tuple(pt3.identity(o) for o in objs)
    assert eval_morphism(pt3, w, ids) == pt3.identity(eval_object(pt3, w, objs))
    fs = [pt3.hom(PtObj(2), PtObj(2))[1], pt3.hom(PtObj(2), PtObj(3))[2],
          pt3.hom(PtObj(3), PtObj(2))[1]]
    gs = [pt3.hom(PtObj(2), PtObj(3))[1], pt3.hom(PtObj(3), PtObj(2))[3],
          pt3.hom(PtObj(2), PtObj(2))[1]]
    comp = tuple(pt3.compose(g, f) for f, g in zip(fs, gs))
    lhs = eval_morphism(pt3, w, comp)
    rhs = pt3.compose(eval_morphism(pt3, w, tuple(gs)),
                      eval_morphism(pt3, w, tuple(fs)))
    assert lhs == rhs


def test_eval_canon_identity_and_i(pt3, cmon):
    w = parse_word("(_*_)")
    objs = (PtObj(2), PtObj(2))
    ident = eval_canon(pt3, GenTerm(Generator("id", (w,))), objs)
    assert ident == pt3.identity(eval_object(pt3, w, objs))
    z2, sl2 = [o for o in cmon.base_objects if o.size == 2]
    i = eval_canon(cmon, GenTerm(Generator("i", (HOLE, HOLE))), (z2, sl2))
    assert i.graph == tuple(range(4))


def test_inclusion_matches_unitor_formula(pt3):
    a, b = PtObj(3), PtObj(2)
    i1, i2 = binary_inclusions(pt3, a, b)
    expected1 = pt3.compose(pt3.sum_mor(pt3.identity(a), pt3.bang_from_zero(b)),
                            pt3.structure("runit_sum_inv", a))
    expected2 = pt3.compose(pt3.sum_mor(pt3.bang_from_zero(a), pt3.identity(b)),
                            pt3.structure("lunit_sum_inv", b))
    assert i1 == expected1
    assert i2 == expected2


def test_inclusion_unary_is_identity(pt3):
    assert inclusion(pt3, HOLE, (PtObj(3),), 1) == pt3.identity(PtObj(3))
    assert projection(pt3, HOLE, (PtObj(3),), 1) == pt3.identity(PtObj(3))


def test_inclusion_rejects_bad_input(pt3):
    with pytest.raises(ValueError):
        inclusion(pt3, Prod(HOLE, HOLE), (PtObj(2), PtObj(2)), 1)
    with pytest.raises(IndexError):
        inclusion(pt3, Sum(HOLE, HOLE), (PtObj(2), PtObj(2)), 3)


def test_inclusions_into_wedge(pt3):
    a, b = PtObj(2), PtObj(3)
    i1, i2 = binary_inclusions(pt3, a, b)
    assert i1.graph == (0, 1)
    assert i2.graph == (0, 2, 3)


def test_inclusion_naturality_small(pt3):
    # inclusions form a natural family from the projection functor
    for word in pure_bracketings("+", 2) + pure_bracketings("+", 3):
        n = length(word)
        for objs in itertools.product((PtObj(1), PtObj(2)), repeat=n):
            cods = tuple(PtObj(2) for _ in objs)
            for graphs in itertools.product(*(
                    pt3.hom(o, c) for o, c in zip(objs, cods))):
                wf = eval_morphism(pt3, word, tuple(graphs))
                for k in range(1, n + 1):
                    lhs = pt3.compose(wf, inclusion(pt3, word, objs, k))
                    rhs = pt3.compose(inclusion(pt3, word, cods, k),
                                      graphs[k - 1])
                    assert lhs == rhs


def test_nfold_inclusions_jointly_epimorphic(pt3):
    for n in (2, 3):
        for word in pure_bracketings("+", n):
            objs = tuple(PtObj(2) for _ in range(n))
            incs = [inclusion(pt3, word, objs, k) for k in range(1, n + 1)]
            dom = eval_object(pt3, word, objs)
            seen = {}
            for u in pt3.hom(dom, PtObj(3)):
                sig = tuple(pt3.compose(u, i).graph for i in incs)
                assert sig not in seen
                seen[sig] = u


def test_zero_morphism(pt3, cmon):
    z = zero_morphism(pt3, PtObj(3), PtObj(2))
    assert z.graph == (0, 0, 0)
    m3 = [o for o in cmon.base_objects if o.size == 3][0]
    z = zero_morphism(cmon, m3, m3)
    assert z.graph == (0, 0, 0)
    zz = zero_morphism(pt3, PtObj(2), PtObj(2))
    assert pt3.compose(zz, zz) == zz


def test_pointedness(pt3, cmon):
    for model in (pt3, cmon):
        for x in model.base_objects:
            for y in model.base_objects:
                z = zero_morphism(model, x, y)
                through_units = {
                    model.compose(model.bang_from_zero(y),
                                  model.compose(m, model.bang_to_one(x)))
                    for m in model.hom(model.one_obj, model.zero_obj)}
                assert through_units == {z}
                for w in model.base_objects:
                    for f in model.hom(y, w):
                        assert model.compose(f, z) == zero_morphism(model, x, w)
                    for f in model.hom(w, x):
                        assert model.compose(z, f) == zero_morphism(model, w, y)


def test_check_structure_passes(pt3, cmon):
    for model in (pt3, cmon):
        reports = check_structure(model)
        assert all(r.passed for r in reports), [str(r) for r in reports]


def test_check_structure_catches_corrupted_unitor():
    model = FinPtSet((1, 2, 3), overrides=[("lunit_sum", ("P2",), (0, 0))])
    reports = check_structure(model)
    failed = [r for r in reports if not r.passed]
    assert failed
    assert any("unitor" in r.law or "triangle" in r.law for r in failed)
    assert all(r.counterexample for r in failed)


class _CollapsedSum(FinPtSet):
    """Pointed sets whose sum of morphisms sends everything to the basepoint."""

    def sum_mor(self, f, g):
        m = super().sum_mor(f, g)
        return type(m)(m.dom, m.cod, (0,) * len(m.graph))


@pytest.mark.parametrize("table, objects, graph", [
    ("assoc_sum", ("P2", "P2", "P2"), (0, 1, 3, 2)),
    ("lunit_sum_inv", ("P2",), (0, 0)),
])
def test_every_structure_law_is_reported_once(table, objects, graph):
    # a failed law does not hide the later laws of its family
    pristine = [r.law for r in check_structure(FinPtSet((1, 2)))]
    reports = check_structure(FinPtSet((1, 2), [(table, objects, graph)]))
    assert not all(r.passed for r in reports)
    assert [r.law for r in reports] == pristine


def test_every_bifunctor_law_is_reported_once():
    def names(reports):
        # unitor naturality fails under the name of the unitor that broke
        return [r.law.replace("lunit-natural", "unitor-natural") for r in reports]

    pristine = check_structure(FinPtSet((1, 2)))
    reports = check_structure(_CollapsedSum((1, 2)))
    failed = {r.law for r in reports if not r.passed}
    assert "sum-bifunctor/preserves-identity" in failed
    assert names(reports) == names(pristine)


def test_check_transformer_passes(pt3, cmon):
    for model in (pt3, cmon):
        reports = check_transformer(model)
        assert all(r.passed for r in reports), [str(r) for r in reports]


def test_check_transformer_catches_twisted_i():
    # swap the two coordinates of i at (P2, P2): breaks naturality
    model = FinPtSet((1, 2, 3), overrides=[("i", ("P2", "P2"), (0, 1, 2))])
    reports = check_transformer(model)
    failed = [r.law for r in reports if not r.passed]
    assert failed


def test_check_prelinear_passes(pt3, cmon):
    for model in (pt3, cmon):
        reports = check_prelinear(model)
        assert all(r.passed for r in reports), [str(r) for r in reports]


def test_check_prelinear_fault_breaks_matrix_and_transformer():
    model = FinPtSet((1, 2, 3), overrides=[("i", ("P2", "P2"), (0, 1, 2))])
    pre = check_prelinear(model)
    matrix_report = next(r for r in pre if r.law == "i-matrix-identity")
    assert not matrix_report.passed
    transformer_failed = [r for r in check_transformer(model) if not r.passed]
    assert transformer_failed
    # the equivalence itself must survive: both sides fail together
    equiv = next(r for r in pre if r.law == "prelinear-iff-transformer")
    assert equiv.passed


def test_is_lineariser(pt3, cmon):
    ok, witness = is_lineariser(pt3)
    assert not ok
    assert witness["witness"] == ("P2", "P2")
    assert "3" in witness["reason"] and "4" in witness["reason"]
    ok, inverses = is_lineariser(cmon)
    assert ok
    for (a_name, b_name), inv in inverses.items():
        a = cmon.object_by_name(a_name)
        b = cmon.object_by_name(b_name)
        i = cmon.structure("i", a, b)
        assert cmon.compose(inv, i) == cmon.identity(i.dom)
        assert cmon.compose(i, inv) == cmon.identity(i.cod)


def test_one_point_model_is_partially_linear():
    tiny = FinPtSet((1,))
    ok, _ = is_lineariser(tiny)
    assert ok


def test_unit_cancel_evaluates_to_bijection_on_sum_cores(pt3):
    sizes = (PtObj(1), PtObj(2), PtObj(3))
    words = [w for u in range(4) for w in words_with(2, u)]
    checked = 0
    for w in words:
        split = core_split(w)
        term = unit_cancel(w)
        for objs in itertools.product(sizes, repeat=2):
            m = eval_canon(pt3, term, objs)
            assert m.cod == eval_object(pt3, term.target, objs)
            if split.op == "+":
                assert sorted(m.graph) == list(range(m.dom.size))
                checked += 1
    assert checked > 1000


def test_model_file_round_trip(tmp_path):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(
        {"schema": 1, "kind": "pointed_sets", "objects": [1, 2]}))
    model = load_model(path)
    assert isinstance(model, FinPtSet)
    assert [o.size for o in model.base_objects] == [1, 2]

    path = tmp_path / "cm.json"
    path.write_text(json.dumps(
        {"schema": 1, "kind": "commutative_monoids",
         "objects": [{"name": "Z2", "table": [0, 1, 1, 0]}]}))
    model = load_model(path)
    assert isinstance(model, FinCMon)
    assert {o.name for o in model.base_objects} == {"T", "Z2"}


def test_model_file_overrides(tmp_path):
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(
        {"schema": 1, "kind": "pointed_sets", "objects": [1, 2],
         "overrides": [
             {"table": "lunit_sum", "objects": ["P2"], "graph": [0, 0]}]}))
    model = load_model(path)
    assert model.structure("lunit_sum", PtObj(2)).graph == (0, 0)


@pytest.mark.parametrize("doc", [
    [],
    {"kind": "nonsense", "objects": [1]},
    {"kind": "pointed_sets", "objects": []},
    {"kind": "pointed_sets", "objects": [0]},
    # a size is one object: it is named by its size
    {"kind": "pointed_sets", "objects": [2, 2]},
    {"kind": "pointed_sets", "objects": [1, 2, 1]},
    {"kind": "commutative_monoids", "objects": [[0, 1, 1]]},
    {"kind": "commutative_monoids", "objects": [[0, 1, 1, 1, 1, 1, 1, 1, 0]]},
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": "lunit_sum", "objects": ["P9"], "graph": [0]}]},
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": "lunit_sum", "objects": ["P2"], "graph": [0]}]},
    # override entries must index the codomain
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": "lunit_sum", "objects": ["P2"], "graph": [0, 7]}]},
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": "lunit_sum", "objects": ["P2"], "graph": [0, -1]}]},
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": "lunit_sum", "objects": ["P2"], "graph": [0, True]}]},
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": "lunit_sum", "objects": [["P2"]], "graph": [0, 0]}]},
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": 7, "objects": ["P2"], "graph": [0, 0]}]},
    # a present schema must be exactly the integer 1
    {"schema": 99, "kind": "pointed_sets", "objects": [1, 2]},
    {"schema": True, "kind": "pointed_sets", "objects": [1, 2]},
    {"schema": "1", "kind": "pointed_sets", "objects": [1, 2]},
    # booleans are not sizes or table entries
    {"kind": "pointed_sets", "objects": [True, 2]},
    {"kind": "commutative_monoids", "objects": [[0, True, True, 0]]},
    {"kind": "commutative_monoids", "objects": [{"name": 5, "table": [0]}]},
    # object names must be unique: explicit, generated M{idx} and inserted T
    {"kind": "commutative_monoids",
     "objects": [[0], {"name": "A", "table": [0, 1, 1, 0]},
                 {"name": "A", "table": [0, 1, 1, 1]}]},
    {"kind": "commutative_monoids",
     "objects": [[0], {"name": "M2", "table": [0, 1, 1, 0]}, [0, 1, 1, 1]]},
    {"kind": "commutative_monoids",
     "objects": [{"name": "T", "table": [0, 1, 1, 0]}]},
    # one table at one object tuple is overridden at most once
    {"kind": "pointed_sets", "objects": [2],
     "overrides": [{"table": "lunit_sum", "objects": ["P2"], "graph": [0, 0]},
                   {"table": "lunit_sum", "objects": ["P2"], "graph": [0, 1]}]},
])
def test_model_file_rejects_malformed(doc):
    with pytest.raises(ModelFileError):
        model_from_dict(doc)


def test_model_file_rejects_a_repeated_table():
    # two names for one table would make them one object, named by either
    doc = {"kind": "commutative_monoids",
           "objects": [{"name": "T", "table": [0]},
                       {"name": "A", "table": [0, 1, 1, 0]},
                       {"name": "B", "table": [0, 1, 1, 0]}]}
    with pytest.raises(ModelFileError, match="'A' and 'B'"):
        model_from_dict(doc)


@pytest.mark.parametrize("table, names, arity", [
    ("i", ["P2"], 2), ("i", ["P2", "P2", "P2"], 2),
    ("assoc_sum", ["P2"], 3), ("assoc_prod_inv", ["P2", "P2"], 3),
    ("lunit_sum", ["P2", "P2"], 1), ("runit_prod_inv", [], 1)])
def test_override_with_wrong_object_count_names_table_and_count(table, names,
                                                                arity):
    doc = {"schema": 1, "kind": "pointed_sets", "objects": [1, 2],
           "overrides": [{"table": table, "objects": names, "graph": [0, 0]}]}
    with pytest.raises(ModelFileError) as err:
        model_from_dict(doc)
    message = str(err.value)
    assert table in message and "unpack" not in message
    assert f"needs {arity} object" in message and f"got {len(names)}" in message


MODELS = Path(__file__).resolve().parent.parent / "models"
BUNDLED = [json.loads(p.read_text()) for p in sorted(MODELS.glob("*.json"))]

_NAMES = st.sampled_from(["P1", "P2", "P3", "P4", "T", "M0_1", "M1_2", "M3_3", ""])
_TABLES = st.sampled_from(["i", "lunit_sum", "runit_prod_inv", "assoc_sum",
                           "assoc_prod_inv", "j", "nonsense"])
_KEYS = st.sampled_from(["schema", "kind", "objects", "overrides", "name",
                         "table", "graph"])
# Integers stay small: a pointed set of size n costs n**3 per associator.
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 5)
            | st.sampled_from([0.5, 2.0, "pointed_sets", "commutative_monoids"])
            | _NAMES | _TABLES)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10)
_OVERRIDES = st.fixed_dictionaries({
    "table": _TABLES,
    "objects": st.lists(_NAMES, max_size=3),
    "graph": st.lists(st.integers(-1, 8), max_size=9)})


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from _paths(child, path + (idx,))


def _mutate(doc, data):
    # deepest paths first: hypothesis favours early choices, and replacing
    # the whole document is the least interesting edit
    path = data.draw(st.sampled_from(list(_paths(doc))[::-1]))
    action = data.draw(st.sampled_from(["replace", "delete", "override"]))
    if action == "override" and isinstance(doc, dict) \
            and isinstance(doc.get("overrides", []), list):
        doc.setdefault("overrides", []).append(data.draw(_OVERRIDES))
        return doc
    value = data.draw(_JSON)
    if not path:
        return value
    *head, last = path
    parent = doc
    for step in head:
        parent = parent[step]
    if action == "delete":
        del parent[last]
    else:
        parent[last] = value
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_model_from_dict_fuzz_fails_closed(data):
    """Random edits of the bundled model files either load or raise
    ModelFileError: no other exception escapes."""
    doc = copy.deepcopy(data.draw(st.sampled_from(BUNDLED)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    try:
        model = model_from_dict(doc)
    except ModelFileError:
        return
    assert isinstance(model, Model)


def test_built_model_is_immutable_but_for_its_memo(pt3, cmon):
    model = load_model(MODELS / "pointed_sets_3_faulty.json")
    for m in (model, pt3, cmon):
        m.structure("lunit_sum", m.base_objects[-1])
        m.hom(m.base_objects[-1], m.base_objects[-1])
        mutable = {k for k, v in vars(m).items()
                   if isinstance(v, (dict, list, set, bytearray))}
        assert mutable == {"memo"}
    assert not any(hasattr(Model, name) for name in STRUCTURE_TABLES)
    assert not hasattr(Model, "i_component")
    # the memo holds derived values only: clearing it keeps the override
    model.memo.clear()
    assert model.structure("lunit_sum", PtObj(2)).graph == (0, 0)


def test_objects_are_built_once(cmon):
    assert PtObj(3) is PtObj(3)
    assert CMonObj([[0]], "T") is CMonObj(((0,),), "T")
    assert CMonObj([[0]], "T") is not CMonObj([[0]], "U")
    a, b = cmon.base_objects[1:3]
    assert CMonObj(factors=(a, b)) is cmon.prod_obj(a, b) is cmon.sum_obj(a, b)
    assert CMonObj(factors=(a, b)) is not CMonObj(factors=(b, a))
    with pytest.raises(ValueError, match="no label"):
        CMonObj(label="AB", factors=(a, b))
    # so equality and hashing are identity, computed in C
    for cls in (PtObj, CMonObj):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")), ids=lambda p: p.stem)
def test_loading_a_model_twice_gives_the_same_objects(path):
    first, second = load_model(path), load_model(path)
    assert all(x is y for x, y in
               zip(first.base_objects, second.base_objects, strict=True))


def test_objects_outlive_a_cleared_memo():
    for model in (FinPtSet((1, 2, 3)), FinCMon()):
        pairs = list(itertools.product(model.base_objects, repeat=2))
        sums = [model.sum_obj(a, b) for a, b in pairs]
        model.memo.clear()
        assert all(model.sum_obj(a, b) is s for (a, b), s in zip(pairs, sums))


def test_structure_rejects_unknown_table(pt3):
    with pytest.raises(ValueError, match="unknown structure table"):
        pt3.structure("j", PtObj(2))


def test_table_names_are_documented():
    readme = (MODELS.parent / "README.md").read_text()
    sentence = readme.split("Table names:", 1)[1].split(".", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == STRUCTURE_TABLES


def test_model_file_schema_is_optional():
    model = model_from_dict({"kind": "pointed_sets", "objects": [2]})
    assert [o.size for o in model.base_objects] == [1, 2]


def test_monoid_enumeration_counts():
    monoids = all_commutative_monoids(3)
    by_size = {}
    for m in monoids:
        by_size.setdefault(m.size, []).append(m)
    assert len(by_size[1]) == 1
    assert len(by_size[2]) == 2
    assert len(by_size[3]) == 5


def _reference_hom(dom, cod):
    """``(gens, hom graphs)`` as an exponent-vector enumerator finds them: a
    greedy generating set, each element as a product of generator powers,
    and the full pairwise homomorphism test on every candidate."""
    dt, ct = dom.table, cod.table
    gens, expr = [], {0: ()}
    while len(expr) < dom.size:
        gens.append(min(x for x in range(dom.size) if x not in expr))
        expr = {x: e + (0,) * (len(gens) - len(e)) for x, e in expr.items()}
        expr[gens[-1]] = (0,) * (len(gens) - 1) + (1,)
        changed = True
        while changed:
            changed = False
            for a, ea in list(expr.items()):
                for b, eb in list(expr.items()):
                    if dt[a][b] not in expr:
                        expr[dt[a][b]] = tuple(x + y for x, y in zip(ea, eb))
                        changed = True
    graphs = set()
    for images in itertools.product(range(cod.size), repeat=len(gens)):
        g = []
        for x in range(dom.size):
            v = 0
            for image, e in zip(images, expr[x]):
                for _ in range(e):
                    v = ct[v][image]
            g.append(v)
        if all(g[dt[a][b]] == ct[g[a]][g[b]]
               for a in range(dom.size) for b in range(dom.size)):
            graphs.add(tuple(g))
    return tuple(gens), tuple(sorted(graphs))


def test_cmon_hom_enumeration_is_sound(cmon):
    # every base pair and every product domain into a base codomain (the
    # hom-sets inclusions-jointly-epi reads), and every base pair of the
    # monoids up to size 4: each hom tuple, in order, and each generating
    # set match the reference enumerator
    base = cmon.base_objects
    m4 = FinCMon(all_commutative_monoids(4))
    cases = [(cmon, a, b) for a in base for b in base]
    cases += [(cmon, cmon.sum_obj(a, b), c) for a in base for b in base for c in base]
    cases += [(m4, a, b) for a in m4.base_objects for b in m4.base_objects]
    for model, dom, cod in cases:
        gens, graphs = _reference_hom(dom, cod)
        assert model._generators(dom)[0] == gens, dom
        assert tuple(m.graph for m in model.hom(dom, cod)) == graphs, (dom, cod)
    z2, sl2 = [o for o in cmon.base_objects if o.size == 2]
    z2_homs = cmon.hom(z2, z2)
    assert {m.graph for m in z2_homs} == {(0, 0), (0, 1)}
    # brute-force cross-check on a pair of size-3 monoids
    m3 = [o for o in cmon.base_objects if o.size == 3][:2]
    for dom, cod in itertools.product(m3, repeat=2):
        brute = {
            g for g in itertools.product(range(cod.size), repeat=dom.size)
            if g[0] == 0 and all(
                g[dom.mul(a, b)] == cod.mul(g[a], g[b])
                for a in range(dom.size) for b in range(dom.size))}
        assert {m.graph for m in cmon.hom(dom, cod)} == brute
    # and against a product target, where enumeration recurses per factor
    dom = cmon.sum_obj(z2, z2)
    cod = cmon.prod_obj(z2, sl2)
    brute = {
        g for g in itertools.product(range(cod.size), repeat=dom.size)
        if g[0] == 0 and all(
            g[dom.mul(a, b)] == cod.mul(g[a], g[b])
            for a in range(dom.size) for b in range(dom.size))}
    assert {m.graph for m in cmon.hom(dom, cod)} == brute
    assert cmon.hom_count(dom, cod) == len(brute)


@pytest.mark.parametrize("stem", ["pointed_sets_3", "commutative_monoids_3"])
@pytest.mark.parametrize("bad", ["short", "moves base", "too large", "negative"])
def test_is_morphism_rejects_bad_graphs(stem, bad):
    model = load_model(MODELS / f"{stem}.json")
    dom = next(o for o in model.base_objects if o.size == 2)
    cod = next(o for o in model.base_objects if o.size == 3)
    graph = {"short": (0,), "moves base": (1, 0), "too large": (0, 5),
             "negative": (0, -1)}[bad]
    assert model.is_morphism(Mor(dom, cod, graph)) is False


def test_i_inverse_raises_for_pointed_sets(pt3):
    with pytest.raises(NotInvertibleInModel):
        pt3.i_inverse(PtObj(2), PtObj(2))


def test_inverse_names_what_fails():
    # i at (P1, P2) overridden by the swap: a bijection whose inverse moves
    # the basepoint, so no morphism
    model = FinPtSet((1, 2), [("i", ("P1", "P2"), (1, 0))])
    p1, p2 = PtObj(1), PtObj(2)
    with pytest.raises(NotInvertibleInModel) as exc:
        model.i_inverse(p2, p2)
    assert str(exc.value) == "i at (P2, P2) is not bijective: |P3| = 3, |P4| = 4"
    with pytest.raises(NotInvertibleInModel) as exc:
        model.i_inverse(p1, p2)
    assert str(exc.value) == "the inverse graph of i at (P1, P2) is not a morphism"
    assert model.i_inverse(p1, p1) == Mor(p1, p1, (0,))
