"""The law layer's per-run tables against the plain loops they replace.

``checks`` reads identities, whiskers and structure components from tables
computed once per law run.  The reference below is the law layer as it was
before those tables: every identity, whisker and component computed where
it is used.  Both must give the same reports, first failures included, on
the bundled models, on seeded single-entry corruptions of every structure
table, and on models whose kernels return a wrong graph.
"""

import functools
import itertools
import random
from pathlib import Path

import pytest

from linearcat import checks
from linearcat.checks import _fail, _law, check_structure, check_transformer
from linearcat.models import (STRUCTURE_TABLES, FinCMon, FinPtSet, Model, Mor,
                              PtObj, all_commutative_monoids, load_model)

ROOT = Path(__file__).resolve().parent.parent


# -- the reference: each identity, whisker and component where it is used ----

def _all_morphisms(model):
    for x in model.base_objects:
        for y in model.base_objects:
            yield from model.hom(x, y)


def _ref_category(model):
    compose = model.compose

    def identity():
        for f in _all_morphisms(model):
            if compose(f, model.identity(f.dom)) != f \
                    or compose(model.identity(f.cod), f) != f:
                yield _fail("category/identity", f=f)

    def associativity():
        for w, x, y, z in itertools.product(model.base_objects, repeat=4):
            for f in model.hom(w, x):
                for g in model.hom(x, y):
                    gf = compose(g, f)
                    for h in model.hom(y, z):
                        if compose(h, gf) != compose(compose(h, g), f):
                            yield _fail("category/associativity", f=f, g=g, h=h)

    return [_law("category/identity", identity()),
            _law("category/associativity", associativity())]


def _ref_bifunctor(model, tag, obj, mor):
    objs = model.base_objects
    compose = model.compose

    def preserves_identity():
        for a, b in itertools.product(objs, repeat=2):
            if mor(model.identity(a), model.identity(b)) != model.identity(obj(a, b)):
                yield _fail(f"{tag}/preserves-identity", a=a.name, b=b.name)

    def functorial_each_slot():
        for x, y, z in itertools.product(objs, repeat=3):
            for f in model.hom(x, y):
                for g in model.hom(y, z):
                    gf = compose(g, f)
                    for c in objs:
                        idc = model.identity(c)
                        if mor(gf, idc) != compose(mor(g, idc), mor(f, idc)) \
                                or mor(idc, gf) != compose(mor(idc, g), mor(idc, f)):
                            yield _fail(f"{tag}/functorial-each-slot",
                                        f=f, g=g, c=c.name)

    def interchange():
        all_homs = list(_all_morphisms(model))
        for f, g in itertools.product(all_homs, repeat=2):
            direct = mor(f, g)
            via1 = compose(mor(model.identity(f.cod), g),
                           mor(f, model.identity(g.dom)))
            via2 = compose(mor(f, model.identity(g.cod)),
                           mor(model.identity(f.dom), g))
            if direct != via1 or direct != via2:
                yield _fail(f"{tag}/interchange", f=f, g=g)

    return [_law(f"{tag}/preserves-identity", preserves_identity()),
            _law(f"{tag}/functorial-each-slot", functorial_each_slot()),
            _law(f"{tag}/interchange", interchange())]


def _ref_monoidal(model, tag, obj, mor, unit):
    assoc, assoc_inv, lunit, lunit_inv, runit, runit_inv = (
        functools.partial(model.structure, f"{kind}_{tag}{inv}")
        for kind in ("assoc", "lunit", "runit") for inv in ("", "_inv"))
    objs = model.base_objects
    all_homs = list(_all_morphisms(model))
    identity, compose = model.identity, model.compose

    def unitor_iso():
        for a in objs:
            lu, lui = lunit(a), lunit_inv(a)
            ru, rui = runit(a), runit_inv(a)
            if compose(lu, lui) != identity(a) \
                    or compose(lui, lu) != identity(obj(unit, a)) \
                    or compose(ru, rui) != identity(a) \
                    or compose(rui, ru) != identity(obj(a, unit)):
                yield _fail(f"{tag}/unitor-iso", a=a.name, lunit=lu, runit=ru)

    def assoc_iso():
        for a, b, c in itertools.product(objs, repeat=3):
            al, ali = assoc(a, b, c), assoc_inv(a, b, c)
            if compose(al, ali) != identity(al.cod) \
                    or compose(ali, al) != identity(al.dom):
                yield _fail(f"{tag}/assoc-iso", a=a.name, b=b.name, c=c.name)

    def unitor_natural():
        for f in all_homs:
            if compose(lunit(f.cod), mor(identity(unit), f)) \
                    != compose(f, lunit(f.dom)):
                yield _fail(f"{tag}/lunit-natural", f=f)
            if compose(runit(f.cod), mor(f, identity(unit))) \
                    != compose(f, runit(f.dom)):
                yield _fail(f"{tag}/runit-natural", f=f)

    def assoc_natural():
        for f in all_homs:
            for b, c in itertools.product(objs, repeat=2):
                idb, idc = identity(b), identity(c)
                lhs = compose(assoc(f.cod, b, c), mor(f, identity(obj(b, c))))
                rhs = compose(mor(mor(f, idb), idc), assoc(f.dom, b, c))
                if lhs != rhs:
                    yield _fail(f"{tag}/assoc-natural", slot=1, f=f, b=b.name, c=c.name)
                lhs = compose(assoc(b, f.cod, c), mor(idb, mor(f, idc)))
                rhs = compose(mor(mor(idb, f), idc), assoc(b, f.dom, c))
                if lhs != rhs:
                    yield _fail(f"{tag}/assoc-natural", slot=2, f=f, b=b.name, c=c.name)
                lhs = compose(assoc(b, c, f.cod), mor(idb, mor(idc, f)))
                rhs = compose(mor(identity(obj(b, c)), f), assoc(b, c, f.dom))
                if lhs != rhs:
                    yield _fail(f"{tag}/assoc-natural", slot=3, f=f, b=b.name, c=c.name)

    def pentagon():
        for a, b, c, d in itertools.product(objs, repeat=4):
            way1 = compose(assoc(obj(a, b), c, d), assoc(a, b, obj(c, d)))
            way2 = compose(mor(assoc(a, b, c), identity(d)),
                           compose(assoc(a, obj(b, c), d),
                                   mor(identity(a), assoc(b, c, d))))
            if way1 != way2:
                yield _fail(f"{tag}/pentagon", a=a.name, b=b.name, c=c.name, d=d.name)

    def triangle():
        for a, b in itertools.product(objs, repeat=2):
            lhs = compose(mor(runit(a), identity(b)), assoc(a, unit, b))
            if lhs != mor(identity(a), lunit(b)):
                yield _fail(f"{tag}/triangle", a=a.name, b=b.name)

    return [_law(f"{tag}/unitor-iso", unitor_iso()),
            _law(f"{tag}/assoc-iso", assoc_iso()),
            _law(f"{tag}/unitor-natural", unitor_natural()),
            _law(f"{tag}/assoc-natural", assoc_natural()),
            _law(f"{tag}/pentagon", pentagon()),
            _law(f"{tag}/triangle", triangle())]


def _ref_i_natural(model):
    all_homs = list(_all_morphisms(model))
    i = functools.partial(model.structure, "i")

    def i_natural():
        for f, g in itertools.product(all_homs, repeat=2):
            lhs = model.compose(i(f.cod, g.cod), model.sum_mor(f, g))
            rhs = model.compose(model.prod_mor(f, g), i(f.dom, g.dom))
            if lhs != rhs:
                yield _fail("i-natural", f=f, g=g, lhs=lhs, rhs=rhs)

    return _law("i-natural", i_natural())


def _reference(model):
    """The structure reports and the i-natural report, computed plainly."""
    return (_ref_category(model)
            + _ref_bifunctor(model, "sum-bifunctor", model.sum_obj, model.sum_mor)
            + _ref_bifunctor(model, "prod-bifunctor", model.prod_obj, model.prod_mor)
            + _ref_monoidal(model, "sum", model.sum_obj, model.sum_mor, model.zero_obj)
            + _ref_monoidal(model, "prod", model.prod_obj, model.prod_mor,
                            model.one_obj)
            + checks._check_initial_terminal(model)
            + checks._check_joint_epi_mono(model)
            + [_ref_i_natural(model)])


def _tabled(model):
    transformer = check_transformer(model)
    assert transformer[0].law == "i-natural"
    return check_structure(model) + transformer[:1]


def _rows(reports):
    return [(r.law, r.passed, r.counterexample, r.details) for r in reports]


def _assert_same_reports(build):
    """The tabled reports of a fresh model, after checking them against the
    reference on another: neither side reads the other's memo."""
    tabled = _tabled(build())
    assert _rows(tabled) == _rows(_reference(build()))
    return tabled


# -- the bundled models and the override fixtures -------------------------------

# the bundled models, the faulty one among them, and the override fixtures
MODEL_FILES = sorted(ROOT.glob("models/*.json")) + sorted(ROOT.glob("tests/models/*.json"))


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.stem)
def test_tables_match_reference_on_model_files(path):
    _assert_same_reports(lambda: load_model(path))


# -- seeded single-entry corruptions of every structure table ------------------

BASES = {"pointed_sets": lambda overrides=(): FinPtSet((1, 2, 3), overrides),
         "commutative_monoids": lambda overrides=():
             FinCMon(all_commutative_monoids(2), overrides)}


def _corruptions(seed=1616, per_table=3):
    """``per_table`` single-entry corruptions of each structure table, at
    objects of size <= 2, alternating the two model kinds."""
    rng = random.Random(seed)
    sample = []
    for table in STRUCTURE_TABLES:
        arity = 1 if "unit" in table else 2 if table == "i" else 3
        for _ in range(per_table):
            kind = sorted(BASES)[len(sample) % 2]
            pristine = BASES[kind]()
            small = [o for o in pristine.base_objects if o.size <= 2]
            objects = tuple(rng.choice(small) for _ in range(arity))
            if pristine.structure(table, *objects).cod.size == 1:
                # a one-point codomain has nothing to corrupt
                objects = (max(small, key=lambda o: o.size),) * arity
            component = pristine.structure(table, *objects)
            graph, cod_size = list(component.graph), component.cod.size
            entry = rng.randrange(len(graph))
            graph[entry] = (graph[entry] + rng.randrange(1, cod_size)) % cod_size
            sample.append((kind, table, tuple(o.name for o in objects), tuple(graph)))
    return sample


CORRUPTIONS = _corruptions()


def test_corruption_sample_covers_every_table():
    assert len(CORRUPTIONS) == 3 * len(STRUCTURE_TABLES)
    assert {table for _, table, _, _ in CORRUPTIONS} == set(STRUCTURE_TABLES)
    assert {kind for kind, _, _, _ in CORRUPTIONS} == set(BASES)


@pytest.mark.parametrize("kind, table, names, graph", CORRUPTIONS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_tables_match_reference_on_corruptions(kind, table, names, graph):
    reports = _assert_same_reports(lambda: BASES[kind]([(table, names, graph)]))
    assert not all(r.passed for r in reports)


# -- kernels that return a wrong graph -----------------------------------------

P2, P3 = PtObj(2), PtObj(3)


class _ZeroedWedge(FinPtSet):
    """The wedge of f = (0, 2, 1) on P3 with any g on P2 is the zero map."""

    def sum_mor(self, f, g):
        m = super().sum_mor(f, g)
        if f.graph == (0, 2, 1) and f.dom == P3 and g.dom == P2:
            return Mor(m.dom, m.cod, (0,) * len(m.graph))
        return m


class _ReversedProduct(FinCMon):
    """``prod_mor`` alone reverses its graph when ``f`` is the graph (0, 0)."""

    def prod_mor(self, f, g):
        m = super().prod_mor(f, g)
        return Mor(m.dom, m.cod, m.graph[::-1]) if f.graph == (0, 0) else m


class _MiscomposedSwap(FinPtSet):
    """The swap of P3 after (0, 0, 1) composes to (0, 0, 1), not (0, 0, 2)."""

    def compose(self, g, f):
        m = super().compose(g, f)
        if g.graph == (0, 2, 1) and f.graph == (0, 0, 1) and g.dom == P3:
            return Mor(m.dom, m.cod, (0, 0, 1))
        return m


KERNEL_FAULTS = {
    "zeroed-wedge": (lambda: _ZeroedWedge((1, 2, 3)), "sum"),
    "reversed-product": (lambda: _ReversedProduct(all_commutative_monoids(2)),
                         "prod"),
    "miscomposed-swap": (lambda: _MiscomposedSwap((1, 2, 3)), None),
}


@pytest.mark.parametrize("name", sorted(KERNEL_FAULTS))
def test_tables_match_reference_on_faulty_kernels(name):
    build, tag = KERNEL_FAULTS[name]
    failed = {r.law for r in _assert_same_reports(build) if not r.passed}
    if tag is None:
        assert "category/associativity" in failed
    else:
        assert {f"{tag}-bifunctor/functorial-each-slot",
                f"{tag}-bifunctor/interchange",
                f"{tag}/assoc-natural", "i-natural"} <= failed


# -- work counts ---------------------------------------------------------------

def _counting(monkeypatch, counts, cls, name):
    inner = getattr(cls, name)

    def counted(self, *args):
        counts[name] += 1
        return inner(self, *args)

    monkeypatch.setattr(cls, name, counted)


def test_law_runs_read_their_tables(monkeypatch):
    counts = dict.fromkeys(("sum_mor", "prod_mor", "identity", "structure"), 0)
    for name in ("sum_mor", "prod_mor"):
        _counting(monkeypatch, counts, FinCMon, name)
    for name in ("identity", "structure"):
        _counting(monkeypatch, counts, Model, name)
    model = FinCMon(all_commutative_monoids(2))
    check_structure(model)
    # 5,124 kernel, 2,654 identity and 2,308 structure calls without tables
    assert counts["sum_mor"] + counts["prod_mor"] <= 3000, counts
    assert counts["identity"] <= 1000, counts
    assert counts["structure"] <= 1000, counts
    counts["structure"] = 0
    check_transformer(model)
    assert counts["structure"] <= 100, counts  # 284 without the i table
    # the tables live in the run, not in the model's memo
    assert set(model.memo) == {"composite", "generators", "hom", "inclusion",
                               "pair", "projection", "structure"}


# -- one structure: the product laws as the sum laws renamed --------------------

class _ReversedSum(FinCMon):
    """``sum_mor`` alone reverses its graph when ``f`` is the graph (0, 0)."""

    def sum_mor(self, f, g):
        m = super().sum_mor(f, g)
        return Mor(m.dom, m.cod, m.graph[::-1]) if f.graph == (0, 0) else m


def _zero_assoc(*tables):
    """The monoids of size <= 2 with the associator at the largest one's
    cube replaced by the zero map in each of ``tables``."""
    def build():
        objs = all_commutative_monoids(2)
        big = max(objs, key=lambda o: o.size)
        zeros = (0,) * big.size ** 3
        return FinCMon(objs, [(t, (big.name,) * 3, zeros) for t in tables])
    return build


ONE_STRUCTURE = {
    "cmon": (FinCMon, True),
    "monoids-file": (lambda: load_model(ROOT / "models" / "commutative_monoids_3.json"),
                     True),
    "twin-zero-assoc": (_zero_assoc("assoc_sum", "assoc_prod"), True),
    "ptset": (lambda: FinPtSet((1, 2, 3)), False),
    "runit-prod-inv": (lambda: load_model(
        ROOT / "tests" / "models" / "commutative_monoids_3_zero_runit_prod_inv.json"),
        False),
    "one-twin-zero-assoc": (_zero_assoc("assoc_sum"), False),
    "reversed-product": (lambda: _ReversedProduct(all_commutative_monoids(2)), False),
    "reversed-sum": (lambda: _ReversedSum(all_commutative_monoids(2)), False),
}


@pytest.mark.parametrize("name", sorted(ONE_STRUCTURE))
def test_one_structure_flag(name):
    build, flag = ONE_STRUCTURE[name]
    assert build().one_structure is flag


@pytest.mark.parametrize("name", sorted(n for n, (_, flag) in ONE_STRUCTURE.items()
                                        if flag))
def test_shared_prod_reports_equal_direct_evaluation(name):
    build, _ = ONE_STRUCTURE[name]
    shared = [r for r in check_structure(build()) if r.law.startswith("prod")]
    model = build()
    ids = checks._identities(model)
    whiskers = checks._whiskers(model, model.prod_mor, ids)
    direct = checks._check_bifunctor(model, "prod-bifunctor", model.prod_obj,
                                     model.prod_mor, ids, whiskers) \
        + checks._check_monoidal(model, "prod", model.prod_obj, model.prod_mor,
                                 model.one_obj, ids, whiskers)
    assert _rows(shared) == _rows(direct)
    assert all(r.passed for r in shared) == (name != "twin-zero-assoc")


@pytest.mark.parametrize("name", ["one-twin-zero-assoc", "reversed-sum",
                                  "twin-zero-assoc"])
def test_tables_match_reference_with_and_without_one_structure(name):
    build, _ = ONE_STRUCTURE[name]
    failed = {r.law for r in _assert_same_reports(build) if not r.passed}
    if name == "reversed-sum":
        # the product laws were evaluated, not copied from the failing sums
        assert "sum-bifunctor/interchange" in failed
        assert not any(law.startswith("prod") for law in failed)
    else:
        assert "sum/assoc-iso" in failed
        assert ("prod/assoc-iso" in failed) == (name == "twin-zero-assoc")


def test_one_structure_halves_the_law_work(monkeypatch):
    counts = {"kernel": 0}
    inner = FinCMon.sum_mor
    assert inner is FinCMon.prod_mor

    def counted(self, f, g):
        counts["kernel"] += 1
        return inner(self, f, g)

    # one wrapper under both names, so the model stays one structure
    monkeypatch.setattr(FinCMon, "sum_mor", counted)
    monkeypatch.setattr(FinCMon, "prod_mor", counted)
    model = load_model(ROOT / "models" / "commutative_monoids_3.json")
    assert model.one_structure
    check_structure(model)
    assert counts["kernel"] <= 100_000, counts  # 182,016 evaluated per structure
    # components away from base objects are computed on each call, never kept
    for model in (FinCMon(), FinPtSet((1, 2, 3))):
        check_structure(model)
        check_transformer(model)
        base = set(model.base_objects)
        assert model.memo["structure"]
        assert all(set(objs) <= base for _, objs in model.memo["structure"])
