"""The law layer's per-run tables against the plain loops they replace.

``checks`` reads identities, whiskers and structure components from tables
computed once per law run.  The reference below is the law layer as it was
before those tables: every identity, whisker and component computed where
it is used.  Both must give the same reports, first failures included, on
the bundled models, on seeded single-entry corruptions of every structure
table, and on models whose kernels return a wrong graph.  The laws that run
on a generating set are compared with their full loops on the same inputs.
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
    # the tables live in the run, not in the model's memo, which gains only
    # the base category's generating set and the recorded law verdicts
    assert set(model.memo) == {"composite", "generating_set", "generators", "hom",
                               "inclusion", "laws", "pair", "projection",
                               "structure"}


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


# -- laws by generators --------------------------------------------------------
#
# Associativity, functoriality in each slot and i-natural run on a verified
# generating set when the laws their inductions use have passed, and by their
# full loops otherwise.  Switching the generating set off (``_generating_set``
# returning None) forces every full loop; both runs must report alike.

def _structure_then_transformer(model):
    # the structure run records the verdicts the reduced i-natural reads
    return _rows(check_structure(model) + check_transformer(model))


def _assert_reductions_change_no_report(monkeypatch, build):
    reduced = _structure_then_transformer(build())
    with monkeypatch.context() as patched:
        patched.setattr(checks, "_generating_set", lambda model: None)
        full = _structure_then_transformer(build())
    assert reduced == full
    return {law for law, passed, _, _ in reduced if not passed}


class _MiscomposedAt(FinPtSet):
    """``compose`` reverses one composite: that of the pair ``AT``, given as
    ``(g.graph, f.graph, f.dom, g.cod)``."""

    AT = None

    def compose(self, g, f):
        m = super().compose(g, f)
        if (g.graph, f.graph, f.dom, g.cod) == self.AT:
            return Mor(m.dom, m.cod, m.graph[::-1])
        return m


class _MiscomposedAtWedge(_MiscomposedAt):
    # a composite of sum whiskers from P4 = P3 ∨ P2 to P5 = P3 ∨ P3, met by
    # the full functoriality loop only: no category law composes there
    AT = ((0, 0, 3, 4), (0, 0, 2, 3), PtObj(4), PtObj(5))


GENERATOR_FAULTS = {
    **{name: build for name, (build, _) in KERNEL_FAULTS.items()},
    "reversed-sum": lambda: _ReversedSum(all_commutative_monoids(2)),
    "miscomposed-at-wedge": lambda: _MiscomposedAtWedge((1, 2, 3)),
}


def _i_corruptions(seed=2626, count=12):
    """``count`` single-entry corruptions of ``i`` at objects of size <= 2,
    alternating the two model kinds: i-natural is the one reduced law that
    reads a structure table."""
    rng = random.Random(seed)
    sample = []
    while len(sample) < count:
        kind = sorted(BASES)[len(sample) % 2]
        pristine = BASES[kind]()
        small = [o for o in pristine.base_objects if o.size <= 2]
        a, b = rng.choice(small), rng.choice(small)
        component = pristine.structure("i", a, b)
        if component.cod.size == 1:
            continue
        graph, cod_size = list(component.graph), component.cod.size
        entry = rng.randrange(len(graph))
        graph[entry] = (graph[entry] + rng.randrange(1, cod_size)) % cod_size
        sample.append((kind, "i", (a.name, b.name), tuple(graph)))
    return sample


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.stem)
def test_reductions_change_no_report_on_model_files(monkeypatch, path):
    failed = _assert_reductions_change_no_report(monkeypatch,
                                                 lambda: load_model(path))
    assert bool(failed) == path.stem.endswith(("faulty", "_inv", "_prod", "_i"))


@pytest.mark.parametrize("kind, table, names, graph",
                         CORRUPTIONS + _i_corruptions(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_reductions_change_no_report_on_corruptions(monkeypatch, kind, table,
                                                     names, graph):
    failed = _assert_reductions_change_no_report(
        monkeypatch, lambda: BASES[kind]([(table, names, graph)]))
    assert failed
    if table == "i":
        # the reduced i-natural found the failure, and the full loop named it
        assert "i-natural" in failed


@pytest.mark.parametrize("name", sorted(GENERATOR_FAULTS))
def test_reductions_change_no_report_on_faulty_kernels(monkeypatch, name):
    failed = _assert_reductions_change_no_report(monkeypatch, GENERATOR_FAULTS[name])
    assert failed
    if name == "miscomposed-swap":  # at base objects
        assert "category/associativity" in failed
    if name == "miscomposed-at-wedge":
        assert failed == {"sum-bifunctor/functorial-each-slot"}


def test_functoriality_by_generators_needs_lawful_composition(monkeypatch):
    # The category laws pass at base objects, but composition fails at P5:
    # reduced functoriality, were it let run, would pass.
    model = _MiscomposedAtWedge((1, 2, 3))
    assert not checks._composes_graphs(model)
    monkeypatch.setattr(checks, "_composes_graphs", lambda model: True)
    assert all(r.passed for r in check_structure(_MiscomposedAtWedge((1, 2, 3))))


def test_composes_graphs_only_with_model_composition():
    assert checks._composes_graphs(FinPtSet((1, 2, 3)))
    assert checks._composes_graphs(load_model(ROOT / "models" / "commutative_monoids_3.json"))
    assert not checks._composes_graphs(_MiscomposedSwap((1, 2, 3)))
    instance = FinPtSet((1, 2, 3))
    instance.compose = lambda g, f: Model.compose(instance, g, f)
    assert not checks._composes_graphs(instance)


def _closure(model, gens):
    """Every composite of the generators, identities included, computed
    plainly: a fixpoint over all composable pairs."""
    objs = model.base_objects
    reached = set(checks._identities(model))
    reached |= {model.hom(objs[x], objs[y])[p] for (x, y), ps in gens.items()
                for p in ps}
    while True:
        more = {model.compose(g, f) for f in reached for g in reached
                if f.cod is g.dom} - reached
        if not more:
            return reached
        reached |= more


GENERATED_MODELS = {
    "pointed-sets-file": lambda: load_model(ROOT / "models" / "pointed_sets_3.json"),
    "monoids-file": lambda: load_model(ROOT / "models" / "commutative_monoids_3.json"),
    "P1..P4": lambda: FinPtSet((1, 2, 3, 4)),
    "cmon2": lambda: FinCMon(all_commutative_monoids(2)),
}


@pytest.mark.parametrize("name", sorted(GENERATED_MODELS))
def test_generating_set_closure_is_every_hom_set(name):
    model = GENERATED_MODELS[name]()
    gens = checks._generating_set(model)
    assert gens is checks._generating_set(model)  # once per model
    objs = model.base_objects
    assert set(gens) == set(itertools.product(range(len(objs)), repeat=2))
    everything = {m for a, b in itertools.product(objs, repeat=2)
                  for m in model.hom(a, b)}
    assert _closure(model, gens) == everything
    # greedy in hom order: no generator is a composite of those before it
    chosen = {}
    for (x, y), ps in gens.items():
        for p in ps:
            assert model.hom(objs[x], objs[y])[p] not in _closure(model, chosen)
            chosen.setdefault((x, y), []).append(p)
    assert sum(map(len, gens.values())) < len(everything)


class _ComposesOutOfHom(FinPtSet):
    """Composites from P3 to P2 send every point to 1: not pointed maps."""

    def compose(self, g, f):
        m = super().compose(g, f)
        return Mor(m.dom, m.cod, (1, 1, 1)) if (f.dom, g.cod) == (P3, P2) else m


def test_generating_set_is_none_when_closure_leaves_the_hom_sets(monkeypatch):
    model = _ComposesOutOfHom((1, 2, 3))
    assert checks._generating_set(model) is None
    assert "generating_set" in model.memo  # None is kept, not recomputed
    failed = _assert_reductions_change_no_report(
        monkeypatch, lambda: _ComposesOutOfHom((1, 2, 3)))
    assert "category/identity" in failed


def _count_kernels(monkeypatch, counts, cls):
    for name in ("sum_mor", "prod_mor"):
        _counting(monkeypatch, counts, cls, name)


@pytest.mark.parametrize("path", ["pointed_sets_3.json", "commutative_monoids_3.json"])
def test_i_natural_reads_recorded_verdicts(monkeypatch, path):
    counts = {"sum_mor": 0, "prod_mor": 0}
    model = load_model(ROOT / "models" / path)
    _count_kernels(monkeypatch, counts, type(model))
    homs = len(checks._indexed_homs(model))
    gens = sum(map(len, checks._generating_set(model).values()))
    squares = 2 * gens * len(model.base_objects)

    def transformer_kernels():
        counts.update(sum_mor=0, prod_mor=0)
        assert check_transformer(model)[0].passed
        return counts["sum_mor"], counts["prod_mor"]

    # one kernel call each per base object in two compatibility diagrams,
    # and per pair of morphisms in the full i-natural loop
    diagrams = 2 * len(model.base_objects)
    full = (homs ** 2 + diagrams,) * 2
    # a fresh model has no verdicts (its first run also fills memos)
    assert min(transformer_kernels()) >= full[0]
    assert transformer_kernels() == full
    assert check_structure(model) and model.memo["laws"]
    reduced = transformer_kernels()
    assert reduced == (squares + diagrams,) * 2
    assert reduced[0] < full[0]
    # a recorded failure, or a verdict gone, takes the full loop again
    for law in checks._I_NATURAL_RELIES_ON:
        model.memo["laws"][law] = False
        assert transformer_kernels() == full
        del model.memo["laws"][law]
        assert transformer_kernels() == full
        model.memo["laws"][law] = True
    assert transformer_kernels() == reduced


def test_i_natural_takes_full_loop_when_interchange_failed(monkeypatch):
    counts = {"sum_mor": 0, "prod_mor": 0}
    _count_kernels(monkeypatch, counts, FinPtSet)
    model = _ZeroedWedge((1, 2, 3))
    structure = {r.law: r.passed for r in check_structure(model)}
    assert not structure["sum-bifunctor/interchange"]
    counts.update(sum_mor=0, prod_mor=0)
    transformer = check_transformer(model)
    # the full loop meets its first failure at f = (0, 2, 1) on P3, late in
    # hom order: far more kernel calls than the 60 slot-wise squares
    gens = sum(map(len, checks._generating_set(model).values()))
    assert gens * 2 * len(model.base_objects) == 60
    assert counts["sum_mor"] > 300 and counts["prod_mor"] > 300, counts
    assert _rows(transformer[:1]) == _rows([_ref_i_natural(_ZeroedWedge((1, 2, 3)))])


def test_reductions_are_taken_on_lawful_models(monkeypatch):
    taken = []
    inner = checks._law_by_generators

    def spy(law, reduced, full):
        taken.append((law, reduced is not None))
        return inner(law, reduced, full)

    monkeypatch.setattr(checks, "_law_by_generators", spy)
    for model in (FinPtSet((1, 2, 3)), FinCMon(all_commutative_monoids(2))):
        taken.clear()
        check_structure(model)
        check_transformer(model)
        laws = ["category/associativity", "sum-bifunctor/functorial-each-slot"] \
            + ([] if model.one_structure else ["prod-bifunctor/functorial-each-slot"]) \
            + ["i-natural"]
        assert taken == [(law, True) for law in laws]
