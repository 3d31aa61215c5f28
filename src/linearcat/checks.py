"""Exhaustive law verification for finite models.

Each verifier sweeps every relevant combination of the model's bundled
objects and morphisms and returns one report per law.  A failing report
carries a counterexample with enough data (object names, morphism graphs,
both sides of the offending equation) to replay the failure by hand.

The loop invariants of the structure and transformer laws are computed once
per run, before their loops: the identity of every base object, per
structure the whiskers ``f ⊗ id_c`` and ``id_c ⊗ f`` of every base morphism
by every base object, the unitors and associators at base objects, ``i`` at
every base pair, and ``h∘g`` for every composable pair.  These tables are
transient: they are local to one ``check_structure`` or
``check_transformer`` call, indexed by positions in ``base_objects``, and
never stored in ``model.memo``.  Every loop keeps its order and its
comparisons, so each law fails at the same first counterexample.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .errors import NotInvertibleInModel
from .evaluate import _memoised, inclusion, projection
from .models import Model, Mor
from .words import PROD2, SUM2


@dataclass
class CheckReport:
    law: str
    passed: bool
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  counterexample: {self.counterexample}" if self.counterexample else ""
        return f"[{status}] {self.law}{extra}"


def _mor_info(m: Mor) -> dict:
    return {"dom": m.dom.name, "cod": m.cod.name, "graph": list(m.graph)}


def _fail(law: str, **data) -> CheckReport:
    ce = {}
    for k, v in data.items():
        ce[k] = _mor_info(v) if isinstance(v, Mor) else v
    return CheckReport(law, False, ce)


def _ok(law: str) -> CheckReport:
    return CheckReport(law, True)


def binary_inclusions(model: Model, a, b) -> tuple[Mor, Mor]:
    return (inclusion(model, SUM2, (a, b), 1), inclusion(model, SUM2, (a, b), 2))


def binary_projections(model: Model, a, b) -> tuple[Mor, Mor]:
    return (projection(model, PROD2, (a, b), 1), projection(model, PROD2, (a, b), 2))


# -- category and monoidal laws ------------------------------------------------
#
# Each law is a generator of failure reports, and ``_law`` keeps the first
# one, so every law is reported exactly once whatever fails before it.
# Their loop invariants come from the per-run tables described above.

def _law(law: str, failures) -> CheckReport:
    """The first report ``failures`` yields, or a pass of ``law``."""
    return next(failures, None) or _ok(law)


def _identities(model: Model) -> tuple[Mor, ...]:
    """The identity of every base object, in ``base_objects`` order."""
    return tuple(map(model.identity, model.base_objects))


def _indexed_homs(model: Model) -> list[tuple[Mor, int, int]]:
    """``(f, x, y)`` for every base morphism ``f``, hom-set by hom-set,
    where ``x`` and ``y`` index ``f.dom`` and ``f.cod`` in
    ``base_objects``."""
    objs = model.base_objects
    return [(f, x, y) for x, y in itertools.product(range(len(objs)), repeat=2)
            for f in model.hom(objs[x], objs[y])]


def _whiskers(model: Model, mor, ids) -> dict:
    """Per hom-set ``(x, y)`` of base-object indices, ``(f, x, y, rights,
    lefts)`` for each ``f`` in hom order, where ``rights[c]`` is
    ``mor(f, ids[c])`` and ``lefts[c]`` is ``mor(ids[c], f)``."""
    table = {(x, y): [] for x, y in itertools.product(range(len(ids)), repeat=2)}
    for f, x, y in _indexed_homs(model):
        table[x, y].append((f, x, y, tuple(mor(f, idc) for idc in ids),
                            tuple(mor(idc, f) for idc in ids)))
    return table


def _check_category(model: Model, ids) -> list[CheckReport]:
    objs = model.base_objects
    compose = model.compose

    def identity():
        for f, x, y in _indexed_homs(model):
            if compose(f, ids[x]) != f or compose(ids[y], f) != f:
                yield _fail("category/identity", f=f)

    def associativity():
        homs = {(x, y): model.hom(x, y) for x, y in itertools.product(objs, repeat=2)}
        # h∘g for every composable pair, one row of h's per g
        after = {(x, y, z): [[compose(h, g) for h in homs[y, z]] for g in homs[x, y]]
                 for x, y, z in itertools.product(objs, repeat=3)}
        for w, x, y, z in itertools.product(objs, repeat=4):
            for f in homs[w, x]:
                for g, hgs in zip(homs[x, y], after[x, y, z]):
                    gf = compose(g, f)
                    for h, hg in zip(homs[y, z], hgs):
                        if compose(h, gf) != compose(hg, f):
                            yield _fail("category/associativity", f=f, g=g, h=h)

    return [_law("category/identity", identity()),
            _law("category/associativity", associativity())]


def _check_bifunctor(model: Model, tag: str, obj, mor, ids,
                     whiskers) -> list[CheckReport]:
    # Functoriality in each slot plus the exchange law; together these imply
    # the joint interchange equation without sweeping pairs of pairs.
    objs = model.base_objects
    compose = model.compose

    def preserves_identity():
        for (a, ida), (b, idb) in itertools.product(zip(objs, ids), repeat=2):
            if mor(ida, idb) != model.identity(obj(a, b)):
                yield _fail(f"{tag}/preserves-identity", a=a.name, b=b.name)

    def functorial_each_slot():
        for x, y, z in itertools.product(range(len(objs)), repeat=3):
            for f, _, _, f_right, f_left in whiskers[x, y]:
                for g, _, _, g_right, g_left in whiskers[y, z]:
                    gf = compose(g, f)
                    for c, idc, fc, gc, cf, cg in zip(objs, ids, f_right, g_right,
                                                      f_left, g_left):
                        if mor(gf, idc) != compose(gc, fc) \
                                or mor(idc, gf) != compose(cg, cf):
                            yield _fail(f"{tag}/functorial-each-slot",
                                        f=f, g=g, c=c.name)

    def interchange():
        all_homs = list(itertools.chain.from_iterable(whiskers.values()))
        for f, fdom, fcod, f_right, f_left in all_homs:
            for g, gdom, gcod, g_right, g_left in all_homs:
                direct = mor(f, g)
                via1 = compose(g_left[fcod], f_right[gdom])
                via2 = compose(f_right[gcod], g_left[fdom])
                if direct != via1 or direct != via2:
                    yield _fail(f"{tag}/interchange", f=f, g=g)

    return [_law(f"{tag}/preserves-identity", preserves_identity()),
            _law(f"{tag}/functorial-each-slot", functorial_each_slot()),
            _law(f"{tag}/interchange", interchange())]


def _check_monoidal(model: Model, tag: str, obj, mor, unit, ids,
                    whiskers) -> list[CheckReport]:
    """The monoidal laws of the structure whose tables end in ``_{tag}``."""
    assoc, assoc_inv, lunit, lunit_inv, runit, runit_inv = (
        functools.partial(model.structure, f"{kind}_{tag}{inv}")
        for kind in ("assoc", "lunit", "runit") for inv in ("", "_inv"))
    objs = model.base_objects
    places = range(len(objs))
    identity, compose = model.identity, model.compose
    # the unitors at every base object and the associator at every base
    # triple, by indices
    lunits, runits = tuple(map(lunit, objs)), tuple(map(runit, objs))
    assocs = {(a, b, c): assoc(objs[a], objs[b], objs[c])
              for a, b, c in itertools.product(places, repeat=3)}

    def unitor_iso():
        for a, ida, lu, ru in zip(objs, ids, lunits, runits):
            lui, rui = lunit_inv(a), runit_inv(a)
            if compose(lu, lui) != ida \
                    or compose(lui, lu) != identity(obj(unit, a)) \
                    or compose(ru, rui) != ida \
                    or compose(rui, ru) != identity(obj(a, unit)):
                yield _fail(f"{tag}/unitor-iso", a=a.name, lunit=lu, runit=ru)

    def assoc_iso():
        for (a, b, c), al in assocs.items():
            ali = assoc_inv(objs[a], objs[b], objs[c])
            if compose(al, ali) != identity(al.cod) \
                    or compose(ali, al) != identity(al.dom):
                yield _fail(f"{tag}/assoc-iso",
                            a=objs[a].name, b=objs[b].name, c=objs[c].name)

    def unitor_natural():  # fails as lunit-natural or runit-natural
        id_unit = identity(unit)
        for f, x, y, _, _ in itertools.chain.from_iterable(whiskers.values()):
            if compose(lunits[y], mor(id_unit, f)) != compose(f, lunits[x]):
                yield _fail(f"{tag}/lunit-natural", f=f)
            if compose(runits[y], mor(f, id_unit)) != compose(f, runits[x]):
                yield _fail(f"{tag}/runit-natural", f=f)

    def assoc_natural():
        # slotwise naturality; joint naturality follows via functoriality
        pair_ids = {(b, c): identity(obj(objs[b], objs[c]))
                    for b, c in itertools.product(places, repeat=2)}
        for f, x, y, f_right, f_left in itertools.chain.from_iterable(
                whiskers.values()):
            for (b, c), idbc in pair_ids.items():
                idb, idc = ids[b], ids[c]
                lhs = compose(assocs[y, b, c], mor(f, idbc))
                rhs = compose(mor(f_right[b], idc), assocs[x, b, c])
                if lhs != rhs:
                    yield _fail(f"{tag}/assoc-natural", slot=1, f=f,
                                b=objs[b].name, c=objs[c].name)
                lhs = compose(assocs[b, y, c], mor(idb, f_right[c]))
                rhs = compose(mor(f_left[b], idc), assocs[b, x, c])
                if lhs != rhs:
                    yield _fail(f"{tag}/assoc-natural", slot=2, f=f,
                                b=objs[b].name, c=objs[c].name)
                lhs = compose(assocs[b, c, y], mor(idb, f_left[c]))
                rhs = compose(mor(idbc, f), assocs[b, c, x])
                if lhs != rhs:
                    yield _fail(f"{tag}/assoc-natural", slot=3, f=f,
                                b=objs[b].name, c=objs[c].name)

    def pentagon():
        for a, b, c, d in itertools.product(places, repeat=4):
            oa, ob, oc, od = objs[a], objs[b], objs[c], objs[d]
            way1 = compose(assoc(obj(oa, ob), oc, od), assoc(oa, ob, obj(oc, od)))
            way2 = compose(mor(assocs[a, b, c], ids[d]),
                           compose(assoc(oa, obj(ob, oc), od),
                                   mor(ids[a], assocs[b, c, d])))
            if way1 != way2:
                yield _fail(f"{tag}/pentagon",
                            a=oa.name, b=ob.name, c=oc.name, d=od.name)

    def triangle():
        for a, b in itertools.product(places, repeat=2):
            lhs = compose(mor(runits[a], ids[b]), assoc(objs[a], unit, objs[b]))
            if lhs != mor(ids[a], lunits[b]):
                yield _fail(f"{tag}/triangle", a=objs[a].name, b=objs[b].name)

    return [_law(f"{tag}/unitor-iso", unitor_iso()),
            _law(f"{tag}/assoc-iso", assoc_iso()),
            _law(f"{tag}/unitor-natural", unitor_natural()),
            _law(f"{tag}/assoc-natural", assoc_natural()),
            _law(f"{tag}/pentagon", pentagon()),
            _law(f"{tag}/triangle", triangle())]


def _check_initial_terminal(model: Model) -> list[CheckReport]:
    def zero_initial():
        for x in model.base_objects:
            from_zero = model.hom(model.zero_obj, x)
            if len(from_zero) != 1 or from_zero[0] != model.bang_from_zero(x):
                yield _fail("zero-initial", x=x.name,
                            homs=[list(m.graph) for m in from_zero])

    def one_terminal():
        for x in model.base_objects:
            to_one = model.hom(x, model.one_obj)
            if len(to_one) != 1 or to_one[0] != model.bang_to_one(x):
                yield _fail("one-terminal", x=x.name,
                            homs=[list(m.graph) for m in to_one])

    return [_law("zero-initial", zero_initial()),
            _law("one-terminal", one_terminal())]


def _check_joint_epi_mono(model: Model) -> list[CheckReport]:
    objs = model.base_objects

    def inclusions_jointly_epi():
        for a, b, c in itertools.product(objs, repeat=3):
            i1, i2 = binary_inclusions(model, a, b)
            seen = {}
            for u in model.hom(model.sum_obj(a, b), c):
                sig = (model.compose(u, i1).graph, model.compose(u, i2).graph)
                if sig in seen:
                    yield _fail("inclusions-jointly-epi", a=a.name, b=b.name,
                                c=c.name, u=u, v=seen[sig])
                seen[sig] = u

    def projections_jointly_mono():
        for a, b, c in itertools.product(objs, repeat=3):
            p1, p2 = binary_projections(model, a, b)
            seen = {}
            for u in model.hom(c, model.prod_obj(a, b)):
                sig = (model.compose(p1, u).graph, model.compose(p2, u).graph)
                if sig in seen:
                    yield _fail("projections-jointly-mono", a=a.name, b=b.name,
                                c=c.name, u=u, v=seen[sig])
                seen[sig] = u

    return [_law("inclusions-jointly-epi", inclusions_jointly_epi()),
            _law("projections-jointly-mono", projections_jointly_mono())]


def check_structure(model: Model) -> list[CheckReport]:
    """Verify category laws, both monoidal structures, and the unit axioms."""
    ids = _identities(model)
    # one whisker table per structure: a model may override either kernel
    sum_whiskers = _whiskers(model, model.sum_mor, ids)
    prod_whiskers = _whiskers(model, model.prod_mor, ids)
    reports: list[CheckReport] = []
    reports.extend(_check_category(model, ids))
    reports.extend(_check_bifunctor(model, "sum-bifunctor", model.sum_obj,
                                    model.sum_mor, ids, sum_whiskers))
    reports.extend(_check_bifunctor(model, "prod-bifunctor", model.prod_obj,
                                    model.prod_mor, ids, prod_whiskers))
    reports.extend(_check_monoidal(model, "sum", model.sum_obj, model.sum_mor,
                                   model.zero_obj, ids, sum_whiskers))
    reports.extend(_check_monoidal(model, "prod", model.prod_obj, model.prod_mor,
                                   model.one_obj, ids, prod_whiskers))
    reports.extend(_check_initial_terminal(model))
    reports.extend(_check_joint_epi_mono(model))
    return reports


# -- the transformer ------------------------------------------------------------

def check_transformer(model: Model) -> list[CheckReport]:
    """Naturality of ``i`` plus both unitor-compatibility diagrams, the
    naturality-derived variants, and the entrywise sufficient conditions."""
    objs = model.base_objects
    j = model.j_morphism()
    i = functools.partial(model.structure, "i")
    zero = model.zero_obj

    def i_natural():
        compose, sum_mor, prod_mor = model.compose, model.sum_mor, model.prod_mor
        # the component of i at every base pair, by indices
        iotas = {(a, b): i(objs[a], objs[b])
                 for a, b in itertools.product(range(len(objs)), repeat=2)}
        homs = _indexed_homs(model)
        for f, fdom, fcod in homs:
            for g, gdom, gcod in homs:
                lhs = compose(iotas[fcod, gcod], sum_mor(f, g))
                rhs = compose(prod_mor(f, g), iotas[fdom, gdom])
                if lhs != rhs:
                    yield _fail("i-natural", f=f, g=g, lhs=lhs, rhs=rhs)

    reports = [_law("i-natural", i_natural())]

    def diagram(law, lhs_of, rhs_table):
        for a in objs:
            lhs, rhs = lhs_of(a), model.structure(rhs_table, a)
            if lhs != rhs:
                return _fail(law, a=a.name, lhs=lhs, rhs=rhs)
        return _ok(law)

    reports.append(diagram(
        "i-compatible-runit",
        lambda a: model.compose(
            model.structure("runit_prod", a),
            model.compose(model.prod_mor(model.identity(a), j), i(a, zero))),
        "runit_sum"))
    reports.append(diagram(
        "i-compatible-lunit",
        lambda a: model.compose(
            model.structure("lunit_prod", a),
            model.compose(model.prod_mor(j, model.identity(a)), i(zero, a))),
        "lunit_sum"))
    reports.append(diagram(
        "i-compatible-runit-via-naturality",
        lambda a: model.compose(
            model.structure("runit_prod", a),
            model.compose(i(a, model.one_obj), model.sum_mor(model.identity(a), j))),
        "runit_sum"))
    reports.append(diagram(
        "i-compatible-lunit-via-naturality",
        lambda a: model.compose(
            model.structure("lunit_prod", a),
            model.compose(i(model.one_obj, a), model.sum_mor(j, model.identity(a)))),
        "lunit_sum"))
    compat_r, compat_l = reports[1:3]

    # entrywise sufficient conditions
    def first_entry():
        for a in objs:
            i1, _ = binary_inclusions(model, a, zero)
            p1, _ = binary_projections(model, a, zero)
            entry = model.compose(p1, model.compose(i(a, zero), i1))
            if entry != model.identity(a):
                yield _fail("i-first-entry-identity", a=a.name, entry=entry)

    def second_entry():
        for b in objs:
            _, i2 = binary_inclusions(model, zero, b)
            _, p2 = binary_projections(model, zero, b)
            entry = model.compose(p2, model.compose(i(zero, b), i2))
            if entry != model.identity(b):
                yield _fail("i-second-entry-identity", b=b.name, entry=entry)

    first = _law("i-first-entry-identity", first_entry())
    second = _law("i-second-entry-identity", second_entry())
    reports += [first, second]

    # the entrywise conditions must imply the compatibility diagrams here
    reports.append(CheckReport(
        "entrywise-implies-compatibility",
        (not first.passed or compat_r.passed)
        and (not second.passed or compat_l.passed),
        None,
        {"entrywise": [first.passed, second.passed],
         "compatibility": [compat_r.passed, compat_l.passed]}))
    return reports


def check_prelinear(model: Model,
                    transformer: list[CheckReport] | None = None
                    ) -> list[CheckReport]:
    """Every component of ``i`` must present as the identity matrix, and that
    must agree with the transformer laws in both directions.

    ``transformer`` takes the reports of :func:`check_transformer` when the
    caller already has them; otherwise they are computed here."""
    from .matrices import identity_matrix, matrix_of

    def identity_matrices():
        for a, b in itertools.product(model.base_objects, repeat=2):
            got = matrix_of(model, model.structure("i", a, b),
                            (SUM2, (a, b)), (PROD2, (a, b)))
            want = identity_matrix(model, (a, b), SUM2, PROD2)
            if got.entries != want.entries:
                yield _fail(
                    "i-matrix-identity", a=a.name, b=b.name,
                    got=[[list(m.graph) for m in row] for row in got.entries],
                    want=[[list(m.graph) for m in row] for row in want.entries])

    matrix_report = _law("i-matrix-identity", identity_matrices())
    if transformer is None:
        transformer = check_transformer(model)
    transformer_ok = all(r.passed for r in transformer)
    return [matrix_report, CheckReport(
        "prelinear-iff-transformer", matrix_report.passed == transformer_ok, None,
        {"identity_matrices": matrix_report.passed,
         "transformer_laws": transformer_ok})]


def is_lineariser(model: Model):
    """Whether every component of ``i`` is invertible in the model.

    Returns ``(flag, data)``: on success the inverse table indexed by object
    name pairs, on failure a witness describing one non-invertible component.
    The verdict is computed once per model, into ``model.memo["lineariser"]``,
    so every caller shares the returned table and must not mutate it.
    """
    return _memoised(model, "lineariser", _lineariser)


def _lineariser(model: Model):
    inverses = {}
    for a in model.base_objects:
        for b in model.base_objects:
            try:
                inverses[(a.name, b.name)] = model.i_inverse(a, b)
            except NotInvertibleInModel as exc:
                return False, {"witness": (a.name, b.name), "reason": str(exc)}
    return True, inverses
