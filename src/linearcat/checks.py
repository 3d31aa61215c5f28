"""Exhaustive law verification for finite models.

Each verifier sweeps every relevant combination of the model's bundled
objects and morphisms and returns one report per law.  A failing report
carries a counterexample with enough data (object names, morphism graphs,
both sides of the offending equation) to replay the failure by hand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import NotInvertibleInModel
from .evaluate import inclusion, projection
from .models import Model, Mor
from .words import HOLE, Prod, Sum

_INCLUSION_WORD = Sum(HOLE, HOLE)


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


def _all_morphisms(model: Model):
    for x in model.base_objects:
        for y in model.base_objects:
            yield from model.hom(x, y)


def binary_inclusions(model: Model, a, b) -> tuple[Mor, Mor]:
    return (inclusion(model, _INCLUSION_WORD, (a, b), 1),
            inclusion(model, _INCLUSION_WORD, (a, b), 2))


def binary_projections(model: Model, a, b) -> tuple[Mor, Mor]:
    w = Prod(HOLE, HOLE)
    return (projection(model, w, (a, b), 1), projection(model, w, (a, b), 2))


# -- category and monoidal laws ------------------------------------------------

def _check_category(model: Model):
    for x in model.base_objects:
        for y in model.base_objects:
            for f in model.hom(x, y):
                if model.compose(f, model.identity(x)) != f \
                        or model.compose(model.identity(y), f) != f:
                    yield _fail("category/identity", f=f)
                    break
    yield _ok("category/identity")
    objs = model.base_objects
    for w, x, y, z in itertools.product(objs, repeat=4):
        for f in model.hom(w, x):
            for g in model.hom(x, y):
                gf = model.compose(g, f)
                for h in model.hom(y, z):
                    if model.compose(h, gf) != model.compose(model.compose(h, g), f):
                        yield _fail("category/associativity", f=f, g=g, h=h)
                        return
    yield _ok("category/associativity")


def _check_bifunctor(model: Model, tag: str, obj, mor):
    # Functoriality in each slot plus the exchange law; together these imply
    # the joint interchange equation without sweeping pairs of pairs.
    for a in model.base_objects:
        for b in model.base_objects:
            ida, idb = model.identity(a), model.identity(b)
            if mor(ida, idb) != model.identity(obj(a, b)):
                yield _fail(f"{tag}/preserves-identity", a=a.name, b=b.name)
                return
    yield _ok(f"{tag}/preserves-identity")
    pairs = [(f, g)
             for x, y, z in itertools.product(model.base_objects, repeat=3)
             for f in model.hom(x, y) for g in model.hom(y, z)]
    for f, g in pairs:
        gf = model.compose(g, f)
        for c in model.base_objects:
            idc = model.identity(c)
            if mor(gf, idc) != model.compose(mor(g, idc), mor(f, idc)) \
                    or mor(idc, gf) != model.compose(mor(idc, g), mor(idc, f)):
                yield _fail(f"{tag}/functorial-each-slot", f=f, g=g, c=c.name)
                return
    yield _ok(f"{tag}/functorial-each-slot")
    all_homs = [f for x, y in itertools.product(model.base_objects, repeat=2)
                for f in model.hom(x, y)]
    for f in all_homs:
        for g in all_homs:
            direct = mor(f, g)
            via1 = model.compose(mor(model.identity(f.cod), g),
                                 mor(f, model.identity(g.dom)))
            via2 = model.compose(mor(f, model.identity(g.cod)),
                                 mor(model.identity(f.dom), g))
            if direct != via1 or direct != via2:
                yield _fail(f"{tag}/interchange", f=f, g=g)
                return
    yield _ok(f"{tag}/interchange")


def _check_monoidal(model: Model, tag: str, obj, mor, unit, assoc, assoc_inv,
                    lunit, lunit_inv, runit, runit_inv):
    objs = model.base_objects
    for a in objs:
        lu, lui = lunit(a), lunit_inv(a)
        ru, rui = runit(a), runit_inv(a)
        ok = (model.compose(lu, lui) == model.identity(a)
              and model.compose(lui, lu) == model.identity(obj(unit, a))
              and model.compose(ru, rui) == model.identity(a)
              and model.compose(rui, ru) == model.identity(obj(a, unit)))
        if not ok:
            yield _fail(f"{tag}/unitor-iso", a=a.name, lunit=lu, runit=ru)
            break
    else:
        yield _ok(f"{tag}/unitor-iso")
    for a, b, c in itertools.product(objs, repeat=3):
        al, ali = assoc(a, b, c), assoc_inv(a, b, c)
        if model.compose(al, ali) != model.identity(al.cod) \
                or model.compose(ali, al) != model.identity(al.dom):
            yield _fail(f"{tag}/assoc-iso", a=a.name, b=b.name, c=c.name)
            break
    else:
        yield _ok(f"{tag}/assoc-iso")
    # naturality
    all_homs = [f for x, y in itertools.product(objs, repeat=2)
                for f in model.hom(x, y)]
    for f in all_homs:
        lu_nat = model.compose(lunit(f.cod), mor(model.identity(unit), f))
        if lu_nat != model.compose(f, lunit(f.dom)):
            yield _fail(f"{tag}/lunit-natural", f=f)
            break
        ru_nat = model.compose(runit(f.cod), mor(f, model.identity(unit)))
        if ru_nat != model.compose(f, runit(f.dom)):
            yield _fail(f"{tag}/runit-natural", f=f)
            break
    else:
        yield _ok(f"{tag}/unitor-natural")
    # slotwise naturality; joint naturality follows via functoriality
    for f in all_homs:
        for b, c in itertools.product(objs, repeat=2):
            idb, idcc = model.identity(b), model.identity(c)
            bc_id = model.identity(obj(b, c))
            lhs = model.compose(assoc(f.cod, b, c), mor(f, bc_id))
            rhs = model.compose(mor(mor(f, idb), idcc), assoc(f.dom, b, c))
            if lhs != rhs:
                yield _fail(f"{tag}/assoc-natural", slot=1, f=f, b=b.name, c=c.name)
                return
            lhs = model.compose(assoc(b, f.cod, c), mor(idb, mor(f, idcc)))
            rhs = model.compose(mor(mor(idb, f), idcc), assoc(b, f.dom, c))
            if lhs != rhs:
                yield _fail(f"{tag}/assoc-natural", slot=2, f=f, b=b.name, c=c.name)
                return
            lhs = model.compose(assoc(b, c, f.cod), mor(idb, mor(idcc, f)))
            rhs = model.compose(mor(model.identity(obj(b, c)), f), assoc(b, c, f.dom))
            if lhs != rhs:
                yield _fail(f"{tag}/assoc-natural", slot=3, f=f, b=b.name, c=c.name)
                return
    yield _ok(f"{tag}/assoc-natural")
    for a, b, c, d in itertools.product(objs, repeat=4):
        way1 = model.compose(assoc(obj(a, b), c, d), assoc(a, b, obj(c, d)))
        way2 = model.compose(
            mor(assoc(a, b, c), model.identity(d)),
            model.compose(assoc(a, obj(b, c), d),
                          mor(model.identity(a), assoc(b, c, d))))
        if way1 != way2:
            yield _fail(f"{tag}/pentagon", a=a.name, b=b.name, c=c.name, d=d.name)
            return
    yield _ok(f"{tag}/pentagon")
    for a, b in itertools.product(objs, repeat=2):
        lhs = model.compose(mor(runit(a), model.identity(b)), assoc(a, unit, b))
        rhs = mor(model.identity(a), lunit(b))
        if lhs != rhs:
            yield _fail(f"{tag}/triangle", a=a.name, b=b.name)
            return
    yield _ok(f"{tag}/triangle")


def _check_initial_terminal(model: Model):
    for x in model.base_objects:
        from_zero = model.hom(model.zero_obj, x)
        if len(from_zero) != 1 or from_zero[0] != model.bang_from_zero(x):
            yield _fail("zero-initial", x=x.name,
                        homs=[list(m.graph) for m in from_zero])
            break
    else:
        yield _ok("zero-initial")
    for x in model.base_objects:
        to_one = model.hom(x, model.one_obj)
        if len(to_one) != 1 or to_one[0] != model.bang_to_one(x):
            yield _fail("one-terminal", x=x.name,
                        homs=[list(m.graph) for m in to_one])
            break
    else:
        yield _ok("one-terminal")


def _check_joint_epi_mono(model: Model):
    objs = model.base_objects
    for a, b, c in itertools.product(objs, repeat=3):
        i1, i2 = binary_inclusions(model, a, b)
        seen = {}
        for u in model.hom(model.sum_obj(a, b), c):
            sig = (model.compose(u, i1).graph, model.compose(u, i2).graph)
            if sig in seen:
                yield _fail("inclusions-jointly-epi", a=a.name, b=b.name,
                            c=c.name, u=u, v=seen[sig])
                return
            seen[sig] = u
    yield _ok("inclusions-jointly-epi")
    for a, b, c in itertools.product(objs, repeat=3):
        p1, p2 = binary_projections(model, a, b)
        seen = {}
        for u in model.hom(c, model.prod_obj(a, b)):
            sig = (model.compose(p1, u).graph, model.compose(p2, u).graph)
            if sig in seen:
                yield _fail("projections-jointly-mono", a=a.name, b=b.name,
                            c=c.name, u=u, v=seen[sig])
                return
            seen[sig] = u
    yield _ok("projections-jointly-mono")


def check_structure(model: Model) -> list[CheckReport]:
    """Verify category laws, both monoidal structures, and the unit axioms."""
    reports: list[CheckReport] = []
    reports.extend(_check_category(model))
    reports.extend(_check_bifunctor(model, "sum-bifunctor",
                                    model.sum_obj, model.sum_mor))
    reports.extend(_check_bifunctor(model, "prod-bifunctor",
                                    model.prod_obj, model.prod_mor))
    reports.extend(_check_monoidal(
        model, "sum", model.sum_obj, model.sum_mor, model.zero_obj,
        model.assoc_sum, model.assoc_sum_inv, model.lunit_sum,
        model.lunit_sum_inv, model.runit_sum, model.runit_sum_inv))
    reports.extend(_check_monoidal(
        model, "prod", model.prod_obj, model.prod_mor, model.one_obj,
        model.assoc_prod, model.assoc_prod_inv, model.lunit_prod,
        model.lunit_prod_inv, model.runit_prod, model.runit_prod_inv))
    reports.extend(_check_initial_terminal(model))
    reports.extend(_check_joint_epi_mono(model))
    return reports


# -- the transformer ------------------------------------------------------------

def check_transformer(model: Model) -> list[CheckReport]:
    """Naturality of ``i`` plus both unitor-compatibility diagrams, the
    naturality-derived variants, and the entrywise sufficient conditions."""
    reports: list[CheckReport] = []
    objs = model.base_objects
    all_homs = [f for x in objs for y in objs for f in model.hom(x, y)]
    j = model.j_morphism()

    ok = True
    for f in all_homs:
        for g in all_homs:
            lhs = model.compose(model.i_component(f.cod, g.cod), model.sum_mor(f, g))
            rhs = model.compose(model.prod_mor(f, g), model.i_component(f.dom, g.dom))
            if lhs != rhs:
                reports.append(_fail("i-natural", f=f, g=g, lhs=lhs, rhs=rhs))
                ok = False
                break
        if not ok:
            break
    if ok:
        reports.append(_ok("i-natural"))

    def diagram(law, lhs_of, rhs_of):
        for a in objs:
            lhs, rhs = lhs_of(a), rhs_of(a)
            if lhs != rhs:
                return _fail(law, a=a.name, lhs=lhs, rhs=rhs)
        return _ok(law)

    reports.append(diagram(
        "i-compatible-runit",
        lambda a: model.compose(
            model.runit_prod(a),
            model.compose(model.prod_mor(model.identity(a), j),
                          model.i_component(a, model.zero_obj))),
        model.runit_sum))
    reports.append(diagram(
        "i-compatible-lunit",
        lambda a: model.compose(
            model.lunit_prod(a),
            model.compose(model.prod_mor(j, model.identity(a)),
                          model.i_component(model.zero_obj, a))),
        model.lunit_sum))
    reports.append(diagram(
        "i-compatible-runit-via-naturality",
        lambda a: model.compose(
            model.runit_prod(a),
            model.compose(model.i_component(a, model.one_obj),
                          model.sum_mor(model.identity(a), j))),
        model.runit_sum))
    reports.append(diagram(
        "i-compatible-lunit-via-naturality",
        lambda a: model.compose(
            model.lunit_prod(a),
            model.compose(model.i_component(model.one_obj, a),
                          model.sum_mor(j, model.identity(a)))),
        model.lunit_sum))

    # entrywise sufficient conditions
    first_ok = True
    for a in objs:
        i1, _ = binary_inclusions(model, a, model.zero_obj)
        p1, _ = binary_projections(model, a, model.zero_obj)
        entry = model.compose(p1, model.compose(
            model.i_component(a, model.zero_obj), i1))
        if entry != model.identity(a):
            reports.append(_fail("i-first-entry-identity", a=a.name, entry=entry))
            first_ok = False
            break
    if first_ok:
        reports.append(_ok("i-first-entry-identity"))
    second_ok = True
    for b in objs:
        _, i2 = binary_inclusions(model, model.zero_obj, b)
        _, p2 = binary_projections(model, model.zero_obj, b)
        entry = model.compose(p2, model.compose(
            model.i_component(model.zero_obj, b), i2))
        if entry != model.identity(b):
            reports.append(_fail("i-second-entry-identity", b=b.name, entry=entry))
            second_ok = False
            break
    if second_ok:
        reports.append(_ok("i-second-entry-identity"))

    # the entrywise conditions must imply the compatibility diagrams here
    compat_r = next(r for r in reports if r.law == "i-compatible-runit")
    compat_l = next(r for r in reports if r.law == "i-compatible-lunit")
    implication = CheckReport(
        "entrywise-implies-compatibility",
        (not first_ok or compat_r.passed) and (not second_ok or compat_l.passed),
        None,
        {"entrywise": [first_ok, second_ok],
         "compatibility": [compat_r.passed, compat_l.passed]})
    reports.append(implication)
    return reports


def check_prelinear(model: Model,
                    transformer: list[CheckReport] | None = None
                    ) -> list[CheckReport]:
    """Every component of ``i`` must present as the identity matrix, and that
    must agree with the transformer laws in both directions.

    ``transformer`` takes the reports of :func:`check_transformer` when the
    caller already has them; otherwise they are computed here."""
    from .matrices import identity_matrix, matrix_of
    reports: list[CheckReport] = []
    src_w, tgt_w = Sum(HOLE, HOLE), Prod(HOLE, HOLE)
    ok = True
    for a in model.base_objects:
        for b in model.base_objects:
            got = matrix_of(model, model.i_component(a, b),
                            (src_w, (a, b)), (tgt_w, (a, b)))
            want = identity_matrix(model, (a, b), src_w, tgt_w)
            if got.entries != want.entries:
                reports.append(_fail(
                    "i-matrix-identity", a=a.name, b=b.name,
                    got=[[list(m.graph) for m in row] for row in got.entries],
                    want=[[list(m.graph) for m in row] for row in want.entries]))
                ok = False
                break
        if not ok:
            break
    if ok:
        reports.append(_ok("i-matrix-identity"))
    if transformer is None:
        transformer = check_transformer(model)
    transformer_ok = all(r.passed for r in transformer)
    reports.append(CheckReport(
        "prelinear-iff-transformer", ok == transformer_ok, None,
        {"identity_matrices": ok, "transformer_laws": transformer_ok}))
    return reports


def is_lineariser(model: Model):
    """Whether every component of ``i`` is invertible in the model.

    Returns ``(flag, data)``: on success the inverse table indexed by object
    name pairs, on failure a witness describing one non-invertible component.
    """
    inverses = {}
    for a in model.base_objects:
        for b in model.base_objects:
            try:
                inverses[(a.name, b.name)] = model.i_inverse(a, b)
            except NotInvertibleInModel as exc:
                return False, {"witness": (a.name, b.name), "reason": str(exc)}
    return True, inverses
