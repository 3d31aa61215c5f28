"""Exhaustive law verification for finite models.

Each verifier sweeps every relevant combination of the model's bundled
objects and morphisms and returns one report per law.  A failing report
carries a counterexample with enough data (object names, morphism graphs,
both sides of the offending equation) to replay the failure by hand.
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


def _all_morphisms(model: Model):
    for x in model.base_objects:
        for y in model.base_objects:
            yield from model.hom(x, y)


def binary_inclusions(model: Model, a, b) -> tuple[Mor, Mor]:
    return (inclusion(model, SUM2, (a, b), 1), inclusion(model, SUM2, (a, b), 2))


def binary_projections(model: Model, a, b) -> tuple[Mor, Mor]:
    return (projection(model, PROD2, (a, b), 1), projection(model, PROD2, (a, b), 2))


# -- category and monoidal laws ------------------------------------------------
#
# Each law is a generator of failure reports, and ``_law`` keeps the first
# one, so every law is reported exactly once whatever fails before it.

def _law(law: str, failures) -> CheckReport:
    """The first report ``failures`` yields, or a pass of ``law``."""
    return next(failures, None) or _ok(law)


def _check_category(model: Model) -> list[CheckReport]:
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


def _check_bifunctor(model: Model, tag: str, obj, mor) -> list[CheckReport]:
    # Functoriality in each slot plus the exchange law; together these imply
    # the joint interchange equation without sweeping pairs of pairs.
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


def _check_monoidal(model: Model, tag: str, obj, mor, unit) -> list[CheckReport]:
    """The monoidal laws of the structure whose tables end in ``_{tag}``."""
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

    def unitor_natural():  # fails as lunit-natural or runit-natural
        for f in all_homs:
            if compose(lunit(f.cod), mor(identity(unit), f)) \
                    != compose(f, lunit(f.dom)):
                yield _fail(f"{tag}/lunit-natural", f=f)
            if compose(runit(f.cod), mor(f, identity(unit))) \
                    != compose(f, runit(f.dom)):
                yield _fail(f"{tag}/runit-natural", f=f)

    def assoc_natural():
        # slotwise naturality; joint naturality follows via functoriality
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
    reports: list[CheckReport] = []
    reports.extend(_check_category(model))
    reports.extend(_check_bifunctor(model, "sum-bifunctor",
                                    model.sum_obj, model.sum_mor))
    reports.extend(_check_bifunctor(model, "prod-bifunctor",
                                    model.prod_obj, model.prod_mor))
    reports.extend(_check_monoidal(model, "sum", model.sum_obj, model.sum_mor,
                                   model.zero_obj))
    reports.extend(_check_monoidal(model, "prod", model.prod_obj, model.prod_mor,
                                   model.one_obj))
    reports.extend(_check_initial_terminal(model))
    reports.extend(_check_joint_epi_mono(model))
    return reports


# -- the transformer ------------------------------------------------------------

def check_transformer(model: Model) -> list[CheckReport]:
    """Naturality of ``i`` plus both unitor-compatibility diagrams, the
    naturality-derived variants, and the entrywise sufficient conditions."""
    objs = model.base_objects
    all_homs = list(_all_morphisms(model))
    j = model.j_morphism()
    i = functools.partial(model.structure, "i")
    zero = model.zero_obj

    def i_natural():
        for f, g in itertools.product(all_homs, repeat=2):
            lhs = model.compose(i(f.cod, g.cod), model.sum_mor(f, g))
            rhs = model.compose(model.prod_mor(f, g), i(f.dom, g.dom))
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
