"""Exhaustive law verification for finite models.

Each verifier sweeps every relevant combination of the model's bundled
objects and morphisms and returns one report per law.  A failing report
carries a counterexample with enough data (object names, morphism graphs,
both sides of the offending equation) to replay the failure by hand.

Every law is a generator of failure reports, and ``_law`` (or
``_law_by_generators``) keeps the first: the one place, here and in
``centrality``, where a law's first failure becomes a report.  Each
sum/product dual pair of laws is one routine, given the law's name and its
side of the pair.

The loop invariants of the structure and transformer laws are computed once
per run, before their loops: the identity of every base object, per
structure the whiskers ``f ⊗ id_c`` and ``id_c ⊗ f`` of every base morphism
by every base object, the unitors and associators at base objects, ``i`` at
every base pair, and ``h∘g`` for every composable pair.  These tables are
transient: they are local to one ``check_structure`` or
``check_transformer`` call, indexed by positions in ``base_objects``, and
never stored in ``model.memo``.  Every loop keeps its order and its
comparisons, so each law fails at the same first counterexample.

When ``model.one_structure`` holds, the sum and the product are one
structure (the same object and morphism kernels, one unit, twin structure
tables), so each product law compares exactly what its sum law compares.
``check_structure`` then builds one whisker table, evaluates the bifunctor
and monoidal laws for the sum only, and reports each product law as its sum
law under the product's tag, in the same place in the report list.

Four laws are checked on a generating set of the base category when the
laws their proofs use have passed (Mac Lane, *Categories for the Working
Mathematician*, I.4: naturality squares paste along composites).
``_generating_set`` picks it greedily, hom-set by hom-set, and checks that
its closure under ``compose`` is every base hom-set; so each base morphism
is an identity, a generator, or ``s∘u`` with ``s`` a generator and ``u``
shorter.  Each proof is an induction on that length:

- ``category/associativity`` draws ``h`` from the generators:
  ``(s∘u)∘(g∘f) = s∘(u∘(g∘f)) = s∘((u∘g)∘f) = (s∘(u∘g))∘f
  = ((s∘u)∘g)∘f`` by the generator case, the hypothesis for ``u`` and the
  generator case twice.  It relies on ``category/identity`` (the case
  ``h = id``).
- ``<tag>-bifunctor/functorial-each-slot`` draws ``g`` from the
  generators: ``F((s∘u)∘f) = F(s∘(u∘f)) = F(s)∘F(u∘f)``, then the
  hypothesis for ``u``.  It relies on the category laws, on the structure's
  ``preserves-identity`` (the case ``g = id``), and on ``compose`` being
  unital and associative at ``a ⊕ c`` and ``a ⊗ c``, which no law checks:
  ``_composes_graphs`` accepts only ``Model``'s own composition and
  identity, lawful at every object.
- ``i-natural`` checks the slot-wise squares ``(s, id_d)`` and
  ``(id_d, s)`` for each generator ``s`` and base object ``d``.  Each
  interchange law splits ``f ⊕ g`` into ``(f ⊕ id)∘(id ⊕ g)`` and ``f ⊗ g``
  alike, functoriality splits ``f ⊕ id`` along the word of ``f``, and the
  squares paste.  It relies on the category laws, all six bifunctor laws
  and ``_composes_graphs``, and reads the verdicts ``check_structure``
  records in ``model.memo["laws"]``: with none recorded, it takes its full
  loop.
- ``distributivity`` (in ``centrality``) draws ``h`` from the generators,
  for every pair ``f, g`` of central morphisms, when every central ``f``
  composed with every generator on either side is central again: then so
  are ``u∘f`` and ``f∘u`` for every composable ``u``.  With ``h = s∘u``, the left side is
  ``h∘(f+g) = s∘(u∘(f+g)) = s∘(u∘f + u∘g) = s∘(u∘f) + s∘(u∘g)`` by the
  hypothesis for ``u`` and the generator case at the central pair
  ``(u∘f, u∘g)``; the right side is ``(f+g)∘(s∘u) = (f∘s + g∘s)∘u
  = (f∘s)∘u + (g∘s)∘u`` by the generator case and the hypothesis for ``u``
  at the central pair ``(f∘s, g∘s)``.  The case ``h = id`` is
  ``category/identity``; the rebracketings are associativity.  Like
  ``i-natural`` it reads the recorded category verdicts and needs
  ``_composes_graphs``.  A step that raises ends the reduced loop as a
  failure.

When a law a proof relies on failed or is unknown, or the generating set
does not close up, or the reduced check finds a failure, the full loop runs
unchanged, so every report and first counterexample is the full loop's.
The other laws keep their loops.  ``interchange`` quantifies over pairs
whose kernel values the slot-wise laws never constrain.  ``assoc-natural``
whiskers by the non-base object ``b ⊗ c``, where no law checks
functoriality.  The pentagon, the triangle and the iso laws quantify over
objects, not morphisms, and the joint epi/mono scans compare whole hom-sets
out of a sum or into a product; neither has a word to induct on.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass, field

from .errors import NotInvertibleInModel
from .evaluate import inclusion, projection
from .models import Model, Mor, _memoised
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


def _unbuilt(law: str, a, b, exc: ValueError) -> CheckReport:
    """``law`` failed at ``(a, b)``, where building its maps raised ``exc``."""
    return _fail(law, a=a.name, b=b.name, reason=f"maps cannot be built: {exc}")


def binary_inclusions(model: Model, a, b) -> tuple[Mor, Mor]:
    return (inclusion(model, SUM2, (a, b), 1), inclusion(model, SUM2, (a, b), 2))


def binary_projections(model: Model, a, b) -> tuple[Mor, Mor]:
    return (projection(model, PROD2, (a, b), 1), projection(model, PROD2, (a, b), 2))


# -- category and monoidal laws ------------------------------------------------
#
# ``_law`` reports every law exactly once, whatever fails before it.  Their
# loop invariants come from the per-run tables described above.

def _law(law: str, failures) -> CheckReport:
    """The first report ``failures`` yields, or a pass of ``law``."""
    return next(failures, None) or _ok(law)


def _law_by_generators(law: str, reduced, full) -> CheckReport:
    """A pass of ``law`` when the reduced loop ``reduced`` finds no failure;
    otherwise, or with no reduced loop (None), the report of the full loop
    ``full``, so a failure names the full loop's first counterexample."""
    if reduced is not None and next(reduced, None) is None:
        return _ok(law)
    return _law(law, full)


def _generating_set(model: Model) -> dict | None:
    """A generating set of the base category, as positions in
    ``model.hom`` per hom-set ``(x, y)`` of base-object indices, or None
    when its closure under ``compose`` is not every base hom-set.  Computed
    once per model, into ``model.memo["generating_set"]``."""
    return _memoised(model, "generating_set", _greedy_generating_set)


def _greedy_generating_set(model: Model) -> dict | None:
    # Hom-set by hom-set in ``_indexed_homs`` order, each morphism that the
    # generators so far do not reach becomes one.  ``reached`` is closed
    # under left composition with every generator and holds the identities,
    # so each of its morphisms is an identity, a generator, or ``s∘u`` for a
    # generator s and a morphism u reached before it: the induction the
    # reduced laws run on.
    objs = model.base_objects
    compose = model.compose
    homs = set(itertools.chain.from_iterable(
        model.hom(a, b) for a, b in itertools.product(objs, repeat=2)))
    reached = set(map(model.identity, objs))
    ending = {o: [model.identity(o)] for o in objs}  # reached, by codomain
    leaving = {o: [] for o in objs}  # generators, by domain
    gens = {}
    for x, y in itertools.product(range(len(objs)), repeat=2):
        gens[x, y] = []
        for p, f in enumerate(model.hom(objs[x], objs[y])):
            if f in reached:
                continue
            gens[x, y].append(p)
            leaving[f.dom].append(f)
            fresh = [f] + [compose(f, u) for u in ending[f.dom]]
            while fresh:
                u = fresh.pop()
                if u in reached:
                    continue
                if u not in homs:  # a composite outside every base hom-set
                    return None
                reached.add(u)
                ending[u.cod].append(u)
                fresh.extend(compose(s, u) for s in leaving[u.cod])
    return {k: tuple(ps) for k, ps in gens.items()} if reached == homs else None


def _composes_graphs(model: Model) -> bool:
    """Whether ``compose`` and ``identity`` are ``Model``'s: composition and
    identity of carrier maps, unital and associative at every object.  The
    category laws check base objects only, and the inductions of the
    reduced bifunctor and transformer laws compose at ``a ⊕ b`` and
    ``a ⊗ b`` too."""
    return getattr(model.compose, "__func__", None) is Model.compose \
        and getattr(model.identity, "__func__", None) is Model.identity


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
    places = range(len(objs))
    compose = model.compose
    homs = {(x, y): model.hom(objs[x], objs[y])
            for x, y in itertools.product(places, repeat=2)}

    def identity():
        for f, x, y in _indexed_homs(model):
            if compose(f, ids[x]) != f or compose(ids[y], f) != f:
                yield _fail("category/identity", f=f)

    def associativity(hs):
        # h∘g for every composable pair with h in hs, one row of h's per g
        after = {(x, y, z): [[compose(h, g) for h in hs[y, z]] for g in homs[x, y]]
                 for x, y, z in itertools.product(places, repeat=3)}
        for w, x, y, z in itertools.product(places, repeat=4):
            for f in homs[w, x]:
                for g, hgs in zip(homs[x, y], after[x, y, z]):
                    gf = compose(g, f)
                    for h, hg in zip(hs[y, z], hgs):
                        if compose(h, gf) != compose(hg, f):
                            yield _fail("category/associativity", f=f, g=g, h=h)

    identity_report = _law("category/identity", identity())
    gens = _generating_set(model) if identity_report.passed else None
    reduced = None if gens is None else associativity(
        {k: [homs[k][p] for p in ps] for k, ps in gens.items()})
    return [identity_report,
            _law_by_generators("category/associativity", reduced,
                               associativity(homs))]


def _check_bifunctor(model: Model, tag: str, obj, mor, ids, whiskers,
                     gens=None) -> list[CheckReport]:
    """Functoriality in each slot plus the exchange law; together these
    imply the joint interchange equation without sweeping pairs of pairs.
    ``gens`` is a verified generating set (see ``_generating_set``), given
    only when the category laws passed and ``_composes_graphs`` holds."""
    objs = model.base_objects
    compose = model.compose

    def preserves_identity():
        for (a, ida), (b, idb) in itertools.product(zip(objs, ids), repeat=2):
            if mor(ida, idb) != model.identity(obj(a, b)):
                yield _fail(f"{tag}/preserves-identity", a=a.name, b=b.name)

    def functorial_each_slot(gs):
        for x, y, z in itertools.product(range(len(objs)), repeat=3):
            for f, _, _, f_right, f_left in whiskers[x, y]:
                for g, _, _, g_right, g_left in gs[y, z]:
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

    identity_report = _law(f"{tag}/preserves-identity", preserves_identity())
    reduced = None if gens is None or not identity_report.passed else \
        functorial_each_slot({k: [whiskers[k][p] for p in ps]
                              for k, ps in gens.items()})
    return [identity_report,
            _law_by_generators(f"{tag}/functorial-each-slot", reduced,
                               functorial_each_slot(whiskers)),
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


def _unique_maps(model: Model, law: str, maps_at, bang):
    """``law`` of a unit: ``maps_at(x)``, its maps to or from each base
    object ``x``, are exactly ``bang(x)``."""
    for x in model.base_objects:
        maps = maps_at(x)
        if len(maps) != 1 or maps[0] != bang(x):
            yield _fail(law, x=x.name, homs=[list(m.graph) for m in maps])


def _check_initial_terminal(model: Model) -> list[CheckReport]:
    return [_law(law, _unique_maps(model, law, maps_at, bang))
            for law, maps_at, bang in (
                ("zero-initial", lambda x: model.hom(model.zero_obj, x),
                 model.bang_from_zero),
                ("one-terminal", lambda x: model.hom(x, model.one_obj),
                 model.bang_to_one))]


def _legs_separate(model: Model, law: str, legs, maps, leg):
    """``law`` of the binary sum or product: at each base triple
    ``(a, b, c)``, two maps ``maps(a, b, c)`` with the same two legs
    ``leg(u, k)``, for ``k`` in ``legs(model, a, b)``, are one map."""
    for a, b, c in itertools.product(model.base_objects, repeat=3):
        try:
            k1, k2 = legs(model, a, b)
        except ValueError as exc:
            yield _unbuilt(law, a, b, exc)
            continue
        seen = {}
        for u in maps(a, b, c):
            sig = (leg(u, k1).graph, leg(u, k2).graph)
            if sig in seen:
                yield _fail(law, a=a.name, b=b.name, c=c.name, u=u, v=seen[sig])
            seen[sig] = u


def _check_joint_epi_mono(model: Model) -> list[CheckReport]:
    compose = model.compose
    return [_law(law, _legs_separate(model, law, legs, maps, leg))
            for law, legs, maps, leg in (
                ("inclusions-jointly-epi", binary_inclusions,
                 lambda a, b, c: model.hom(model.sum_obj(a, b), c), compose),
                ("projections-jointly-mono", binary_projections,
                 lambda a, b, c: model.hom(c, model.prod_obj(a, b)),
                 lambda u, p: compose(p, u)))]


def _as_prod(reports: list[CheckReport]) -> list[CheckReport]:
    """The sum structure's reports as the product's, when the two are one
    structure: each law renamed from its ``sum`` tag to its ``prod`` tag,
    with a copy of its counterexample and details."""
    return [CheckReport(r.law.replace("sum", "prod", 1), r.passed,
                        copy.deepcopy(r.counterexample), copy.deepcopy(r.details))
            for r in reports]


def check_structure(model: Model) -> list[CheckReport]:
    """Verify category laws, both monoidal structures, and the unit axioms."""
    one = model.one_structure
    ids = _identities(model)
    # one whisker table per structure, unless the two are one: a model may
    # override either kernel
    sum_whiskers = _whiskers(model, model.sum_mor, ids)
    prod_whiskers = None if one else _whiskers(model, model.prod_mor, ids)
    reports = _check_category(model, ids)
    # the reduced functoriality law composes at a ⊕ c and a ⊗ c as well
    gens = _generating_set(model) \
        if all(r.passed for r in reports) and _composes_graphs(model) else None
    sum_bifunctor = _check_bifunctor(model, "sum-bifunctor", model.sum_obj,
                                     model.sum_mor, ids, sum_whiskers, gens)
    reports.extend(sum_bifunctor)
    reports.extend(_as_prod(sum_bifunctor) if one else _check_bifunctor(
        model, "prod-bifunctor", model.prod_obj, model.prod_mor, ids,
        prod_whiskers, gens))
    sum_monoidal = _check_monoidal(model, "sum", model.sum_obj, model.sum_mor,
                                   model.zero_obj, ids, sum_whiskers)
    reports.extend(sum_monoidal)
    reports.extend(_as_prod(sum_monoidal) if one else _check_monoidal(
        model, "prod", model.prod_obj, model.prod_mor, model.one_obj, ids,
        prod_whiskers))
    reports.extend(_check_initial_terminal(model))
    reports.extend(_check_joint_epi_mono(model))
    # the verdicts the reduced i-natural law relies on, for check_transformer
    model.memo["laws"].update((r.law, r.passed) for r in reports)
    return reports


# -- the transformer ------------------------------------------------------------

# the structure laws the reduced i-natural law relies on, as recorded by
# check_structure in ``model.memo["laws"]``
_I_NATURAL_RELIES_ON = ("category/identity", "category/associativity") + tuple(
    f"{tag}-bifunctor/{law}" for tag in ("sum", "prod")
    for law in ("preserves-identity", "functorial-each-slot", "interchange"))


def check_transformer(model: Model) -> list[CheckReport]:
    """Naturality of ``i`` plus both unitor-compatibility diagrams, the
    naturality-derived variants, and the entrywise sufficient conditions."""
    objs = model.base_objects
    compose, sum_mor, prod_mor = model.compose, model.sum_mor, model.prod_mor
    # the component of i at every base pair, by indices
    iotas = {(a, b): model.structure("i", objs[a], objs[b])
             for a, b in itertools.product(range(len(objs)), repeat=2)}

    def i_natural(pairs):
        for (f, fdom, fcod), (g, gdom, gcod) in pairs:
            lhs = compose(iotas[fcod, gcod], sum_mor(f, g))
            rhs = compose(prod_mor(f, g), iotas[fdom, gdom])
            if lhs != rhs:
                yield _fail("i-natural", f=f, g=g, lhs=lhs, rhs=rhs)

    laws = model.memo["laws"]
    gens = _generating_set(model) if _composes_graphs(model) and all(
        laws.get(law) for law in _I_NATURAL_RELIES_ON) else None
    reduced = None
    if gens is not None:
        # the slot-wise squares (s, id_d) and (id_d, s) of each generator s
        idents = [(idd, d, d) for d, idd in enumerate(_identities(model))]
        generators = [(model.hom(objs[x], objs[y])[p], x, y)
                      for (x, y), ps in gens.items() for p in ps]
        reduced = i_natural([square for s in generators for d in idents
                             for square in ((s, d), (d, s))])
    full = i_natural(itertools.product(_indexed_homs(model), repeat=2))
    reports = [_law_by_generators("i-natural", reduced, full)]
    reports += [_law(law, _i_compatible(model, law, side, via_naturality))
                for law, side, via_naturality in (
                    ("i-compatible-runit", "r", False),
                    ("i-compatible-lunit", "l", False),
                    ("i-compatible-runit-via-naturality", "r", True),
                    ("i-compatible-lunit-via-naturality", "l", True))]
    compat_r, compat_l = reports[1:3]
    # entrywise sufficient conditions
    first, second = (_law(law, _i_entry_identity(model, law, k)) for law, k in (
        ("i-first-entry-identity", 0), ("i-second-entry-identity", 1)))
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


def _i_compatible(model: Model, law: str, side: str, via_naturality: bool):
    """The diagram ``law`` at each base object ``a``: the sum unitor on the
    ``side`` (``"l"`` or ``"r"``) of ``a`` is the product unitor after ``i``
    and ``j``, with ``j`` whiskered by the product after ``i``, or, via
    naturality of ``i``, by the sum before it."""
    compose, j = model.compose, model.j_morphism()
    unit, mor = (model.one_obj, model.sum_mor) if via_naturality \
        else (model.zero_obj, model.prod_mor)

    def beside(x, u):  # x and u, with u on the side
        return (x, u) if side == "r" else (u, x)

    for a in model.base_objects:
        iota = model.structure("i", *beside(a, unit))
        whisker = mor(*beside(model.identity(a), j))
        later, earlier = (iota, whisker) if via_naturality else (whisker, iota)
        lhs = compose(model.structure(f"{side}unit_prod", a), compose(later, earlier))
        rhs = model.structure(f"{side}unit_sum", a)
        if lhs != rhs:
            yield _fail(law, a=a.name, lhs=lhs, rhs=rhs)


def _i_entry_identity(model: Model, law: str, k: int):
    """``law``: for each base object ``x`` in slot ``k`` (0 or 1) of a pair
    with the sum unit, the ``k``-th diagonal entry of ``i`` at the pair is
    the identity of ``x``; counterexamples name ``x`` as ``a`` or ``b``."""
    zero = model.zero_obj
    for x in model.base_objects:
        pair = (x, zero) if k == 0 else (zero, x)
        try:
            inc = inclusion(model, SUM2, pair, k + 1)
            proj = projection(model, PROD2, pair, k + 1)
        except ValueError as exc:
            yield _unbuilt(law, *pair, exc)
            continue
        entry = model.compose(proj, model.compose(model.structure("i", *pair), inc))
        if entry != model.identity(x):
            yield _fail(law, **{"ab"[k]: x.name}, entry=entry)


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
            try:
                got = matrix_of(model, model.structure("i", a, b),
                                (SUM2, (a, b)), (PROD2, (a, b)))
                want = identity_matrix(model, (a, b), SUM2, PROD2)
            except ValueError as exc:
                yield _unbuilt("i-matrix-identity", a, b, exc)
                continue
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
