"""Cover relations, central morphisms, and central-morphism arithmetic.

A cover is a matrix realization: the map out of the binary sum restricting
to ``f`` and ``g`` realizes the one-row matrix ``(f g)``, and the map into
the binary product projecting to them realizes the one-column matrix
``(f; g)``.  Both are read from ``matrices.realize``, so they fail closed:
a boundary where two maps share one matrix raises :class:`IntegrityError`,
whichever entries are asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .checks import CheckReport, is_lineariser
from .errors import IntegrityError, LineariserRequired
from .evaluate import zero_morphism
from .matrices import MatrixPresentation, matrix_of, realize
from .models import Model, Mor
from .words import HOLE, PROD2, SUM2


@dataclass(frozen=True)
class CoverWitness:
    f: Mor
    g: Mor
    h: Mor


def covers_sum(model: Model, f: Mor, g: Mor) -> CoverWitness | None:
    """The unique map out of the binary sum restricting to f and g: the
    realizer of the one-row matrix ``(f g)``."""
    if f.cod != g.cod:
        raise ValueError("covers_sum needs a common codomain")
    h = realize(model, MatrixPresentation(
        SUM2, (f.dom, g.dom), HOLE, (f.cod,), ((f, g),)))
    return None if h is None else CoverWitness(f, g, h)


def covers_prod(model: Model, f: Mor, g: Mor) -> CoverWitness | None:
    """Dual: the map into the binary product projecting to f and g, the
    realizer of the one-column matrix ``(f; g)``."""
    if f.dom != g.dom:
        raise ValueError("covers_prod needs a common domain")
    h = realize(model, MatrixPresentation(
        HOLE, (f.dom,), PROD2, (f.cod, g.cod), ((f,), (g,))))
    return None if h is None else CoverWitness(f, g, h)


def is_central(model: Model, f: Mor):
    """A morphism is central when it covers the identity on its codomain for
    the sum and co-covers the identity on its domain for the product.

    Returns ``(flag, sum_witness, prod_witness)``.
    """
    w_sum = covers_sum(model, f, model.identity(f.cod))
    w_prod = covers_prod(model, f, model.identity(f.dom))
    return (w_sum is not None and w_prod is not None), w_sum, w_prod


def central_matrix(model: Model, f: Mor) -> MatrixPresentation:
    """The presentation with identities on the diagonal and ``f`` above it.

    For f: X -> Y the boundary runs from the sum of (Y, X) to the product of
    (Y, X), which is the unique typing that accepts ``f`` as the upper-right
    entry.
    """
    x, y = f.dom, f.cod
    entries = (
        (model.identity(y), f),
        (zero_morphism(model, y, x), model.identity(x)),
    )
    return MatrixPresentation(SUM2, (y, x), PROD2, (y, x), entries)


def _central_realizer(model: Model, f: Mor) -> Mor | None:
    """The realizer of ``central_matrix(model, f)``, or None if it has none,
    memoised per model in ``model.memo["central"]``."""
    memo = model.memo["central"]
    if f not in memo:
        memo[f] = realize(model, central_matrix(model, f))
    return memo[f]


def is_central_matrix(model: Model, f: Mor) -> bool:
    """Whether the identity-diagonal matrix carrying ``f`` has a realizer."""
    return _central_realizer(model, f) is not None


def central_hom(model: Model, x, y) -> tuple[Mor, ...]:
    """All central morphisms from x to y, in hom-set order."""
    return tuple(f for f in model.hom(x, y) if is_central(model, f)[0])


def _require_lineariser(model: Model) -> None:
    lin, data = is_lineariser(model)
    if not lin:
        raise LineariserRequired(
            f"central addition needs an invertible transformer: {data['reason']}")


def add_central(model: Model, f: Mor, g: Mor) -> Mor:
    """Central addition: conjugate the two matrix realizers through the
    inverse transformer and read off the upper-right entry.

    The composite's matrix must again have identity diagonal and zero below;
    anything else is an integrity failure.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("addition needs parallel morphisms")
    _require_lineariser(model)
    x, y = f.dom, f.cod
    mf = _central_realizer(model, f)
    mg = _central_realizer(model, g)
    if mf is None or mg is None:
        bad = f if mf is None else g
        raise ValueError(f"morphism {bad.graph} is not central")
    i_inv = model.i_inverse(y, x)
    composite = model.compose(mg, model.compose(i_inv, mf))
    m = matrix_of(model, composite, (SUM2, (y, x)), (PROD2, (y, x)))
    h = m.entries[0][1]
    ok = (m.entries[0][0] == model.identity(y)
          and m.entries[1][0] == zero_morphism(model, y, x)
          and m.entries[1][1] == model.identity(x))
    if not ok:
        raise IntegrityError(
            "central addition composite does not have the expected matrix shape:"
            f" {[[list(e.graph) for e in row] for row in m.entries]}")
    return h


@dataclass
class CentralMonoid:
    x: object
    y: object
    elements: tuple[Mor, ...]
    table: tuple[tuple[int, ...], ...]  # indices into elements
    unit_index: int
    commutative: bool = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.elements)
        self.commutative = all(
            self.table[a][b] == self.table[b][a]
            for a in range(n) for b in range(n))

    def verify(self) -> list[CheckReport]:
        n = len(self.elements)
        reports = []
        bad = next((
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]),
            None)
        reports.append(CheckReport(
            "central-monoid/associative", bad is None,
            None if bad is None else {
                "x": self.x.name, "y": self.y.name, "indices": list(bad)}))
        bad_unit = next((
            a for a in range(n)
            if self.table[self.unit_index][a] != a or self.table[a][self.unit_index] != a),
            None)
        reports.append(CheckReport(
            "central-monoid/unit", bad_unit is None,
            None if bad_unit is None else {
                "x": self.x.name, "y": self.y.name, "index": bad_unit}))
        return reports


def central_monoid(model: Model, x, y) -> CentralMonoid:
    """Tabulate central addition on Z(x, y) and verify the monoid laws."""
    _require_lineariser(model)
    elements = central_hom(model, x, y)
    for f in elements:
        if _central_realizer(model, f) is None:
            raise IntegrityError(f"morphism {f.graph} is central by its covers"
                                 " but its central matrix has no realizer")
    index = {m: k for k, m in enumerate(elements)}
    z = zero_morphism(model, x, y)
    if z not in index:
        raise IntegrityError("the zero morphism is not central")
    table = []
    for f in elements:
        row = []
        for g in elements:
            s = add_central(model, f, g)
            if s not in index:
                raise IntegrityError(
                    f"central addition left the central class: {s.graph}")
            row.append(index[s])
        table.append(tuple(row))
    return CentralMonoid(x, y, elements, tuple(table), index[z])


def check_distributivity(model: Model) -> CheckReport:
    """Both distributive laws of composition over central addition."""
    _require_lineariser(model)
    add_cache: dict = {}

    def add(f, g):
        key = (f, g)
        if key not in add_cache:
            add_cache[key] = add_central(model, f, g)
        return add_cache[key]

    def precompose(h, k):  # k∘h
        return model.compose(k, h)

    objs = model.base_objects
    for x, y in itertools.product(objs, repeat=2):
        zxy = central_hom(model, x, y)
        for f, g in itertools.product(zxy, repeat=2):
            fg = add(f, g)
            for w in objs:
                # left: h∘(f+g), h: y -> w; right: (f+g)∘h, h: w -> x
                for side, hom, on in (("left", model.hom(y, w), model.compose),
                                      ("right", model.hom(w, x), precompose)):
                    for h in hom:
                        lhs = on(h, fg)
                        rhs = add(on(h, f), on(h, g))
                        if lhs != rhs:
                            return CheckReport("distributivity", False, {
                                "side": side, "x": x.name, "y": y.name,
                                "w": w.name, "f": list(f.graph),
                                "g": list(g.graph), "h": list(h.graph),
                                "lhs": list(lhs.graph), "rhs": list(rhs.graph)})
    return CheckReport("distributivity", True)


def matrix_completeness(model: Model) -> tuple[bool, dict | None]:
    """Whether every 2x2 matrix over base objects has a realizer.

    Counts suffice: realizers are unique per presentation, so the boundary
    hom-set is exactly as large as the set of realizable matrices.
    """
    objs = model.base_objects
    for a, b, c, d in itertools.product(objs, repeat=4):
        total = (model.hom_count(a, c) * model.hom_count(b, c)
                 * model.hom_count(a, d) * model.hom_count(b, d))
        realized = model.hom_count(model.sum_obj(a, b), model.prod_obj(c, d))
        if realized != total:
            return False, {"objects": [a.name, b.name, c.name, d.name],
                           "matrices": total, "realizable": realized}
    return True, None


def check_linearity_theorem(model: Model) -> CheckReport:
    """Compare both sides of the linearity equivalence on this model.

    Left side: invertible transformer plus full matrix realizability.
    Right side: every Z(X, Y) a monoid under central addition, with both
    distributive laws.  When the transformer is not invertible the addition
    is not definable, which settles the right side negatively.
    """
    lin, lin_data = is_lineariser(model)
    complete, complete_witness = matrix_completeness(model)
    left = lin and complete
    details: dict = {"lineariser": lin, "matrix_completeness": complete}
    if not lin:
        details["lineariser_witness"] = lin_data
        details["addition_definable"] = False
        right = False
    else:
        details["addition_definable"] = True
        monoids_ok = True
        distributive_ok = True
        witness = None
        for x, y in itertools.product(model.base_objects, repeat=2):
            cm = central_monoid(model, x, y)
            if not all(r.passed for r in cm.verify()):
                monoids_ok = False
                witness = {"x": x.name, "y": y.name}
                break
        if monoids_ok:
            dist = check_distributivity(model)
            distributive_ok = dist.passed
            witness = dist.counterexample
        right = monoids_ok and distributive_ok
        details["monoid_laws"] = monoids_ok
        details["distributivity"] = distributive_ok
        if witness:
            details["witness"] = witness
    if complete_witness:
        details["completeness_witness"] = complete_witness
    details["left"] = left
    details["right"] = right
    return CheckReport("linearity-theorem", left == right, None, details)
