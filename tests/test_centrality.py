import itertools
from pathlib import Path

import pytest

from linearcat import centrality, checks
from linearcat.centrality import (CentralMonoid, add_central, central_hom,
                                  central_monoid, check_distributivity,
                                  check_linearity_theorem, covers_prod,
                                  covers_sum, is_central, is_central_matrix)
from linearcat.checks import binary_inclusions, binary_projections, check_structure
from linearcat.errors import (IntegrityError, LineariserRequired,
                              NotCentralMorphism)
from linearcat.evaluate import zero_morphism
from linearcat.matrices import realize
from linearcat.models import (FinCMon, FinPtSet, Mor, PtObj,
                              all_commutative_monoids, load_model)

ROOT = Path(__file__).resolve().parent.parent


def pointwise_sum(model, f, g):
    """Independent oracle: add homomorphisms pointwise in the codomain."""
    assert f.dom == g.dom and f.cod == g.cod
    cod = f.cod
    return Mor(f.dom, f.cod,
               tuple(cod.mul(a, b) for a, b in zip(f.graph, g.graph)))


def test_covers_sum_always_found_in_ptset(pt3):
    y = PtObj(2)
    for x1, x2 in itertools.product((PtObj(2), PtObj(3)), repeat=2):
        for f in pt3.hom(x1, y):
            for g in pt3.hom(x2, y):
                w = covers_sum(pt3, f, g)
                assert w is not None
                inc1, inc2 = binary_inclusions(pt3, x1, x2)
                assert pt3.compose(w.h, inc1) == f
                assert pt3.compose(w.h, inc2) == g


def test_covers_on_one_point_object(pt3):
    one = PtObj(1)
    f = pt3.identity(one)
    w = covers_sum(pt3, f, f)
    assert w is not None and w.h.cod == one
    w = covers_prod(pt3, f, f)
    assert w is not None


def test_covers_prod_pairing(cmon):
    z2, sl2 = [o for o in cmon.base_objects if o.size == 2]
    for f in cmon.hom(z2, z2):
        for g in cmon.hom(z2, sl2):
            w = covers_prod(cmon, f, g)
            assert w is not None


def test_covers_requires_matching_boundary(pt3):
    f = pt3.identity(PtObj(2))
    g = pt3.identity(PtObj(3))
    with pytest.raises(ValueError):
        covers_sum(pt3, f, g)
    with pytest.raises(ValueError):
        covers_prod(pt3, f, g)


def sum_witnesses(model, f, g):
    """Reference: scan hom(f.dom + g.dom, f.cod) for the graphs of the maps
    restricting to f and g."""
    i1, i2 = binary_inclusions(model, f.dom, g.dom)
    return [h.graph for h in model.hom(model.sum_obj(f.dom, g.dom), f.cod)
            if model.compose(h, i1) == f and model.compose(h, i2) == g]


def prod_witnesses(model, f, g):
    """Reference: scan hom(f.dom, f.cod * g.cod) for the graphs of the maps
    projecting to f and g."""
    p1, p2 = binary_projections(model, f.cod, g.cod)
    return [h.graph for h in model.hom(f.dom, model.prod_obj(f.cod, g.cod))
            if model.compose(p1, h) == f and model.compose(p2, h) == g]


def _the_witness(found):
    assert len(found) <= 1
    return found[0] if found else None


def _witness_graph(w):
    return None if w is None else w.h.graph


def test_covers_match_the_hom_set_scan(pt3, cmon2):
    for model in (pt3, cmon2):
        objs = model.base_objects
        for a, b, c in itertools.product(objs, repeat=3):
            # f: a -> c and g: b -> c share a codomain
            for f, g in itertools.product(model.hom(a, c), model.hom(b, c)):
                assert _witness_graph(covers_sum(model, f, g)) == \
                    _the_witness(sum_witnesses(model, f, g))
            # f: a -> b and g: a -> c share a domain
            for f, g in itertools.product(model.hom(a, b), model.hom(a, c)):
                assert _witness_graph(covers_prod(model, f, g)) == \
                    _the_witness(prod_witnesses(model, f, g))


def _not_jointly_epi():
    """Pointed sets whose right sum unitor inverse at P2 collapses P2, so
    the inclusions into P2 + P1 are not jointly epic."""
    return FinPtSet((1, 2), [("runit_sum_inv", ("P2",), (0, 0))])


def test_covers_fail_closed_where_inclusions_are_not_jointly_epi():
    model = _not_jointly_epi()
    queries = [(f, g) for x, y in itertools.product(model.base_objects, repeat=2)
               for f in model.hom(x, y) for g in model.hom(y, y)]
    assert len(queries) == 8
    unanswered = [(f, g) for f, g in queries if not sum_witnesses(model, f, g)]
    assert len(unanswered) == 2
    for f, g in unanswered:
        with pytest.raises(IntegrityError):
            covers_sum(model, f, g)


def test_jointly_epi_law_still_reports_the_faulty_boundary():
    [report] = [r for r in check_structure(_not_jointly_epi())
                if r.law == "inclusions-jointly-epi"]
    ce = report.counterexample
    assert not report.passed
    assert (ce["a"], ce["b"], ce["c"]) == ("P2", "P1", "P2")
    assert ce["u"]["graph"] == [0, 1] and ce["v"]["graph"] == [0, 0]


def test_zero_morphisms_are_central(pt3, cmon):
    for model in (pt3, cmon):
        for x in model.base_objects:
            for y in model.base_objects:
                flag, w_sum, w_prod = is_central(model, zero_morphism(model, x, y))
                assert flag and w_sum is not None and w_prod is not None


def test_identities_are_central(pt3):
    for x in model_objects(pt3):
        flag, _, _ = is_central(pt3, pt3.identity(x))
        assert flag


def model_objects(model):
    return model.base_objects


def test_every_ptset_morphism_is_central(pt3):
    for x in pt3.base_objects:
        for y in pt3.base_objects:
            for f in pt3.hom(x, y):
                assert is_central(pt3, f)[0]


def test_central_matrix_agreement_small(pt2, cmon2):
    for model in (pt2, cmon2):
        for x in model.base_objects:
            for y in model.base_objects:
                for f in model.hom(x, y):
                    assert is_central(model, f)[0] == is_central_matrix(model, f)


def test_central_hom_contents(cmon):
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    zs = central_hom(cmon, z2, z2)
    assert len(zs) == 2
    assert zero_morphism(cmon, z2, z2) in zs
    one = [o for o in cmon.base_objects if o.size == 1][0]
    assert len(central_hom(cmon, one, one)) == 1


def test_add_central_unit_laws(cmon):
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    z = zero_morphism(cmon, z2, z2)
    for f in central_hom(cmon, z2, z2):
        assert add_central(cmon, f, z) == f
        assert add_central(cmon, z, f) == f


def test_add_central_doubles_identity_on_z2(cmon):
    z2 = [o for o in cmon.base_objects
          if o.size == 2 and o.mul(1, 1) == 0][0]
    ident = cmon.identity(z2)
    s = add_central(cmon, ident, ident)
    assert s == pointwise_sum(cmon, ident, ident)
    assert s == zero_morphism(cmon, z2, z2)  # 2x = 0 in the two-element group


def test_add_central_matches_pointwise_oracle(cmon2):
    for x in cmon2.base_objects:
        for y in cmon2.base_objects:
            zs = central_hom(cmon2, x, y)
            for f, g in itertools.product(zs, repeat=2):
                assert add_central(cmon2, f, g) == pointwise_sum(cmon2, f, g)


def test_add_central_requires_lineariser(pt3):
    f = pt3.identity(PtObj(2))
    with pytest.raises(LineariserRequired):
        add_central(pt3, f, f)


def _count_lineariser_verdicts(monkeypatch) -> list:
    """The models whose lineariser verdict is computed from here on; the
    models must be built after this call, so that no memo holds a verdict."""
    calls = []
    compute = checks._lineariser

    def counting(model):
        calls.append(model)
        return compute(model)

    monkeypatch.setattr(checks, "_lineariser", counting)
    return calls


def test_lineariser_is_checked_once_per_table(monkeypatch):
    calls = _count_lineariser_verdicts(monkeypatch)
    cm2, p3 = FinCMon(all_commutative_monoids(2)), FinPtSet((1, 2, 3))
    z2 = [o for o in cm2.base_objects if o.size == 2][0]
    cm = central_monoid(cm2, z2, z2)
    assert len(cm.elements) > 1 and calls == [cm2]
    assert check_distributivity(cm2).passed
    assert calls == [cm2]
    # without a lineariser, both still refuse
    with pytest.raises(LineariserRequired):
        central_monoid(p3, PtObj(2), PtObj(2))
    with pytest.raises(LineariserRequired):
        check_distributivity(p3)
    assert calls == [cm2, p3]


def test_linearity_theorem_checks_lineariser_once(monkeypatch):
    calls = _count_lineariser_verdicts(monkeypatch)
    cm, p2 = FinCMon(), FinPtSet((1, 2))
    r = check_linearity_theorem(cm)
    assert r.passed and r.details["right"]
    assert calls == [cm]
    assert not check_linearity_theorem(p2).details["right"]
    assert calls == [cm, p2]


def test_central_operations_go_through_add_central(cmon2, monkeypatch):
    # central_monoid and check_distributivity add through the public
    # add_central, so that a wrapper (the benchmark's tracer) sees each sum
    calls = []

    def counting(model, f, g):
        calls.append((f, g))
        return add_central(model, f, g)

    monkeypatch.setattr("linearcat.centrality.add_central", counting)
    z2 = [o for o in cmon2.base_objects if o.size == 2][0]
    central_monoid(cmon2, z2, z2)
    assert len(calls) == len(central_hom(cmon2, z2, z2)) ** 2
    calls.clear()
    assert check_linearity_theorem(cmon2).passed
    assert calls


def test_central_monoid_realizes_each_element_once(cmon, monkeypatch):
    # each central matrix is realized once per model, in memo["central"]
    calls = []

    def counting(model, p):
        if p.rows == p.cols == 2:  # covers realize 1x2 and 2x1 matrices
            calls.append(p.entries[0][1])
        return realize(model, p)

    monkeypatch.setattr("linearcat.centrality.realize", counting)
    cmon.memo.pop("central", None)
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    cm = central_monoid(cmon, z2, z2)
    assert len(cm.elements) > 1
    assert calls == list(cm.elements)
    central_monoid(cmon, z2, z2)
    assert calls == list(cm.elements)


def test_central_monoid_structure(cmon):
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    cm = central_monoid(cmon, z2, z2)
    assert all(r.passed for r in cm.verify())
    n = len(cm.elements)
    assert cm.table[cm.unit_index] == tuple(range(n))
    assert all(cm.table[k][cm.unit_index] == k for k in range(n))
    assert cm.commutative  # observed, not asserted by the theory


def test_central_monoid_matches_pointwise_table(cmon2):
    for x in cmon2.base_objects:
        for y in cmon2.base_objects:
            cm = central_monoid(cmon2, x, y)
            for a, f in enumerate(cm.elements):
                for b, g in enumerate(cm.elements):
                    assert cm.elements[cm.table[a][b]] == \
                        pointwise_sum(cmon2, f, g)


def test_corrupted_addition_table_fails_verification(cmon):
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    cm = central_monoid(cmon, z2, z2)
    bad_table = [list(row) for row in cm.table]
    bad_table[cm.unit_index][0] = (bad_table[cm.unit_index][0] + 1) % len(cm.elements)
    corrupted = CentralMonoid(cm.x, cm.y, cm.elements,
                              tuple(tuple(r) for r in bad_table), cm.unit_index)
    reports = corrupted.verify()
    failed = [r for r in reports if not r.passed]
    assert failed and all(r.counterexample for r in failed)


def test_check_distributivity(cmon2):
    r = check_distributivity(cmon2)
    assert r.passed


def _endomorphisms_of_m12(model):
    # the zero endomorphism (0, 0) of M1_2 and the other one, the identity
    m = model.object_by_name("M1_2")
    zero, other = sorted(model.hom(m, m), key=lambda f: f.graph)
    assert zero.graph == (0, 0) and other.graph == (0, 1)
    return zero, other


def _wrong_sum(monkeypatch, model):
    # (0, 0) + (0, 0) on M1_2 gives the other endomorphism
    zero, other = _endomorphisms_of_m12(model)

    def wrong_add(model, f, g):
        return other if f == g == zero else add_central(model, f, g)

    monkeypatch.setattr(centrality, "add_central", wrong_add)
    return model


def _wrong_composite(model):
    # (0, 0)∘(0, 0) on M1_2 gives the other endomorphism
    zero, other = _endomorphisms_of_m12(model)
    compose = model.compose
    model.compose = lambda g, f: other if f == g == zero else compose(g, f)
    return model


def test_distributivity_reports_right_side_failure(monkeypatch):
    # (f+g)∘h breaks first, with h the zero map of M1_2 and f = g the map
    # out of M0_1
    r = check_distributivity(_wrong_sum(monkeypatch, FinCMon(all_commutative_monoids(2))))
    assert not r.passed
    assert r.counterexample == {
        "side": "right", "x": "M0_1", "y": "M1_2", "w": "M1_2", "f": [0],
        "g": [0], "h": [0, 0], "lhs": [0, 0], "rhs": [0, 1]}


def test_distributivity_reports_left_side_failure():
    # h∘(f+g) breaks first, at x = y = w = M1_2
    r = check_distributivity(_wrong_composite(FinCMon(all_commutative_monoids(2))))
    assert not r.passed
    assert r.counterexample == {
        "side": "left", "x": "M1_2", "y": "M1_2", "w": "M1_2", "f": [0, 0],
        "g": [0, 0], "h": [0, 0], "lhs": [0, 1], "rhs": [0, 0]}


def test_linearity_theorem_both_sides(pt2, cmon2):
    r = check_linearity_theorem(cmon2)
    assert r.passed
    assert r.details["left"] and r.details["right"]
    r = check_linearity_theorem(pt2)
    assert r.passed
    assert not r.details["left"]
    assert not r.details["addition_definable"]


def test_linearity_theorem_trivial_models():
    r = check_linearity_theorem(FinPtSet((1,)))
    assert r.passed and r.details["left"] and r.details["right"]
    r = check_linearity_theorem(FinCMon((FinCMon().zero_obj,)))
    assert r.passed and r.details["left"]


# -- distributivity by generators ----------------------------------------------
#
# After check_structure has recorded the category laws as passed,
# distributivity draws h from the generating set when every central morphism,
# composed with every generator on either side, is central again, and takes
# its full loop otherwise.  Switching the generating set off forces the full
# loop; both runs must report alike.

def _row(report):
    return (report.law, report.passed, report.counterexample, report.details)


def _taken(monkeypatch) -> list:
    """Whether each distributivity run from here on took its reduced loop."""
    taken = []
    inner = centrality._law_by_generators

    def spy(law, reduced, full):
        taken.append(reduced is not None)
        return inner(law, reduced, full)

    monkeypatch.setattr(centrality, "_law_by_generators", spy)
    return taken


DISTRIBUTIVITY_MODELS = {
    "monoids-file": (lambda patch: load_model(ROOT / "models" / "commutative_monoids_3.json"),
                     True, True),
    "cmon2": (lambda patch: FinCMon(all_commutative_monoids(2)), True, True),
    "zero-runit-prod-inv": (lambda patch: load_model(
        ROOT / "tests" / "models" / "commutative_monoids_3_zero_runit_prod_inv.json"),
        True, True),
    "wrong-sum": (lambda patch: _wrong_sum(patch, FinCMon(all_commutative_monoids(2))),
                  True, False),
    # a replaced compose is not Model's: the full loop only
    "wrong-composite": (lambda patch: _wrong_composite(
        FinCMon(all_commutative_monoids(2))), False, False),
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIVITY_MODELS))
def test_distributivity_by_generators_matches_full_loop(monkeypatch, name):
    build, reduces, passes = DISTRIBUTIVITY_MODELS[name]
    taken = _taken(monkeypatch)
    model = build(monkeypatch)
    check_structure(model)
    reduced = check_distributivity(model)
    assert taken == [reduces]
    with monkeypatch.context() as patched:
        patched.setattr(centrality, "_generating_set", lambda model: None)
        patched.setattr(checks, "_generating_set", lambda model: None)
        model = build(patched)
        check_structure(model)
        full = check_distributivity(model)
    assert taken == [reduces, False]
    assert _row(reduced) == _row(full)
    assert reduced.passed == passes


def test_distributivity_takes_full_loop_without_recorded_verdicts(monkeypatch):
    taken = _taken(monkeypatch)
    model = FinCMon(all_commutative_monoids(2))
    assert check_distributivity(model).passed  # a fresh model: no verdicts
    check_structure(model)
    assert check_distributivity(model).passed
    # a recorded failure, or a verdict gone, takes the full loop again
    for law in centrality._DISTRIBUTIVITY_RELIES_ON:
        model.memo["laws"][law] = False
        assert check_distributivity(model).passed
        del model.memo["laws"][law]
        assert check_distributivity(model).passed
        model.memo["laws"][law] = True
    assert check_distributivity(model).passed
    assert taken == [False, True] + [False, False] * 2 + [True]


def test_distributivity_takes_full_loop_when_central_class_is_not_closed(
        monkeypatch):
    # Z(M1_2, M1_2) without its zero map, which is a zero map composed with
    # a generator: the induction has no hypothesis to stand on there
    taken = _taken(monkeypatch)
    model = FinCMon(all_commutative_monoids(2))
    zero, _ = _endomorphisms_of_m12(model)
    inner = centrality.central_hom
    monkeypatch.setattr(centrality, "central_hom", lambda model, x, y: tuple(
        f for f in inner(model, x, y) if f != zero))
    check_structure(model)
    assert check_distributivity(model).passed
    assert taken == [False]


def test_each_central_sum_is_computed_once_per_model(monkeypatch):
    # every call goes through the public add_central, which the benchmark's
    # tracer counts, and each distinct (f, g) is computed once
    calls, computed = [], []
    add, compute = add_central, centrality._central_sum

    def counting_add(model, f, g):
        calls.append((f, g))
        return add(model, f, g)

    def counting_compute(model, f, g):
        computed.append((f, g))
        return compute(model, f, g)

    monkeypatch.setattr(centrality, "add_central", counting_add)
    monkeypatch.setattr(centrality, "_central_sum", counting_compute)
    model = FinCMon(all_commutative_monoids(2))
    check_structure(model)
    assert check_linearity_theorem(model).passed
    assert check_distributivity(model).passed
    z2 = [o for o in model.base_objects if o.size == 2][0]
    central_monoid(model, z2, z2)
    assert len(set(computed)) == len(computed)
    assert set(computed) == set(calls) == set(model.memo["central_sum"])
    assert len(calls) > len(computed)


def test_add_central_checks_its_arguments_on_every_call(monkeypatch):
    model = FinCMon(all_commutative_monoids(2))
    zero, other = _endomorphisms_of_m12(model)
    assert add_central(model, zero, other) == other
    sums = dict(model.memo["central_sum"])
    realizer = centrality._central_realizer
    monkeypatch.setattr(centrality, "_central_realizer", lambda model, f: (
        None if f == other else realizer(model, f)))
    # the sum is kept, but its arguments are checked again; the error is a
    # ValueError too, and a call that raises stores nothing
    for f, g in ((zero, other), (other, other)):
        with pytest.raises(NotCentralMorphism, match=r"\(0, 1\) is not central"):
            add_central(model, f, g)
        with pytest.raises(ValueError):
            add_central(model, f, g)
    assert model.memo["central_sum"] == sums


def test_a_reduced_loop_that_raises_hands_over_to_the_full_loop():
    def raising():
        raise NotCentralMorphism("morphism (0,) is not central")
        yield

    full = iter([checks._fail("distributivity", side="left")])
    r = checks._law_by_generators(
        "distributivity", centrality._failing_where_it_raises(raising()), full)
    assert r.counterexample == {"side": "left"}
