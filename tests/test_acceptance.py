"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  The coherence sweeps use the stratified corpora described
in the README (exhaustive for unit-light word pairs, deterministic strides
through the unit-heavy strata).
"""

import itertools
import json
import time

from linearcat.centrality import (CentralMonoid, add_central,
                                  central_monoid, check_distributivity,
                                  covers_prod, covers_sum, is_central,
                                  is_central_matrix)
from linearcat.checks import (check_prelinear, check_structure,
                              check_transformer, is_lineariser)
from linearcat.errors import IntegrityError, LineariserRequired
from linearcat.evaluate import eval_object
from linearcat.matrices import (coherence_identity_check, matrix_of,
                                identity_matrix, _realization_map)
from linearcat.models import Mor, PtObj, model_from_dict
from linearcat.sweeps import (coherence_sweep, equal_length_pairs,
                              unit_square_sweep)
from linearcat.terms import PARTIALLY_LINEAR
from linearcat.words import HOLE, Prod, Sum

S2, P2 = Sum(HOLE, HOLE), Prod(HOLE, HOLE)


def _verdict(num: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}"


def _tuples(model, max_size, n):
    objs = [o for o in model.base_objects if o.size <= max_size]
    return list(itertools.product(objs, repeat=n))


def test_criterion_1_structure_suite(pt3, cmon):
    start = time.time()
    failures = []
    for model in (pt3, cmon):
        for check in (check_structure, check_transformer, check_prelinear):
            failures.extend(r for r in check(model) if not r.passed)
    elapsed = time.time() - start
    ok = not failures and elapsed < 60.0
    _verdict(1, "structure suite on both bundled instances", ok,
             f"{elapsed:.1f}s, {len(failures)} failing laws")


def test_criterion_2_identity_matrix_coherence(pt3, cmon):
    violations = []
    for model in (pt3, cmon):
        for n in (1, 2, 3):
            for tup in _tuples(model, 2, n):
                report = coherence_identity_check(model, n, tup, depth=6)
                if not report.passed:
                    violations.append(report.counterexample)
    _verdict(2, "canonical sum-to-product morphisms are unique with identity"
                " matrix (n <= 3, depth 6)", not violations,
             f"{len(violations)} violations")


def test_criterion_3_partially_linear_coherence(cmon):
    def objects_for(n):
        return _tuples(cmon, 2, n)

    reports = []
    for n, mixed, heavy in ((0, 1, 1), (1, 1, 2), (2, 8, 16)):
        corpus = equal_length_pairs(n, 3, mixed_stride=mixed, heavy_stride=heavy)
        reports.append(coherence_sweep(
            cmon, corpus, objects_for, depth=6, mode=PARTIALLY_LINEAR,
            law=f"plin/n={n}"))
    bad = [r for r in reports if not r.passed]
    checked = sum(r.details.get("evaluations", 0) for r in reports if r.passed)
    _verdict(3, "all equal-length canonical terms agree and are invertible"
                " in the monoid instance (depth 6)", not bad,
             f"{checked} pair evaluations" if not bad else str(bad[0].counterexample))


def test_criterion_4_unit_cancellation_square(pt2):
    def objects_for(n):
        return _tuples(pt2, 2, n)

    corpus = equal_length_pairs(2, 3, mixed_stride=4, heavy_stride=8)
    report = unit_square_sweep(pt2, corpus, objects_for, depth=4)
    _verdict(4, "unit-cancellation square commutes for all depth-4 terms"
                " between length-2 words", report.passed,
             f"{report.details.get('terms_checked', 0)} terms checked"
             if report.passed else str(report.counterexample))


def test_criterion_5_centrality_characterization(pt3, cmon):
    mismatches = 0
    total = 0
    for model in (pt3, cmon):
        for x in model.base_objects:
            for y in model.base_objects:
                for f in model.hom(x, y):
                    total += 1
                    if is_central(model, f)[0] != is_central_matrix(model, f):
                        mismatches += 1
    _verdict(5, "cover-based centrality matches the matrix characterization"
                " on every morphism", mismatches == 0,
             f"{total} morphisms, {mismatches} mismatches")


def _pointwise(model, f, g):
    cod = f.cod
    return Mor(f.dom, f.cod,
               tuple(cod.mul(a, b) for a, b in zip(f.graph, g.graph)))


def test_criterion_6_monoid_and_distributivity(cmon):
    problems = []
    for x in cmon.base_objects:
        for y in cmon.base_objects:
            cm = central_monoid(cmon, x, y)
            problems.extend(r for r in cm.verify() if not r.passed)
            for a, f in enumerate(cm.elements):
                for b, g in enumerate(cm.elements):
                    if cm.elements[cm.table[a][b]] != _pointwise(cmon, f, g):
                        problems.append((x.name, y.name, a, b))
    dist = check_distributivity(cmon)
    if not dist.passed:
        problems.append(dist.counterexample)
    _verdict(6, "central monoid laws, distributivity, and the pointwise"
                " addition oracle", not problems,
             f"{len(problems)} problems")


def test_criterion_7_lineariser_witnesses(pt3, cmon):
    ok = True
    notes = []
    lin, witness = is_lineariser(pt3)
    if lin or witness["witness"] != ("P2", "P2") \
            or "3" not in witness["reason"] or "4" not in witness["reason"]:
        ok = False
        notes.append(f"pointed-sets witness wrong: {witness}")
    try:
        add_central(pt3, pt3.identity(PtObj(2)), pt3.identity(PtObj(2)))
        ok = False
        notes.append("addition did not refuse on pointed sets")
    except LineariserRequired:
        pass
    lin, inverses = is_lineariser(cmon)
    if not lin:
        ok = False
        notes.append("monoid instance lost its lineariser")
    else:
        for (a_name, b_name), inv in inverses.items():
            a, b = cmon.object_by_name(a_name), cmon.object_by_name(b_name)
            i = cmon.structure("i", a, b)
            if cmon.compose(inv, i) != cmon.identity(i.dom) \
                    or cmon.compose(i, inv) != cmon.identity(i.cod):
                ok = False
                notes.append(f"inverse at ({a_name}, {b_name}) is one-sided")
    _verdict(7, "non-lineariser witness for pointed sets, verified inverses"
                " for monoids", ok, "; ".join(notes))


def test_criterion_8_integrity(pt3, cmon):
    problems = []
    try:
        for model, max_size in ((pt3, 2), (cmon, 2)):
            objs = [o for o in model.base_objects if o.size <= max_size]
            for a, b in itertools.product(objs, repeat=2):
                table = _realization_map(model, (S2, (a, b)), (P2, (a, b)))
                dom = eval_object(model, S2, (a, b))
                cod = eval_object(model, P2, (a, b))
                if len(table) != len(model.hom(dom, cod)):
                    problems.append(("realization map not injective",
                                     model.kind, a.name, b.name))
            small = [o for o in model.base_objects if o.size <= 2]
            for x, y in itertools.product(small, repeat=2):
                for f in model.hom(x, y):
                    for g in model.hom(y, y):
                        covers_sum(model, f, model.compose(g, f))
                    for g in model.hom(x, x):
                        covers_prod(model, f, model.compose(f, g))
    except IntegrityError as exc:
        problems.append(str(exc))
    _verdict(8, "no duplicated realizers or cover witnesses across sweeps",
             not problems, f"{len(problems)} integrity problems")


def _replayable(counterexample) -> bool:
    return counterexample is not None and bool(
        json.dumps(counterexample))  # structured and serializable


def test_criterion_9_fault_injection(cmon):
    ok = True
    notes = []

    # one unitor component, via the model-file override interface
    faulty = model_from_dict({
        "schema": 1, "kind": "pointed_sets", "objects": [1, 2, 3],
        "overrides": [
            {"table": "lunit_sum", "objects": ["P2"], "graph": [0, 0]}]})
    failing = [r for r in check_structure(faulty) if not r.passed]
    if not failing or not all(_replayable(r.counterexample) for r in failing):
        ok = False
        notes.append("unitor corruption went unnoticed")
    else:
        p2 = faulty.object_by_name("P2")
        forward = faulty.structure("lunit_sum", p2)
        backward = faulty.structure("lunit_sum_inv", p2)
        if faulty.compose(forward, backward) == faulty.identity(p2):
            ok = False
            notes.append("unitor counterexample did not replay")

    # one transformer component
    twisted = model_from_dict({
        "schema": 1, "kind": "pointed_sets", "objects": [1, 2, 3],
        "overrides": [
            {"table": "i", "objects": ["P2", "P2"], "graph": [0, 1, 2]}]})
    pre = check_prelinear(twisted)
    matrix_report = next(r for r in pre if r.law == "i-matrix-identity")
    transformer_failing = [r for r in check_transformer(twisted) if not r.passed]
    if matrix_report.passed or not transformer_failing:
        ok = False
        notes.append("transformer corruption went unnoticed")
    else:
        a = twisted.object_by_name(matrix_report.counterexample["a"])
        b = twisted.object_by_name(matrix_report.counterexample["b"])
        got = matrix_of(twisted, twisted.structure("i", a, b),
                        (S2, (a, b)), (P2, (a, b)))
        want = identity_matrix(twisted, (a, b), S2, P2)
        if got.entry_key() == want.entry_key():
            ok = False
            notes.append("transformer counterexample did not replay")

    # one addition-table entry: poke the unit row
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    cm = central_monoid(cmon, z2, z2)
    victim = (cm.unit_index + 1) % len(cm.elements)
    table = [list(row) for row in cm.table]
    table[cm.unit_index][victim] = (table[cm.unit_index][victim] + 1) % len(cm.elements)
    corrupted = CentralMonoid(cm.x, cm.y, cm.elements,
                              tuple(tuple(r) for r in table), cm.unit_index)
    failing = [r for r in corrupted.verify() if not r.passed]
    if not failing or not all(_replayable(r.counterexample) for r in failing):
        ok = False
        notes.append("addition corruption went unnoticed")
    else:
        ce = next(r.counterexample for r in failing
                  if r.law == "central-monoid/unit")
        a = ce["index"]
        true_sum = add_central(cmon, cm.elements[cm.unit_index], cm.elements[a])
        if corrupted.table[cm.unit_index][a] == cm.elements.index(true_sum):
            ok = False
            notes.append("addition counterexample did not replay")

    _verdict(9, "single-table corruptions all surface as named, replayable"
                " failures", ok, "; ".join(notes))
