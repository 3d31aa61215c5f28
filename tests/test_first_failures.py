"""First failure reports of the laws that come in sum/product pairs.

Each case breaks one structure component, kernel or table, and pins the
text of every failing report: the law, its counterexample and the order of
the counterexample's keys.  The bundled models and golden files pass these
laws, so only these cases reach their failure branches.
"""

from linearcat import centrality
from linearcat.centrality import CentralMonoid, central_hom, check_distributivity
from linearcat.checks import (_check_initial_terminal, check_prelinear,
                              check_structure, check_transformer)
from linearcat.models import FinCMon, FinPtSet, Mor, PtObj, all_commutative_monoids

P2, P3 = PtObj(2), PtObj(3)


def _failing(reports):
    return [str(r) for r in reports if not r.passed]


def _mor(dom, cod, graph):
    return f"{{'dom': '{dom}', 'cod': '{cod}', 'graph': {graph}}}"


def test_runit_diagrams_fail_at_a_broken_sum_unitor():
    model = FinPtSet((1, 2), [("runit_sum", ("P2",), (0, 0))])
    ce = (f"{{'a': 'P2', 'lhs': {_mor('P2', 'P2', [0, 1])},"
          f" 'rhs': {_mor('P2', 'P2', [0, 0])}}}")
    assert _failing(check_transformer(model)) == [
        f"[FAIL] i-compatible-runit  counterexample: {ce}",
        f"[FAIL] i-compatible-runit-via-naturality  counterexample: {ce}",
        "[FAIL] entrywise-implies-compatibility",
    ]


def test_first_entry_fails_at_a_broken_transformer():
    model = FinPtSet((1, 2), [("i", ("P2", "P1"), (0, 0))])
    failing = _failing(check_transformer(model))
    assert failing[1:] == [
        "[FAIL] i-compatible-runit  counterexample: {'a': 'P2', 'lhs': "
        f"{_mor('P2', 'P2', [0, 0])}, 'rhs': {_mor('P2', 'P2', [0, 1])}}}",
        "[FAIL] i-compatible-runit-via-naturality  counterexample: {'a': 'P2',"
        f" 'lhs': {_mor('P2', 'P2', [0, 0])}, 'rhs': {_mor('P2', 'P2', [0, 1])}}}",
        "[FAIL] i-first-entry-identity  counterexample: {'a': 'P2', 'entry': "
        f"{_mor('P2', 'P2', [0, 0])}}}",
    ]
    assert failing[0].startswith("[FAIL] i-natural  counterexample: ")


def test_projections_fail_jointly_mono_at_a_broken_product_unitor():
    model = FinPtSet((1, 2), [("runit_prod", ("P2",), (0, 0))])
    assert _failing(check_structure(model)) == [
        "[FAIL] prod/unitor-iso  counterexample: {'a': 'P2', 'lunit': "
        f"{_mor('P2', 'P2', [0, 1])}, 'runit': {_mor('P2', 'P2', [0, 0])}}}",
        "[FAIL] prod/triangle  counterexample: {'a': 'P2', 'b': 'P1'}",
        "[FAIL] projections-jointly-mono  counterexample: {'a': 'P2', 'b': 'P1',"
        f" 'c': 'P2', 'u': {_mor('P2', 'P2', [0, 1])},"
        f" 'v': {_mor('P2', 'P2', [0, 0])}}}",
    ]


class _MisplacedBangs(FinPtSet):
    """The unique maps at P3 start and end at P2 instead of at the units."""

    def bang_from_zero(self, x):
        return Mor(P2, x, (0, 0)) if x == P3 else super().bang_from_zero(x)

    def bang_to_one(self, x):
        return Mor(x, P2, (0, 0, 0)) if x == P3 else super().bang_to_one(x)


def test_units_fail_initial_and_terminal_at_misplaced_bangs():
    assert _failing(_check_initial_terminal(_MisplacedBangs((1, 2, 3)))) == [
        "[FAIL] zero-initial  counterexample: {'x': 'P3', 'homs': [[0]]}",
        "[FAIL] one-terminal  counterexample: {'x': 'P3', 'homs': [[0, 0, 0]]}",
    ]


def test_laws_whose_maps_cannot_be_built_fail_at_misplaced_bangs():
    # the inclusion and projection of P1 beside P3 compose a misplaced bang
    # with a unitor, and the zero maps at P3 compose the point after a
    # misplaced bang; the entry-identity laws build only the entry of P3
    # (P1 is the zero object), which is the identity, so they pass and the
    # prelinear laws disagree with the transformer laws
    def unbuilt(law, a, b, cod, dom):
        return (f"[FAIL] {law}  counterexample: {{'a': '{a}', 'b': '{b}',"
                f" 'reason': 'maps cannot be built: cannot compose:"
                f" PtObj({cod}) != PtObj({dom})'}}")

    model = _MisplacedBangs((1, 2, 3))
    assert _failing(check_structure(model)) == [
        "[FAIL] zero-initial  counterexample: {'x': 'P3', 'homs': [[0]]}",
        "[FAIL] one-terminal  counterexample: {'x': 'P3', 'homs': [[0, 0, 0]]}",
        unbuilt("inclusions-jointly-epi", "P1", "P3", 1, 2),
        unbuilt("projections-jointly-mono", "P1", "P3", 2, 1),
    ]
    assert _failing(check_transformer(model)) == []
    assert _failing(check_prelinear(model)) == [
        unbuilt("i-matrix-identity", "P1", "P3", 1, 2),
        "[FAIL] prelinear-iff-transformer",
    ]


def test_central_monoid_laws_fail_on_a_broken_table():
    model = FinPtSet((1, 2))
    monoid = CentralMonoid(P2, P2, model.hom(P2, P2), ((1, 1), (1, 0)), 0)
    assert _failing(monoid.verify()) == [
        "[FAIL] central-monoid/associative  counterexample:"
        " {'x': 'P2', 'y': 'P2', 'indices': [0, 0, 1]}",
        "[FAIL] central-monoid/unit  counterexample:"
        " {'x': 'P2', 'y': 'P2', 'index': 0}",
    ]


def test_distributivity_fails_for_a_shifted_addition(monkeypatch):
    def shifted(model, f, g):  # positions in Z(x, y) added, plus one
        zs = central_hom(model, f.dom, f.cod)
        return zs[(zs.index(f) + zs.index(g) + 1) % len(zs)]

    monkeypatch.setattr(centrality, "add_central", shifted)
    report = check_distributivity(FinCMon(all_commutative_monoids(2)))
    assert str(report) == (
        "[FAIL] distributivity  counterexample: {'side': 'right', 'x': 'M0_1',"
        " 'y': 'M1_2', 'w': 'M1_2', 'f': [0], 'g': [0], 'h': [0, 0],"
        " 'lhs': [0, 0], 'rhs': [0, 1]}")
