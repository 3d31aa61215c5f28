"""The morphism kernels and structure components against their index
formulas."""

import itertools
import json
from pathlib import Path

import pytest

from linearcat.checks import check_structure
from linearcat.evaluate import component_at, eval_object
from linearcat.models import (CMonObj, FinCMon, FinPtSet, Mor, PtObj,
                               all_commutative_monoids, load_model,
                               structure_table)
from linearcat.search import pure_bracketings, words_with
from linearcat.terms import (_ARITY, ASSOC_PROD, ASSOC_SUM, I_GEN, J_GEN,
                             LUNIT_PROD, LUNIT_SUM, RUNIT_PROD, RUNIT_SUM)
from linearcat.words import LEAVES, PROD, SUM, length

TESTS = Path(__file__).resolve().parent
MODEL_FILES = [*sorted((TESTS.parent / "models").glob("*.json")),
               *sorted((TESTS / "models").glob("*.json"))]
# the move kinds (generator kind, inverse) of the associators and unitors,
# of j and of i, each with its inverse
ASSOCIATORS_AND_UNITORS = frozenset(
    (kind, inverse) for kind in (ASSOC_SUM, ASSOC_PROD, LUNIT_SUM, RUNIT_SUM,
                                 LUNIT_PROD, RUNIT_PROD)
    for inverse in (False, True))
J_MOVES = frozenset({(J_GEN, False), (J_GEN, True)})
I_MOVES = frozenset({(I_GEN, False), (I_GEN, True)})


def _pair_graph(f, g):
    """The graph of f x g, one divmod per entry of the lexicographic pairs."""
    nb, nb2 = g.dom.size, g.cod.size
    return tuple(f.graph[v // nb] * nb2 + g.graph[v % nb]
                 for v in range(f.dom.size * nb))


def _wedge_graph(f, g):
    """The graph of f + g on wedges: the basepoint to 0, the non-base points
    of the left summand kept, those of the right one shifted up by
    |cod f| - 1 in the codomain and |dom f| - 1 in the domain."""
    graph = [0] * (f.dom.size + g.dom.size - 1)
    for x in range(1, f.dom.size):
        graph[x] = f.graph[x]
    for y in range(1, g.dom.size):
        if g.graph[y]:
            graph[f.dom.size - 1 + y] = f.cod.size - 1 + g.graph[y]
    return tuple(graph)


def _assoc_prod_graph(a, b, c):
    """(x, (y, z)) -> ((x, y), z) on lexicographically numbered triples."""
    graph = []
    for v in range(a.size * b.size * c.size):
        x, yz = divmod(v, b.size * c.size)
        y, z = divmod(yz, c.size)
        graph.append((x * b.size + y) * c.size + z)
    return tuple(graph)


def _assoc_wedge_graph(a, b, c):
    """a+(b+c) -> (a+b)+c on wedges numbered basepoint, then the non-base
    points of the left summand, then those of the right one shifted up."""
    def right(n, y):
        return 0 if y == 0 else n - 1 + y

    graph = [0] * (a.size + b.size + c.size - 2)
    for x in range(1, a.size):
        graph[x] = x
    for y in range(1, b.size):
        graph[right(a.size, y)] = right(a.size, y)
    for z in range(1, c.size):
        graph[right(a.size, right(b.size, z))] = right(a.size + b.size - 1, z)
    return tuple(graph)


def _inverse(graph):
    inv = [0] * len(graph)
    for x, y in enumerate(graph):
        inv[y] = x
    return tuple(inv)


def _all_homs(model):
    return [f for x, y in itertools.product(model.base_objects, repeat=2)
            for f in model.hom(x, y)]


@pytest.mark.parametrize("name", ["pt3", "cmon2"])
def test_kernels_equal_index_formulas(request, name):
    model = request.getfixturevalue(name)
    homs = _all_homs(model)
    for f, g in itertools.product(homs, repeat=2):
        want = _pair_graph(f, g)
        assert model.prod_mor(f, g) == Mor(model.prod_obj(f.dom, g.dom),
                                           model.prod_obj(f.cod, g.cod), want)
        if isinstance(model, FinCMon):
            assert model.sum_mor(f, g).graph == want
        else:
            assert model.sum_mor(f, g) == Mor(model.sum_obj(f.dom, g.dom),
                                              model.sum_obj(f.cod, g.cod),
                                              _wedge_graph(f, g))
        if f.cod == g.dom:
            assert model.compose(g, f).graph == tuple(g.graph[v] for v in f.graph)


def test_kernel_memos_tell_codomain_sizes_apart():
    # The graph (0, 1) is both P2 -> P2 and P2 -> P3.  A product's graph
    # depends on the codomain size of its right factor and a wedge's on that
    # of its left summand, so a memo keyed by the graphs alone would hand a
    # later call an earlier call's graph.
    model = FinPtSet((1, 2, 3))
    p2, p3 = PtObj(2), PtObj(3)
    into_p2, into_p3 = Mor(p2, p2, (0, 1)), Mor(p2, p3, (0, 1))
    for kernel, formula in ((model.prod_mor, _pair_graph),
                            (model.sum_mor, _wedge_graph)):
        for f, g in itertools.product((into_p2, into_p3), repeat=2):
            assert kernel(f, g).graph == formula(f, g), (kernel.__name__, f, g)
    for h in (into_p2, into_p3):
        assert model.prod_mor(h, into_p2).graph != model.prod_mor(h, into_p3).graph
        assert model.sum_mor(into_p2, h).graph != model.sum_mor(into_p3, h).graph


@pytest.mark.parametrize("name", ["pt3", "cmon2"])
def test_associators_equal_index_formulas(request, name):
    model = request.getfixturevalue(name)
    sum_graph = _assoc_wedge_graph if isinstance(model, FinPtSet) \
        else _assoc_prod_graph
    objs = model.base_objects
    triples = list(itertools.product(objs, repeat=3))
    triples += [(model.prod_obj(a, b), c, d)
                for a, b, c, d in itertools.product(objs, repeat=4)]
    for tag, obj, formula in (("sum", model.sum_obj, sum_graph),
                              ("prod", model.prod_obj, _assoc_prod_graph)):
        for a, b, c in triples:
            dom, cod = obj(a, obj(b, c)), obj(obj(a, b), c)
            want = formula(a, b, c)
            assert model.structure(f"assoc_{tag}", a, b, c) == Mor(dom, cod, want)
            assert model.structure(f"assoc_{tag}_inv", a, b, c) \
                == Mor(cod, dom, _inverse(want))


def _unitor_domains(model, a) -> dict:
    """The domain of each unitor at ``a``, built without the model."""
    if isinstance(model, FinPtSet):
        # the wedge with, and the product with, the one-point set
        return dict.fromkeys(
            ("lunit_sum", "runit_sum", "lunit_prod", "runit_prod"), PtObj(a.size))
    unit = next(o for o in model.base_objects if o.size == 1)
    left, right = CMonObj(factors=(unit, a)), CMonObj(factors=(a, unit))
    return {"lunit_sum": left, "runit_sum": right,
            "lunit_prod": left, "runit_prod": right}


def _i_formula(model, a, b) -> Mor:
    """Pointed sets: the wedge onto lexicographic pairs, a non-base x to
    (x, 0) and a non-base y to (0, y).  Monoids: the identity on a x b."""
    if isinstance(model, FinPtSet):
        pairs = [(0, 0)] + [(x, 0) for x in range(1, a.size)] \
            + [(0, y) for y in range(1, b.size)]
        return Mor(PtObj(a.size + b.size - 1), PtObj(a.size * b.size),
                   tuple(x * b.size + y for x, y in pairs))
    p = CMonObj(factors=(a, b))
    return Mor(p, p, tuple(range(p.size)))


@pytest.mark.parametrize("name", ["pt3", "cmon2"])
def test_unitors_and_i_equal_index_formulas(request, name):
    model = request.getfixturevalue(name)
    objs = model.base_objects
    checked = 0
    for a in objs + (model.prod_obj(*objs[-2:]),):
        ident = tuple(range(a.size))
        for table, dom in _unitor_domains(model, a).items():
            assert model.structure(table, a) == Mor(dom, a, ident), (table, a)
            assert model.structure(f"{table}_inv", a) == Mor(a, dom, ident), (table, a)
            checked += 2
    assert checked == 8 * (len(objs) + 1)
    for a, b in itertools.product(objs, repeat=2):
        assert model.structure("i", a, b) == _i_formula(model, a, b), (a, b)


def _is_identity(m: Mor) -> bool:
    return m.graph == tuple(range(m.dom.size)) and m.cod.size == m.dom.size


@pytest.mark.parametrize("name", ["pt3", "cmon2"])
def test_associators_unitors_and_their_whiskers_are_identities(request, name):
    # The value flood passes values through every move of a kind in
    # identity_moves unevaluated, told from its code: the associators and
    # unitors, j and j' in every model, and i and i' on monoids.  That is
    # sound because each component, at base objects and at a product
    # object, is the identity carrier map, and so is its sum and its product
    # with the identity of each base object, on either side.
    model = request.getfixturevalue(name)
    monoids = isinstance(model, FinCMon)
    assert model.identity_moves == \
        ASSOCIATORS_AND_UNITORS | J_MOVES | (I_MOVES if monoids else set())
    objs = model.base_objects
    at = objs + (model.prod_obj(*objs[-2:]),)
    checked = 0
    for kind, inverse in sorted(model.identity_moves):
        for args in itertools.product(at, repeat=_ARITY[kind]):
            mor = component_at(model, kind, inverse, args)
            assert _is_identity(mor), (kind, inverse, args)
            for c in objs:
                ident = model.identity(c)
                for whisker in (model.sum_mor, model.prod_mor):
                    for pair in ((mor, ident), (ident, mor)):
                        assert _is_identity(whisker(*pair)), (kind, inverse, args, c)
            checked += 1
    assert checked == 4 * len(at) ** 3 + 8 * len(at) + 2 \
        + (2 * len(at) ** 2 if monoids else 0)


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda path: path.stem)
def test_zero_object_is_the_one_object_with_one_point(path):
    # j and j' pass values by their code in every model: each is a map
    # from the zero object to itself, since the zero object is also the
    # product unit, and a one-point object has one endomorphism, its
    # identity.
    model = load_model(path)
    zero = model.zero_obj
    assert zero is model.one_obj
    assert zero.size == 1
    assert zero in model.base_objects
    assert model.hom(zero, zero) == (model.identity(zero),)
    assert J_MOVES <= model.identity_moves


def _subword_objects(model, words, objs) -> tuple[set, set]:
    """The objects of every subword of ``words`` evaluated at every tuple
    of ``objs``, and the pairs of objects of the two children of each sum
    or product subword."""
    objects, pairs, seen = set(), set(), set()
    stack = list(words)
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        for at in itertools.product(objs, repeat=length(w)):
            objects.add(eval_object(model, w, at))
            if w not in LEAVES:
                cut = length(w[1])
                pairs.add((eval_object(model, w[1], at[:cut]),
                           eval_object(model, w[2], at[cut:])))
        if w not in LEAVES:
            stack += w[1:]
    return objects, pairs


@pytest.mark.parametrize("model_file", ["pointed_sets_3.json",
                                        "commutative_monoids_3.json"])
def test_kernels_send_identity_pairs_to_identities(model_file):
    # The flood passes values through a move whose generator component is
    # the identity without whiskering it.  That is sound only if the sum and
    # the product of two identities is the identity at the composite
    # objects the sweeps' words evaluate to, not only at base ones.  Checked
    # here at the two children of every sum or product subword of the sweep
    # corpora's words, at objects of size <= 2, and at each object those
    # subwords evaluate to, paired with each base object of size <= 2 on
    # either side.
    model = load_model(TESTS.parent / "models" / model_file)
    small = [o for o in model.base_objects if o.size <= 2]
    words = [w for n in range(3) for u in range(4) for w in words_with(n, u)]
    words += [w for n in (1, 2, 3) for op in (SUM, PROD)
              for w in pure_bracketings(op, n)]
    objects, pairs = _subword_objects(model, words, small)
    pairs |= {p for x in objects for y in small for p in ((x, y), (y, x))}
    assert len(objects - set(model.base_objects)) > (
        0 if model.kind == "pointed_sets" else 900)
    for a, b in pairs:
        ida, idb = model.identity(a), model.identity(b)
        assert model.sum_mor(ida, idb) == model.identity(model.sum_obj(a, b)), (a, b)
        assert model.prod_mor(ida, idb) == model.identity(model.prod_obj(a, b)), (a, b)


@pytest.mark.parametrize("path", [
    TESTS.parent / "models" / "pointed_sets_3_faulty.json",
    *sorted((TESTS / "models").glob("*.json")),
], ids=lambda path: path.stem)
def test_identity_tables_omit_exactly_the_overridden_tables(path):
    # The moves of an overridden table drop out of identity_moves, and
    # with i its inverse; j and j' stay, and so do i and i' on monoids
    # whose i no override touches.
    overridden = {ov["table"] for ov in
                  json.loads(path.read_text(encoding="utf-8"))["overrides"]}
    assert overridden
    model = load_model(path)
    moves = ASSOCIATORS_AND_UNITORS | J_MOVES
    if model.kind == "commutative_monoids":
        moves |= I_MOVES
    assert model.identity_moves == {
        (kind, inverse) for kind, inverse in moves
        if kind == J_GEN or structure_table(kind, inverse and kind != I_GEN)
        not in overridden}
    assert J_MOVES <= model.identity_moves


def test_monoid_i_override_keeps_i_and_its_inverse_out():
    # A monoid model states that its pristine i is the identity; an
    # override of i, here the swap of the factors at (M1_2, M1_2), which is
    # an automorphism but no identity, takes i and i' out of the set.
    model = FinCMon(all_commutative_monoids(2),
                    [("i", ("M1_2", "M1_2"), (0, 2, 1, 3))])
    assert FinCMon.identity_i and not FinPtSet.identity_i
    assert model.identity_moves == ASSOCIATORS_AND_UNITORS | J_MOVES


@pytest.mark.parametrize("build, objects", [
    (lambda overrides=(): FinPtSet((1, 2), overrides), ("P2", "P2", "P2")),
    (lambda overrides=(): FinCMon(all_commutative_monoids(2), overrides),
     ("M1_2", "M2_2", "M1_2")),
], ids=["pt2", "cmon2"])
def test_corrupted_product_associator_is_caught(build, objects):
    pristine = build()
    graph = pristine.structure(
        "assoc_prod", *map(pristine.object_by_name, objects)).graph
    corrupted = (graph[0], graph[2]) + graph[2:]
    reports = check_structure(build([("assoc_prod", objects, corrupted)]))
    failed = {r.law for r in reports if not r.passed}
    assert failed & {"prod/pentagon", "prod/assoc-natural"}
