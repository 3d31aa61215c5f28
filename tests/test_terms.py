import pytest

from linearcat.errors import (BoundaryMismatch, NonInvertibleGenerator,
                              ParseError)
from linearcat.evaluate import eval_canon, eval_object
from linearcat.models import PtObj
from linearcat.search import canonical_between, words_with
from linearcat.terms import (PARTIALLY_LINEAR, PRELINEAR, CanonTerm,
                             Generator, GenTerm, VComp,
                             collapse_to_one, collapse_to_zero,
                             elementary_factorization, identity_term, invert,
                             parse_term, point_morphism, prod_par,
                             render_term, sum_par, unit_cancel, vcompose)
from linearcat.words import (HOLE, MAX_NESTING, ONE, ZERO, Prod, Sum,
                             is_unit_free, length, parse_word)


def test_generator_schemas():
    lunit = Generator("lunit+", (HOLE,))
    assert lunit.source == Sum(ZERO, HOLE)
    assert lunit.target == HOLE
    i = Generator("i", (HOLE, HOLE))
    assert i.source == Sum(HOLE, HOLE)
    assert i.target == Prod(HOLE, HOLE)
    ident = Generator("id", (HOLE,))
    assert ident.source == ident.target == HOLE
    j = Generator("j")
    assert (j.source, j.target) == (ZERO, ONE)


def test_generator_arity_checked():
    with pytest.raises(ValueError):
        Generator("lunit+", (HOLE, HOLE))
    with pytest.raises(ValueError):
        Generator("nonsense", (HOLE,))


def test_vcompose_boundary_check():
    lunit = GenTerm(Generator("lunit+", (HOLE,)))
    with pytest.raises(BoundaryMismatch) as exc:
        vcompose(lunit, lunit)
    assert "(0+_)" in str(exc.value) and "_" in str(exc.value)


def test_vcompose_identity_boundaries():
    t = GenTerm(Generator("runit*", (HOLE,)))
    composite = vcompose(identity_term(t.target), t)
    assert composite.source == t.source
    assert composite.target == t.target


def test_parallel_boundaries():
    a = GenTerm(Generator("lunit+", (HOLE,)))
    b = identity_term(HOLE)
    par = sum_par(a, b)
    assert par.source == Sum(a.source, HOLE)
    assert par.target == Sum(HOLE, HOLE)
    assert length(par.source) == length(par.target)


def test_point_morphism_boundaries():
    pm = point_morphism()
    assert pm.source == ONE
    assert pm.target == ZERO


def test_point_morphism_evaluates_to_unique_map(pt3, cmon):
    for model in (pt3, cmon):
        m = eval_canon(model, point_morphism(), ())
        assert m.dom == model.one_obj
        assert m.cod == model.zero_obj
        assert m.graph == (0,)


def test_collapse_examples():
    assert collapse_to_zero(ZERO) == identity_term(ZERO)
    assert collapse_to_one(ZERO) == GenTerm(Generator("j"))
    t = collapse_to_zero(Prod(ZERO, ONE))
    assert t.source == Prod(ZERO, ONE)
    assert t.target == ZERO


def test_collapse_rejects_positive_length():
    with pytest.raises(ValueError):
        collapse_to_zero(HOLE)


def test_collapse_evaluates_to_unique_map(pt3):
    for w in words_with(0, 1) + words_with(0, 2) + words_with(0, 3):
        for t in (collapse_to_zero(w), collapse_to_one(w)):
            m = eval_canon(pt3, t, ())
            assert m.graph == (0,) * m.dom.size


def test_unit_cancel_single_unitor():
    t = unit_cancel(Sum(HOLE, ZERO))
    assert t == GenTerm(Generator("runit+", (HOLE,)))


def test_unit_cancel_two_attachments():
    t = unit_cancel(Sum(ZERO, Prod(HOLE, ONE)))
    assert isinstance(t, VComp)
    assert t.later == GenTerm(Generator("runit*", (HOLE,)))
    assert t.earlier == GenTerm(Generator("lunit+", (Prod(HOLE, ONE),)))
    assert t.target == HOLE


def test_unit_cancel_inside_core():
    t = unit_cancel(Prod(Sum(HOLE, ZERO), HOLE))
    assert t == prod_par(GenTerm(Generator("runit+", (HOLE,))),
                         identity_term(HOLE))
    assert t.target == Prod(HOLE, HOLE)


def test_unit_cancel_length_zero_targets():
    assert unit_cancel(ZERO).target == ZERO
    assert unit_cancel(ONE).target == ONE
    assert unit_cancel(Sum(ZERO, ONE)).target == ZERO
    assert unit_cancel(Prod(ONE, ZERO)).target == ONE


def test_unit_cancel_rejects_long_words():
    with pytest.raises(ValueError):
        unit_cancel(parse_word("(_+(_+_))"))


def _cancel_corpus(max_units=3):
    for n in (0, 1, 2):
        for u in range(max_units + 1):
            yield from words_with(n, u)


def test_unit_cancel_target_is_unit_free_core():
    for w in _cancel_corpus():
        t = unit_cancel(w)
        assert t.source == w
        if length(w) > 0:
            assert is_unit_free(t.target)
            assert length(t.target) == length(w)


def test_invert_examples():
    lunit = GenTerm(Generator("lunit+", (HOLE,)))
    assert invert(lunit) == GenTerm(Generator("lunit+", (HOLE,), inverse=True))
    i = GenTerm(Generator("i", (HOLE, HOLE)))
    with pytest.raises(NonInvertibleGenerator):
        invert(i, PRELINEAR)
    assert invert(i, PARTIALLY_LINEAR) == GenTerm(
        Generator("i", (HOLE, HOLE), inverse=True))
    j = GenTerm(Generator("j"))
    with pytest.raises(NonInvertibleGenerator):
        invert(j, PRELINEAR)
    assert invert(j, PARTIALLY_LINEAR).source == ONE


def test_invert_swaps_boundaries_and_round_trips(cmon):
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    for w in words_with(1, 1) + words_with(2, 1):
        t = unit_cancel(w)
        s = invert(t, PARTIALLY_LINEAR)
        assert s.source == t.target and s.target == t.source
        objs = (z2,) * length(w)
        forward = eval_canon(cmon, t, objs)
        backward = eval_canon(cmon, s, objs)
        assert cmon.compose(backward, forward) == cmon.identity(forward.dom)
        assert cmon.compose(forward, backward) == cmon.identity(forward.cod)


def test_factorization_shapes():
    i = GenTerm(Generator("i", (HOLE, HOLE)))
    elems = elementary_factorization(i)
    assert len(elems) == 1 and elems[0].gen == i.gen

    par = sum_par(GenTerm(Generator("lunit*", (HOLE,))), identity_term(HOLE))
    elems = elementary_factorization(par)
    assert len(elems) == 1
    assert elems[0].source == par.source and elems[0].target == par.target

    a = GenTerm(Generator("runit+", (HOLE,)))
    b = GenTerm(Generator("lunit+", (Sum(HOLE, ZERO),)))
    comp = vcompose(a, b)
    assert elementary_factorization(comp) == \
        elementary_factorization(b) + elementary_factorization(a)


def _term_corpus():
    terms: list[CanonTerm] = [point_morphism()]
    for w in _cancel_corpus(max_units=2):
        terms.append(unit_cancel(w))
    terms.append(sum_par(unit_cancel(Sum(HOLE, ZERO)), point_morphism()))
    terms.append(prod_par(identity_term(ONE), unit_cancel(Prod(ONE, HOLE))))
    terms.extend(canonical_between(Sum(ZERO, HOLE), HOLE, depth=3))
    terms.extend(canonical_between(Sum(HOLE, HOLE), Prod(HOLE, HOLE), depth=3))
    return terms


def test_every_constructible_term_preserves_length():
    for t in _term_corpus():
        assert length(t.source) == length(t.target)


def test_factorization_is_sound_in_both_models(pt3, cmon):
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    for t in _term_corpus():
        n = length(t.source)
        elems = elementary_factorization(t)
        if elems:
            assert elems[0].source == t.source
            assert elems[-1].target == t.target
            for first, second in zip(elems, elems[1:]):
                assert first.target == second.source
        for model, obj in ((pt3, PtObj(3)), (cmon, z2)):
            objs = (obj,) * n
            direct = eval_canon(model, t, objs)
            chained = model.identity(eval_object(model, t.source, objs))
            for e in elems:
                chained = model.compose(eval_canon(model, e.to_canon(), objs),
                                        chained)
            assert direct == chained


def test_term_text_round_trip():
    sample = "comp(lunit+[_], par+(id[0], runit*[_]))"
    t = parse_term(sample)
    assert render_term(t) == sample
    for t in _term_corpus():
        assert parse_term(render_term(t)) == t


def test_parse_term_rejects_ill_formed_composites():
    with pytest.raises(BoundaryMismatch):
        parse_term("comp(lunit+[_], par+(id[_], runit*[_]))")


def test_parse_term_nested_too_deeply_is_a_parse_error():
    # composites nested MAX_NESTING deep parse; one level more, or thousands
    # more, is a ParseError at the offending head, not a RecursionError
    for head in ("comp(", "par+(", "par*("):
        deepest = head * MAX_NESTING + "id[_]" + ", id[_])" * MAX_NESTING
        assert render_term(parse_term(deepest)) == deepest
        for levels in (MAX_NESTING + 1, 3000):
            text = head * levels + "id[_]" + ", id[_])" * levels
            with pytest.raises(ParseError, match="nested deeper") as exc:
                parse_term(text)
            assert exc.value.position == len(head) * MAX_NESTING


def test_term_text_inverse_marker():
    t = invert(GenTerm(Generator("assoc*", (HOLE, ZERO, HOLE))))
    text = render_term(t)
    assert "'" in text
    assert parse_term(text) == t


def test_eval_canon_checks_arity(pt3):
    from linearcat.errors import ArityMismatch
    from linearcat.evaluate import eval_canon
    with pytest.raises(ArityMismatch):
        eval_canon(pt3, identity_term(HOLE), ())


def test_parse_term_offsets_count_from_the_start_of_the_term():
    # a malformed word argument is reported where it sits in the term text
    for text, offset in (("comp(id[_], i[_, (_*x)])", 20), ("i[(_+), _]", 5)):
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert exc.value.position == offset
