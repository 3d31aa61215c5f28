"""Evaluation of words and canonical terms inside a finite model."""

from __future__ import annotations

from .errors import ArityMismatch
from .models import Model, Mor, _memoised, structure_table
from .terms import (IDENTITY, J_GEN, PRELINEAR, CanonTerm, Generator, GenTerm,
                    VComp, invert, point_morphism, unit_cancel)
from .words import (HOLE, ONE, PROD, SUM, ZERO, Word, length, node,
                    render_word)


def eval_object(model: Model, w: Word, objects: tuple):
    """The word functor on objects: fill holes left to right.  Computed once
    per model and ``(w, objects)``, as is each subword at its slice of
    ``objects``, into ``model.memo["object"]``."""
    return _memoised(model, "object", _eval_object, w, tuple(objects))


def _eval_object(model: Model, w: Word, objects: tuple):
    if len(objects) != length(w):
        raise ArityMismatch(
            f"word {render_word(w)} has length {length(w)}, got {len(objects)} object(s)")
    if w == HOLE:
        return objects[0]
    if w == ZERO or w == ONE:
        return model.zero_obj if w == ZERO else model.one_obj
    op, left, right = w
    cut = length(left)
    a = eval_object(model, left, objects[:cut])
    b = eval_object(model, right, objects[cut:])
    return model.sum_obj(a, b) if op == SUM else model.prod_obj(a, b)


def eval_morphism(model: Model, w: Word, morphisms: tuple[Mor, ...]) -> Mor:
    """The word functor on morphisms; units contribute identities.  Each
    subword takes its slice of ``morphisms``, as in ``_eval_object``."""
    if len(morphisms) != length(w):
        raise ArityMismatch(
            f"word {render_word(w)} has length {length(w)}, got {len(morphisms)} morphism(s)")
    if w == HOLE:
        return morphisms[0]
    if w == ZERO or w == ONE:
        return model.identity(model.zero_obj if w == ZERO else model.one_obj)
    op, left, right = w
    cut = length(left)
    a = eval_morphism(model, left, morphisms[:cut])
    b = eval_morphism(model, right, morphisms[cut:])
    return model.sum_mor(a, b) if op == SUM else model.prod_mor(a, b)


def eval_generator(model: Model, gen: Generator, objects: tuple) -> Mor:
    """The component of a generator at the given objects."""
    if gen.kind == IDENTITY:
        return model.identity(eval_object(model, gen.args[0], objects))
    objs, start = [], 0  # each argument word takes the next slice of objects
    for w in gen.args:
        objs.append(eval_object(model, w, objects[start:start + length(w)]))
        start += length(w)
    return component_at(model, gen.kind, gen.inverse, tuple(objs))


def component_at(model: Model, kind: str, inverse: bool, objs: tuple) -> Mor:
    """The component of a non-identity generator at its argument objects:
    j and j' are computed, i' is ``Model.i_inverse``, any other is read
    through ``Model.structure``."""
    if kind == J_GEN:
        if inverse:
            return eval_canon(model, point_morphism(), ())
        return model.j_morphism()
    table = structure_table(kind, inverse)
    if table is None:
        return model.i_inverse(*objs)
    return model.structure(table, *objs)


def eval_canon(model: Model, t: CanonTerm, objects: tuple) -> Mor:
    """Interpret a canonical term at an object tuple for its source word."""
    if len(objects) != length(t.source):
        raise ArityMismatch(
            f"term source {render_word(t.source)} has length {length(t.source)},"
            f" got {len(objects)} object(s)")
    return _eval_canon(model, t, tuple(objects))


def _eval_canon(model: Model, t: CanonTerm, objects: tuple) -> Mor:
    if isinstance(t, GenTerm):
        return eval_generator(model, t.gen, objects)
    if isinstance(t, VComp):
        earlier = _eval_canon(model, t.earlier, objects)
        later = _eval_canon(model, t.later, objects)
        return model.compose(later, earlier)
    cut = length(t.left.source)
    left = _eval_canon(model, t.left, objects[:cut])
    right = _eval_canon(model, t.right, objects[cut:])
    if t.op == SUM:
        return model.sum_mor(left, right)
    return model.prod_mor(left, right)


# ---------------------------------------------------------------------------
# Inclusions, projections, zero morphisms: each depends only on the model
# and its arguments, so each is computed once into its own memo concern.

def is_pure_word(w: Word, op: str) -> bool:
    """True when ``w`` is built from holes and ``op`` alone (units excluded)."""
    if w == HOLE:
        return True
    if w == ZERO or w == ONE:
        return False
    node_op, left, right = w
    return node_op == op and is_pure_word(left, op) and is_pure_word(right, op)


def _with_units_except(w: Word, keep: int, unit: Word, counter: list[int]) -> Word:
    if w == HOLE:
        idx = counter[0]
        counter[0] += 1
        return w if idx == keep else unit
    if w == ZERO or w == ONE:
        return w
    op, left, right = w
    return node(op, _with_units_except(left, keep, unit, counter),
                _with_units_except(right, keep, unit, counter))


def inclusion(model: Model, w: Word, objects: tuple, index: int) -> Mor:
    """The inclusion of the index-th summand into an n-fold sum word.

    Built as the canonical isomorphism onto the word with every other hole
    zeroed out, followed by the word functor applied to bang maps.  Computed
    once per model and ``(w, objects, index)``.
    """
    return _memoised(model, "inclusion", _inclusion, w, tuple(objects), index)


def _inclusion(model: Model, w: Word, objects: tuple, index: int) -> Mor:
    if not is_pure_word(w, SUM):
        raise ValueError(f"inclusion needs a pure sum word, got {render_word(w)}")
    n = length(w)
    if not 1 <= index <= n:
        raise IndexError(f"inclusion index {index} out of range 1..{n}")
    zeroed = _with_units_except(w, index - 1, ZERO, [0])
    cancel = unit_cancel(zeroed) if n > 1 else None
    if cancel is None:
        iso = model.identity(objects[index - 1])
    else:
        iso = eval_canon(model, invert(cancel, PRELINEAR), (objects[index - 1],))
    mors = tuple(
        model.identity(objects[index - 1]) if k == index - 1
        else model.bang_from_zero(objects[k]) for k in range(n))
    return model.compose(eval_morphism(model, w, mors), iso)


def projection(model: Model, w: Word, objects: tuple, index: int) -> Mor:
    """The projection onto the index-th factor of an n-fold product word,
    computed once per model and ``(w, objects, index)``."""
    return _memoised(model, "projection", _projection, w, tuple(objects), index)


def _projection(model: Model, w: Word, objects: tuple, index: int) -> Mor:
    if not is_pure_word(w, PROD):
        raise ValueError(f"projection needs a pure product word, got {render_word(w)}")
    n = length(w)
    if not 1 <= index <= n:
        raise IndexError(f"projection index {index} out of range 1..{n}")
    oned = _with_units_except(w, index - 1, ONE, [0])
    mors = tuple(
        model.identity(objects[index - 1]) if k == index - 1
        else model.bang_to_one(objects[k]) for k in range(n))
    banged = eval_morphism(model, w, mors)
    if n == 1:
        return banged
    iso = eval_canon(model, unit_cancel(oned), (objects[index - 1],))
    return model.compose(iso, banged)


def zero_morphism(model: Model, x, y) -> Mor:
    """The map factoring through the product unit and then the sum unit,
    computed once per model and ``(x, y)``."""
    return _memoised(model, "zero", _zero_morphism, x, y)


def _zero_morphism(model: Model, x, y) -> Mor:
    point = eval_canon(model, point_morphism(), ())
    return model.compose(model.bang_from_zero(y),
                         model.compose(point, model.bang_to_one(x)))
