"""Matrix presentations of morphisms from sum words to product words."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .checks import CheckReport
from .errors import IntegrityError
from .evaluate import (eval_object, inclusion, is_pure_word, projection,
                       zero_morphism)
from .models import Model, Mor, _memoised
from .search import flood_check, pure_bracketings, search_graph
from .terms import PRELINEAR
from .words import PROD, SUM, Word, length, render_word


@dataclass(frozen=True)
class MatrixPresentation:
    src_word: Word
    src_objects: tuple
    tgt_word: Word
    tgt_objects: tuple
    entries: tuple[tuple[Mor, ...], ...]  # entries[row][col]

    @property
    def rows(self) -> int:
        return len(self.tgt_objects)

    @property
    def cols(self) -> int:
        return len(self.src_objects)

    def entry_key(self) -> tuple:
        return tuple(tuple(m.graph for m in row) for row in self.entries)


def _validate_words(src, tgt):
    src_word, src_objects = src
    tgt_word, tgt_objects = tgt
    if not is_pure_word(src_word, SUM):
        raise ValueError(f"matrix source must be a pure sum word, got {render_word(src_word)}")
    if not is_pure_word(tgt_word, PROD):
        raise ValueError(f"matrix target must be a pure product word, got {render_word(tgt_word)}")
    if length(src_word) != len(src_objects) or length(tgt_word) != len(tgt_objects):
        raise ValueError("object tuple lengths must match the word lengths")


def matrix_of(model: Model, f: Mor, src, tgt) -> MatrixPresentation:
    """Entries are projection-then-f-then-inclusion composites."""
    _validate_words(src, tgt)
    src_word, src_objects = src
    tgt_word, tgt_objects = tgt
    if f.dom != eval_object(model, src_word, src_objects):
        raise ValueError("morphism domain does not match the source word")
    if f.cod != eval_object(model, tgt_word, tgt_objects):
        raise ValueError("morphism codomain does not match the target word")
    incs = [inclusion(model, src_word, src_objects, l + 1)
            for l in range(len(src_objects))]
    projs = [projection(model, tgt_word, tgt_objects, k + 1)
             for k in range(len(tgt_objects))]
    entries = tuple(
        tuple(model.compose(pk, model.compose(f, il)) for il in incs)
        for pk in projs)
    return MatrixPresentation(src_word, src_objects, tgt_word, tgt_objects, entries)


def identity_matrix(model: Model, objects: tuple, src_word: Word,
                    tgt_word: Word) -> MatrixPresentation:
    """Identities on the diagonal, zero morphisms elsewhere."""
    _validate_words((src_word, objects), (tgt_word, objects))
    if length(src_word) != length(tgt_word):
        raise ValueError("identity matrix must be square")
    entries = tuple(
        tuple(model.identity(objects[k]) if k == l
              else zero_morphism(model, objects[l], objects[k])
              for l in range(len(objects)))
        for k in range(len(objects)))
    return MatrixPresentation(src_word, objects, tgt_word, objects, entries)


def _realization_map(model: Model, src, tgt) -> dict:
    """matrix entry-key -> unique realizing morphism, for one boundary.

    Each key is read from graphs, as ``matrix_of`` would give it: entry
    ``(k, l)`` is ``p_k . f . i_l``, with ``f . i_l`` taken once per
    column, and no ``Mor`` or composite is made per morphism."""
    src_word, src_objects = src
    tgt_word, tgt_objects = tgt
    dom = eval_object(model, src_word, src_objects)
    cod = eval_object(model, tgt_word, tgt_objects)
    _validate_words(src, tgt)
    incs = [inclusion(model, src_word, src_objects, l + 1).graph
            for l in range(len(src_objects))]
    projs = [projection(model, tgt_word, tgt_objects, k + 1).graph.__getitem__
             for k in range(len(tgt_objects))]
    table = {}
    for f in model.hom(dom, cod):
        at = f.graph.__getitem__
        cols = [tuple(map(at, il)) for il in incs]
        sig = tuple(tuple(tuple(map(pk, col)) for col in cols) for pk in projs)
        if sig in table:
            raise IntegrityError(
                f"two morphisms share one matrix presentation between"
                f" {render_word(src_word)} and {render_word(tgt_word)}:"
                f" {table[sig].graph} and {f.graph}")
        table[sig] = f
    return table


def realize(model: Model, p: MatrixPresentation) -> Mor | None:
    """The unique morphism presented by ``p``, or ``None`` if there is none.

    Uniqueness is guaranteed by joint epimorphy of inclusions and joint
    monomorphy of projections; finding two realizers raises
    :class:`IntegrityError`.
    """
    table = _memoised(model, "realization", _realization_map,
                      (p.src_word, p.src_objects), (p.tgt_word, p.tgt_objects))
    return table.get(p.entry_key())


@cache
def _bracketing_graph(v: Word, w: Word, depth: int, mode: str):
    """``search_graph``, memoised: a bracketing graph depends on no model,
    so it is built once per process and shared by every object tuple and
    every model checked.  The graphs stay alive until the process ends: at
    depth 8 they add 20 to 40 MB to the peak RSS of a ``check``.  Where
    every move passes by its code, as on the monoids, ``flood_check`` asks
    for none."""
    return search_graph(v, w, depth, mode)


def identity_matrix_sweep(model: Model, n: int, tuples,
                          depth: int = 6) -> CheckReport:
    """For every sum bracketing to every product bracketing of length ``n``,
    at each object tuple of ``tuples``: all depth-bounded prelinear
    canonical terms must evaluate to one morphism whose matrix is the
    identity matrix.

    Each pair's search graph is built at most once per process (see
    ``_bracketing_graph``).  Each tuple is checked against every pair, and
    flooded alone, before the next tuple, so the sweep stops at the first
    failing tuple."""
    if not 1 <= n <= 3:
        raise ValueError("the identity-matrix sweep is desk scale: n must be 1..3")
    if any(len(objects) != n for objects in tuples):
        raise ValueError("need exactly n objects")
    law = f"coherence-identity-matrix/n={n}"
    pairs = [(v, w) for v in pure_bracketings(SUM, n)
             for w in pure_bracketings(PROD, n)]
    for objects in tuples:
        for v, w in pairs:

            def fault(objects, values, trace):
                if not values:
                    return {"reason": f"no canonical term within depth {depth}"}
                names = [o.name for o in objects]
                if len(values) > 1:
                    return {"reason": "two canonical terms evaluate differently",
                            "objects": names, **trace().disagreement()}
                [g] = values
                value = Mor(eval_object(model, v, objects),
                            eval_object(model, w, objects), g)
                got = matrix_of(model, value, (v, objects), (w, objects))
                if got.entry_key() == identity_matrix(model, objects, v, w).entry_key():
                    return None
                return {"objects": names,
                        "matrix": [[list(m.graph) for m in row] for row in got.entries],
                        "reason": "canonical morphism matrix is not the identity"}

            ce = flood_check(model, v, w, depth, PRELINEAR, [objects], fault,
                             _bracketing_graph)
            if ce is not None:
                return CheckReport(law, False, ce)
    return CheckReport(law, True)


def coherence_identity_check(model: Model, n: int, objects: tuple,
                             depth: int = 6) -> CheckReport:
    """``identity_matrix_sweep`` at the one object tuple ``objects``."""
    return identity_matrix_sweep(model, n, [objects], depth)
