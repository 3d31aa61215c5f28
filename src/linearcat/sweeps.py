"""Coherence sweeps over corpora of word pairs.

The underlying theorems quantify over every word pair of a given length, a
set that grows explosively with the number of unit leaves; the shipped
corpora are exhaustive over the light strata (few unit leaves) and take a
deterministic stride through the heavy ones so that runs stay reproducible
and finish at desk scale.  Strides can be widened or disabled per call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .checks import CheckReport
from .evaluate import eval_canon, eval_object
from .errors import NotInvertibleInModel
from .models import Model, Mor, _memoised
from .search import flood_check, search_graph, words_with
from .terms import (MODES, PARTIALLY_LINEAR, PRELINEAR, vcompose, unit_cancel,
                    CanonTerm, GenTerm, Generator, I_GEN)
from .words import HOLE, SUM, Word, core_split, length


@dataclass(frozen=True)
class PairCorpus:
    """Deterministic list of (source, target) word pairs."""

    pairs: tuple[tuple[Word, Word], ...]
    description: str


def _stride(seq, step: int):
    return tuple(seq[::step]) if step > 1 else tuple(seq)


def equal_length_pairs(n: int, max_units: int, mixed_stride: int = 1,
                       heavy_stride: int = 1) -> PairCorpus:
    """Pairs of length-``n`` words organized by unit-leaf count.

    Pairs whose words carry at most one unit leaf in total are always
    exhaustive.  The one-unit-each block is thinned by ``mixed_stride``.
    Words with two or more unit leaves pair with the barest words of the
    same length, thinned by ``heavy_stride`` (scaled by 8 per extra unit
    leaf, since those strata grow roughly eightfold per leaf).  When no
    length-``n`` word fits the budget, the corpus is empty.
    """
    description = (f"length {n}, <= {max_units} unit leaves,"
                   f" mixed stride {mixed_stride}, heavy stride {heavy_stride}")
    by_units = {u: words_with(n, u) for u in range(max_units + 1)}
    if not any(by_units.values()):
        return PairCorpus((), description)
    base_units = min(u for u in by_units if by_units[u])
    bare = by_units[base_units]
    pairs: list[tuple[Word, Word]] = []
    light = base_units + 1
    for u1 in range(base_units, min(light, max_units) + 1):
        for u2 in range(base_units, min(light, max_units) + 1):
            if u1 + u2 > max_units:
                continue
            block = tuple(itertools.product(by_units[u1], by_units[u2]))
            if u1 == u2 == light:
                block = _stride(block, mixed_stride)
            pairs.extend(block)
    for u in range(light + 1, max_units + 1):
        heavy = _stride(by_units[u], heavy_stride * 8 ** (u - light - 1))
        for hw in heavy:
            for b in bare:
                pairs.append((hw, b))
                pairs.append((b, hw))
    return PairCorpus(tuple(pairs), description)


def coherence_sweep(model: Model, corpus: PairCorpus, objects_for,
                    depth: int = 6, mode: str = PARTIALLY_LINEAR,
                    law: str = "coherence/partially-linear") -> CheckReport:
    """All depth-bounded canonical terms within each pair must agree, and
    their common value must be invertible in the model."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    checked = 0
    seen: set = set()
    for v, w in corpus.pairs:
        if mode == PARTIALLY_LINEAR:
            if (w, v) in seen:
                # inverting terms gives a depth-preserving bijection between
                # the two directions, so the mirrored pair carries the same content
                continue
            seen.add((v, w))

        def fault(objects, values, trace):
            nonlocal checked
            if not values:
                return None
            checked += 1
            if len(values) > 1:
                return {"objects": [o.name for o in objects],
                        **trace().disagreement()}
            [g] = values
            try:
                model.inverse(Mor(eval_object(model, v, objects),
                                  eval_object(model, w, objects), g), "the value")
            except NotInvertibleInModel:
                return {"objects": [o.name for o in objects],
                        "reason": "canonical morphism is not invertible",
                        "value": list(g)}
            return None

        ce = flood_check(model, v, w, depth, mode, objects_for(length(v)), fault,
                         search_graph)
        if ce is not None:
            return CheckReport(law, False, ce)
    return CheckReport(law, True, None,
                       {"corpus": corpus.description, "pairs": len(corpus.pairs),
                        "evaluations": checked, "depth": depth})


def normalized_cancellation(model: Model, w: Word, objects: tuple) -> Mor:
    """Unit cancellation pushed into the product of the two core objects.

    Cancellation of a length-2 word lands on its unit-free core; when the
    core is a sum the transformer is applied on top, so that every length-2
    word normalizes into the same product object.  Computed once per model
    and ``(w, objects)``, into ``model.memo["cancellation"]``; the symbolic
    term is built once per word (``_cancellation_term``).
    """
    return _memoised(model, "cancellation", _normalized_cancellation, w,
                     tuple(objects))


def _normalized_cancellation(model: Model, w: Word, objects: tuple) -> Mor:
    return eval_canon(model, _cancellation_term(w), objects)


@cache
def _cancellation_term(w: Word) -> CanonTerm:
    """The symbolic normalized cancellation of ``w``, built once per word."""
    term = unit_cancel(w)
    if core_split(w).op == SUM:
        term = vcompose(GenTerm(Generator(I_GEN, (HOLE, HOLE))), term)
    return term


def unit_square_sweep(model: Model, corpus: PairCorpus, objects_for,
                      depth: int = 4) -> CheckReport:
    """The unit-cancellation square: for every prelinear canonical term c
    between two length-2 words, normalized cancellation of the target after
    c equals normalized cancellation of the source."""
    law = "unit-cancellation-square"
    checked = 0
    tuples = objects_for(2)
    for v, w in corpus.pairs:

        def fault(objects, values, trace):
            nonlocal checked
            u_v = normalized_cancellation(model, v, objects)
            u_w = normalized_cancellation(model, w, objects)
            src = eval_object(model, v, objects)
            tgt = eval_object(model, w, objects)
            for g in sorted(values):
                checked += 1
                lhs = model.compose(u_w, Mor(src, tgt, g))
                if lhs != u_v:
                    term = trace().witness_term(g)
                    return {"objects": [o.name for o in objects], "term": str(term),
                            "lhs": list(lhs.graph), "rhs": list(u_v.graph)}
            return None

        ce = flood_check(model, v, w, depth, PRELINEAR, tuples, fault, search_graph)
        if ce is not None:
            return CheckReport(law, False, ce)
    return CheckReport(law, True, None,
                       {"corpus": corpus.description, "terms_checked": checked,
                        "depth": depth})
