"""Bounded-depth enumeration of canonical terms between words.

Words are nested tuples (see :mod:`linearcat.words`), so they serve as
search states and memo keys as they are.  An elementary move applies one
generator at one position; terms between two words are exactly the move
paths between them.  The generator rules live in one table,
``_local_moves``.  Reverse moves are derived from it: a move is undone by
the same generator in the other direction.

Enumerating every path of length <= depth is exponential, so the search is
pruned meet-in-the-middle: a backward distance table of radius depth // 2 is
computed from the target, and forward exploration drops any state that
provably cannot reach the target within the remaining budget.  A move
changes the number of unit leaves by at most one, so that number bounds the
distance to the target from below (an admissible heuristic in the sense of
A*), and unit insertions the bound rules out are skipped before their
targets are looked up.  The pruning is exact: no path within the depth bound
is ever lost.

Symbolic results (moves, distance tables) are memoised with
``functools.cache``; a word's move table is built from its children's.
Values at an object tuple go to the model's own ``memo``, one dict per
concern.  Every move gets a process-unique integer id when its word's move
table is first computed, and each search graph numbers its states, so the
value flood runs over integers: per object tuple, the model keeps one table
from move id to the move's raw graph.  Those graphs are shared through one
memo keyed by the evaluated context of a move (``edge_morphism``).

One flood serves every object tuple of a sweep at once (``flood_values``):
a value is its graphs at the K tuples laid end to end, each shifted past
the carriers of the tuples before it, and a move's graph is batched the
same way, so one tuple map applies the move at all K tuples.  The batched
graphs live in ``model.memo["batch"]``, keyed by the tuple of object tuples
and then by move id; ``value_flood`` is the one-tuple case, keyed by
``(objects,)``.

All three coherence sweeps take one path, ``flood_check``: flood a search
graph over a list of object tuples, check each tuple's values in order, and
re-flood the first failing tuple alone with ``value_flood`` for witness
terms.  No search graph is memoised per model.  The sweeps' unit
cancellations go to ``model.memo["cancellation"]``, keyed by
``(word, objects)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .errors import LinearcatError
from .evaluate import _memoised, eval_generator, eval_object
from .models import Model, Mor
from .terms import (_ALWAYS_ISO, ASSOC_PROD, ASSOC_SUM, I_GEN, J_GEN,
                    LUNIT_PROD, LUNIT_SUM, MODES, PARTIALLY_LINEAR, PRELINEAR,
                    RUNIT_PROD, RUNIT_SUM, CanonTerm, ElementaryTerm,
                    Generator, identity_term, render_term, vcompose)
from .words import (HOLE, LEAVES, ONE, PROD, SUM, ZERO, Word, length,
                    unit_count)


def to_key(w: Word) -> Word:
    """The identity: a word is its own search key."""
    return w


# -- elementary moves ---------------------------------------------------------

# An edge is (path, kind, inverse, args, move id) with args given as words.
Edge = tuple[tuple[int, ...], str, bool, tuple, int]

# Never reset, so a move id is never reused, even after ``moves.cache_clear()``.
_move_ids = itertools.count()


def _local_moves(sub: Word, mode: str) -> list[tuple[str, bool, tuple, Word]]:
    """Generators applicable at the root of ``sub``, as
    ``(kind, inverse, args, replacement)``: the one move-rule table."""
    out = []
    if sub == ZERO:
        out.append((J_GEN, False, (), ONE))
    elif sub == ONE:
        if mode == PARTIALLY_LINEAR:
            out.append((J_GEN, True, (), ZERO))
    elif sub != HOLE:
        op, left, right = sub
        assoc = ASSOC_SUM if op == SUM else ASSOC_PROD
        # a leaf's first character is itself, never an operator
        if right[0] == op:
            out.append((assoc, False, (left, right[1], right[2]),
                        (op, (op, left, right[1]), right[2])))
        if left[0] == op:
            out.append((assoc, True, (left[1], left[2], right),
                        (op, left[1], (op, left[2], right))))
        if op == SUM:
            if left == ZERO:
                out.append((LUNIT_SUM, False, (right,), right))
            if right == ZERO:
                out.append((RUNIT_SUM, False, (left,), left))
            out.append((I_GEN, False, (left, right), (PROD, left, right)))
        else:
            if left == ONE:
                out.append((LUNIT_PROD, False, (right,), right))
            if right == ONE:
                out.append((RUNIT_PROD, False, (left,), left))
            if mode == PARTIALLY_LINEAR:
                out.append((I_GEN, True, (left, right), (SUM, left, right)))
    out.append((LUNIT_SUM, True, (sub,), (SUM, ZERO, sub)))
    out.append((RUNIT_SUM, True, (sub,), (SUM, sub, ZERO)))
    out.append((LUNIT_PROD, True, (sub,), (PROD, ONE, sub)))
    out.append((RUNIT_PROD, True, (sub,), (PROD, sub, ONE)))
    return out


@cache
def moves(w: Word, mode: str) -> tuple[tuple[Edge, Word], ...]:
    """All single elementary moves out of ``w`` in the given mode, each
    edge numbered with a fresh move id.

    Built from the subwords' tables, in preorder: the moves at the root,
    then each move inside the left child, then each inside the right."""
    out = [(((), kind, inverse, args, next(_move_ids)), new)
           for kind, inverse, args, new in _local_moves(w, mode)]
    if w not in LEAVES:
        op, left, right = w
        for (path, kind, inverse, args, _), y in moves(left, mode):
            out.append((((0,) + path, kind, inverse, args, next(_move_ids)),
                        (op, y, right)))
        for (path, kind, inverse, args, _), y in moves(right, mode):
            out.append((((1,) + path, kind, inverse, args, next(_move_ids)),
                        (op, left, y)))
    return tuple(out)


def _predecessors(w: Word, mode: str) -> list[Word]:
    """Words with a single move into ``w`` (targets only, no edges).

    The move from ``new`` back to ``sub`` applies the same generator in the
    other direction, which ``mode`` must allow.  Not memoised: the backward
    tables visit many more words than the forward search.
    """
    out = [new for kind, inverse, _, new in _local_moves(w, PARTIALLY_LINEAR)
           if inverse or mode == PARTIALLY_LINEAR or kind in _ALWAYS_ISO]
    if w not in LEAVES:
        op, left, right = w
        out += [(op, y, right) for y in _predecessors(left, mode)]
        out += [(op, left, y) for y in _predecessors(right, mode)]
    return out


@cache
def backward_table(target: Word, radius: int, mode: str) -> dict:
    """Distance-to-target for every word within ``radius`` reverse moves."""
    dist = {target: 0}
    frontier = [target]
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for pred in _predecessors(w, mode):
                if pred not in dist:
                    dist[pred] = d
                    nxt.append(pred)
        frontier = nxt
    return dist


# -- exact pruned exploration --------------------------------------------------

_UNITORS = frozenset((LUNIT_SUM, RUNIT_SUM, LUNIT_PROD, RUNIT_PROD))
# (kind, inverse) -> change in unit leaves; every other move keeps them
_UNIT_STEP = {**{(k, True): 1 for k in _UNITORS},
              **{(k, False): -1 for k in _UNITORS}}


@dataclass
class SearchGraph:
    """Static admitted subgraph for one (source, target, depth, mode).

    States are numbered in discovery order; the source is state 0."""

    source: Word
    target: Word
    depth: int
    edges: dict  # state -> tuple[(edge, target state, last layer), ...]
    words: list  # state -> word
    target_index: int | None  # None when the target is out of reach


def search_graph(v: Word, w: Word, depth: int, mode: str) -> SearchGraph:
    """Every move that can lie on a path of at most ``depth`` moves from
    ``v`` to ``w``.  Each edge carries the last layer it may end on: a move
    into ``y`` ending on layer ``k`` is admitted iff ``k <= last``."""
    # A deep table toward a small target lets a bulky source prune at once;
    # between words of similar size a half-depth table is far cheaper.
    if length(v) + unit_count(v) > length(w) + unit_count(w) + 1:
        radius = depth - 1
    else:
        radius = depth // 2
    bt = backward_table(w, radius, mode)
    free_last = depth - radius - 1  # deepest layer allowed outside the table
    edges: dict = {}
    words = [v]
    units = [unit_count(v)]  # state -> number of unit leaves
    w_units = unit_count(w)
    index = {v: 0}
    frontier = [0]
    layer = 0
    while frontier and layer < depth:
        layer += 1
        nxt = []
        # Past free_last a move is admitted only into a word within
        # depth - layer moves of w, and a move changes the number of unit
        # leaves by at most one.  So out of a state with more than
        # ``crowded`` unit leaves no unit insertion is admitted: skip them
        # before hashing their targets.
        crowded = depth - layer + w_units - 1
        past = layer > free_last
        for xi in frontier:
            ux = units[xi]
            dead = past and ux > crowded
            kept = []
            for edge, y in moves(words[xi], mode):
                if dead and edge[2] and edge[1] in _UNITORS:
                    continue
                bty = bt.get(y)
                last = free_last if bty is None else depth - bty
                if layer > last:
                    continue
                yi = index.get(y)
                if yi is None:
                    yi = index[y] = len(words)
                    words.append(y)
                    units.append(ux + _UNIT_STEP.get(edge[1:3], 0))
                    nxt.append(yi)
                kept.append((edge, yi, last))
            edges[xi] = tuple(kept)
        frontier = nxt
    for xi in frontier:
        edges.setdefault(xi, ())
    return SearchGraph(v, w, depth, edges, words, index.get(w))


def eval_object_cached(model: Model, w: Word, objects: tuple):
    """The word functor on objects, memoised per model."""
    return _memoised(model, "object", eval_object, w, objects)


def edge_morphism(model: Model, x: Word, edge: Edge, objects: tuple) -> Mor:
    """Evaluate one elementary move out of ``x`` at an object tuple.

    The value depends only on the generator at its evaluated argument
    objects and on the chain of ``(op, side, sibling object)`` along the
    path, so it is memoised under that key in ``model.memo["whisker"]``,
    shared by every word and move with the same evaluated context.
    ``value_flood`` keeps the graphs per move id in
    ``model.memo["batch"][(objects,)]``.
    """
    path, kind, inverse, args, _ = edge
    chain = []
    for step in path:
        op, left, right = x
        nl = length(left)
        if step == 0:
            chain.append((op, 0, eval_object_cached(model, right, objects[nl:])))
            x, objects = left, objects[:nl]
        else:
            chain.append((op, 1, eval_object_cached(model, left, objects[:nl])))
            x, objects = right, objects[nl:]
    arg_objs = []
    rest = objects
    for a in args:
        n = length(a)
        arg_objs.append(eval_object_cached(model, a, rest[:n]))
        rest = rest[n:]
    key = (kind, inverse, tuple(arg_objs), tuple(chain))
    memo = model.memo["whisker"]
    mor = memo.get(key)
    if mor is None:
        mor = eval_generator(model, Generator(kind, args, inverse), objects)
        for op, side, sibling in reversed(chain):
            other = model.identity(sibling)
            pair = (mor, other) if side == 0 else (other, mor)
            mor = model.sum_mor(*pair) if op == SUM else model.prod_mor(*pair)
        memo[key] = mor
    return mor


def elementary_from_edge(x: Word, edge: Edge) -> ElementaryTerm:
    path, kind, inverse, args, _ = edge
    return ElementaryTerm(x, path, Generator(kind, args, inverse))


@dataclass
class FloodResult:
    """Values of all depth-bounded canonical terms from source to target."""

    values: dict  # value graph (tuple) -> layer of first realization
    parents: dict  # (state, graph) -> (prev_state, prev_graph, edge) | None

    def disagreement(self, graph: SearchGraph) -> dict:
        """Every value, each with one term realizing it, in discovery order."""
        return {"terms": [str(self.witness_term(graph, g)) for g in self.values],
                "values": [list(g) for g in self.values]}

    def witness_term(self, graph: SearchGraph, value: tuple) -> CanonTerm:
        """Reconstruct one canonical term realizing the value graph ``value``
        at the target."""
        state = (graph.target_index, value)
        steps = []
        while True:
            parent = self.parents[state]
            if parent is None:
                break
            prev, prev_graph, edge = parent
            steps.append((graph.words[prev], edge))
            state = (prev, prev_graph)
        steps.reverse()
        if not steps:
            return identity_term(graph.source)
        term: CanonTerm | None = None
        for w, edge in steps:
            elem = elementary_from_edge(w, edge).to_canon()
            term = elem if term is None else vcompose(elem, term)
        return term


def _move_graph(model: Model, x: Word, edge: Edge, tuples: tuple) -> tuple:
    """The graphs of one move at each object tuple, laid end to end, each
    shifted past the codomain carriers of the tuples before it."""
    if len(tuples) == 1:
        return edge_morphism(model, x, edge, tuples[0]).graph
    out = []
    shift = 0
    for objects in tuples:
        mor = edge_morphism(model, x, edge, objects)
        out.extend([t + shift for t in mor.graph])
        shift += mor.cod.size
    return tuple(out)


def _flood(model: Model, graph: SearchGraph, tuples: tuple,
           parents: dict | None = None) -> dict:
    """Breadth-first flood over (state, value) pairs within the budget, at
    every object tuple of ``tuples`` at once.

    A value is its graphs at the K tuples laid end to end, each shifted past
    the carriers of the tuples before it, and so is a move's graph (see
    ``_move_graph``), so one tuple map applies a move at all K tuples.  The
    graphs of the moves live in ``model.memo["batch"][tuples]``, keyed by
    move id.
    Returns the target's values, each with the first layer realizing it;
    ``parents``, when given, maps each (state, value) to the
    ``(prev_state, prev_value, edge)`` that first reached it.
    """
    size = sum(eval_object_cached(model, graph.source, objects).size
               for objects in tuples)
    id_graph = tuple(range(size))
    words = graph.words
    visited: list = [None] * len(words)  # state -> {graph: first layer}
    visited[0] = {id_graph: 0}
    if parents is not None:
        parents[(0, id_graph)] = None
    frontier = [(0, id_graph)]
    table = model.memo["batch"].setdefault(tuples, {})  # move id -> graph
    layer = 0
    depth = graph.depth
    graph_edges = graph.edges
    while frontier and layer < depth:
        nxt = []
        layer_out = layer + 1
        for xi, m in frontier:
            for edge, yi, last in graph_edges[xi]:
                if layer_out > last:
                    continue
                eg = table.get(edge[4])
                if eg is None:
                    eg = table[edge[4]] = _move_graph(model, words[xi], edge,
                                                      tuples)
                my = tuple(map(eg.__getitem__, m))
                bucket = visited[yi]
                if bucket is None:
                    bucket = visited[yi] = {}
                elif my in bucket:
                    continue
                bucket[my] = layer_out
                if parents is not None:
                    parents[(yi, my)] = (xi, m, edge)
                nxt.append((yi, my))
        frontier = nxt
        layer = layer_out
    target = graph.target_index
    return {} if target is None else visited[target]


def value_flood(model: Model, graph: SearchGraph, objects: tuple) -> FloodResult:
    """Breadth-first flood over (state, value) pairs within the budget.

    Every canonical term from source to target with at most ``depth``
    elementary steps realizes one of the returned values, and every returned
    value is realized by such a term.  Values travel as raw graphs: all
    values arriving at one state share their boundary objects.
    """
    parents: dict = {}
    return FloodResult(_flood(model, graph, (objects,), parents), parents)


def flood_values(model: Model, graph: SearchGraph, tuples) -> list[dict]:
    """``value_flood(model, graph, objects).values`` for each object tuple
    of ``tuples``, from one flood over all of them."""
    tuples = tuple(tuples)
    values = _flood(model, graph, tuples)
    cuts = []  # per tuple: the slice of a value it owns, and its shift
    start = shift = 0
    for objects in tuples:
        stop = start + eval_object_cached(model, graph.source, objects).size
        cuts.append((start, stop, shift))
        start = stop
        shift += eval_object_cached(model, graph.target, objects).size
    out: list[dict] = [{} for _ in tuples]
    for g, layer in values.items():
        for found, (start, stop, shift) in zip(out, cuts):
            piece = tuple([t - shift for t in g[start:stop]])
            if found.get(piece, layer) >= layer:
                found[piece] = layer
    return out


def flood_check(model: Model, graph: SearchGraph, tuples, check):
    """Flood ``graph`` at every object tuple of ``tuples`` and call
    ``check(objects, values)`` on each tuple's values, in tuple order.

    ``check`` returns None when the values pass, else what is wrong.  Returns
    None if every tuple passes, else the first failing tuple's index, its
    ``value_flood`` for witness terms, and what ``check`` returned.  If the
    flood over all tuples raises, each tuple is flooded alone as it is
    checked, so the caller meets the first failure or exception of per-tuple
    floods."""
    tuples = tuple(tuples)
    try:
        batched = flood_values(model, graph, tuples)
    except LinearcatError:
        batched = None
    for k, objects in enumerate(tuples):
        flood = value_flood(model, graph, objects) if batched is None else None
        fault = check(objects, batched[k] if flood is None else flood.values)
        if fault is not None:
            return k, flood or value_flood(model, graph, objects), fault
    return None


# -- the term-list interface ----------------------------------------------------

def canonical_between(v: Word, w: Word, *, depth: int = 1,
                      mode: str = PRELINEAR) -> list[CanonTerm]:
    """All canonical terms from ``v`` to ``w`` with at most ``depth``
    elementary steps, ordered lexicographically by their text form."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if length(v) != length(w):
        raise ValueError("canonical terms only exist between words of equal length")
    graph = search_graph(v, w, depth, mode)
    out: list[CanonTerm] = []
    if v == w:
        out.append(identity_term(v))

    def dfs(xi, g, chain):
        for edge, yi, last in graph.edges[xi]:
            if g + 1 > last:
                continue
            elem = elementary_from_edge(graph.words[xi], edge).to_canon()
            term = elem if chain is None else vcompose(elem, chain)
            if yi == graph.target_index:
                out.append(term)
            if g + 1 < depth:
                dfs(yi, g + 1, term)

    dfs(0, 0, None)
    out.sort(key=render_term)
    return out


# -- word corpora ----------------------------------------------------------------

def words_with(n_holes: int, n_units: int) -> tuple[Word, ...]:
    """All words with exactly the given number of holes and unit leaves,
    deterministically ordered."""
    return tuple(sorted(_words_with(n_holes, n_units), key=str))


def _words_with(n_holes: int, n_units: int) -> list[Word]:
    leaves = n_holes + n_units
    if leaves == 0:
        return []
    if leaves == 1:
        if n_holes == 1:
            return [HOLE]
        return [ZERO, ONE]
    out = []
    for left_leaves in range(1, leaves):
        for h1 in range(0, n_holes + 1):
            u1 = left_leaves - h1
            if u1 < 0 or u1 > n_units:
                continue
            for lw in _words_with(h1, u1):
                for rw in _words_with(n_holes - h1, n_units - u1):
                    out.append((SUM, lw, rw))
                    out.append((PROD, lw, rw))
    return out


def pure_bracketings(op: str, n: int) -> tuple[Word, ...]:
    """All bracketings of an n-fold pure sum or product word."""
    return tuple(sorted(_pure_words(op, n), key=str))


def _pure_words(op: str, n: int) -> list[Word]:
    if n == 1:
        return [HOLE]
    out = []
    for split in range(1, n):
        for lw in _pure_words(op, split):
            for rw in _pure_words(op, n - split):
                out.append((op, lw, rw))
    return out
