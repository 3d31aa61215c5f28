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
changes each of the numbers of unit leaves, + nodes and * nodes by at most
one, so the largest difference between those counts and the target's
bounds the distance to the target from below (an admissible heuristic in
the sense of A*), and moves the bound rules out are skipped before their
targets are built or looked up.  The pruning is exact: no path within the
depth bound is ever lost.  Whether any path reaches the target at all is
asked with no graph built (``reaches``): a bidirectional search extends
whichever frontier is smaller, the forward one under the same bound or the
backward one by a layer, and stops at the first meeting.  Its backward
layers grow only as far as a query needs, in one table per target that
later queries toward it share (``_reach_table``).  A search graph's table
leaves unexpanded each word too far in unit count from the source for any
path within the depth to use (``backward_table``), which changes no graph;
where that window cannot bind, the graph takes the full table, under one
key for every source.

Symbolic results (move tables, the predecessor lists of subwords, corpus
words, the count bound's verdict tables) are memoised with
``functools.cache``.  Distance tables are the bounded caches, each an LRU
cache of 64 tables.  ``backward_table`` is bounded since each shipped
corpus asks for a table again only within a window of 50 distinct tables,
and a pointed-set check builds 258 tables (117,403 entries) that an
unbounded cache would hold to its end; ``_reach_table``, one growing table
per target, since unbounded it raised the exhaustive-strides monoid check
from 222 to 499 MB.  A table is a pure function of its key, and ``reaches``
is exact at any radius its table has grown to, so an eviction changes no
result.
A word's predecessors are its root's reverse moves plus one new node around
each cached predecessor of a child, so they share their unchanged subtrees
with the cache; the words a distance table expands are not cached
themselves.  A word's ``MoveTable`` is built from its children's in
compressed-sparse-row style: per move it stores a one-byte code for (kind,
inverse), and the target word only from its first read (``target``, the one
builder of targets), built from the child table's target.  The count bound
drops most moves by their code, so a search reads about a quarter of its
tables' targets; a table with none read takes about 30 bytes a move
together with the cache, and about 83 with all read.  Each table takes one
block of process-unique move ids, ``first + k``, and rebuilds move ``k`` on
demand by walking down the child tables, as the ``terms.ElementaryTerm`` it
applies (``step``), the search's one record of a move.  How a move changes
the counts the bound reads comes from its generator's schema (``_DELTA``).

Values at an object tuple go to the model's own ``memo``, one dict per
concern.  A search graph numbers its states, keeps each state's table, and
lists its edges as ``(move id, target state, last layer)``, so the value
flood runs over integers.  One flood serves every object tuple of a sweep
at once (``flood_check``): a value is its graphs at the K tuples laid end
to end, each shifted past the carriers of the tuples before it, and a
move's graph is batched the same way, so one tuple map applies the move at
all K tuples.  The batched graphs live in ``model.memo["batch"]``, keyed by
the tuple of object tuples and then by move id; ``value_flood`` is the
one-tuple case, keyed by ``(objects,)``.  A flood's values are the target's
value graphs, in the order its breadth-first search first realized them.

One rule says whether a move changes a value: not if the generator
component it applies at its subword is the identity (``_is_identity``:
equal carrier sizes and the identity graph), since every whisker of an
identity is an identity.  This is the finite form of Mac Lane's remark that
coherence is trivial where the structure maps are identities.  The rule is
read at two grains.  ``model.identity_moves`` names the move kinds whose
every component is the identity: the associators and unitors that no
override touches, ``j`` and ``j'`` in every model, and ``i`` and ``i'`` on
a model that states its pristine ``i`` is the identity (the monoids).  A
step along one of their moves keeps the value tuple as it is, told from
the move's code alone, with no batch entry, table walk or component read;
and where every code passes, as on the monoids, ``flood_check`` builds no
search graph and floods nothing: it asks ``reaches`` whether the target
lies within the depth, and the target's one value is then the identity.
Any other move meets its component in one place, ``_move_graph``, which
reads the component at each tuple once from ``model.memo["component"]``,
keyed by kind, direction and argument objects, the arguments of
``evaluate.component_at`` on a miss, so each is evaluated once per model.
Where it is the identity at every tuple, the batch entry is the shared
marker ``PASS_THROUGH``, which passes values through in the same way;
elsewhere ``edge_morphism`` only whiskers the component it is handed along
the move's path, through a memo keyed by the component's key and the
sibling objects.

All three coherence sweeps take one path, ``flood_check``: given a word
pair, a depth, a mode and a list of object tuples, build the pair's search
graph where some move can change a value and flood it over every tuple,
check each tuple's values, sliced out of the batched flood, in order, and
return the first failing tuple's counterexample.  A prelinear flood never
raises, so there a tuple where the target's object has one point is not
flooded: every path's value is the one map into it.  A sweep's check calls
``trace()`` for its tuple's ``FloodResult`` only where it names witness
terms (``FloodResult.witness_term``, ``FloodResult.disagreement``): that
floods the tuple alone, building the graph if it was not, or returns the
flood the per-tuple fallback made.  No search graph is memoised per model;
the identity-matrix sweep builds each bracketing graph at most once per
process (``matrices._bracketing_graph``).  The sweeps' unit cancellations
go to ``model.memo["cancellation"]``, keyed by ``(word, objects)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import LinearcatError
from .evaluate import component_at, eval_object, is_pure_word
from .models import Model, Mor, _identity_graph
from .terms import (_ALWAYS_ISO, _ARITY, ASSOC_PROD, ASSOC_SUM, I_GEN, J_GEN,
                    LUNIT_PROD, LUNIT_SUM, MODES, PARTIALLY_LINEAR, PRELINEAR,
                    RUNIT_PROD, RUNIT_SUM, CanonTerm, ElementaryTerm,
                    Generator, identity_term, render_term, vcompose)
from .words import (HOLE, LEAVES, ONE, PROD, SUM, ZERO, Word, length,
                    render_word, unit_count)


def to_key(w: Word) -> Word:
    """The identity: a word is its own search key."""
    return w


# -- elementary moves ---------------------------------------------------------

# A move's code is 2 * (index of its kind) + inverse, one byte per move.
_KINDS = (ASSOC_SUM, ASSOC_PROD, I_GEN, J_GEN,
          LUNIT_SUM, RUNIT_SUM, LUNIT_PROD, RUNIT_PROD)
_CODE = {(kind, inverse): 2 * k + inverse
         for k, kind in enumerate(_KINDS) for inverse in (False, True)}

# A word's counts of unit leaves, + nodes and * nodes, packed into one int,
# one _BASE-sized digit each, so that packed counts add and subtract as
# vectors; ``_unpack`` reads a packed difference of counts back.
_BASE = 1 << 16
_HALF = _BASE // 2
_BIAS = _HALF * (1 + _BASE + _BASE * _BASE)


def _counts(w: Word) -> int:
    """The packed counts of unit leaves, + nodes and * nodes in ``w``."""
    if w == HOLE:
        return 0
    if w == ZERO or w == ONE:
        return 1
    op, left, right = w
    return (_BASE if op == SUM else _BASE * _BASE) + _counts(left) + _counts(right)


def _unpack(d: int) -> tuple[int, int, int]:
    """The components of the packed difference ``d``."""
    d, units = divmod(d + _BIAS, _BASE)
    times, plus = divmod(d, _BASE)
    return units - _HALF, plus - _HALF, times - _HALF


# code -> the packed change in the counts that its move makes, read from
# the generator's schema with a hole for each argument, and the same change
# as (unit leaves, + nodes, * nodes)
_DELTA = tuple(_counts(g.target) - _counts(g.source)
               for g in (Generator(kind, (HOLE,) * _ARITY[kind], inverse)
                         for kind, inverse in _CODE))
_CHANGE = tuple(map(_unpack, _DELTA))


@cache
def _admissible(d: int, budget: int) -> bytes | None:
    """Which moves out of a word whose packed counts exceed the target's by
    ``d`` lead to a word whose counts differ from the target's by at most
    ``budget`` in each component, as a ``bytes.translate`` table from move
    code to 1 or 0; None when every move does.  Memoised: a process meets
    few distinct arguments."""
    du, dp, dm = _unpack(d)
    if abs(du) < budget and abs(dp) < budget and abs(dm) < budget:
        return None
    return bytes([abs(du + u) <= budget and abs(dp + p) <= budget
                  and abs(dm + m) <= budget
                  for u, p, m in _CHANGE]).ljust(256, b"\0")


# The flood memo's entry for a move whose graph is the identity at every
# object tuple: a step along it passes each value through unchanged.
PASS_THROUGH = "pass-through"

# Never reset, so a move id is never reused, even after ``moves.cache_clear()``.
_next_move_id = 0


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


class MoveTable:
    """The moves out of one word in one mode, in preorder: the moves at the
    root, then each move inside the left child, then each inside the right.

    Per move only its code (kind, inverse) is stored when the table is
    built; move ``k`` has id ``first + k``, and the first ``n_local`` moves
    are those at the root.  A move's target word is built on its first
    read (``target``), from the child table's own target, and kept; the
    root moves' targets come with their codes.  A move is rebuilt on demand
    by walking down the child tables, whose local moves are computed on the
    first walk that ends there."""

    __slots__ = ("word", "mode", "codes", "first", "n_local", "left", "right",
                 "holes", "_targets", "_local")

    def __init__(self, word, mode, local_targets, codes, left, right, holes):
        global _next_move_id
        self.word, self.mode, self.codes = word, mode, codes
        self.n_local = len(local_targets)
        self.left, self.right, self.holes = left, right, holes
        self.first = _next_move_id
        _next_move_id += len(codes)
        # move k -> its target word, or None until it is first read
        self._targets = local_targets + [None] * (len(codes) - self.n_local)
        self._local = None

    def __len__(self) -> int:
        return len(self.codes)

    def target(self, k: int) -> Word:
        """The target word of move ``k``, built on first read."""
        y = self._targets[k]
        if y is None:
            op, left_word, right_word = self.word
            j = k - self.n_local
            n_left = len(self.left.codes)
            if j < n_left:
                y = (op, self.left.target(j), right_word)
            else:
                y = (op, left_word, self.right.target(j - n_left))
            self._targets[k] = y
        return y

    @property
    def targets(self) -> list[Word]:
        """Every move's target word, in move order."""
        return [self.target(k) for k in range(len(self))]

    def local_moves(self) -> list[tuple[str, bool, tuple, tuple]]:
        """The moves at this table's root, ``_local_moves`` of its word, as
        ``(kind, inverse, args, pieces)``: ``pieces`` holds each argument
        with its hole slice, ``(word, first, end)``, counted from the word's
        first hole."""
        if self._local is None:
            self._local = []
            for kind, inverse, args, _ in _local_moves(self.word, self.mode):
                pieces, stop = [], 0
                for a in args:
                    pieces.append((a, stop, stop + length(a)))
                    stop = pieces[-1][2]
                self._local.append((kind, inverse, args, tuple(pieces)))
        return self._local

    def walk(self, k: int) -> tuple:
        """Walk down the child tables to move ``k``.  Returns its local move
        ``(kind, inverse, args, pieces)`` at the subword it applies at, that
        subword's hole slice ``(first, end)``, and the chain of ``(op,
        side, (sibling word, sibling's first hole, end))`` from the root
        down."""
        table, start, chain = self, 0, []
        while k >= table.n_local:
            k -= table.n_local
            op, left_word, right_word = table.word
            left = table.left
            if k < len(left.codes):
                chain.append((op, 0, (right_word, start + left.holes,
                                      start + table.holes)))
                table = left
            else:
                k -= len(left.codes)
                chain.append((op, 1, (left_word, start, start + left.holes)))
                start += left.holes
                table = table.right
        return table.local_moves()[k], start, start + table.holes, chain

    def step(self, k: int) -> ElementaryTerm:
        """Move ``k`` as the elementary term it applies to the table's word."""
        (kind, inverse, args, _), _, _, chain = self.walk(k)
        return ElementaryTerm(self.word, tuple([side for _, side, _ in chain]),
                              Generator(kind, args, inverse))


@cache
def moves(w: Word, mode: str) -> MoveTable:
    """All single elementary moves out of ``w`` in the given mode, as one
    table with a fresh block of move ids.

    Built from the subwords' tables, in preorder: the moves at the root,
    then each move inside the left child, then each inside the right.  Only
    the root moves' targets are built here; the others are built as they
    are read."""
    local = _local_moves(w, mode)
    targets = [new for _, _, _, new in local]
    codes = bytes([_CODE[kind, inverse] for kind, inverse, _, _ in local])
    if w in LEAVES:
        return MoveTable(w, mode, targets, codes, None, None, length(w))
    left, right = moves(w[1], mode), moves(w[2], mode)
    return MoveTable(w, mode, targets, codes + left.codes + right.codes,
                     left, right, left.holes + right.holes)


def _predecessors(w: Word, mode: str) -> list[Word]:
    """Words with a single move into ``w`` (targets only, no edges).

    The move from ``new`` back to ``sub`` applies the same generator in the
    other direction, which ``mode`` must allow.  Built like ``moves``: the
    root's reverse moves, then one new node around each cached predecessor
    of a child, so every predecessor shares its unchanged subtrees with
    ``_subword_predecessors``.  This top-level call is not memoised: the
    backward tables expand many more distinct words than they have subwords.
    """
    out = [new for kind, inverse, _, new in _local_moves(w, PARTIALLY_LINEAR)
           if inverse or mode == PARTIALLY_LINEAR or kind in _ALWAYS_ISO]
    if w not in LEAVES:
        op, left, right = w
        out += [(op, y, right) for y in _subword_predecessors(left, mode)]
        out += [(op, left, y) for y in _subword_predecessors(right, mode)]
    return out


@cache
def _subword_predecessors(w: Word, mode: str) -> tuple[Word, ...]:
    """``_predecessors`` of a proper subword, memoised."""
    return tuple(_predecessors(w, mode))


# Reuse windows, as (lookups, distinct tables) per corpus of search graphs
# at the CLI's default strides: unit square 1,284 / 254, criterion 4 (strides
# 4 and 8) 2,372 / 454, unit square at strides 1 15,300 / 3,254,
# partially-linear n = 0..2 1,393 / 297.  Each corpus asks for a table again
# only within 50 distinct tables, the full tables toward the 48 words of
# words_with(2, 1) and toward (_+_) and (_*_); at 49 an LRU cache misses up
# to 50 times more than on first use, at 47 up to 2,354, at 64 never.
@lru_cache(maxsize=64)
def backward_table(target: Word, radius: int, mode: str, units: int | None = None,
                   depth: int | None = None) -> dict:
    """Distance-to-target for every word within ``radius`` reverse moves.

    Given the unit count ``units`` of a source and a search ``depth``, a
    word at distance d - 1 is expanded only if its unit count is within
    depth - d + 1 of ``units``.  A move changes the unit count by at most
    one, so a word that the forward search meets on layer k, with k plus
    its distance at most ``depth``, has only expanded words on each of its
    shortest paths to the target, and keeps its distance.  Any other word
    is absent or farther than ``depth - k``, and out of the search's reach
    with either table, so ``search_graph`` builds the same graph as over
    the full table.  The window narrows by one a layer as the frontier's
    unit counts spread by one more; where it cannot bind even on layer
    ``radius``, ``search_graph`` asks for the full table, ``units`` and
    ``depth`` None, which sources of every unit count share.  Each layer is one
    ``_expand``, the step ``reaches`` grows its own tables by."""
    dist = {target: 0}
    frontier = [target]
    for d in range(1, radius + 1):
        if units is not None:
            window = depth - d + 1
            # each frontier word's unit count is within d - 1 of the target's
            if abs(unit_count(target) - units) + d - 1 > window:
                frontier = [x for x in frontier if abs(unit_count(x) - units) <= window]
        frontier = _expand(frontier, dist, d, mode)
    return dist


def _expand(frontier: list, dist: dict, d: int, mode: str) -> list:
    """One backward layer: enter each predecessor of a ``frontier`` word
    that ``dist`` lacks at distance ``d``, and return them in order."""
    nxt = []
    for w in frontier:
        for pred in _predecessors(w, mode):
            if pred not in dist:
                dist[pred] = d
                nxt.append(pred)
    return nxt


class _Layers:
    """A backward distance table grown one layer at a time: ``dist`` holds
    every word within ``radius`` reverse moves of the target, and
    ``frontier`` the words at distance ``radius``."""

    __slots__ = ("dist", "frontier", "radius")

    def __init__(self, target: Word):
        self.dist, self.frontier, self.radius = {target: 0}, [target], 0

    def grow(self, mode: str) -> list:
        """Add the next layer and return its words."""
        self.radius += 1
        self.frontier = _expand(self.frontier, self.dist, self.radius, mode)
        return self.frontier


@lru_cache(maxsize=64)
def _reach_table(target: Word, mode: str) -> _Layers:
    """The backward layers ``reaches`` has grown toward ``target`` so far,
    shared by every later query toward it; bounded like ``backward_table``.
    """
    return _Layers(target)


# -- exact pruned exploration --------------------------------------------------

@dataclass
class SearchGraph:
    """Static admitted subgraph for one (source, target, depth, mode).

    States are numbered in discovery order; the source is state 0."""

    source: Word
    target: Word
    depth: int
    edges: dict  # state -> tuple[(move id, target state, last layer), ...]
    words: list  # state -> word
    tables: list  # state -> its move table, for every expanded state
    target_index: int | None  # None when the target is out of reach

    def step(self, state: int, move_id: int) -> ElementaryTerm:
        """The elementary term of move ``move_id`` out of ``state``."""
        table = self.tables[state]
        return table.step(move_id - table.first)


def search_graph(v: Word, w: Word, depth: int, mode: str) -> SearchGraph:
    """Every move that can lie on a path of at most ``depth`` moves from
    ``v`` to ``w``.  Each edge carries the last layer it may end on: a move
    into ``y`` ending on layer ``k`` is admitted iff ``k <= last``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    # A deep table toward a small target lets a bulky source prune at once;
    # between words of similar size a half-depth table is far cheaper.
    if length(v) + unit_count(v) > length(w) + unit_count(w) + 1:
        radius = depth - 1
    else:
        radius = depth // 2
    units, window = unit_count(v), depth
    # where the unit window cannot bind even on the last layer, the table
    # is the full one, kept under one key for every source and depth
    if abs(unit_count(w) - units) + radius - 1 <= depth - radius + 1:
        units = window = None
    bt = backward_table(w, radius, mode, units, window)
    free_last = depth - radius - 1  # deepest layer allowed outside the table
    edges: dict = {}
    words = [v]
    tables = []  # states are expanded in discovery order
    # state -> its packed counts (see ``_counts``) less those of w
    diffs = [_counts(v) - _counts(w)]
    index = {v: 0}
    frontier = [0]
    layer = 0
    while frontier and layer < depth:
        layer += 1
        nxt = []
        # Past free_last a move is admitted only into a word within
        # depth - layer moves of w.  A move changes each count by at most
        # one, so a target whose counts differ from w's by more than that
        # in any component cannot be admitted: skip its move before building
        # or hashing the target.
        past = layer > free_last
        for xi in frontier:
            table = moves(words[xi], mode)
            tables.append(table)
            dx = diffs[xi]
            codes, first, targets = table.codes, table.first, table._targets
            keep = _admissible(dx, depth - layer) if past else None
            admitted = range(len(codes))
            if keep is not None:
                # only the admitted moves' targets are built
                admitted = itertools.compress(admitted, codes.translate(keep))
            kept = []
            for k in admitted:
                y = targets[k] or table.target(k)
                bty = bt.get(y)
                last = free_last if bty is None else depth - bty
                if layer > last:
                    continue
                yi = index.get(y)
                if yi is None:
                    yi = index[y] = len(words)
                    words.append(y)
                    diffs.append(dx + _DELTA[codes[k]])
                    nxt.append(yi)
                kept.append((first + k, yi, last))
            edges[xi] = tuple(kept)
        frontier = nxt
    for xi in frontier:
        edges.setdefault(xi, ())
    return SearchGraph(v, w, depth, edges, words, tables, index.get(w))


def reaches(v: Word, w: Word, depth: int, mode: str) -> bool:
    """Whether some path of at most ``depth`` moves leads from ``v`` to
    ``w``: ``search_graph(v, w, depth, mode).target_index is not None``,
    with no graph built.

    A bidirectional breadth-first search (Pohl, 1971).  The forward side
    searches from ``v`` under the same count bound as ``search_graph``,
    ``a`` layers so far; the backward side is the table ``_reach_table``
    keeps toward ``w``, ``b`` layers so far, where the layers an earlier
    query built are free.  Each step extends the side with the smaller
    frontier, the backward one on a tie since its layers are shared, and
    tests for a meeting, so after every step no forward word
    lies within ``b`` moves of ``w``.  A meeting word is within ``a + b <=
    depth`` moves of both ends.  Once ``a + b = depth``, every path of at
    most ``depth`` moves has met, since its word after ``a`` moves is
    within ``b`` of ``w``; and a forward side that the count bound empties
    has no path left."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    back = _reach_table(w, mode)
    dist = back.dist
    b = min(back.radius, depth)
    if dist.get(v, b + 1) <= b:
        return True
    counts_w = _counts(w)
    seen = {v}
    frontier = [(v, _counts(v) - counts_w)]
    a = 0
    # inside the loop b is back.radius, so every table word is within b
    while frontier and a + b < depth:
        if len(back.frontier) <= len(frontier):
            b += 1
            if not seen.isdisjoint(back.grow(mode)):
                return True
            continue
        a += 1
        nxt = []
        for x, dx in frontier:
            table = moves(x, mode)
            codes, targets = table.codes, table._targets
            admitted = range(len(codes))
            keep = _admissible(dx, depth - a)
            if keep is not None:
                admitted = itertools.compress(admitted, codes.translate(keep))
            for k in admitted:
                y = targets[k] or table.target(k)
                if y in seen:
                    continue
                if y in dist:
                    return True
                seen.add(y)
                nxt.append((y, dx + _DELTA[codes[k]]))
        frontier = nxt
    return False


def _objects_at(model: Model, pieces, objects: tuple) -> tuple:
    """The word functor at object slices: for each ``(word, first, end)`` of
    ``pieces``, the object of ``word`` at ``objects[first:end]``.  A hit
    reads ``eval_object``'s memo inline, without its call frame."""
    evaluated = model.memo["object"]
    out = []
    for w, a, b in pieces:
        at = (w, objects[a:b])
        out.append(evaluated.get(at) or eval_object(model, *at))
    return tuple(out)


def _is_identity(mor: Mor) -> bool:
    """Equal carrier sizes and the identity graph, as one test: the graph
    is ``range`` of the codomain's size.  Then every whisker of ``mor`` is
    the identity too.  A graph of the form ``range(n)`` into a larger
    carrier is no identity: a wedge whisker shifts by the codomain's
    size."""
    return mor.graph == _identity_graph(mor.cod.size)


def edge_morphism(model: Model, chain: list, objects: tuple, key: tuple,
                  component: Mor) -> Mor:
    """Whisker a generator component along the ``chain`` of a move, as
    ``MoveTable.walk`` gives it, at an object tuple.

    ``component`` is the move's component at its subword and ``key`` its
    key in ``model.memo["component"]``.  The whiskered value depends only
    on that key and on the chain of ``(op, side, sibling object)`` along
    the path, so it is memoised under both in ``model.memo["whisker"]``,
    shared by every word and move with the same evaluated context.
    ``value_flood`` keeps the graphs per move id in
    ``model.memo["batch"][(objects,)]``.
    """
    siblings = _objects_at(model, [piece for _, _, piece in chain], objects)
    sides = tuple([(op, side, obj) for (op, side, _), obj in zip(chain, siblings)])
    key += (sides,)
    memo = model.memo["whisker"]
    mor = memo.get(key)
    if mor is None:
        mor = component
        for op, side, sibling in reversed(sides):
            other = model.identity(sibling)
            pair = (mor, other) if side == 0 else (other, mor)
            mor = model.sum_mor(*pair) if op == SUM else model.prod_mor(*pair)
        memo[key] = mor
    return mor


@dataclass
class FloodResult:
    """Values of all depth-bounded canonical terms from source to target."""

    graph: SearchGraph
    values: tuple  # the target's value graphs, in discovery order
    parents: dict  # (state, graph) -> (prev_state, prev_graph, move id) | None

    def disagreement(self) -> dict:
        """Every value, each with one term realizing it, in discovery order."""
        return {"terms": [str(self.witness_term(g)) for g in self.values],
                "values": [list(g) for g in self.values]}

    def witness_term(self, value: tuple) -> CanonTerm:
        """Reconstruct one canonical term realizing the value graph ``value``
        at the target."""
        graph = self.graph
        state = (graph.target_index, value)
        steps = []
        while (parent := self.parents[state]) is not None:
            prev, prev_graph, mid = parent
            steps.append(graph.step(prev, mid))
            state = (prev, prev_graph)
        term: CanonTerm | None = None
        for step in reversed(steps):
            elem = step.to_canon()
            term = elem if term is None else vcompose(elem, term)
        return identity_term(graph.source) if term is None else term


def _move_graph(model: Model, table: MoveTable, k: int,
                tuples: tuple) -> tuple | str:
    """The graphs of move ``k`` of ``table`` at each object tuple, laid end
    to end, each shifted past the codomain carriers of the tuples before
    it; ``PASS_THROUGH``, with no whisker evaluated, where the generator
    component the move applies is the identity at every tuple.  Each
    tuple's component is read here once, and ``edge_morphism`` only
    whiskers it."""
    (kind, inverse, _, pieces), start, stop, chain = table.walk(k)
    components = model.memo["component"]
    found = []  # per tuple: (component key, component)
    for objects in tuples:
        key = (kind, inverse, _objects_at(model, pieces, objects[start:stop]))
        mor = components.get(key)
        if mor is None:
            mor = components[key] = component_at(model, *key)
        found.append((key, mor))
    if all(_is_identity(mor) for _, mor in found):
        return PASS_THROUGH
    if len(tuples) == 1:
        return edge_morphism(model, chain, tuples[0], *found[0]).graph
    out = []
    shift = 0
    for objects, (key, component) in zip(tuples, found):
        mor = edge_morphism(model, chain, objects, key, component)
        out.extend([t + shift for t in mor.graph])
        shift += mor.cod.size
    return tuple(out)


def _flood(model: Model, graph: SearchGraph, tuples: tuple,
           parents: dict | None = None) -> tuple:
    """Breadth-first flood over (state, value) pairs within the budget, at
    every object tuple of ``tuples`` at once.

    A value is its graphs at the K tuples laid end to end, each shifted past
    the carriers of the tuples before it, and so is a move's graph (see
    ``_move_graph``), so one tuple map applies a move at all K tuples.  A
    step along a move whose kind is in ``model.identity_moves`` keeps the
    value tuple as it is, told from its code, with no memo entry, table
    walk or component read.  The graphs of the other moves live in
    ``model.memo["batch"][tuples]``, keyed by move id, where a move whose
    component is the identity at every tuple is stored as
    ``PASS_THROUGH`` and passes values through in the same way.
    Returns the target's values as a tuple, in the order the search first
    realized them; ``parents``, when given, maps each (state, value) to the
    ``(prev_state, prev_value, move id)`` that first reached it.  Where
    every move code keeps the value, ``flood_check`` does not call it: it
    asks ``reaches`` and builds no graph.
    """
    size = sum(eval_object(model, graph.source, objects).size
               for objects in tuples)
    id_graph = tuple(range(size))
    passes = [move in model.identity_moves for move in _CODE]  # code -> bool
    # state -> its values, as dict keys in the order they were first reached
    visited: list = [None] * len(graph.words)
    visited[0] = {id_graph: None}
    if parents is not None:
        parents[(0, id_graph)] = None
    frontier = [(0, id_graph)]
    graphs = model.memo["batch"].setdefault(tuples, {})  # move id -> graph
    layer = 0
    depth = graph.depth
    graph_edges = graph.edges
    tables = graph.tables
    while frontier and layer < depth:
        nxt = []
        layer_out = layer + 1
        for xi, m in frontier:
            table = tables[xi]
            codes, first = table.codes, table.first
            for mid, yi, last in graph_edges[xi]:
                if layer_out > last:
                    continue
                if passes[codes[mid - first]]:
                    my = m
                else:
                    eg = graphs.get(mid)
                    if eg is None:
                        eg = graphs[mid] = _move_graph(model, table, mid - first,
                                                       tuples)
                    my = m if eg is PASS_THROUGH else tuple(map(eg.__getitem__, m))
                bucket = visited[yi]
                if bucket is None:
                    bucket = visited[yi] = {}
                elif my in bucket:
                    continue
                bucket[my] = None
                if parents is not None:
                    parents[(yi, my)] = (xi, m, mid)
                nxt.append((yi, my))
        frontier = nxt
        layer = layer_out
    target = graph.target_index
    return () if target is None else tuple(visited[target])


def value_flood(model: Model, graph: SearchGraph, objects: tuple) -> FloodResult:
    """Breadth-first flood over (state, value) pairs within the budget.

    Every canonical term from source to target with at most ``depth``
    elementary steps realizes one of the returned values, and every returned
    value is realized by such a term; they come in the order the search
    first realized them.  Values travel as raw graphs: all values arriving
    at one state share their boundary objects.
    """
    parents: dict = {}
    return FloodResult(graph, _flood(model, graph, (objects,), parents), parents)


def flood_check(model: Model, v: Word, w: Word, depth: int, mode: str,
                tuples, check, build):
    """Check the depth-bounded canonical terms from ``v`` to ``w`` at every
    object tuple of ``tuples``: call ``check(objects, values, trace)`` on
    each tuple's values, in tuple order.  ``values`` is
    ``value_flood(model, graph, objects).values``, in the same order, for
    ``graph = build(v, w, depth, mode)``, where ``build`` is
    ``search_graph`` or a memoised form of it.  ``trace()``, called within
    that check, returns the tuple's ``FloodResult``, for a check that names
    witness terms.

    Where every move code is in ``model.identity_moves``, as on the monoids,
    every path keeps the identity, so each tuple's one value is the identity
    on ``v``'s object, or there is none when ``reaches`` says ``w`` is out
    of reach; no graph is built unless a check calls ``trace()``, and the
    backward layers toward ``w`` grow only as far as ``reaches`` needs,
    kept for later pairs toward ``w``.  Elsewhere
    the graph is flooded once at all tuples, and each tuple's values are
    its slices of the batched values, first occurrences only, cut when that
    tuple's check comes up.  In prelinear mode, where no move raises, the
    flood leaves out each tuple at which ``w``'s object has one point: its
    one value is the map onto that point, or there is none when the graph
    misses ``w``, and then nothing is flooded.  Leaving tuples out of the
    batch changes no other tuple's values or their order.

    ``check`` returns None when the values pass, else the fields of the
    counterexample.  Returns None if every tuple passes, else the first
    failing tuple's counterexample: ``v`` and ``w``, then the fields.  If
    the flood over all tuples raises, each tuple is flooded alone as it is
    checked, so the caller meets the first failure or exception of
    per-tuple floods, and ``trace()`` returns that flood."""
    tuples = tuple(tuples)
    graph = batched = None
    every_move_passes = all(move in model.identity_moves for move in _CODE)
    if every_move_passes:
        reached = reaches(v, w, depth, mode)
        fixed = itertools.repeat(True)  # per tuple: whether it needs no flood
    else:
        graph = build(v, w, depth, mode)
        reached = graph.target_index is not None
        # a prelinear flood never raises, and where w's object has one point
        # every path's value is the one map onto it
        fixed = [mode == PRELINEAR and (
            not reached or eval_object(model, w, objects).size == 1)
                 for objects in tuples]
        flooded = tuple([objects for objects, f in zip(tuples, fixed) if not f])
        if flooded:
            try:
                batched = _flood(model, graph, flooded)
            except LinearcatError:
                pass

    def trace():
        nonlocal graph
        if graph is None:
            graph = build(v, w, depth, mode)
        return value_flood(model, graph, objects)

    start = shift = 0  # the slice of a batched value the next tuple owns
    for objects, is_fixed in zip(tuples, fixed):
        flood = None
        if is_fixed:
            values = ()
            if reached:
                size = eval_object(model, v, objects).size
                values = (tuple(range(size)) if every_move_passes else (0,) * size,)
        elif batched is None:
            flood = trace()
            values = flood.values
        else:
            stop = start + eval_object(model, v, objects).size
            values = tuple(dict.fromkeys(
                tuple([t - shift for t in g[start:stop]]) for g in batched))
            start = stop
            shift += eval_object(model, w, objects).size
        fields = check(objects, values, lambda: flood or trace())
        if fields is not None:
            return {"source": render_word(v), "target": render_word(w), **fields}
    return None


# -- the term-list interface ----------------------------------------------------

def canonical_between(v: Word, w: Word, *, depth: int = 1,
                      mode: str = PRELINEAR) -> list[CanonTerm]:
    """All canonical terms from ``v`` to ``w`` with at most ``depth``
    elementary steps, ordered lexicographically by their text form."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if length(v) != length(w):
        raise ValueError("canonical terms only exist between words of equal length")
    graph = search_graph(v, w, depth, mode)
    out: list[CanonTerm] = []
    if v == w:
        out.append(identity_term(v))

    def dfs(xi, g, chain):
        for mid, yi, last in graph.edges[xi]:
            if g + 1 > last:
                continue
            elem = graph.step(xi, mid).to_canon()
            term = elem if chain is None else vcompose(elem, chain)
            if yi == graph.target_index:
                out.append(term)
            if g + 1 < depth:
                dfs(yi, g + 1, term)

    dfs(0, 0, None)
    out.sort(key=render_term)
    return out


# -- word corpora ----------------------------------------------------------------

@cache
def words_with(n_holes: int, n_units: int) -> tuple[Word, ...]:
    """All words with exactly the given number of holes and unit leaves,
    deterministically ordered; memoised, so each corpus is sorted once per
    process."""
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
    """All bracketings of an n-fold pure sum or product word: the words of
    ``words_with(n, 0)`` built from ``op`` alone."""
    return tuple([w for w in words_with(n, 0) if is_pure_word(w, op)])
