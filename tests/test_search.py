import hashlib
import itertools
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from linearcat.evaluate import eval_canon, eval_generator, structure_table
from linearcat.errors import NotInvertibleInModel
from linearcat.models import (FinCMon, FinPtSet, Model, PtObj,
                               all_commutative_monoids, load_model)
from linearcat.search import (_CHANGE, _CODE, _DELTA, PASS_THROUGH, _counts,
                              _local_moves, _predecessors,
                              _subword_predecessors, _unpack, backward_table,
                              canonical_between, flood_check, moves,
                              pure_bracketings, reaches, search_graph,
                              to_key, value_flood, words_with)
from linearcat.sweeps import (coherence_sweep, equal_length_pairs,
                              normalized_cancellation, unit_square_sweep)
from linearcat.terms import (PARTIALLY_LINEAR, PRELINEAR, GenTerm, Generator,
                             elementary_factorization, identity_term,
                             render_term, vcompose)
from linearcat.words import (HOLE, LEAVES, ONE, PROD, SUM, ZERO, Prod, Sum,
                             length, parse_word, render_word, unit_count)

MODELS = Path(__file__).resolve().parent.parent / "models"
# one-override models, each with one component of one table set to zeros
OVERRIDE_FIXTURES = sorted((Path(__file__).resolve().parent / "models").glob("*.json"))


def test_identity_is_found():
    terms = canonical_between(HOLE, HOLE, depth=1)
    assert identity_term(HOLE) in terms


def test_transformer_is_found():
    terms = canonical_between(Sum(HOLE, HOLE), Prod(HOLE, HOLE), depth=1)
    assert terms == [GenTerm(Generator("i", (HOLE, HOLE)))]


def test_unitor_and_detours_all_evaluate_equally(pt3):
    terms = canonical_between(Sum(ZERO, HOLE), HOLE, depth=3)
    assert GenTerm(Generator("lunit+", (HOLE,))) in terms
    assert len(terms) > 1  # detours through inserted units
    values = {eval_canon(pt3, t, (PtObj(3),)).graph for t in terms}
    assert len(values) == 1


def test_result_is_sorted_and_deterministic():
    a = canonical_between(Sum(ZERO, HOLE), HOLE, depth=3)
    b = canonical_between(Sum(ZERO, HOLE), HOLE, depth=3)
    assert a == b
    texts = [render_term(t) for t in a]
    assert texts == sorted(texts)


def test_validations(cmon):
    with pytest.raises(ValueError):
        canonical_between(HOLE, Sum(HOLE, HOLE), depth=2)
    with pytest.raises(ValueError):
        canonical_between(HOLE, HOLE, depth=0)
    with pytest.raises(ValueError):
        canonical_between(HOLE, HOLE, depth=2, mode="nonsense")
    # The CLI's spelling "partially-linear" is no search mode either: a
    # sweep given it must not fall back to a prelinear search, which never
    # reaches (_+_) from (_*_), and pass after evaluating nothing.  It is
    # refused on entry, so also on a corpus with no pairs, which builds no
    # search graph.
    corpus = equal_length_pairs(2, 0)
    assert (Prod(HOLE, HOLE), Sum(HOLE, HOLE)) in corpus.pairs
    empty = equal_length_pairs(0, 0)
    assert empty.pairs == ()
    obj = cmon.base_objects[0]
    for mode in ("partially-linear", "nonsense"):
        with pytest.raises(ValueError, match="unknown mode"):
            search_graph(Prod(HOLE, HOLE), Sum(HOLE, HOLE), 2, mode)
        with pytest.raises(ValueError, match="unknown mode"):
            reaches(Prod(HOLE, HOLE), Sum(HOLE, HOLE), 2, mode)
        for pairs in (corpus, empty):
            with pytest.raises(ValueError, match="unknown mode"):
                coherence_sweep(cmon, pairs, lambda n: [(obj,) * n], 2, mode)


def test_prelinear_mode_excludes_inverse_transformer():
    terms = canonical_between(Prod(HOLE, HOLE), Sum(HOLE, HOLE), depth=2,
                              mode=PRELINEAR)
    assert terms == []
    terms = canonical_between(Prod(HOLE, HOLE), Sum(HOLE, HOLE), depth=2,
                              mode=PARTIALLY_LINEAR)
    assert GenTerm(Generator("i", (HOLE, HOLE), inverse=True)) in terms


def test_words_with_counts():
    assert len(words_with(0, 1)) == 2
    assert len(words_with(1, 0)) == 1
    assert len(words_with(1, 1)) == 8
    assert len(words_with(2, 0)) == 2
    assert len(words_with(1, 2)) == 96
    assert len(words_with(2, 1)) == 48


def _pure_words(op, n):
    # reference: the bracketings of an n-fold op word, built recursively
    if n == 1:
        return [HOLE]
    return [(op, lw, rw) for split in range(1, n)
            for lw in _pure_words(op, split) for rw in _pure_words(op, n - split)]


def test_pure_bracketings_counts():
    assert pure_bracketings("+", 1) == (HOLE,)
    assert len(pure_bracketings("+", 2)) == 1
    assert len(pure_bracketings("+", 3)) == 2
    assert len(pure_bracketings("*", 4)) == 5
    for op in ("+", "*"):
        for n, count in enumerate((0, 1, 1, 2, 5, 14, 42)):
            want = tuple(sorted(_pure_words(op, n), key=str))
            assert len(want) == count
            assert pure_bracketings(op, n) == want


def test_flood_agrees_with_term_enumeration(pt3, cmon):
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    cases = [
        (Sum(ZERO, HOLE), HOLE, 3, PRELINEAR),
        (Sum(HOLE, HOLE), Prod(HOLE, HOLE), 4, PRELINEAR),
        (Prod(ONE, HOLE), Sum(HOLE, ZERO), 4, PARTIALLY_LINEAR),
    ]
    for v, w, depth, mode in cases:
        terms = canonical_between(v, w, depth=depth, mode=mode)
        graph = search_graph(to_key(v), to_key(w), depth, mode)
        for model, obj in ((pt3, PtObj(2)), (cmon, z2)):
            if model is pt3 and mode == PARTIALLY_LINEAR:
                continue
            objs = (obj,) * 1 if v in (Sum(ZERO, HOLE), Prod(ONE, HOLE)) \
                else (obj, obj)
            flood = value_flood(model, graph, objs)
            term_values = {eval_canon(model, t, objs).graph for t in terms}
            assert set(flood.values) == term_values


def test_flood_witness_reconstruction(pt3):
    v, w = Sum(ZERO, HOLE), HOLE
    graph = search_graph(to_key(v), to_key(w), 3, PRELINEAR)
    flood = value_flood(pt3, graph, (PtObj(3),))
    assert flood.values
    for value in flood.values:
        term = flood.witness_term(value)
        assert term.source == v and term.target == w
        assert eval_canon(pt3, term, (PtObj(3),)).graph == value


def test_equal_length_pairs_deterministic():
    a = equal_length_pairs(1, 2, mixed_stride=2, heavy_stride=2)
    b = equal_length_pairs(1, 2, mixed_stride=2, heavy_stride=2)
    assert a.pairs == b.pairs
    assert all(len(p) == 2 for p in a.pairs)


def test_equal_length_pairs_empty_when_no_word_fits():
    # no length-0 word has zero unit leaves
    assert equal_length_pairs(0, 0).pairs == ()
    assert equal_length_pairs(0, 2).pairs


@pytest.mark.parametrize("n, count, prefix", [
    (0, 52, "fa5076cb2af745c2"),
    (1, 57, "bf13c0a1b8de5d0d"),
    (2, 1284, "70c7075c3038f210"),
])
def test_corpus_order_is_pinned(n, count, prefix):
    # Corpora are sorted by str of the word, so the leaf strings and the
    # sort key fix which pairs a strided sweep visits and in what order.
    pairs = equal_length_pairs(n, 3, 8, 16).pairs
    text = "\n".join(f"{render_word(v)} {render_word(w)}" for v, w in pairs)
    assert len(pairs) == count
    assert hashlib.sha256(text.encode()).hexdigest().startswith(prefix)


def test_small_partially_linear_sweep(cmon):
    small = [o for o in cmon.base_objects if o.size <= 2]

    def objects_for(n):
        return list(itertools.product(small, repeat=n))

    corpus = equal_length_pairs(1, 1)
    report = coherence_sweep(cmon, corpus, objects_for, depth=4,
                             mode=PARTIALLY_LINEAR)
    assert report.passed, report.counterexample


def test_sweep_reports_a_value_that_is_not_invertible(monkeypatch, cmon):
    # the one partially-linear counterexample shape no golden reaches: a
    # single value, named with its reason instead of witness terms
    inverse = Model.inverse

    def not_invertible(self, m, what):
        # the sweep's value has no inverse; i' is inverted as before
        if what.startswith("i at"):
            return inverse(self, m, what)
        raise NotInvertibleInModel(f"{what} has no inverse")

    monkeypatch.setattr(Model, "inverse", not_invertible)
    small = [o for o in cmon.base_objects if o.size <= 2]

    def objects_for(n):
        return list(itertools.product(small, repeat=n))

    report = coherence_sweep(cmon, equal_length_pairs(1, 1), objects_for,
                             depth=4)
    assert str(report) == (
        "[FAIL] coherence/partially-linear  counterexample:"
        " {'source': '_', 'target': '_', 'objects': ['M0_1'],"
        " 'reason': 'canonical morphism is not invertible', 'value': [0]}")


def test_normalized_cancellation_lands_in_product(pt3):
    for text in ["(_+_)", "(_*_)", "((_+0)*_)", "(1*(_+_))"]:
        w = parse_word(text)
        m = normalized_cancellation(pt3, w, (PtObj(2), PtObj(3)))
        assert m.cod == pt3.prod_obj(PtObj(2), PtObj(3))


def test_small_unit_square_sweep(pt2):
    objs = [o for o in pt2.base_objects]

    def objects_for(n):
        return list(itertools.product(objs, repeat=n))

    corpus = equal_length_pairs(2, 1)
    report = unit_square_sweep(pt2, corpus, objects_for, depth=3)
    assert report.passed, report.counterexample
    assert report.details["terms_checked"] > 0


def test_flood_agrees_on_more_word_pairs(cmon):
    # extra dual-route cases: length 0, associativity, mixed cores
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    cases = [
        (ZERO, ONE, 4, PARTIALLY_LINEAR, ()),
        (ONE, ZERO, 4, PRELINEAR, ()),
        (parse_word("(_+(_+_))"), parse_word("((_+_)+_)"), 4, PRELINEAR,
         (z2, z2, z2)),
        (parse_word("((_*1)+(0+_))"), parse_word("(_+_)"), 5, PARTIALLY_LINEAR,
         (z2, z2)),
    ]
    for v, w, depth, mode, objs in cases:
        terms = canonical_between(v, w, depth=depth, mode=mode)
        graph = search_graph(to_key(v), to_key(w), depth, mode)
        flood = value_flood(cmon, graph, objs)
        term_values = {eval_canon(cmon, t, objs).graph for t in terms}
        assert set(flood.values) == term_values
        assert len(set(flood.values)) <= 1


def test_plin_three_fold_bracketings_single_value(cmon):
    # beyond the stated sweep bounds: both sum bracketings of length 3
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    left, right = pure_bracketings("+", 3)
    graph = search_graph(to_key(left), to_key(right), 6, PARTIALLY_LINEAR)
    flood = value_flood(cmon, graph, (z2, z2, z2))
    assert len(flood.values) == 1


def _keys_up_to(leaves: int) -> list:
    """Every word key with 1..leaves leaves (holes and both units)."""
    by_size = {1: ["H", "Z", "O"]}
    for n in range(2, leaves + 1):
        by_size[n] = [(op, lk, rk) for split in range(1, n)
                      for lk in by_size[split] for rk in by_size[n - split]
                      for op in (SUM, PROD)]
    return [k for n in range(1, leaves + 1) for k in by_size[n]]


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_predecessors_are_exact_reverse_of_moves(mode):
    # A move changes the leaf count by at most one, so every predecessor of
    # a word with <= 4 leaves has <= 5 leaves.  Missing predecessors would
    # make backward_table overestimate distances and the pruning drop terms.
    small = _keys_up_to(4)
    want = {x: Counter() for x in small}
    for y in _keys_up_to(5):
        for x in moves.__wrapped__(y, mode).targets:  # unmemoised
            if x in want:
                want[x][y] += 1
    wrong = [x for x in small if Counter(_predecessors(x, mode)) != want[x]]
    assert not wrong, wrong[:5]


def _spine_moves(w, mode) -> list:
    """The moves out of ``w`` found by visiting every position in preorder
    and rebuilding the spine above it: the plain reference for ``moves``."""
    def positions(x, path=()):
        yield path, x
        if x not in LEAVES:
            yield from positions(x[1], path + (0,))
            yield from positions(x[2], path + (1,))

    def replace(x, path, new):
        if not path:
            return new
        op, left, right = x
        if path[0] == 0:
            return (op, replace(left, path[1:], new), right)
        return (op, left, replace(right, path[1:], new))

    return [((path, kind, inverse, args), replace(w, path, new))
            for path, sub in positions(w)
            for kind, inverse, args, new in _local_moves(sub, mode)]


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_moves_match_spine_rebuild(mode):
    # Move tables are built from the children's tables; they must list the
    # same moves, with the same targets, in the same order as a rebuild of
    # the spine at every position, and every elementary term rebuilt from
    # the child tables must be the spine's.  On words with at most 4 leaves
    # each term also starts at the table's word, ends at the move's stored
    # target and has the move's stored code.  A table's move ids are one
    # block, taken after its children's.  Words with 5 leaves are built
    # unmemoised so that only the tables of their (smaller) children are
    # kept.
    ids = Counter()
    for w in _keys_up_to(5):
        leaves = length(w) + unit_count(w)
        table = moves(w, mode) if leaves < 5 else moves.__wrapped__(w, mode)
        steps = [table.step(k) for k in range(len(table))]
        assert [((s.path, s.gen.kind, s.gen.inverse, s.gen.args), y)
                for s, y in zip(steps, table.targets)] == _spine_moves(w, mode), w
        if leaves <= 4:
            for s, y, code in zip(steps, table.targets, table.codes):
                assert s.source == table.word == w, (w, s)
                assert s.target == y, (w, s)
                assert _CODE[s.gen.kind, s.gen.inverse] == code, (w, s)
        block = list(range(table.first, table.first + len(table)))
        for child in (table.left, table.right):
            assert child is None or child.first + len(child) <= table.first
        ids.update(block)
    assert ids and max(ids.values()) == 1


def test_move_tables_are_compact():
    # Per move a table keeps a one-byte code, and its target word from its
    # first read on; edges are rebuilt on demand.  Measured over the tables
    # of every word with at most 4 leaves in both modes (235,230 moves),
    # with the functools cache: first as built, with only the root moves'
    # targets, then with every table's targets read.
    small = _keys_up_to(4)
    modes = (PRELINEAR, PARTIALLY_LINEAR)
    moves.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = sum(len(moves(w, mode)) for mode in modes for w in small)
        unread = tracemalloc.get_traced_memory()[0] - before
        for mode in modes:
            for w in small:
                moves(w, mode).targets
        read = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert count == 235230
    assert unread / count <= 40, unread / count
    assert read / count <= 120, read / count


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_targets_are_built_on_first_read(mode):
    # A move's target is built on its first read, from the child table's
    # target, in any order of reads, and kept: ``targets`` lists the same
    # objects.  Larger words come first, so that their children's targets
    # are still unbuilt when the parent reads them.
    moves.cache_clear()
    for w in reversed(_keys_up_to(4)):
        table = moves(w, mode)
        got = [table.target(k) for k in reversed(range(len(table)))][::-1]
        assert got == [y for _, y in _spine_moves(w, mode)], w
        assert list(table.targets) == got, w
        assert all(a is b for a, b in zip(table.targets, got)), w


def test_search_builds_only_admitted_targets():
    # Past the free layers search_graph reads a target only for a move the
    # count bound admits, so a bulky source's search builds few of its
    # tables' targets: here 28 %, where tables built eagerly hold them all.
    moves.cache_clear()
    graph = search_graph(parse_word("((0+_)*1)"), HOLE, 6, PARTIALLY_LINEAR)
    tables, stack = {}, list(graph.tables)
    while stack:
        table = stack.pop()
        if table is not None and id(table) not in tables:
            tables[id(table)] = table
            stack += [table.left, table.right]
    count = sum(len(table) for table in tables.values())
    built = sum(y is not None for table in tables.values() for y in table._targets)
    assert count > 20000
    assert built < count / 2, (built, count)


def test_reaches_is_whether_search_graph_reaches_the_target():
    # reaches asks whether w is within depth moves of v, with no graph
    # built.  It must agree with the full graph on the sweeps' corpora, in
    # both modes: the bracketing pairs of criterion 2 at depth 6, and the
    # partially-linear corpora of criterion 3 at depths 2 to 4, where many
    # targets are out of reach, and at depth 6, thinned to keep the test
    # short; on a bulky source, whose graph takes a backward table of
    # radius depth - 1, at depths 1 to 7; and from a word to itself.
    cases = [(v, w, 6) for n in (1, 2, 3) for v in pure_bracketings(SUM, n)
             for w in pure_bracketings(PROD, n)]
    for n, mixed, heavy, thin in ((0, 1, 1, 2), (1, 1, 2, 8), (2, 8, 16, 48)):
        pairs = equal_length_pairs(n, 3, mixed, heavy).pairs
        cases += [(v, w, depth) for v, w in pairs for depth in (2, 3, 4)]
        cases += [(v, w, 6) for v, w in pairs[::thin]]
    bulky = parse_word("((0+_)*1)")
    cases += [(bulky, HOLE, depth) for depth in range(1, 8)]
    cases += [(w, w, depth) for w in (HOLE, ONE, bulky) for depth in (0, 1, 6)]
    answers = Counter()
    for mode in (PRELINEAR, PARTIALLY_LINEAR):
        for v, w, depth in cases:
            want = search_graph(v, w, depth, mode).target_index is not None
            assert reaches(v, w, depth, mode) == want, (v, w, depth, mode)
            answers[want] += 1
    assert answers[True] > 1000 and answers[False] > 1000, answers


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_reaches_agrees_with_search_graph_at_depths_7_and_8(mode):
    # reaches grows each target's backward layers only as far as a query
    # needs, so its deepest queries must still agree with the full graph:
    # bulky sources toward a bare target, the partially-linear corpora of
    # criterion 3 thinned to keep the test short, pairs out of reach in
    # prelinear mode, and at depth 4 the unit square's every pair.
    def word(text):
        return parse_word(text)

    cases = [(word(v), word(w), depth)
             for v, w in [("((0+_)*1)", "_"), ("(_*_)", "(_+_)"),
                          ("(0+(0+0))", "(1*(1*1))"), ("(_*(1*1))", "((0+0)+_)")]
             for depth in (7, 8)]
    for n, mixed, heavy, thin7, thin8 in ((0, 1, 1, 8, 73), (1, 1, 2, 16, 168),
                                          (2, 8, 16, 642, None)):
        pairs = equal_length_pairs(n, 3, mixed, heavy).pairs
        cases += [(v, w, 7) for v, w in pairs[::thin7]]
        if thin8 is not None:
            cases += [(v, w, 8) for v, w in pairs[::thin8]]
    square = [(v, w, 4) for v, w in equal_length_pairs(2, 3, 8, 16).pairs]
    out_of_reach = Counter()
    for v, w, depth in cases + square:
        want = search_graph(v, w, depth, mode).target_index is not None
        assert reaches(v, w, depth, mode) == want, (v, w, depth)
        out_of_reach[depth] += not want
    assert out_of_reach[4] == {PRELINEAR: 508, PARTIALLY_LINEAR: 322}[mode]
    assert (out_of_reach[7] > 0) == (out_of_reach[8] > 0) == (mode == PRELINEAR)


def test_reaches_is_the_same_from_a_cleared_and_an_evicting_cache():
    # reaches is exact at whatever radius its table toward the target has
    # grown to, so an answer must not depend on the queries before it: a
    # cache cleared before each query, and one that holds fewer tables than
    # the queries have targets and evicts, give the same answers.  Each
    # length-1 pair is asked at depth 6 and then at smaller depths, which
    # read fewer layers than the table already has.
    from linearcat.search import _reach_table
    square = [(v, w, 4, PRELINEAR) for v, w in equal_length_pairs(2, 3, 8, 16).pairs]
    cases = square + [(v, w, depth, PARTIALLY_LINEAR)
                      for v, w in equal_length_pairs(1, 3, 1, 2).pairs[::3]
                      for depth in (6, 2, 4)] + square[::-1]
    cleared = []
    for case in cases:
        _reach_table.cache_clear()
        cleared.append(reaches(*case))
    _reach_table.cache_clear()
    assert [reaches(*case) for case in cases] == cleared
    info = _reach_table.cache_info()
    targets = len({(w, mode) for _, w, _, mode in cases})
    assert info.currsize == info.maxsize < targets < info.misses, info
    assert 0 < sum(cleared) < len(cases)


@pytest.mark.parametrize("n, mixed, heavy, grown", [(0, 1, 1, 486), (1, 1, 2, 1227)])
def test_reaches_grows_few_table_entries(monkeypatch, n, mixed, heavy, grown):
    # Criterion 3's partially-linear corpora at depth 6, asked as the sweep
    # asks them, each mirrored pair once: from a cleared cache, reaches
    # grows its backward layers by this many entries in all.
    from linearcat import search
    entries = []

    def counted(frontier, dist, d, mode, _inner=search._expand):
        out = _inner(frontier, dist, d, mode)
        entries.append(len(out))
        return out

    monkeypatch.setattr(search, "_expand", counted)
    search._reach_table.cache_clear()
    seen = set()
    for v, w in equal_length_pairs(n, 3, mixed, heavy).pairs:
        if (w, v) not in seen:
            seen.add((v, w))
            assert reaches(v, w, 6, PARTIALLY_LINEAR)
    assert sum(entries) == grown


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_a_window_that_cannot_bind_keeps_the_full_table(mode):
    # Where the unit window cannot bind even on a table's last layer,
    # search_graph asks for the full table, under the key with no unit count
    # or depth, which sources of every unit count share: the windowed table
    # must be the same table.
    cases = [(v, w, 6) for v, w in equal_length_pairs(1, 3, 8, 16).pairs]
    if mode == PRELINEAR:
        cases += [(v, w, 4) for v, w in equal_length_pairs(2, 3, 8, 16).pairs]
    free = 0
    for v, w, depth in cases:
        units = unit_count(v)
        radius = depth - 1 if length(v) + units > length(w) + unit_count(w) + 1 \
            else depth // 2
        if abs(unit_count(w) - units) + radius - 1 <= depth - radius + 1:
            free += 1
            assert (backward_table(w, radius, mode, units, depth)
                    == backward_table(w, radius, mode, None, None)), (v, w)
    assert free > len(cases) // 3, free


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_search_graph_is_the_same_from_cold_and_read_tables(mode):
    # search_graph takes a move's target from its table where it was read
    # before and builds it otherwise: a graph built over fresh tables must
    # equal one built over fresh tables whose every target was read first.
    # The count bound masks the same moves in both, so the read tables are
    # rebuilt before the second search, and move ids are compared from
    # each table's first.
    def relative(graph):
        return {xi: tuple((mid - graph.tables[xi].first, yi, last)
                          for mid, yi, last in out)
                for xi, out in graph.edges.items()}

    cases = [(parse_word("((0+_)*1)"), HOLE, 6)]
    cases += [(v, w, 4) for v, w in equal_length_pairs(2, 1).pairs[::40]]
    for v, w, depth in cases:
        moves.cache_clear()
        cold = search_graph(v, w, depth, mode)
        moves.cache_clear()
        for x in cold.words[:len(cold.tables)]:
            moves(x, mode).targets
        read = search_graph(v, w, depth, mode)
        assert read.words == cold.words, (v, w)
        assert relative(read) == relative(cold), (v, w)
        assert read.target_index == cold.target_index, (v, w)


def _plain_predecessors(w, mode) -> list:
    """Words with one move into ``w``, found by rebuilding the spine at every
    position in preorder and keeping each local move whose reverse is a
    move of ``mode`` at the new subword: the unmemoised reference for
    ``_predecessors``."""
    out = []
    for (path, kind, inverse, _), y in _spine_moves(w, PARTIALLY_LINEAR):
        sub, new = w, y
        for side in path:
            sub, new = sub[1 + side], new[1 + side]
        if any(k == kind and inv != inverse and back == sub
               for k, inv, _, back in _local_moves(new, mode)):
            out.append(y)
    return out


def _plain_backward_table(target, radius, mode) -> dict:
    dist = {target: 0}
    frontier = [target]
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for pred in _plain_predecessors(w, mode):
                if pred not in dist:
                    dist[pred] = d
                    nxt.append(pred)
        frontier = nxt
    return dist


@pytest.mark.parametrize("target, radius, mode", [
    ("_", 5, PARTIALLY_LINEAR),
    ("(_*_)", 3, PRELINEAR),
    ("(_+_)", 2, PRELINEAR),
    ("(_+_)", 2, PARTIALLY_LINEAR),
    ("((_*_)+0)", 2, PRELINEAR),
    ("((_*_)+0)", 2, PARTIALLY_LINEAR),
])
def test_backward_table_matches_plain_bfs(target, radius, mode):
    # The subword predecessor cache must change neither a table's contents
    # nor its key order, whether it starts cold or warm.
    w = parse_word(target)
    want = list(_plain_backward_table(w, radius, mode).items())
    _subword_predecessors.cache_clear()
    for _ in ("cold", "warm"):
        backward_table.cache_clear()
        assert list(backward_table(w, radius, mode).items()) == want


def test_backward_tables_share_subword_spines():
    # A predecessor is one new node around a cached predecessor of a child,
    # so it shares its unchanged subtrees with the subword cache; building
    # each predecessor as a fresh spine held about 260 bytes per entry.
    moves.cache_clear()
    backward_table.cache_clear()
    _subword_predecessors.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = len(backward_table(HOLE, 5, PARTIALLY_LINEAR))
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert count == 29181
    assert used / count <= 200, used / count


@pytest.mark.parametrize("lengths, depth, mode, distinct", [
    ((2,), 4, PRELINEAR, 254),  # the unit-cancellation square
    ((0, 1), 6, PARTIALLY_LINEAR, 43),
])
def test_backward_tables_are_built_once_per_corpus(monkeypatch, lengths, depth,
                                                   mode, distinct):
    # The backward table cache is bounded, yet at the CLI's default strides
    # no shipped corpus asks for a table again after it was evicted, so each
    # distinct (target, radius, source's unit count) is built exactly once;
    # where the unit window cannot bind, the key is the full table's, with
    # no unit count or depth.  The unit-square corpus asks for more tables
    # than the cache holds.
    from linearcat import search
    keys = []

    def recorded(target, radius, table_mode, units, table_depth,
                 _inner=backward_table):
        assert table_depth == (None if units is None else depth)
        keys.append((target, radius, units))
        table = _inner(target, radius, table_mode, units, table_depth)
        assert _inner.cache_info().currsize <= _inner.cache_info().maxsize
        return table

    monkeypatch.setattr(search, "backward_table", recorded)
    backward_table.cache_clear()
    for n in lengths:
        for v, w in equal_length_pairs(n, 3, 8, 16).pairs:
            search_graph(v, w, depth, mode)
    assert len(set(keys)) == distinct
    assert backward_table.cache_info().misses == distinct


def test_override_at_construction_sets_flood_value():
    graph = search_graph(parse_word("(_+0)"), HOLE, 2, PRELINEAR)
    pristine = FinPtSet((1, 2))
    overridden = FinPtSet((1, 2), overrides=[("runit_sum", ("P2",), (0, 0))])
    p2 = PtObj(2)
    assert set(value_flood(pristine, graph, (p2,)).values) == {(0, 1)}
    assert set(value_flood(overridden, graph, (p2,)).values) == {(0, 0)}


def _unpruned_values(model, v, w, depth, mode, objects) -> dict:
    """Value -> shortest path length, over every move path of length <= depth
    from v to w, found by a plain depth-first search over ``moves`` and
    evaluated with eval_canon."""
    v_key, w_key = to_key(v), to_key(w)
    values = {}
    if v_key == w_key:
        values[eval_canon(model, identity_term(v), objects).graph] = 0

    def dfs(x, g, chain):
        table = moves.__wrapped__(x, mode)  # unmemoised
        for k, y in enumerate(table.targets):
            if y != w_key and g + 1 == depth:
                continue
            elem = table.step(k).to_canon()
            term = elem if chain is None else vcompose(elem, chain)
            if y == w_key:
                value = eval_canon(model, term, objects).graph
                values[value] = min(values.get(value, depth), g + 1)
            if g + 1 < depth:
                dfs(y, g + 1, term)

    dfs(v_key, 0, None)
    return values


def _witness_lengths(flood) -> dict:
    """Each of the flood's values, which must not repeat, with the number
    of elementary steps of its witness term: the witness is read back along
    the first arrivals of the breadth-first search, so that is the first
    layer realizing the value."""
    assert len(set(flood.values)) == len(flood.values), flood.values
    return {g: len(elementary_factorization(flood.witness_term(g)))
            for g in flood.values}


def test_flood_pruning_is_exact(cmon):
    faulty = load_model(MODELS / "pointed_sets_3_faulty.json")
    p2 = faulty.object_by_name("P2")
    z2 = [o for o in cmon.base_objects if o.size == 2][0]
    cases = [
        # a bulky source: the backward table has radius depth - 1
        (faulty, "((0+_)*1)", "_", 4, PRELINEAR, (p2,)),
        (cmon, "((0+_)*1)", "_", 4, PARTIALLY_LINEAR, (z2,)),
        # the only value is first realized on the deepest layer
        (faulty, "(_*0)", "(_+1)", 4, PRELINEAR, (p2,)),
        (faulty, "(_+0)", "(0*_)", 3, PRELINEAR, (p2,)),
        (cmon, "(_*_)", "(_+_)", 3, PARTIALLY_LINEAR, (z2, z2)),
        (cmon, "0", "1", 4, PARTIALLY_LINEAR, ()),
    ]
    for model, v_text, w_text, depth, mode, objs in cases:
        v, w = parse_word(v_text), parse_word(w_text)
        graph = search_graph(to_key(v), to_key(w), depth, mode)
        flood = value_flood(model, graph, objs)
        want = _unpruned_values(model, v, w, depth, mode, objs)
        assert want, (v_text, w_text)
        # the flood finds each value once, with a shortest witness term
        assert _witness_lengths(flood) == want, (v_text, w_text, mode)


def _flood_and_own(model, pairs, depth, mode, objects_for):
    """Flood every pair at every object tuple.  Returns the flood values and
    a map from each move id met in a search graph to its elementary term."""
    owner, values = {}, {}
    for v, w in pairs:
        graph = search_graph(v, w, depth, mode)
        for xi, out in graph.edges.items():
            for mid, _, _ in out:
                owner[mid] = graph.step(xi, mid)
        for objects in objects_for(length(v)):
            values[(v, w, objects)] = value_flood(model, graph, objects).values
    return values, owner


def _edge_tables(model) -> dict:
    """The one-tuple move tables of the flood memo, by object tuple."""
    return {tuples[0]: dict(table) for tuples, table in model.memo["batch"].items()
            if len(tuples) == 1}


def _batched_values(model, graph, mode, tuples) -> list:
    """Each tuple's values, from one ``flood_check`` over all of ``tuples``
    between ``graph``'s source and target, handed ``graph`` where it asks
    for one."""
    key = (graph.source, graph.target, graph.depth, mode)

    def build(*asked):
        assert asked == key
        return graph

    out = []
    assert flood_check(model, *key, tuples,
                       lambda objects, values, trace: out.append(values),
                       build) is None
    return out


def _edge_values(model, step, tuples) -> list:
    """The values of the elementary term ``step`` at each object tuple."""
    term = step.to_canon()
    return [eval_canon(model, term, objects) for objects in tuples]


def _is_identity(mor) -> bool:
    return mor.graph == tuple(range(mor.dom.size)) and mor.cod.size == mor.dom.size


def _components(model, step, tuples) -> list:
    """The generator component that the elementary term ``step`` applies
    at its subword, at each object tuple."""
    sub, start = step.source, 0
    for side in step.path:
        if side:
            start += length(sub[1])
        sub = sub[1 + side]
    return [eval_generator(model, step.gen, objects[start:start + length(sub)])
            for objects in tuples]


def _is_batch_entry(model, step, tuples, eg) -> bool:
    """Assert that ``eg``, the flood memo's entry for the move of the
    elementary term ``step`` at the object tuples ``tuples``, is
    ``PASS_THROUGH`` exactly where every tuple's generator component is the
    identity carrier map, and elsewhere the move's graphs at each tuple laid
    end to end, each shifted past the codomain carriers of the tuples before
    it.  A marked move must be the identity at every tuple, and a move of
    a kind in the model's ``identity_moves`` must have no entry.  Returns
    whether the entry is marked."""
    mors = _edge_values(model, step, tuples)
    where = (step, tuples)
    assert (step.gen.kind, step.gen.inverse) not in model.identity_moves, where
    if all(map(_is_identity, _components(model, step, tuples))):
        assert eg is PASS_THROUGH, where
        assert all(map(_is_identity, mors)), where
        return True
    want, shift = [], 0
    for mor in mors:
        want += [t + shift for t in mor.graph]
        shift += mor.cod.size
    assert eg == tuple(want), where
    return False


def _assert_marks(model, marked, checked):
    # every structure map of the monoid model is an identity, so every move
    # passes by its code and none gets a batch entry; but on pointed sets i
    # is not always an identity, and neither is an overridden component
    if model.identity_moves == set(_CODE):
        assert checked == 0
    else:
        assert checked > 100
        assert 0 < marked < checked


def _assert_sound(model, tables, owner):
    checked = marked = 0
    for objects, table in tables.items():
        for mid, eg in table.items():
            marked += _is_batch_entry(model, owner[mid], (objects,), eg)
            checked += 1
    _assert_marks(model, marked, checked)


@pytest.mark.parametrize("path, mode", [
    pytest.param(path, mode, id=f"{path.name}-{mode}") for path, mode in [
        (MODELS / "pointed_sets_3.json", PRELINEAR),
        (MODELS / "pointed_sets_3_faulty.json", PRELINEAR),
        (MODELS / "commutative_monoids_3.json", PARTIALLY_LINEAR),
        *((path, PRELINEAR if path.name.startswith("pointed") else PARTIALLY_LINEAR)
          for path in OVERRIDE_FIXTURES)]])
def test_edge_table_is_sound(path, mode):
    # Every graph value_flood keeps in model.memo["batch"][(objects,)][move id]
    # is the value of that move's elementary term, also where the model
    # overrides a structure table, and PASS_THROUGH exactly where that value
    # is the identity carrier map, read from the generator's component at
    # the subword the move rewrites.  The moves evaluated whole share their
    # graphs through the whisker memo, which holds fewer entries than the
    # edge tables.  Move ids are never reused: after the move tables are
    # dropped, the fresh ids are new, the old entries stay as they were and
    # the fresh floods stay sound.
    model = load_model(path)
    small = [o for o in model.base_objects if o.size <= 2]

    def objects_for(n):
        return list(itertools.product(small, repeat=n))

    pairs = [(parse_word(v), parse_word(w)) for v, w in [
        ("(0+_)", "(_*1)"), ("(_*1)", "(_+0)"), ("((0*1)+_)", "_"),
        ("(_+_)", "(_*_)"), ("((_+0)*_)", "(_+(1*_))"), ("0", "1"),
        ("((_+_)+_)", "(_*(_*_))")]]
    values, owner = _flood_and_own(model, pairs, 4, mode, objects_for)
    before = _edge_tables(model)
    _assert_sound(model, before, owner)
    entries = sum(len(table) for table in before.values())
    whiskered = len(model.memo["whisker"])
    # on the monoids every move passes by its code, and none is whiskered
    assert whiskered < entries if entries else whiskered == 0

    moves.cache_clear()
    # in another order, so that reused ids would name other moves
    again, fresh = _flood_and_own(model, pairs[::-1], 4, mode, objects_for)
    assert again == values
    assert fresh.keys().isdisjoint(owner)
    after = _edge_tables(model)
    for objects, table in before.items():
        assert {mid: after[objects][mid] for mid in table} == table
    _assert_sound(model, after, {**owner, **fresh})


def _unskipped_search_graph(v, w, depth, mode):
    """The plain reference for ``search_graph``: every move is looked up in
    the full backward table, with no unit insertion skipped and no word
    left unexpanded, and numbered from its table's first move id.  Returns
    (words, edges, target index)."""
    if length(v) + unit_count(v) > length(w) + unit_count(w) + 1:
        radius = depth - 1
    else:
        radius = depth // 2
    bt = backward_table(w, radius, mode)
    free_last = depth - radius - 1
    edges, words, index = {}, [v], {v: 0}
    frontier = [0]
    layer = 0
    while frontier and layer < depth:
        layer += 1
        nxt = []
        for xi in frontier:
            kept = []
            table = moves(words[xi], mode)
            for mid, y in enumerate(table.targets, table.first):
                bty = bt.get(y)
                last = free_last if bty is None else depth - bty
                if layer > last:
                    continue
                yi = index.get(y)
                if yi is None:
                    yi = index[y] = len(words)
                    words.append(y)
                    nxt.append(yi)
                kept.append((mid, yi, last))
            edges[xi] = tuple(kept)
        frontier = nxt
    for xi in frontier:
        edges.setdefault(xi, ())
    return words, edges, index.get(w)


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
@pytest.mark.parametrize("depth", [4, 6])
def test_unit_insertion_skip_is_exact(depth, mode):
    # Past free_last, search_graph skips, by the count bound and reading the
    # move codes, the moves (unit insertions among them) whose targets the
    # backward table would reject, and its backward table leaves unexpanded
    # the words too far in unit count from the source; the admitted graph
    # must not change: the same words in the same order, the same edges
    # (move ids included), the same target state, and each expanded state
    # keeps its word's table.
    cases = [
        # bulky sources: the backward table has radius depth - 1
        ("((0+_)*1)", "_"), ("((0+1)*(_+0))", "_"),
        # sources of similar size: radius depth // 2
        ("(_*1)", "(0+_)"), ("((_+0)*_)", "(_+(1*_))"), ("(_+_)", "(_*_)"),
        ("(0*1)", "1"), ("1", "0"),
        # bare sources toward 3-unit targets, where the unit window binds
        ("_", "((0+_)*1)"), ("(_*_)", "((0+_)*(1*_))"),
    ]
    if depth == 4:
        # a radius-5 table toward a length-2 word takes seconds to build
        cases.append(("((1*(_*0))+_)", "(_*_)"))
        if mode == PRELINEAR:
            # the unit-cancellation square's every pair
            cases += [(render_word(v), render_word(w))
                      for v, w in equal_length_pairs(2, 3, 8, 16).pairs]
    if mode == PARTIALLY_LINEAR:
        # j, j's inverse, i's inverse and both structures' unitors and
        # their inverses, which the bound also drops
        cases += [("(0*(1+_))", "(_+0)"), ("(1*_)", "(0+_)"),
                  ("(_*(1*_))", "((0+_)+_)"), ("(1+1)", "(0*0)")]
    admitted = set()
    for v_text, w_text in cases:
        v, w = parse_word(v_text), parse_word(w_text)
        graph = search_graph(v, w, depth, mode)
        words, edges, target = _unskipped_search_graph(v, w, depth, mode)
        assert graph.words == words, (v_text, w_text)
        assert graph.edges == edges, (v_text, w_text)
        assert graph.target_index == target, (v_text, w_text)
        expanded = [xi for xi, out in edges.items() if out]
        assert len(graph.tables) > max(expanded, default=-1)
        assert all(table is moves(x, mode)
                   for table, x in zip(graph.tables, graph.words))
        admitted |= {(step.gen.kind, step.gen.inverse)
                     for step in (graph.step(xi, mid)
                                  for xi, out in edges.items() for mid, _, _ in out)}
    if mode == PARTIALLY_LINEAR:
        assert {(kind, inverse) for kind in ("j", "i", "lunit+", "runit+",
                                             "lunit*", "runit*")
                for inverse in (False, True)} <= admitted


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_unit_window_keeps_every_distance_a_search_can_use(mode):
    # A backward table given a source's unit count and the depth leaves a
    # word unexpanded where no path of the search could use its
    # predecessors.  The forward search meets a word y no earlier than
    # layer |units(y) - units(v)|, so each y of the full table whose
    # distance plus that is at most the depth must keep its full distance;
    # no entry may be closer to the target than in the full table.  On the
    # length-1 coherence corpus and on the unit square, which is prelinear,
    # the window binds for about a fifth of the pairs.
    cases = [(v, w, 6) for v, w in equal_length_pairs(1, 3, 8, 16).pairs]
    if mode == PRELINEAR:
        cases += [(v, w, 4) for v, w in equal_length_pairs(2, 3, 8, 16).pairs]
    cases += [(parse_word(v), parse_word(w), depth)
              for v, w in [("_", "((0+_)*1)"), ("((0+_)*1)", "_"),
                           ("((0+1)*(_+0))", "_"), ("0", "((0*1)+0)")]
              for depth in (4, 6)]
    smaller = 0
    for v, w, depth in cases:
        units = unit_count(v)
        radius = depth - 1 if length(v) + units > length(w) + unit_count(w) + 1 \
            else depth // 2
        full = backward_table(w, radius, mode)
        cut = backward_table(w, radius, mode, units, depth)
        for y, d in full.items():
            if abs(unit_count(y) - units) + d <= depth:
                assert cut.get(y) == d, (v, w, depth, y)
        assert all(d >= full[y] for y, d in cut.items()), (v, w, depth)
        smaller += len(cut) < len(full)
    assert smaller > len(cases) // 8, smaller


@pytest.mark.parametrize("mode", [PRELINEAR, PARTIALLY_LINEAR])
def test_count_deltas_are_exact(mode):
    # search_graph follows each state's counts of unit leaves, + nodes and
    # * nodes by adding its move code's delta; the count bound is exact only
    # if every move changes the counts by exactly that delta, and each count
    # by at most one.  Words with 5 leaves are built unmemoised so that only
    # the tables of their (smaller) children are kept.
    for code, change in enumerate(_CHANGE):
        assert _unpack(_DELTA[code]) == change
        assert max(map(abs, change)) <= 1
    checked = 0
    for n in range(3):
        for u in range(4):
            for x in words_with(n, u):
                text = render_word(x)
                assert _unpack(_counts(x)) == (
                    text.count("0") + text.count("1"), text.count("+"),
                    text.count("*")), text
                table = moves(x, mode) if n + u < 5 else moves.__wrapped__(x, mode)
                for y, code in zip(table.targets, table.codes):
                    assert _counts(y) - _counts(x) == _DELTA[code], (text, y, code)
                checked += len(table)
    assert checked > 500000


@pytest.mark.parametrize("path", [*sorted(MODELS.glob("*.json")), *OVERRIDE_FIXTURES],
                         ids=lambda path: path.stem)
def test_flood_memo_holds_no_identity_table_move(path):
    # A step along a move of a kind in identity_moves keeps the value with
    # no memo lookup, so no flood memo entry may belong to such a move, in a
    # one-tuple or a batched flood; each such move of the graphs must be
    # the identity at every flooded tuple.  The moves of every overridden
    # table are still evaluated, into sound entries.
    model = load_model(path)
    overridden = {ov["table"] for ov in
                  json.loads(path.read_text(encoding="utf-8")).get("overrides", [])}
    mode = PRELINEAR if model.kind == "pointed_sets" else PARTIALLY_LINEAR
    small = [o for o in model.base_objects if o.size <= 2]
    owner = {}
    passed = 0
    for v, w in [(parse_word(v), parse_word(w)) for v, w in [
            ("(0+_)", "(_*1)"), ("((0*1)+_)", "_"), ("(_+_)", "(_*_)"),
            ("((_+0)*_)", "(_+(1*_))"), ("((_+_)+_)", "(_*(_*_))")]]:
        graph = search_graph(v, w, 4, mode)
        tuples = list(itertools.product(small, repeat=length(v)))
        for xi, out in graph.edges.items():
            for mid, _, _ in out:
                step = owner[mid] = graph.step(xi, mid)
                # the flood passes values through this move unevaluated
                if (step.gen.kind, step.gen.inverse) in model.identity_moves:
                    assert all(map(_is_identity, _edge_values(model, step, tuples))), \
                        step
                    passed += 1
        _batched_values(model, graph, mode, tuples)
        for objects in tuples[:2]:
            value_flood(model, graph, objects)
    assert passed > 0
    evaluated = set()
    for tuples, table in model.memo["batch"].items():
        for mid, eg in table.items():
            _is_batch_entry(model, owner[mid], tuples, eg)
            evaluated.add(structure_table(owner[mid].gen.kind, owner[mid].gen.inverse))
    assert overridden <= evaluated


def _swapped_i_monoids():
    """The monoids of size <= 2 with i at (M1_2, M1_2) overridden by the
    swap of the two factors: an automorphism, so i' exists, but no
    identity, so neither i nor i' passes by its code."""
    return FinCMon(all_commutative_monoids(2),
                   [("i", ("M1_2", "M1_2"), (0, 2, 1, 3))])


@pytest.mark.parametrize("model_file, mode", [
    ("pointed_sets_3.json", PRELINEAR),
    ("pointed_sets_3_faulty.json", PRELINEAR),
    ("commutative_monoids_3.json", PARTIALLY_LINEAR),
    pytest.param(None, PARTIALLY_LINEAR, id="monoids_swapped_i-partially_linear"),
])
def test_batched_flood_matches_value_flood(model_file, mode):
    # One flood over all object tuples gives each tuple the values, in the
    # same order, of a flood at that tuple alone.  Its move graphs
    # are the moves' graphs at each tuple laid end to end, each shifted past
    # the codomain carriers of the tuples before it, or PASS_THROUGH where
    # that is the identity, and the flood memo keys them by the tuple of
    # object tuples, as it keys the one-tuple floods.  On the monoid model
    # every move passes by its code: no flood leaves a batch entry, and
    # flood_check asks reaches in place of flooding a graph.  A prelinear
    # flood_check floods no tuple where the target's object has one point,
    # the tuples of P1 alone, and no graph whose target is out of reach.
    model = _swapped_i_monoids() if model_file is None \
        else load_model(MODELS / model_file)
    small = [o for o in model.base_objects if o.size <= 2]
    pairs = [(parse_word(v), parse_word(w)) for v, w in [
        ("0", "1"), ("(0*1)", "1"), ("1", "0"),
        ("_", "_"), ("(0+_)", "(_*1)"), ("((0*1)+_)", "_"),
        ("(_*_)", "(_*_)"), ("(_+_)", "(_*_)"), ("((_+0)*_)", "(_+(1*_))")]]
    batched, owner = [], {}
    for v, w in pairs:
        graph = search_graph(v, w, 4, mode)
        for xi, out in graph.edges.items():
            for mid, _, _ in out:
                owner[mid] = graph.step(xi, mid)
        tuples = list(itertools.product(small, repeat=length(v)))
        batched.append((graph, tuples, _batched_values(model, graph, mode, tuples)))
    if model.identity_moves == set(_CODE):
        assert not model.memo["batch"]
    elif mode == PRELINEAR:
        flooded = [tuple(objects for objects in tuples
                         if any(o.size > 1 for o in objects))
                   for graph, tuples, _ in batched if graph.target_index is not None]
        assert set(model.memo["batch"]) == set(flooded) - {()}
        assert ((PtObj(2),),) in model.memo["batch"]
    else:
        # only the length-0 floods, over the one empty tuple, have one tuple
        assert {t for t in model.memo["batch"] if len(t) == 1} == {((),)}
    many = 0
    for graph, tuples, got in batched:
        want = [value_flood(model, graph, objects).values for objects in tuples]
        assert got == want, (graph.source, graph.target)
        many += sum(len(values) > 1 for values in got)
    # the faulty model's unitor gives (_*_) -> (_*_) two values, and the
    # swapped i gives (_+_) -> (_*_) two at (M1_2, M1_2)
    assert many > 0 if model_file in ("pointed_sets_3_faulty.json", None) \
        else many == 0
    checked = marked = 0
    for tuples, table in model.memo["batch"].items():
        for mid, eg in table.items():
            marked += _is_batch_entry(model, owner[mid], tuples, eg)
            checked += 1
    _assert_marks(model, marked, checked)


def test_partially_linear_flood_check_floods_where_a_move_can_raise():
    # In partially-linear mode a flood can raise, where i' would invert an i
    # that is no bijection, so flood_check floods the graph also where the
    # target is out of reach and at the tuples of P1 alone: the error
    # reaches the caller at the first tuple whose flood raises, as from
    # per-tuple floods.  The prelinear search of the same pair is out of
    # reach and floods nothing.
    model = load_model(MODELS / "pointed_sets_3.json")
    p1, p2 = model.object_by_name("P1"), model.object_by_name("P2")
    v, w = parse_word("(_*_)"), parse_word("(_*(_*(0*0)))")
    tuples = [(p1, p1), (p1, p2), (p2, p2)]
    seen = []

    def check(objects, values, trace):
        seen.append((objects, values))

    with pytest.raises(NotInvertibleInModel, match=r"i at \(P2, P2\)"):
        flood_check(model, v, w, 3, PARTIALLY_LINEAR, tuples, check, search_graph)
    assert seen == [(objects, ()) for objects in tuples[:2]]
    seen.clear()
    model = load_model(MODELS / "pointed_sets_3.json")
    assert flood_check(model, v, w, 3, PRELINEAR, tuples, check, search_graph) is None
    assert seen == [(objects, ()) for objects in tuples]
    assert not model.memo["batch"]


def test_range_shaped_component_is_no_identity():
    # i at (P2, P2) overridden by (0, 1, 2): a graph of the form range(3)
    # into P2 x P2, which has 4 points.  At the root it moves no value, but
    # it is no identity: the wedge with P2 on its right shifts the right
    # summand's point by |P4| - 1, and the product with P2 on its left
    # strides by |P4|, so those whiskers of it move values.  The flood must
    # not take it for an identity, at its subword or as a whole move: each
    # memo entry must be the move's value under eval_canon, also where that
    # value is range-shaped.
    model = FinPtSet(overrides=[("i", ("P2", "P2"), (0, 1, 2))])
    p1, p2 = model.object_by_name("P1"), model.object_by_name("P2")
    owner, whiskered, range_shaped = {}, 0, 0
    for v_text, w_text in [("((_+_)+_)", "((_*_)+_)"), ("(_*(_+_))", "(_*(_*_))"),
                           ("(_+_)", "(_*_)")]:
        v, w = parse_word(v_text), parse_word(w_text)
        graph = search_graph(v, w, 2, PRELINEAR)
        for xi, out in graph.edges.items():
            for mid, _, _ in out:
                owner[mid] = graph.step(xi, mid)
        tuples = list(itertools.product((p1, p2), repeat=length(v)))
        _batched_values(model, graph, PRELINEAR, tuples)
        twos = (p2,) * length(v)
        assert _witness_lengths(value_flood(model, graph, twos)) == \
            _unpruned_values(model, v, w, 2, PRELINEAR, twos), v_text
    for tuples, table in model.memo["batch"].items():
        for mid, eg in table.items():
            step = owner[mid]
            if _is_batch_entry(model, step, tuples, eg):
                continue
            range_shaped += eg == tuple(range(len(eg)))
            whiskered += step.path != () and step.gen.kind == "i" \
                and tuples == ((p2,) * length(step.source),)
    # ((_+_)+_) and (_*(_+_)) each move i at (P2, P2) by one whisker
    assert whiskered == 2
    # the root i at (P2, P2) is stored as its graph (0, 1, 2), not marked
    assert range_shaped > 0


@pytest.mark.parametrize("path, n, max_units", [
    (MODELS / "commutative_monoids_3.json", 1, 2),
    (MODELS / "pointed_sets_3.json", 2, 1),
], ids=["monoids", "pointed_sets"])
def test_identity_components_are_not_whiskered(monkeypatch, path, n, max_units):
    # A move whose generator component is the identity at its subword
    # passes values through with no whisker evaluated.  On the monoid model
    # every structure map is the identity, and every move kind passes by its
    # code, so a partially-linear sweep evaluates no component, calls
    # edge_morphism not once and leaves the batch and whisker memos empty.
    # On pointed sets i is not always the identity; still, each generator
    # component is evaluated once per model, into model.memo["component"].
    from linearcat import search
    calls = Counter()
    for name in ("edge_morphism", "component_at"):
        inner = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *args, _f=inner, _n=name:
                            calls.update([_n]) or _f(*args))
    model = load_model(path)
    small = [o for o in model.base_objects if o.size <= 2]

    def objects_for(k):
        return list(itertools.product(small, repeat=k))

    corpus = equal_length_pairs(n, max_units)
    if model.kind == "pointed_sets":
        report = unit_square_sweep(model, corpus, objects_for, 4)
    else:
        report = coherence_sweep(model, corpus, objects_for, 4, PARTIALLY_LINEAR)
    assert report.passed, report.counterexample
    entries = sum(map(len, model.memo["batch"].values()))
    components = model.memo["component"]
    assert calls["component_at"] == len(components)
    assert "is_identity" not in model.memo
    if model.kind == "pointed_sets":
        assert entries > 100
        assert 0 < calls["component_at"]
        assert 0 < calls["edge_morphism"] < entries
    else:
        assert not model.memo["batch"] and not components
        assert calls["edge_morphism"] == 0
        assert not model.memo["whisker"]


def test_monoid_sweep_passes_every_move_by_its_code(monkeypatch):
    # On the monoid model every move kind is in identity_moves, so a
    # partially-linear sweep builds no move's graph and reads no component:
    # flood_check builds no search graph and gives the target one value,
    # the identity, where reaches finds it within the depth.  Those
    # values are the ones a full flood at each tuple alone finds, also on
    # the pairs whose target is out of reach, and their witness terms reach
    # the target on every layer.
    from linearcat import search
    model = load_model(MODELS / "commutative_monoids_3.json")
    assert model.identity_moves == set(_CODE)
    calls = Counter()
    for name in ("_move_graph", "component_at"):
        inner = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *args, _f=inner, _n=name:
                            calls.update([_n]) or _f(*args))
    small = [o for o in model.base_objects if o.size <= 2]

    def objects_for(k):
        return list(itertools.product(small, repeat=k))

    corpus = equal_length_pairs(1, 2)
    report = coherence_sweep(model, corpus, objects_for, 4, PARTIALLY_LINEAR)
    assert report.passed, report.counterexample
    assert not model.memo["batch"]
    assert not model.memo["component"]
    assert not model.memo["whisker"]
    assert not calls
    layers = Counter()
    for v, w in corpus.pairs:
        graph = search_graph(v, w, 4, PARTIALLY_LINEAR)
        tuples = objects_for(length(v))
        got = _batched_values(model, graph, PARTIALLY_LINEAR, tuples)
        floods = [value_flood(model, graph, objects) for objects in tuples]
        assert got == [flood.values for flood in floods], (v, w)
        layers.update(_witness_lengths(floods[0]).values())
        layers[None] += not got[0]
    assert not calls
    assert not any(model.memo["batch"].values())
    # targets reached on every layer, and targets out of reach
    assert set(layers) == {0, 1, 2, 3, 4, None}, layers
