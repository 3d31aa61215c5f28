"""Regenerate ``bench/expected.json``, the values plin-sweep can only check
against a stored copy:

* the exact number of (pair, object tuple) evaluations of the length-0 and
  length-1 corpora, and
* for every pair the length-2 sample may draw from, its evaluations and its
  flood-state count (summed over the object tuples).

Those candidates are the pairs of criterion 3's length-2 corpus (strides
8/16, mirrors dropped) whose two words carry one unit leaf each.  The run
samples only those with a flood-state count near the median (see
``common.plin_pool``): ranking by a machine-independent work count keeps
the sample's cost, and so the spread of plin-sweep across seeds, small.

    python3 bench/make_expected.py

Takes about three minutes; the candidates are measured in several child processes
so that no one process holds the search caches of every pair.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH, EXPECTED, MONOIDS, PLIN_CORPORA, PLIN_DEPTH,  # noqa: E402
                    PLIN_L2_STRIDES, PLIN_MAX_SIZE, ROOT, SRC)

sys.path.insert(0, str(SRC))

WORKER_PAIRS = 60


def _setup():
    from linearcat.models import load_model
    model = load_model(ROOT / MONOIDS)
    objs = [o for o in model.base_objects if o.size <= PLIN_MAX_SIZE]

    def objects_for(n):
        return list(itertools.product(objs, repeat=n))

    return model, objects_for


def candidates():
    """Criterion 3's length-2 pairs with one unit leaf in each word."""
    from jobs import dedup_mirrors
    from linearcat.sweeps import equal_length_pairs
    from linearcat.words import unit_count
    corpus = equal_length_pairs(2, 3, *PLIN_L2_STRIDES)
    return [(k, v, w) for k, (v, w) in enumerate(dedup_mirrors(corpus.pairs))
            if unit_count(v) == 1 and unit_count(w) == 1]


def corpus_evaluations() -> dict:
    from jobs import dedup_mirrors
    from linearcat.sweeps import PairCorpus, coherence_sweep, equal_length_pairs
    from linearcat.terms import PARTIALLY_LINEAR
    model, objects_for = _setup()
    out = {}
    for n, mixed, heavy in PLIN_CORPORA:
        corpus = equal_length_pairs(n, 3, mixed, heavy)
        pairs = PairCorpus(tuple(dedup_mirrors(corpus.pairs)), corpus.description)
        r = coherence_sweep(model, pairs, objects_for, PLIN_DEPTH, PARTIALLY_LINEAR)
        if not r.passed:
            raise SystemExit(f"length-{n} corpus failed: {r.counterexample}")
        out[f"n{n}"] = r.details["evaluations"]
    return out


def worker(lo: int, hi: int) -> None:
    """Print pool statistics for candidates[lo:hi], one JSON line each."""
    from linearcat.search import search_graph, to_key, value_flood
    from linearcat.sweeps import PairCorpus, coherence_sweep
    from linearcat.terms import PARTIALLY_LINEAR
    from linearcat.words import render_word
    model, objects_for = _setup()
    for index, v, w in candidates()[lo:hi]:
        r = coherence_sweep(model, PairCorpus(((v, w),), ""), objects_for,
                            PLIN_DEPTH, PARTIALLY_LINEAR)
        if not r.passed:
            raise SystemExit(f"pair {index} failed: {r.counterexample}")
        graph = search_graph(to_key(v), to_key(w), PLIN_DEPTH, PARTIALLY_LINEAR)
        states = sum(len(value_flood(model, graph, objs).parents)
                     for objs in objects_for(2))
        print(json.dumps({"index": index, "source": render_word(v),
                          "target": render_word(w),
                          "evaluations": r.details["evaluations"],
                          "flood_states": states}), flush=True)


def build() -> dict:
    total = len(candidates())
    rows = []
    for lo in range(0, total, WORKER_PAIRS):
        out = subprocess.run(
            [sys.executable, __file__, "--worker", str(lo), str(lo + WORKER_PAIRS)],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        rows += [json.loads(line) for line in out.splitlines()]
    return {"about": "generated by bench/make_expected.py; do not edit",
            "evaluations": corpus_evaluations(),
            "candidates": sorted(rows, key=lambda p: p["index"])}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        worker(int(argv[1]), int(argv[2]))
        return 0
    EXPECTED.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
