"""The timed jobs, run inside a fresh child interpreter.

``setup(inputs)`` imports what the job needs and builds its inputs; it
returns the job's operations as ``(name, call)`` pairs.  Each call returns
``(ok, result)``: ``ok`` says whether the operation met its contract and
``result`` is plain JSON data the oracles and the cross-repeat comparison
read.  The child times each call as one phase.

Library functions are looked up through their modules at call time, so a
traced child that wrapped them beforehand sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools

from common import (MONOIDS, PLIN_CHUNK, PLIN_CORPORA, PLIN_DEPTH,
                    PLIN_MAX_SIZE, PTSETS)


def _report(r) -> dict:
    return {"law": r.law, "passed": r.passed,
            "counterexample": r.counterexample, "details": r.details}


def _objects_for(model, max_size):
    objs = [o for o in model.base_objects if o.size <= max_size]

    def objects_for(n):
        return list(itertools.product(objs, repeat=n))

    return objects_for


def dedup_mirrors(pairs):
    """Drop each pair whose mirror came earlier, as a partially-linear
    ``coherence_sweep`` does, so that chunks of a corpus evaluate exactly
    the pairs the whole corpus would."""
    seen = set()
    out = []
    for v, w in pairs:
        if (w, v) in seen:
            continue
        seen.add((v, w))
        out.append((v, w))
    return out


def plin_sweep(inputs):
    from linearcat import models, sweeps, terms, words

    model = models.load_model(MONOIDS)
    objects_for = _objects_for(model, PLIN_MAX_SIZE)
    chunks = []
    for n, mixed, heavy in PLIN_CORPORA:
        corpus = sweeps.equal_length_pairs(n, 3, mixed, heavy)
        pairs = dedup_mirrors(corpus.pairs)
        for k in range(0, len(pairs), PLIN_CHUNK):
            chunks.append((f"n={n}/{k // PLIN_CHUNK}", f"n{n}",
                           sweeps.PairCorpus(tuple(pairs[k:k + PLIN_CHUNK]),
                                             corpus.description)))
    for k, p in enumerate(inputs["sample"]):
        pair = (words.parse_word(p["source"]), words.parse_word(p["target"]))
        chunks.append((f"n=2/sample/{k}", "n2",
                       sweeps.PairCorpus((pair,), "length 2, seeded sample")))

    def sweep(name, tag, corpus):
        def call():
            r = sweeps.coherence_sweep(model, corpus, objects_for, PLIN_DEPTH,
                                       terms.PARTIALLY_LINEAR,
                                       law=f"coherence/partially-linear/{name}")
            return True, dict(_report(r), corpus=tag)
        return call

    return [(name, sweep(name, tag, corpus)) for name, tag, corpus in chunks]


def check_ptset(inputs):
    from linearcat import cli

    def check(doc):
        def call():
            out, err = io.StringIO(), io.StringIO()
            result = {"name": doc["name"], "exit": None, "exception": None}
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    result["exit"] = cli.main(["check", "--model", doc["path"],
                                               "--format", "structured"])
            except Exception as exc:  # the verdict is what is measured
                result["exception"] = f"{type(exc).__name__}: {exc}"
            result["stdout"] = out.getvalue()
            result["stderr"] = err.getvalue()
            return result["exit"] == doc["expect"], result
        return call

    return [(doc["name"], check(doc)) for doc in inputs["docs"]]


def laws(inputs):
    from linearcat import centrality, checks, models

    pt = models.load_model(PTSETS)
    cm = models.load_model(MONOIDS)

    def reports(fn, model):
        return lambda: (True, [_report(r) for r in fn(model)])

    def lineariser(model):
        def call():
            flag, data = checks.is_lineariser(model)
            if flag:
                data = {f"{a},{b}": list(m.graph) for (a, b), m in data.items()}
            return True, {"lineariser": flag, "data": data}
        return call

    def theorem(model):
        return lambda: (True, _report(centrality.check_linearity_theorem(model)))

    def centrality_pairs(model):
        def call():
            rows = []
            for x in model.base_objects:
                for y in model.base_objects:
                    for f in model.hom(x, y):
                        rows.append([x.name, y.name, list(f.graph),
                                     centrality.is_central(model, f)[0],
                                     centrality.is_central_matrix(model, f)])
            return True, rows
        return call

    def central_monoids():
        tables = []
        for x in cm.base_objects:
            for y in cm.base_objects:
                c = centrality.central_monoid(cm, x, y)
                tables.append({"x": x.name, "y": y.name,
                               "elements": [list(m.graph) for m in c.elements],
                               "table": [list(row) for row in c.table],
                               "unit": c.unit_index,
                               "laws": [_report(r) for r in c.verify()]})
        return True, tables

    ops = []
    for tag, model in (("ptsets", pt), ("monoids", cm)):
        ops += [(f"{tag}/structure", reports(checks.check_structure, model)),
                (f"{tag}/transformer", reports(checks.check_transformer, model)),
                (f"{tag}/prelinear", reports(checks.check_prelinear, model)),
                (f"{tag}/lineariser", lineariser(model)),
                (f"{tag}/linearity-theorem", theorem(model)),
                (f"{tag}/centrality", centrality_pairs(model))]
    ops += [("monoids/central-monoids", central_monoids),
            ("monoids/distributivity",
             lambda: (True, _report(centrality.check_distributivity(cm))))]
    return ops


JOBS = {"plin-sweep": plin_sweep, "check-ptset": check_ptset, "laws": laws}
