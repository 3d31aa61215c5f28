"""Correctness oracles, run in a separate child after the timed repeats.

Each oracle takes the run's inputs and the operation outcomes of one repeat
and returns a list of problems (empty when the outputs are correct).  The
oracles do not trust the code path they check:

* plin-sweep: the sweep's flood values are compared with the values of the
  explicit terms ``canonical_between`` lists, each evaluated term by term
  with ``eval_canon``; the isomorphism property is checked on Cayley tables
  rebuilt from the model file, without the model classes.
* check-ptset: exit codes follow from the theory (the bundled pointed sets
  satisfy every law, a non-bijective iso table must break a law of its
  family); every counterexample that lists terms is replayed with
  ``parse_term`` and ``eval_canon``.
* laws: central addition is compared with pointwise addition on the Cayley
  tables of the model file; the lineariser witness and the hom-set sizes
  are computed from object sizes and tables alone.

Oracles that only read outputs take no package imports, so the tests can
feed them hand-made outputs.
"""

from __future__ import annotations

import itertools
import json
import random

from common import (FAMILY_LAWS, MONOIDS, PLIN_MAX_SIZE, PLIN_ORACLE_CASES,
                    PLIN_ORACLE_DEPTH, PTSETS, ROOT)

# -- words and monoids without the package -----------------------------------


def parse_word_text(text: str):
    """Nested tuples for a fully parenthesized word: 'H', 'Z', 'O' or
    (op, left, right)."""
    pos = 0

    def parse():
        nonlocal pos
        ch = text[pos]
        pos += 1
        if ch in "_01":
            return {"_": "H", "0": "Z", "1": "O"}[ch]
        if ch != "(":
            raise ValueError(f"bad word {text!r}")
        left = parse()
        op = text[pos]
        pos += 1
        right = parse()
        if text[pos] != ")":
            raise ValueError(f"bad word {text!r}")
        pos += 1
        return (op, left, right)

    word = parse()
    if pos != len(text):
        raise ValueError(f"bad word {text!r}")
    return word


def cayley_tables(path: str) -> dict[str, list[list[int]]]:
    """Object name -> Cayley table, read straight from a monoid model file."""
    doc = json.loads((ROOT / path).read_text())
    out = {}
    for entry in doc["objects"]:
        flat = entry["table"]
        n = round(len(flat) ** 0.5)
        out[entry["name"]] = [flat[r * n:(r + 1) * n] for r in range(n)]
    return out


def word_table(word, tables: list[list[list[int]]]) -> list[list[int]]:
    """Cayley table of a word evaluated at monoids: both structures are the
    direct product, numbered lexicographically; units are trivial."""
    rest = list(tables)

    def build(w):
        if w == "H":
            return rest.pop(0)
        if w in ("Z", "O"):
            return [[0]]
        a, b = build(w[1]), build(w[2])
        na, nb = len(a), len(b)
        n = na * nb
        return [[a[u // nb][v // nb] * nb + b[u % nb][v % nb] for v in range(n)]
                for u in range(n)]

    table = build(word)
    if rest:
        raise ValueError("too many objects for the word")
    return table


def is_hom(graph, dom, cod) -> bool:
    n = len(dom)
    return len(graph) == n and graph[0] == 0 and all(
        graph[dom[a][b]] == cod[graph[a]][graph[b]]
        for a in range(n) for b in range(n))


def iso_problem(graph, dom, cod) -> str | None:
    """None when ``graph`` is a bijection whose inverse is a homomorphism."""
    n = len(dom)
    if len(cod) != n or sorted(graph) != list(range(n)):
        return "value is not a bijection"
    if not is_hom(graph, dom, cod):
        return "value is not a homomorphism"
    inverse = [0] * n
    for a, b in enumerate(graph):
        inverse[b] = a
    if not is_hom(inverse, cod, dom):
        return "inverse of the value is not a homomorphism"
    return None


def all_homs(dom, cod) -> list[tuple[int, ...]]:
    """Every monoid homomorphism between two Cayley tables, by brute force."""
    return [(0,) + rest
            for rest in itertools.product(range(len(cod)), repeat=len(dom) - 1)
            if is_hom((0,) + rest, dom, cod)]


# -- plin-sweep ----------------------------------------------------------------


def plin_totals(inputs: dict, outcomes: list[dict]) -> list[str]:
    """Every sweep passed and evaluated exactly the expected number of
    (pair, object tuple) combinations per corpus."""
    problems = []
    got: dict[str, int] = {}
    for op in outcomes:
        r = op["result"]
        if "error" in r:
            continue
        if not r["passed"]:
            problems.append(f"{r['law']} failed: {r['counterexample']}")
            continue
        got[r["corpus"]] = got.get(r["corpus"], 0) + r["details"]["evaluations"]
    for tag, want in inputs["expected_evaluations"].items():
        if got.get(tag) != want:
            problems.append(f"corpus {tag}: {got.get(tag)} evaluations,"
                            f" expected {want}")
    return problems


def plin_terms(inputs: dict, seed: int) -> list[str]:
    """On PLIN_ORACLE_CASES seeded length-1 pairs and on every sampled
    length-2 pair, each at a seeded object tuple: the values of all terms from
    ``canonical_between`` at the smallest depth (3 or 4) that has any, each
    evaluated by ``eval_canon``, equal the flood's values at that depth; there is exactly one, and it is
    an isomorphism of the Cayley tables."""
    from linearcat.evaluate import eval_canon
    from linearcat.models import load_model
    from linearcat.search import canonical_between, search_graph, to_key, value_flood
    from linearcat.sweeps import equal_length_pairs
    from linearcat.terms import PARTIALLY_LINEAR
    from linearcat.words import parse_word, render_word

    model = load_model(MONOIDS)
    tables = cayley_tables(MONOIDS)
    objs = [o for o in model.base_objects if o.size <= PLIN_MAX_SIZE]
    rng = random.Random(f"plin-sweep/oracle/{seed}")
    length1 = list(equal_length_pairs(1, 3, 1, 2).pairs)
    length2 = [(parse_word(p["source"]), parse_word(p["target"]))
               for p in inputs["sample"]]
    rng.shuffle(length1)
    rng.shuffle(length2)
    want = {1: PLIN_ORACLE_CASES, 2: len(length2)}
    problems, found = [], {1: 0, 2: 0}
    cases = [(1, v, w) for v, w in length1] + [(2, v, w) for v, w in length2]
    for n, v, w in cases:
        if found[n] >= want[n]:
            continue
        objects = tuple(rng.choice(objs) for _ in range(n))
        for depth in (PLIN_ORACLE_DEPTH, PLIN_ORACLE_DEPTH + 1):
            terms = canonical_between(v, w, depth=depth, mode=PARTIALLY_LINEAR)
            if terms:
                break
        else:
            continue
        found[n] += 1
        where = f"{render_word(v)} -> {render_word(w)} at {[o.name for o in objects]}"
        term_values = {eval_canon(model, t, objects).graph for t in terms}
        flood = value_flood(model, search_graph(to_key(v), to_key(w), depth,
                                                PARTIALLY_LINEAR), objects)
        if term_values != set(flood.values):
            problems.append(f"{where}: {len(terms)} terms give {sorted(term_values)},"
                            f" the flood gives {sorted(flood.values)}")
        if len(term_values) != 1:
            problems.append(f"{where}: {len(term_values)} distinct term values")
        obj_tables = [tables[o.name] for o in objects]
        dom = word_table(parse_word_text(render_word(v)), obj_tables)
        cod = word_table(parse_word_text(render_word(w)), obj_tables)
        for graph in term_values:
            bad = iso_problem(list(graph), dom, cod)
            if bad:
                problems.append(f"{where}: {bad}")
    for n, count in found.items():
        if count < want[n]:
            problems.append(f"only {count} length-{n} oracle cases have a term"
                            f" within depth {PLIN_ORACLE_DEPTH + 1}")
    return problems


def verify_plin(inputs: dict, outcomes: list[dict]) -> list[str]:
    return plin_totals(inputs, outcomes) + plin_terms(inputs, inputs["seed"])


# -- check-ptset ----------------------------------------------------------------


def check_verdicts(inputs: dict, outcomes: list[dict]) -> list[str]:
    """Verdicts the theory fixes: the bundled model passes every law; a
    non-bijective iso table fails a law of its own family."""
    problems = []
    for doc, op in zip(inputs["docs"], outcomes):
        res = op["result"]
        if res.get("exception") or res["exit"] != doc["expect"] or doc["expect"] == 2:
            continue  # a failed operation is counted, not judged
        report = json.loads(res["stdout"])
        failed = [r["law"] for r in report["reports"] if not r["passed"]]
        if doc["expect"] == 0 and failed:
            problems.append(f"{doc['name']}: laws failed on a lawful model: {failed}")
        if doc["expect"] == 1:
            prefixes = FAMILY_LAWS[doc["family"]]
            if not any(law.startswith(prefixes) for law in failed):
                problems.append(f"{doc['name']}: no {doc['family']} law failed"
                                f" (failed: {failed})")
        if report["summary"]["failed"] != len(failed):
            problems.append(f"{doc['name']}: summary counts"
                            f" {report['summary']['failed']} failures, reports {len(failed)}")
    return problems


def replay_problems(counterexample: dict, model, where: str) -> list[str]:
    """A counterexample with terms replays: each term parses, runs from the
    reported source to the reported target, and evaluates at the named
    objects to its reported value; the values differ pairwise."""
    from linearcat.evaluate import eval_canon
    from linearcat.terms import parse_term
    from linearcat.words import render_word

    problems = []
    objects = tuple(model.object_by_name(n) for n in counterexample["objects"])
    values = [tuple(v) for v in counterexample["values"]]
    if len(set(values)) != len(values) or len(values) < 2:
        problems.append(f"{where}: reported values are not pairwise distinct")
    for text, value in zip(counterexample["terms"], values, strict=True):
        term = parse_term(text)
        if render_word(term.source) != counterexample["source"] \
                or render_word(term.target) != counterexample["target"]:
            problems.append(f"{where}: term {text} has the wrong boundary")
        got = eval_canon(model, term, objects).graph
        if got != value:
            problems.append(f"{where}: term {text} evaluates to {list(got)},"
                            f" reported {list(value)}")
    return problems


def verify_check(inputs: dict, outcomes: list[dict]) -> list[str]:
    from linearcat.models import load_model

    problems = check_verdicts(inputs, outcomes)
    for doc, op in zip(inputs["docs"], outcomes):
        res = op["result"]
        if res.get("exception") or res["exit"] not in (0, 1):
            continue
        report = json.loads(res["stdout"])
        model = None
        for r in report["reports"]:
            ce = r.get("counterexample") or {}
            if "terms" in ce:
                model = model or load_model(ROOT / doc["path"])
                problems += replay_problems(ce, model, f"{doc['name']}/{r['law']}")
    return problems


# -- laws ------------------------------------------------------------------------


def lineariser_witness(sizes: list[int]) -> tuple[str, str] | None:
    """First pair of pointed sets whose wedge and product differ in size."""
    for a, b in itertools.product(sorted(sizes), repeat=2):
        if a + b - 1 != a * b:
            return f"P{a}", f"P{b}"
    return None


def verify_laws(inputs: dict, outcomes: list[dict]) -> list[str]:
    """The laws oracle; it needs no package code."""
    res = {op["name"]: op["result"] for op in outcomes}
    problems = []
    for name, value in res.items():
        if isinstance(value, dict) and "error" in value:
            problems.append(f"{name}: {value['error']}")
    for tag in ("ptsets", "monoids"):
        for part in ("structure", "transformer", "prelinear"):
            bad = [r["law"] for r in res.get(f"{tag}/{part}", []) if not r["passed"]]
            if bad:
                problems.append(f"{tag}/{part}: laws failed on a lawful model: {bad}")
        theorem = res.get(f"{tag}/linearity-theorem", {})
        if not theorem.get("passed"):
            problems.append(f"{tag}: linearity theorem sides disagree: {theorem}")
        for x, y, graph, cover, matrix in res.get(f"{tag}/centrality", []):
            if cover != matrix:
                problems.append(f"{tag}: centrality of {x}->{y} {graph}:"
                                f" cover {cover}, matrix {matrix}")

    pt_sizes = json.loads((ROOT / PTSETS).read_text())["objects"]
    want = lineariser_witness(sorted(set(pt_sizes) | {1}))
    lin = res.get("ptsets/lineariser", {})
    if lin.get("lineariser") is not False or tuple(lin["data"]["witness"]) != want:
        problems.append(f"pointed sets: lineariser witness {lin}, expected {want}")
    else:
        a, b = (int(n[1:]) for n in want)
        reason = lin["data"]["reason"]
        if str(a + b - 1) not in reason or str(a * b) not in reason:
            problems.append(f"pointed sets: witness reason {reason!r} does not"
                            f" name sizes {a + b - 1} and {a * b}")
    if res.get("monoids/lineariser", {}).get("lineariser") is not True:
        problems.append("monoids: transformer is not invertible")

    # hom-set sizes from object sizes and Cayley tables alone
    tables = cayley_tables(MONOIDS)
    homs = {(x, y): all_homs(tx, ty) for x, tx in tables.items()
            for y, ty in tables.items()}
    pt_count = sum(b ** (a - 1) for a in pt_sizes for b in pt_sizes)
    if len(res.get("ptsets/centrality", [])) != pt_count:
        problems.append(f"pointed sets: centrality compared on"
                        f" {len(res.get('ptsets/centrality', []))} morphisms,"
                        f" expected {pt_count}")
    seen = {(x, y, tuple(g)) for x, y, g, _, _ in res.get("monoids/centrality", [])}
    want_homs = {(x, y, g) for (x, y), gs in homs.items() for g in gs}
    if seen != want_homs:
        problems.append(f"monoids: centrality compared on {len(seen)} morphisms,"
                        f" expected the {len(want_homs)} homomorphisms")

    # central addition against pointwise addition in the codomain
    for entry in res.get("monoids/central-monoids", []):
        x, y = entry["x"], entry["y"]
        mul = tables[y]
        elements = [tuple(g) for g in entry["elements"]]
        where = f"Z({x}, {y})"
        if not set(elements) <= set(homs[(x, y)]):
            problems.append(f"{where}: a central element is not a homomorphism")
        zero = tuple([0] * len(tables[x]))
        if elements[entry["unit"]] != zero:
            problems.append(f"{where}: the unit is {elements[entry['unit']]},"
                            f" not the zero morphism")
        for a, f in enumerate(elements):
            for b, g in enumerate(elements):
                pointwise = tuple(mul[u][v] for u, v in zip(f, g))
                got = elements[entry["table"][a][b]]
                if got != pointwise:
                    problems.append(f"{where}: {list(f)} + {list(g)} = {list(got)},"
                                    f" pointwise {list(pointwise)}")
        bad = [r["law"] for r in entry["laws"] if not r["passed"]]
        if bad:
            problems.append(f"{where}: monoid laws failed: {bad}")
    if len(res.get("monoids/central-monoids", [])) != len(tables) ** 2:
        problems.append("monoids: not every Z(X, Y) was tabulated")
    if not res.get("monoids/distributivity", {}).get("passed"):
        problems.append("monoids: distributivity failed")
    return problems


ORACLES = {"plin-sweep": verify_plin, "check-ptset": verify_check,
           "laws": verify_laws}
