"""Per-layer tracing from outside the program.

The traced child wraps the public functions of each ``linearcat`` module
before any job code runs.  A wrapper replaces every binding of the function
it wraps: the defining module, every module that imported it by name
(``from .search import search_graph``), the package namespace, and, for
methods, each concrete class that defines the method (``FinCMon`` and
``FinPtSet`` both override ``sum_mor``/``prod_mor``).  Recursive private
helpers such as ``words.length`` and ``search._edge_eval`` are left alone.

Two kinds of wrapper exist.  A *span* records calls, inclusive seconds
(outermost activation only, so recursion is not counted twice) and self
seconds (inclusive minus the time covered by child spans).  A *count*
records calls only and is not a span.  Some spans also add a work count read
off the return value, such as the number of flood states.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _flood_states(res):
    return {"states": len(res.parents)}


def _graph_size(res):
    return {"states": len(res.edges),
            "edges": sum(len(v) for v in res.edges.values())}


def _table_entries(res):
    return {"entries": len(res)}


def _detail(key):
    def read(res):
        return {key: res.details.get(key, 0)}
    return read


# (metric prefix, module, owner attribute path, kind, reported fields, extra)
# Reported fields name what the benchmark prints; the tracer records all of
# calls / s / self_s for spans regardless.
TARGETS = (
    ("search.value_flood", "search", "value_flood", "span",
     ("calls", "self_s", "states"), _flood_states),
    ("search.edge_morphism", "search", "edge_morphism", "span", ("calls", "s"), None),
    ("search.search_graph", "search", "search_graph", "span",
     ("calls", "self_s", "states", "edges"), _graph_size),
    ("search.backward_table", "search", "backward_table", "span",
     ("calls", "self_s", "entries"), _table_entries),
    ("search.moves", "search", "moves", "count", ("calls",), None),
    ("search.FloodResult.witness_term", "search", "FloodResult.witness_term",
     "span", ("calls", "s"), None),
    ("models.load_model", "models", "load_model", "span", ("s",), None),
    ("models.Model.hom", "models", "Model.hom", "span", ("calls", "s"), None),
    ("models.Model.compose", "models", "Model.compose", "count", ("calls",), None),
    ("models.sum_mor", "models", ("FinCMon.sum_mor", "FinPtSet.sum_mor"),
     "count", ("calls",), None),
    ("models.prod_mor", "models", ("FinCMon.prod_mor", "FinPtSet.prod_mor"),
     "count", ("calls",), None),
    ("evaluate.eval_canon", "evaluate", "eval_canon", "span", ("calls", "s"), None),
    ("evaluate.inclusion", "evaluate", "inclusion", "count", ("calls",), None),
    ("evaluate.projection", "evaluate", "projection", "count", ("calls",), None),
    ("terms.unit_cancel", "terms", "unit_cancel", "count", ("calls",), None),
    ("terms.invert", "terms", "invert", "count", ("calls",), None),
    ("checks.check_structure", "checks", "check_structure", "span", ("s",), None),
    ("checks.check_transformer", "checks", "check_transformer", "span",
     ("calls", "s"), None),
    ("checks.check_prelinear", "checks", "check_prelinear", "span", ("s",), None),
    ("checks.is_lineariser", "checks", "is_lineariser", "count", ("calls",), None),
    ("matrices.coherence_identity_check", "matrices", "coherence_identity_check",
     "span", ("calls", "s"), None),
    ("matrices.matrix_of", "matrices", "matrix_of", "count", ("calls",), None),
    ("matrices.realize", "matrices", "realize", "count", ("calls",), None),
    ("centrality.check_linearity_theorem", "centrality", "check_linearity_theorem",
     "span", ("s",), None),
    ("centrality.central_monoid", "centrality", "central_monoid", "span", ("s",), None),
    ("centrality.add_central", "centrality", "add_central", "count", ("calls",), None),
    ("centrality.is_central", "centrality", "is_central", "count", ("calls",), None),
    ("sweeps.coherence_sweep", "sweeps", "coherence_sweep", "span",
     ("s", "evaluations"), _detail("evaluations")),
    ("sweeps.unit_square_sweep", "sweeps", "unit_square_sweep", "span",
     ("s", "terms_checked"), _detail("terms_checked")),
    ("sweeps.equal_length_pairs", "sweeps", "equal_length_pairs", "span", ("s",), None),
    ("cli.main", "cli", "main", "span", ("calls", "s"), None),
    ("words.core_split", "words", "core_split", "count", ("calls",), None),
)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{prefix}.{f}" for prefix, _, _, _, fields, _ in TARGETS
             for f in fields]
    return names + ["trace.overhead_s"]


class Tracer:
    """Aggregates spans and counts in memory; ``table()`` reads them out."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []  # child-span seconds per open span
        self._active: dict[str, int] = {}

    def _entry(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def counter(self, name: str, fn):
        entry = self._entry(name)

        def counted(*args, **kwargs):
            entry["calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def span(self, name: str, fn, extra=None):
        entry = self._entry(name)
        stack, active = self._stack, self._active
        active[name] = 0

        def spanned(*args, **kwargs):
            entry["calls"] += 1
            active[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                entry["self_s"] += dt - child
                if stack:
                    stack[-1] += dt
                active[name] -= 1
                if not active[name]:
                    entry["s"] += dt
            if extra is not None:
                for key, value in extra(res).items():
                    entry[key] = entry.get(key, 0) + value
            return res

        spanned.__wrapped__ = fn
        return spanned

    def install(self) -> None:
        """Wrap every target, in every module of the package."""
        for _, mod_name, _, _, _, _ in TARGETS:
            importlib.import_module(f"linearcat.{mod_name}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "linearcat" or name.startswith("linearcat.")]
        for prefix, mod_name, owners, kind, _, extra in TARGETS:
            module = sys.modules[f"linearcat.{mod_name}"]
            if isinstance(owners, str):
                owners = (owners,)
            for owner in owners:
                *cls_path, attr = owner.split(".")
                holder = module
                for part in cls_path:
                    holder = getattr(holder, part)
                orig = holder.__dict__[attr] if cls_path else getattr(holder, attr)
                wrapper = self.span(prefix, orig, extra) if kind == "span" \
                    else self.counter(prefix, orig)
                if cls_path:
                    setattr(holder, attr, wrapper)
                else:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, key, wrapper)

    def table(self) -> dict[str, float]:
        """Flat ``{metric name: value}`` for every reported field."""
        out = {}
        for prefix, _, _, _, fields, _ in TARGETS:
            entry = self.stats.get(prefix, {})
            for f in fields:
                out[f"{prefix}.{f}"] = entry.get(f, 0)
        return out
