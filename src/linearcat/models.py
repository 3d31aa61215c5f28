"""Finite models: categories carrying a sum structure, a product structure,
and a transformer family ``i`` between them.

Two instances are bundled.  ``FinPtSet`` has pointed sets as objects, the
wedge as sum and the cartesian product as product; its ``i`` is one-way, so
the model is prelinear but not partially linear.  ``FinCMon`` has finite
commutative monoids with the direct product playing both roles and the
identity carrier map as ``i``; there ``i`` is invertible.

Objects are hash-consed: each constructor returns the one instance for its
value, kept in a process-wide intern table, so objects compare and hash by
identity (in C) wherever they key a memo, across models and after
``memo.clear()``.  Morphisms are stored as explicit graphs (tuples of
carrier indices), and all structure components (associators, unitors,
``i``) are read through ``Model.structure(name, *objects)``.  A model is
fixed once built: the overrides given to its constructor replace arbitrary
components at base objects, which is how fault injection works, and the
components at base objects are computed lazily into the model's ``memo``.
So are the graphs of composites, products and wedges, keyed by the graphs
and sizes they depend on: the kernels still return a fresh ``Mor`` each
call, but compute each graph once per model, however often the law checks
meet its inputs (``check_structure`` on the bundled monoids takes 91
thousand products over 848 distinct keys).
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import defaultdict
from pathlib import Path
from types import MappingProxyType

from .errors import ModelFileError, NotInvertibleInModel


# The intern tables of base objects, filled as the process runs; the product
# of two monoids is kept on its left factor, keyed by the right (``_products``).
_POINTED_SETS: dict[int, PtObj] = {}
_MONOIDS: dict[tuple, CMonObj] = {}


class PtObj:
    """A pointed set {0, .., size-1} with basepoint 0; ``PtObj(n)`` is the one
    instance of size n."""

    __slots__ = ("size",)

    def __new__(cls, size: int):
        obj = _POINTED_SETS.get(size)
        if obj is None:
            obj = _POINTED_SETS[size] = object.__new__(cls)
            obj.size = size
        return obj

    @property
    def name(self) -> str:
        return f"P{self.size}"

    def __repr__(self) -> str:
        return f"PtObj({self.size})"


class CMonObj:
    """A commutative monoid with unit 0, either a base Cayley table or a
    lazily multiplied direct product of two others.

    Each value is one instance: ``CMonObj(table, label)`` returns the one base
    object with that table and label, and ``CMonObj(factors=(a, b))`` the one
    product of ``a`` and ``b``.  So objects compare and hash by identity, and
    the two bracketings of a triple product are distinct (isomorphic)
    objects, as they should be.  Product objects never materialize their
    tables; multiplication recurses through the factors.
    """

    __slots__ = ("label", "size", "_table", "_factors", "_products")

    def __new__(cls, table=None, label=None, factors=None):
        if table is None:
            if label is not None:
                raise ValueError("a product object takes no label")
            a, b = factors = tuple(factors)
            interned, key, size = a._products, b, a.size * b.size
        else:
            table = tuple(tuple(row) for row in table)
            interned, key, size = _MONOIDS, (table, label), len(table)
        obj = interned.get(key)
        if obj is None:
            obj = interned[key] = object.__new__(cls)
            obj._table, obj._factors, obj.label, obj.size = table, factors, label, size
            obj._products = {}
        return obj

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self._factors:
            a, b = self._factors
            return f"({a.name}x{b.name})"
        return "M" + "".join(str(v) for row in self._table for v in row)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        if self._table is None:
            self._table = tuple(
                tuple(self.mul(u, v) for v in range(self.size))
                for u in range(self.size))
        return self._table

    def mul(self, u: int, v: int) -> int:
        if self._table is not None:
            return self._table[u][v]
        a, b = self._factors
        nb = b.size
        return a.mul(u // nb, v // nb) * nb + b.mul(u % nb, v % nb)

    def __repr__(self) -> str:
        return f"CMonObj({self.name})"


class Mor:
    """A morphism as an explicit graph on carrier indices."""

    __slots__ = ("dom", "cod", "graph", "_hash")

    def __init__(self, dom, cod, graph: tuple[int, ...]):
        self.dom = dom
        self.cod = cod
        self.graph = graph
        self._hash = None  # computed on first use: most morphisms are never hashed

    def __repr__(self) -> str:
        return f"Mor({self.dom!r} -> {self.cod!r}, {self.graph})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Mor) and self.dom is other.dom \
            and self.cod is other.cod and self.graph == other.graph

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.graph, self.dom, self.cod))
        return h


@functools.cache
def _identity_graph(n: int) -> tuple[int, ...]:
    """The identity carrier map on n elements, one shared tuple per size."""
    return tuple(range(n))


def _invert_mor(m: Mor) -> Mor:
    inv = [0] * len(m.graph)
    for x, y in enumerate(m.graph):
        inv[y] = x
    return Mor(m.cod, m.dom, tuple(inv))


# The structure tables of a model, by name: associators and unitors of the
# sum and of the product structure, each with its inverse, and ``i``.
STRUCTURE_TABLES = (
    "assoc_sum", "assoc_sum_inv", "lunit_sum", "lunit_sum_inv",
    "runit_sum", "runit_sum_inv", "assoc_prod", "assoc_prod_inv",
    "lunit_prod", "lunit_prod_inv", "runit_prod", "runit_prod_inv", "i")


class Model:
    """Common machinery shared by the bundled finite instances.

    A model is fixed once built: its objects, its zero object and the
    structure components that ``overrides`` replace, given as
    ``(table name, object names, graph)`` triples.  ``identity_tables``
    names the structure tables whose every component is the identity
    carrier map: the associators and unitors, with their inverses, that no
    override touches.  ``one_structure`` says that the sum and the product
    are one structure, as biproducts are in a linear category: ``sum_obj``
    and ``prod_obj`` are one method, so are ``sum_mor`` and ``prod_mor``,
    the zero object is the one object, and the overrides of the ``_sum``
    tables and of their ``_prod`` twins agree, object by object and graph by
    graph.  Then every product law is its sum law over again, and the law
    layer evaluates it once.  ``memo`` is its only
    mutable state.  It holds values derived from that data (hom-sets,
    structure components at base objects, and what other layers compute
    from them), one dict per concern, so they never outlive or cross
    models.
    """

    kind: str

    def __init__(self, objects, zero, overrides=()):
        self.base_objects = tuple(objects)
        self._by_name = MappingProxyType({o.name: o for o in self.base_objects})
        self._base = frozenset(self.base_objects)
        self._zero = zero
        self.memo: defaultdict[str, dict] = defaultdict(dict)
        self._overrides = MappingProxyType(self._check_overrides(overrides))
        # every associator and unitor, and each inverse, is the identity
        # carrier map (see ``_compute_structure``) unless an override says
        # otherwise
        self.identity_tables = frozenset(STRUCTURE_TABLES) - {"i"} \
            - {name for name, _ in self._overrides}
        cls = type(self)
        self.one_structure = cls.sum_obj is cls.prod_obj \
            and cls.sum_mor is cls.prod_mor and self.zero_obj is self.one_obj \
            and self._twin_overrides("_sum") == self._twin_overrides("_prod")

    def _check_overrides(self, overrides) -> dict:
        """(table name, objects) -> replacing component, for each override;
        an unknown object raises KeyError, any other bad entry ValueError."""
        installed = {}
        for name, names, graph in overrides:
            where = f"override for {name} at {tuple(names)}"
            if name not in STRUCTURE_TABLES:
                raise ValueError(f"unknown structure table {name!r}")
            # associators take three objects, unitors one, i two
            arity = 3 if name.startswith("assoc") else 2 if name == "i" else 1
            if len(names) != arity:
                raise ValueError(f"{where} needs {arity} object"
                                 f"{'s' * (arity > 1)}, got {len(names)}")
            key = (name, tuple(self.object_by_name(n) for n in names))
            if key in installed:
                raise ValueError(f"{where} is given twice")
            pristine = self._compute_structure(*key)
            if len(graph) != len(pristine.graph):
                raise ValueError(
                    f"{where} needs {len(pristine.graph)} entries, got {len(graph)}")
            top = pristine.cod.size - 1
            if any(type(v) is not int or not 0 <= v <= top for v in graph):
                raise ValueError(f"{where} needs integer entries in 0..{top}")
            installed[key] = Mor(pristine.dom, pristine.cod, tuple(graph))
        return installed

    def _twin_overrides(self, tag: str) -> dict:
        """(table name less ``tag``, objects) -> graph, for each override of
        a table of the structure ``tag`` (``"_sum"`` or ``"_prod"``)."""
        return {(name.replace(tag, ""), objs): mor.graph
                for (name, objs), mor in self._overrides.items() if tag in name}

    # -- bookkeeping ---------------------------------------------------------

    def object_by_name(self, name: str):
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown object {name!r}; known: {sorted(self._by_name)}") from None

    def identity(self, obj) -> Mor:
        return Mor(obj, obj, _identity_graph(obj.size))

    def compose(self, g: Mor, f: Mor) -> Mor:
        if f.cod is not g.dom:
            raise ValueError(f"cannot compose: {f.cod!r} != {g.dom!r}")
        composites = self.memo["composite"]
        key = (g.graph, f.graph)
        graph = composites.get(key)
        if graph is None:
            graph = composites[key] = tuple(map(g.graph.__getitem__, f.graph))
        return Mor(f.dom, g.cod, graph)

    def _pair(self, f: Mor, g: Mor) -> tuple[int, ...]:
        """The graph of f x g, computed once per model for its inputs."""
        pairs = self.memo["pair"]
        key = (f.graph, g.graph, g.cod.size)
        graph = pairs.get(key)
        if graph is None:
            graph = pairs[key] = _pair_graph(f, g)
        return graph

    def hom(self, dom, cod) -> tuple[Mor, ...]:
        homs = self.memo["hom"]
        key = (dom, cod)
        cached = homs.get(key)
        if cached is None:
            cached = homs[key] = tuple(sorted(self._enumerate_hom(dom, cod),
                                              key=lambda m: m.graph))
        return cached

    def hom_count(self, dom, cod) -> int:
        return len(self.hom(dom, cod))

    # -- zero object and bangs -----------------------------------------------

    @property
    def zero_obj(self):
        return self._zero

    @property
    def one_obj(self):
        return self._zero

    def bang_from_zero(self, obj) -> Mor:
        return Mor(self.zero_obj, obj, (0,))

    def bang_to_one(self, obj) -> Mor:
        return Mor(obj, self.one_obj, (0,) * obj.size)

    # -- structure tables ------------------------------------------------------

    def structure(self, name: str, *objects) -> Mor:
        """The component of the structure table ``name`` (one of
        ``STRUCTURE_TABLES``) at ``objects``, e.g. ``structure("i", a, b)``.

        Only components at base objects, the only tuples an override can
        name, go to ``memo["structure"]``.  Any other is pristine and is
        computed on each call: the pentagon alone meets thousands of them,
        each once."""
        tables = self.memo["structure"]
        key = (name, objects)
        mor = tables.get(key)
        if mor is None:
            if name not in STRUCTURE_TABLES:
                raise ValueError(f"unknown structure table {name!r}")
            if not self._base.issuperset(objects):
                return self._compute_structure(name, objects)
            mor = tables[key] = self._overrides.get(key) \
                or self._compute_structure(name, objects)
        return mor

    def _compute_structure(self, name: str, objs: tuple) -> Mor:
        """The pristine component; ``name`` is in ``STRUCTURE_TABLES``.

        Both bracketings of a triple number their elements alike
        (x|bc| + y|c| + z = (x|b| + y)|c| + z for products; for wedges the
        non-base points of a, then b, then c), and so do ``a`` and its sum
        with 0 or product with 1 on either side.  So every associator and
        unitor, and each inverse, is the identity carrier map, and a model
        supplies only ``i``.
        """
        if name == "i":
            a, b = objs
            return self._i(a, b)
        obj, unit = (self.sum_obj, self.zero_obj) if "_sum" in name \
            else (self.prod_obj, self.one_obj)
        if name.startswith("assoc"):
            a, b, c = objs
            dom, cod = obj(a, obj(b, c)), obj(obj(a, b), c)
        else:
            (cod,) = objs
            dom = obj(unit, cod) if name.startswith("lunit") else obj(cod, unit)
        graph = _identity_graph(dom.size)
        return Mor(cod, dom, graph) if name.endswith("_inv") else Mor(dom, cod, graph)

    def j_morphism(self) -> Mor:
        """The unique map from the sum unit to the product unit."""
        return self.bang_from_zero(self.one_obj)

    def i_inverse(self, a, b) -> Mor:
        """Two-sided inverse of ``i`` at (a, b); raises when there is none."""
        i = self.structure("i", a, b)
        n = len(i.graph)
        if i.cod.size != n or len(set(i.graph)) != n:
            raise NotInvertibleInModel(
                f"i at ({a.name}, {b.name}) is not bijective:"
                f" |{i.dom.name}| = {i.dom.size}, |{i.cod.name}| = {i.cod.size}")
        candidate = _invert_mor(i)
        if not self.is_morphism(candidate):
            raise NotInvertibleInModel(
                f"the inverse graph of i at ({a.name}, {b.name}) is not a morphism")
        return candidate

    # -- hooks for the two instances ------------------------------------------

    def sum_obj(self, a, b):
        raise NotImplementedError

    def sum_mor(self, f: Mor, g: Mor) -> Mor:
        raise NotImplementedError

    def prod_obj(self, a, b):
        raise NotImplementedError

    def prod_mor(self, f: Mor, g: Mor) -> Mor:
        raise NotImplementedError

    def _enumerate_hom(self, dom, cod):
        raise NotImplementedError

    def is_morphism(self, m: Mor) -> bool:
        raise NotImplementedError

    def _i(self, a, b) -> Mor:
        """The pristine component of ``i`` at (a, b)."""
        raise NotImplementedError


def _pair_graph(f: Mor, g: Mor) -> tuple[int, ...]:
    """The graph of f x g on lexicographically numbered pairs.  It reads only
    the two graphs and ``|cod g|``; ``Model._pair`` memoises it by them."""
    n = g.cod.size
    return tuple([x + y for x in [a * n for a in f.graph] for y in g.graph])


class FinPtSet(Model):
    """Pointed sets; sum is the wedge, product is the cartesian product.

    The wedge A+B is numbered basepoint first, then the non-base elements of
    A (keeping their indices), then the non-base elements of B shifted up by
    ``|A| - 1``.  The product is numbered lexicographically.
    """

    kind = "pointed_sets"

    def __init__(self, sizes=(1, 2, 3), overrides=()):
        objects = tuple(PtObj(n) for n in sorted(set(sizes) | {1}))
        if objects[0].size < 1:
            raise ValueError("pointed sets need at least a basepoint")
        super().__init__(objects, objects[0], overrides)

    def sum_obj(self, a: PtObj, b: PtObj) -> PtObj:
        return PtObj(a.size + b.size - 1)

    def sum_mor(self, f: Mor, g: Mor) -> Mor:
        # the shift of g's non-base images depends on |cod f|, so it is
        # part of the key
        wedges = self.memo["wedge"]
        key = (f.graph, g.graph, f.cod.size)
        graph = wedges.get(key)
        if graph is None:
            shift = f.cod.size - 1
            graph = wedges[key] = (0, *f.graph[1:],
                                   *(v and shift + v for v in g.graph[1:]))
        return Mor(self.sum_obj(f.dom, g.dom), self.sum_obj(f.cod, g.cod), graph)

    def prod_obj(self, a: PtObj, b: PtObj) -> PtObj:
        return PtObj(a.size * b.size)

    def prod_mor(self, f: Mor, g: Mor) -> Mor:
        return Mor(self.prod_obj(f.dom, g.dom), self.prod_obj(f.cod, g.cod),
                   self._pair(f, g))

    def _enumerate_hom(self, dom: PtObj, cod: PtObj):
        for rest in itertools.product(range(cod.size), repeat=dom.size - 1):
            yield Mor(dom, cod, (0,) + rest)

    def hom_count(self, dom: PtObj, cod: PtObj) -> int:
        # every basepoint-preserving assignment of the non-base points
        return cod.size ** (dom.size - 1)

    def is_morphism(self, m: Mor) -> bool:
        return len(m.graph) == m.dom.size and m.graph[0] == 0 \
            and all(0 <= v < m.cod.size for v in m.graph)

    def _i(self, a: PtObj, b: PtObj) -> Mor:
        # a non-base x of a goes to the pair (x, 0), a non-base y of b to (0, y)
        graph = (0, *range(b.size, a.size * b.size, b.size), *range(1, b.size))
        return Mor(self.sum_obj(a, b), self.prod_obj(a, b), graph)


class FinCMon(Model):
    """Commutative monoids; both structures are the direct product and the
    transformer is the identity carrier map, hence invertible."""

    kind = "commutative_monoids"

    def __init__(self, objects=None, overrides=()):
        objects = tuple(all_commutative_monoids(3) if objects is None else objects)
        trivial = [o for o in objects if o.size == 1]
        if not trivial:
            raise ValueError("the trivial monoid must be present")
        super().__init__(objects, trivial[0], overrides)

    # The law checks take hundreds of thousands of products: these read the
    # intern table inline, and call the constructor only on a miss.

    def sum_obj(self, a: CMonObj, b: CMonObj) -> CMonObj:
        return a._products.get(b) or CMonObj(factors=(a, b))

    prod_obj = sum_obj

    def _pair_mor(self, f: Mor, g: Mor) -> Mor:
        a, b, c, d = f.dom, g.dom, f.cod, g.cod
        return Mor(a._products.get(b) or CMonObj(factors=(a, b)),
                   c._products.get(d) or CMonObj(factors=(c, d)),
                   self._pair(f, g))

    sum_mor = _pair_mor
    prod_mor = _pair_mor

    def _generators(self, m: CMonObj):
        """``(gens, tree)``: a generating set of ``m`` and a breadth-first
        tree of ``m`` from the unit along right multiplication by it.

        ``gens`` is greedy: the smallest element not yet generated, until
        every element is.  ``tree`` holds one ``(element, parent, generator
        index)`` triple per non-unit element, parents first, with
        ``element = parent * gens[index]``.  Each generator hangs off the
        unit.  The generator lemma makes this enough for ``_enumerate_hom``:
        a homomorphism is fixed by its values on ``gens``, and a map that
        fixes the unit is one iff it respects right multiplication by each
        generator."""
        cached = self.memo["generators"].get(m)
        if cached is not None:
            return cached
        table = m.table
        gens: list[int] = []
        tree: list[tuple[int, int, int]] = []
        reached = {0}
        while len(reached) < m.size:
            gens.append(min(x for x in range(m.size) if x not in reached))
            reached, order, tree = {0}, [0], []
            for x in order:
                for k, s in enumerate(gens):
                    y = table[x][s]
                    if y not in reached:
                        reached.add(y)
                        order.append(y)
                        tree.append((y, x, k))
        result = self.memo["generators"][m] = (tuple(gens), tuple(tree))
        return result

    def _enumerate_hom(self, dom: CMonObj, cod: CMonObj):
        """The homomorphisms ``dom -> cod``, one per generator image tuple.

        Generator lemma: a map ``g`` with ``g(0) = 0`` and
        ``g(a * s) = g(a) * g(s)`` for every element ``a`` and generator
        ``s`` is a homomorphism.  Every ``b`` is a product of generators,
        and induction on its length gives ``g(a * b) = g(a) * g(b)``.  So
        each image tuple is filled along the tree of ``_generators`` (one
        codomain product per element) and tested on |dom| * |gens| products
        instead of |dom|^2.  A generator's value is its own image, so
        distinct tuples give distinct graphs."""
        if cod._factors is not None:
            # a map into a direct product is a homomorphism exactly when both
            # projections are, so recurse along the target
            c, d = cod._factors
            nd = d.size
            for fc in self.hom(dom, c):
                for fd in self.hom(dom, d):
                    graph = tuple(a * nd + b for a, b in zip(fc.graph, fd.graph))
                    yield Mor(dom, cod, graph)
            return
        gens, tree = self._generators(dom)
        dt, ct = dom.table, cod.table
        # the tree edges hold by construction; test the other products
        edges = {(x, k) for _, x, k in tree}
        tests = [(a, dt[a][s], k) for a in range(dom.size)
                 for k, s in enumerate(gens) if (a, k) not in edges]
        for images in itertools.product(range(cod.size), repeat=len(gens)):
            graph = [0] * dom.size
            for y, x, k in tree:
                graph[y] = ct[graph[x]][images[k]]
            if all(graph[b] == ct[graph[a]][images[k]] for a, b, k in tests):
                yield Mor(dom, cod, tuple(graph))

    def hom_count(self, dom: CMonObj, cod: CMonObj) -> int:
        if cod._factors is not None:
            c, d = cod._factors
            return self.hom_count(dom, c) * self.hom_count(dom, d)
        return len(self.hom(dom, cod))

    def is_morphism(self, m: Mor) -> bool:
        dom, cod = m.dom, m.cod
        g = m.graph
        if len(g) != dom.size or g[0] != 0 \
                or not all(0 <= v < cod.size for v in g):
            return False
        dt, ct = dom.table, cod.table
        return all(
            g[dt[a][b]] == ct[g[a]][g[b]]
            for a in range(dom.size) for b in range(dom.size))

    def _i(self, a: CMonObj, b: CMonObj) -> Mor:
        p = CMonObj(factors=(a, b))
        return Mor(p, p, _identity_graph(p.size))


def all_commutative_monoids(max_size: int) -> tuple[CMonObj, ...]:
    """All commutative monoids of size <= max_size, one per iso class."""
    found = []
    for n in range(1, max_size + 1):
        canon_seen = set()
        for tbl in _commutative_tables(n):
            canon = _canonical_table(tbl)
            if canon in canon_seen:
                continue
            canon_seen.add(canon)
            found.append(canon)
    return tuple(CMonObj(tbl, f"M{k}_{len(tbl)}") for k, tbl in enumerate(found))


def _commutative_tables(n: int):
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    for values in itertools.product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        for k in range(n):
            table[0][k] = k
            table[k][0] = k
        for (a, b), v in zip(cells, values):
            table[a][b] = v
            table[b][a] = v
        if all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            yield tuple(tuple(row) for row in table)


def _canonical_table(table) -> tuple[tuple[int, ...], ...]:
    n = len(table)
    best = None
    for perm in itertools.permutations(range(1, n)):
        p = (0,) + perm
        inv = [0] * n
        for idx, v in enumerate(p):
            inv[v] = idx
        relabeled = tuple(
            tuple(inv[table[p[a]][p[b]]] for b in range(n)) for a in range(n))
        if best is None or relabeled < best:
            best = relabeled
    return best


# ---------------------------------------------------------------------------
# Model files.
#
# A model file is a JSON document:
#
#   {"schema": 1, "kind": "pointed_sets", "objects": [1, 2, 3]}
#   {"schema": 1, "kind": "commutative_monoids",
#    "objects": [[0], [0,1,1,0], {"name": "Z2", "table": [0,1,1,0]}]}
#
# Pointed-set objects are sizes; monoid objects are row-major Cayley tables
# (flat integer arrays), optionally wrapped with a name.  An optional
# "overrides" list replaces structure components for fault injection, each
# table at each object tuple at most once:
#
#   {"overrides": [{"table": "lunit_sum", "objects": ["P2"], "graph": [0, 0]}]}

def load_model(path: str | Path) -> Model:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelFileError(f"cannot read model file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"model file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelFileError("model file is nested too deeply") from exc
    return model_from_dict(doc)


def model_from_dict(doc) -> Model:
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    schema = doc.get("schema", 1)
    if type(schema) is not int or schema != 1:
        raise ModelFileError(f"unsupported schema {schema!r}; expected 1")
    kind = doc.get("kind")
    objects = doc.get("objects")
    if not isinstance(objects, list) or not objects:
        raise ModelFileError("model file needs a non-empty 'objects' list")
    if kind == "pointed_sets":
        if not all(type(o) is int and o >= 1 for o in objects):
            raise ModelFileError("pointed_sets objects must be positive sizes")
        cls = FinPtSet
    elif kind == "commutative_monoids":
        objects = [_parse_monoid(o, idx) for idx, o in enumerate(objects)]
        if not any(o.size == 1 for o in objects):
            objects.insert(0, CMonObj(((0,),), "T"))
        names = [o.name for o in objects]
        for name in names:
            if names.count(name) > 1:
                raise ModelFileError(f"object name {name!r} is used twice")
        by_table = {}
        for o in objects:
            first = by_table.setdefault(o.table, o)
            if first is not o:
                raise ModelFileError(f"objects {first.name!r} and {o.name!r}"
                                     " have the same Cayley table")
        cls = FinCMon
    else:
        raise ModelFileError(f"unknown model kind {kind!r}")
    overrides = doc.get("overrides", [])
    if not isinstance(overrides, list):
        raise ModelFileError("'overrides' must be a list")
    overrides = [_parse_override(ov) for ov in overrides]
    try:
        return cls(objects, overrides)
    except KeyError as exc:
        raise ModelFileError(str(exc)) from exc
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"bad override: {exc}") from exc


def _parse_monoid(entry, idx: int) -> CMonObj:
    name = None
    flat = entry
    if isinstance(entry, dict):
        name = entry.get("name")
        flat = entry.get("table")
        if name is not None and not isinstance(name, str):
            raise ModelFileError(f"monoid #{idx}: name must be a string")
    if not isinstance(flat, list):
        raise ModelFileError(f"monoid #{idx} must be a flat Cayley table")
    n = round(len(flat) ** 0.5)
    if n == 0 or n * n != len(flat):
        raise ModelFileError(f"monoid #{idx}: table length {len(flat)} is not square")
    table = tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n))
    if any(type(v) is not int or not 0 <= v < n for row in table for v in row):
        raise ModelFileError(f"monoid #{idx}: entries out of range")
    if any(table[0][k] != k or table[k][0] != k for k in range(n)):
        raise ModelFileError(f"monoid #{idx}: 0 is not a unit")
    if any(table[a][b] != table[b][a] for a in range(n) for b in range(n)):
        raise ModelFileError(f"monoid #{idx}: table is not commutative")
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        raise ModelFileError(f"monoid #{idx}: table is not associative")
    return CMonObj(table, name or f"M{idx}")


def _parse_override(ov) -> tuple[str, tuple[str, ...], tuple]:
    if not isinstance(ov, dict) or "table" not in ov or "graph" not in ov:
        raise ModelFileError("override entries need 'table', 'objects', 'graph'")
    table, names, graph = ov["table"], ov.get("objects", []), ov["graph"]
    if not isinstance(table, str) or not isinstance(graph, list) \
            or not isinstance(names, list) \
            or not all(isinstance(n, str) for n in names):
        raise ModelFileError("an override needs a table name, a list of object"
                             " names and a graph list")
    return table, tuple(names), tuple(graph)
