"""Canonical morphism terms between words.

A canonical term is built from generators (associators, unitors, the
transformer ``i``, the unit map ``j``, identities) closed under vertical
composition and parallel sum/product composition.  A parallel composite is
one node, ``Par(op, left, right)``, the twin of the word node
``(op, left, right)``: its source and target are word nodes of its parts'
sources and targets.  Every term carries its source and target words; the
two coherence regimes are selected by a mode flag: ``"prelinear"`` leaves
``i`` and ``j`` one-way, ``"partially_linear"`` makes both invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BoundaryMismatch, NonInvertibleGenerator, ParseError
from .words import (HOLE, MAX_NESTING, ONE, PROD, SUM, ZERO, Attachment, Prod,
                    Sum, Word, attachment_sequence, core_split, length, node,
                    parse_word_at, render_word)

PRELINEAR = "prelinear"
PARTIALLY_LINEAR = "partially_linear"
MODES = (PRELINEAR, PARTIALLY_LINEAR)

ASSOC_SUM = "assoc+"
LUNIT_SUM = "lunit+"
RUNIT_SUM = "runit+"
ASSOC_PROD = "assoc*"
LUNIT_PROD = "lunit*"
RUNIT_PROD = "runit*"
I_GEN = "i"
J_GEN = "j"
IDENTITY = "id"

_ARITY = {
    ASSOC_SUM: 3, ASSOC_PROD: 3,
    LUNIT_SUM: 1, RUNIT_SUM: 1, LUNIT_PROD: 1, RUNIT_PROD: 1,
    I_GEN: 2, J_GEN: 0, IDENTITY: 1,
}

# Generators that are isomorphisms regardless of mode.
_ALWAYS_ISO = {ASSOC_SUM, ASSOC_PROD, LUNIT_SUM, RUNIT_SUM, LUNIT_PROD,
               RUNIT_PROD, IDENTITY}


@dataclass(frozen=True, slots=True)
class Generator:
    kind: str
    args: tuple[Word, ...] = ()
    inverse: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if len(self.args) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_ARITY[self.kind]} word argument(s), got {len(self.args)}")

    def _forward_schema(self) -> tuple[Word, Word]:
        k, a = self.kind, self.args
        if k == ASSOC_SUM:
            return Sum(a[0], Sum(a[1], a[2])), Sum(Sum(a[0], a[1]), a[2])
        if k == ASSOC_PROD:
            return Prod(a[0], Prod(a[1], a[2])), Prod(Prod(a[0], a[1]), a[2])
        if k == LUNIT_SUM:
            return Sum(ZERO, a[0]), a[0]
        if k == RUNIT_SUM:
            return Sum(a[0], ZERO), a[0]
        if k == LUNIT_PROD:
            return Prod(ONE, a[0]), a[0]
        if k == RUNIT_PROD:
            return Prod(a[0], ONE), a[0]
        if k == I_GEN:
            return Sum(a[0], a[1]), Prod(a[0], a[1])
        if k == J_GEN:
            return ZERO, ONE
        return a[0], a[0]  # identity

    @property
    def source(self) -> Word:
        src, tgt = self._forward_schema()
        return tgt if self.inverse else src

    @property
    def target(self) -> Word:
        src, tgt = self._forward_schema()
        return src if self.inverse else tgt

    def inverted(self, mode: str = PRELINEAR) -> Generator:
        if self.kind == IDENTITY:
            return self
        if self.kind not in _ALWAYS_ISO and mode != PARTIALLY_LINEAR:
            raise NonInvertibleGenerator(self.kind, mode)
        return Generator(self.kind, self.args, not self.inverse)


class CanonTerm:
    __slots__ = ()
    source: Word
    target: Word

    def __str__(self) -> str:
        return render_term(self)


@dataclass(frozen=True)
class GenTerm(CanonTerm):
    gen: Generator
    source: Word = field(init=False, compare=False, repr=False)
    target: Word = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", self.gen.source)
        object.__setattr__(self, "target", self.gen.target)


@dataclass(frozen=True)
class VComp(CanonTerm):
    """Vertical composite: ``later`` after ``earlier``."""

    later: CanonTerm
    earlier: CanonTerm
    source: Word = field(init=False, compare=False, repr=False)
    target: Word = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.later.source != self.earlier.target:
            raise BoundaryMismatch(
                f"cannot compose: later expects source {render_word(self.later.source)!r}"
                f" but earlier produces {render_word(self.earlier.target)!r}")
        object.__setattr__(self, "source", self.earlier.source)
        object.__setattr__(self, "target", self.later.target)


@dataclass(frozen=True)
class Par(CanonTerm):
    """Parallel composite ``left op right``, ``op`` being ``SUM`` or ``PROD``."""

    op: str
    left: CanonTerm
    right: CanonTerm
    source: Word = field(init=False, compare=False, repr=False)
    target: Word = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "source",
                           node(self.op, self.left.source, self.right.source))
        object.__setattr__(self, "target",
                           node(self.op, self.left.target, self.right.target))


def identity_term(w: Word) -> GenTerm:
    return GenTerm(Generator(IDENTITY, (w,)))


def is_identity_term(t: CanonTerm) -> bool:
    return isinstance(t, GenTerm) and t.gen.kind == IDENTITY


def vcompose(later: CanonTerm, earlier: CanonTerm) -> VComp:
    return VComp(later, earlier)


def sum_par(left: CanonTerm, right: CanonTerm) -> Par:
    return Par(SUM, left, right)


def prod_par(left: CanonTerm, right: CanonTerm) -> Par:
    return Par(PROD, left, right)


def invert(t: CanonTerm, mode: str = PRELINEAR) -> CanonTerm:
    """Syntactic inverse of ``t``; fails on generators the mode cannot invert."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(t, GenTerm):
        return GenTerm(t.gen.inverted(mode))
    if isinstance(t, VComp):
        return VComp(invert(t.earlier, mode), invert(t.later, mode))
    assert isinstance(t, Par)
    return Par(t.op, invert(t.left, mode), invert(t.right, mode))


def point_morphism() -> CanonTerm:
    """The distinguished map from the product unit to the sum unit.

    The composite of the inverse right sum-unitor, the transformer at the
    units, and the left product-unitor; its existence makes the category
    pointed.
    """
    step1 = GenTerm(Generator(RUNIT_SUM, (ONE,), inverse=True))   # 1 -> 1+0
    step2 = GenTerm(Generator(I_GEN, (ONE, ZERO)))                # 1+0 -> 1*0
    step3 = GenTerm(Generator(LUNIT_PROD, (ZERO,)))               # 1*0 -> 0
    return vcompose(step3, vcompose(step2, step1))


def collapse_to_zero(w: Word) -> CanonTerm:
    """A canonical term from a length-0 word down to the sum unit."""
    if length(w) != 0:
        raise ValueError("collapse_to_zero needs a length-0 word")
    if w == ZERO:
        return identity_term(ZERO)
    if w == ONE:
        return point_morphism()
    op, left, right = w
    if op == SUM:
        inner = _par_unless_trivial(SUM, collapse_to_zero(left), collapse_to_zero(right))
        lam = GenTerm(Generator(LUNIT_SUM, (ZERO,)))   # 0+0 -> 0
        return lam if inner is None else vcompose(lam, inner)
    to_one = collapse_to_one(w)
    return vcompose(point_morphism(), to_one)


def collapse_to_one(w: Word) -> CanonTerm:
    """A canonical term from a length-0 word down to the product unit."""
    if length(w) != 0:
        raise ValueError("collapse_to_one needs a length-0 word")
    if w == ONE:
        return identity_term(ONE)
    if w == ZERO:
        return GenTerm(Generator(J_GEN))
    op, left, right = w
    if op == PROD:
        inner = _par_unless_trivial(PROD, collapse_to_one(left), collapse_to_one(right))
        lam = GenTerm(Generator(LUNIT_PROD, (ONE,)))   # 1*1 -> 1
        return lam if inner is None else vcompose(lam, inner)
    to_zero = collapse_to_zero(w)
    return vcompose(GenTerm(Generator(J_GEN)), to_zero)


def _par_unless_trivial(op: str, lt: CanonTerm, rt: CanonTerm) -> CanonTerm | None:
    if is_identity_term(lt) and is_identity_term(rt):
        return None
    return Par(op, lt, rt)


def _kill_attachments(attachments: tuple[Attachment, ...], inner: Word) -> CanonTerm:
    """Composite removing the given attachments from around ``inner``.

    ``attachments`` is ordered innermost first; the returned term goes from
    the fully attached word to ``inner``, removing the outermost attachment
    first.  Each removal collapses the attached unit word to the fitting
    unit, then applies the matching unitor.
    """
    # words after applying the first k attachments
    stages = [inner]
    for att in attachments:
        stages.append(att.apply(stages[-1]))
    term: CanonTerm | None = None
    for k in range(len(attachments), 0, -1):
        att = attachments[k - 1]
        stage = stages[k - 1]
        collapse = collapse_to_zero(att.unit_word) if att.op == SUM \
            else collapse_to_one(att.unit_word)
        unitor_kind = {
            (SUM, "left"): LUNIT_SUM, (SUM, "right"): RUNIT_SUM,
            (PROD, "left"): LUNIT_PROD, (PROD, "right"): RUNIT_PROD,
        }[(att.op, att.side)]
        u_k: CanonTerm = GenTerm(Generator(unitor_kind, (stage,)))
        if not is_identity_term(collapse):
            pre = Par(att.op, collapse, identity_term(stage)) if att.side == "left" \
                else Par(att.op, identity_term(stage), collapse)
            u_k = vcompose(u_k, pre)
        term = u_k if term is None else vcompose(u_k, term)
    return identity_term(inner) if term is None else term


def unit_cancel(w: Word) -> CanonTerm:
    """The unit cancellation morphism for a word of length at most 2.

    Length 0 collapses to the unit matching the word's outermost shape;
    length 1 peels its attachment sequence down to the bare hole; length 2
    peels the outer attachments and then cancels inside both core factors.
    """
    n = length(w)
    if n == 0:
        if w == ZERO or w[0] == SUM:
            return collapse_to_zero(w)
        return collapse_to_one(w)
    if n == 1:
        return _kill_attachments(attachment_sequence(w), HOLE)
    if n == 2:
        split = core_split(w)
        core = node(split.op, split.w1, split.w2)
        outer = _kill_attachments(split.attachments, core)
        u1 = unit_cancel(split.w1)
        u2 = unit_cancel(split.w2)
        if is_identity_term(u1) and is_identity_term(u2):
            return outer
        inner = Par(split.op, u1, u2)
        if is_identity_term(outer):
            return inner
        return vcompose(inner, outer)
    raise ValueError(f"unit_cancel is only defined for length <= 2, got {n}")


# ---------------------------------------------------------------------------
# Elementary terms: a single generator at one position of a word.

def _around(w: Word, path: tuple[int, ...], inner, join, lift):
    """Rebuild ``w`` with ``inner`` at ``path``, joining each rebuilt child
    to its lifted sibling with ``join(op, left, right)``."""
    if not path:
        return inner
    op, left, right = w
    if path[0] == 0:
        return join(op, _around(left, path[1:], inner, join, lift), lift(right))
    return join(op, lift(left), _around(right, path[1:], inner, join, lift))


@dataclass(frozen=True)
class ElementaryTerm:
    """The generator ``gen`` acting on the subword of ``source`` at ``path``,
    which is the generator's source.  Path steps are 0 (left child) or 1
    (right child)."""

    source: Word
    path: tuple[int, ...]
    gen: Generator

    @property
    def target(self) -> Word:
        return _around(self.source, self.path, self.gen.target, node,
                       lambda w: w)

    def to_canon(self) -> CanonTerm:
        """The generator at ``path``, identities on every sibling."""
        return _around(self.source, self.path, GenTerm(self.gen), Par,
                       identity_term)


def _embed(elems: tuple[ElementaryTerm, ...], op: str, side: int,
           other: Word) -> tuple[ElementaryTerm, ...]:
    return tuple(
        ElementaryTerm(node(op, e.source, other) if side == 0
                       else node(op, other, e.source), (side,) + e.path, e.gen)
        for e in elems)


def elementary_factorization(t: CanonTerm) -> tuple[ElementaryTerm, ...]:
    """Express ``t`` as a vertical composite of elementary terms.

    Earliest factor first; identity steps are dropped, so the empty tuple
    denotes an identity.  Parallel nodes factor left side first, with the
    untouched side held constant.
    """
    if isinstance(t, GenTerm):
        if t.gen.kind == IDENTITY:
            return ()
        return (ElementaryTerm(t.gen.source, (), t.gen),)
    if isinstance(t, VComp):
        return elementary_factorization(t.earlier) + elementary_factorization(t.later)
    left = _embed(elementary_factorization(t.left), t.op, 0, t.right.source)
    right = _embed(elementary_factorization(t.right), t.op, 1, t.left.target)
    return left + right


# ---------------------------------------------------------------------------
# Text form.  Grammar:
#
#   term ::= "comp(" term "," term ")"
#          | "par+(" term "," term ")" | "par*(" term "," term ")"
#          | NAME ["'"] ["[" word ("," word)* "]"]
#   NAME ::= "assoc+" | "lunit+" | "runit+" | "assoc*" | "lunit*" | "runit*"
#          | "i" | "j" | "id"
#
# "'" marks the inverse direction; generator word arguments appear in
# brackets, e.g.  comp(lunit+[_], par+(id[_], runit*[_])).

def render_term(t: CanonTerm) -> str:
    if isinstance(t, VComp):
        return f"comp({render_term(t.later)}, {render_term(t.earlier)})"
    if isinstance(t, Par):
        return f"par{t.op}({render_term(t.left)}, {render_term(t.right)})"
    assert isinstance(t, GenTerm)
    g = t.gen
    text = g.kind + ("'" if g.inverse else "")
    if g.args:
        text += "[" + ", ".join(render_word(a) for a in g.args) + "]"
    return text


_GEN_NAMES = sorted(_ARITY, key=len, reverse=True)


def parse_term(text: str) -> CanonTerm:
    """Parse the prefix text form of a canonical term.

    Raises :class:`ParseError` with the offending offset on malformed input,
    and on ``comp(``/``par+(``/``par*(`` nested deeper than ``MAX_NESTING``.
    """
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(s: str) -> None:
        nonlocal pos
        skip_ws()
        if not text.startswith(s, pos):
            raise ParseError(f"expected {s!r}", pos)
        pos += len(s)

    def parse(depth: int) -> CanonTerm:
        nonlocal pos
        skip_ws()
        for head, build in (("comp(", VComp), ("par+(", sum_par), ("par*(", prod_par)):
            if text.startswith(head, pos):
                if depth == MAX_NESTING:
                    raise ParseError(
                        f"term nested deeper than {MAX_NESTING} levels", pos)
                pos += len(head)
                first = parse(depth + 1)
                expect(",")
                second = parse(depth + 1)
                expect(")")
                return build(first, second)
        for name in _GEN_NAMES:
            if text.startswith(name, pos):
                pos += len(name)
                inverse = False
                if pos < len(text) and text[pos] == "'":
                    inverse = True
                    pos += 1
                args: list[Word] = []
                skip_ws()
                if pos < len(text) and text[pos] == "[":
                    # pos sits on "[" or "," before each word argument
                    while not args or (pos < len(text) and text[pos] == ","):
                        word, pos = parse_word_at(text, pos + 1)
                        args.append(word)
                        skip_ws()
                    expect("]")
                return GenTerm(Generator(name, tuple(args), inverse))
        raise ParseError("expected a term", pos)

    result = parse(0)
    skip_ws()
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}", pos)
    return result
