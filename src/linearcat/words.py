"""Words over two monoidal structures: grammar, parsing, decomposition.

A word is a finite tree built from the hole ``_``, the sum unit ``0``, the
product unit ``1``, and the binary constructors ``+`` (sum) and ``*``
(product).  Every layer uses one representation, nested tuples: the leaves
are the strings ``"H"``, ``"Z"`` and ``"O"``, and a node is
``(op, left, right)``.  Tuples hash and compare natively, so words are their
own keys in the search and in the model memos.  Corpora are sorted by
``str`` of the word, so the leaf strings also fix the corpus order.

The length of a word is its number of holes.  Words of length 1 decompose
uniquely into a sequence of unit attachments around a hole; words of
length 2 decompose into such a sequence around a binary core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ParseError

SUM = "+"
PROD = "*"

HOLE = "H"
ZERO = "Z"
ONE = "O"
LEAVES = (HOLE, ZERO, ONE)

Word = str | tuple  # a leaf above, or (op, left, right)

# The deepest parenthesis nesting parse_word accepts; every recursive layer
# above the parser (lengths, rendering, unit cancellation) copes with it.
MAX_NESTING = 100

_LEAF_TEXT = {HOLE: "_", ZERO: "0", ONE: "1"}
_LEAVES_BY_TEXT = {text: leaf for leaf, text in _LEAF_TEXT.items()}


def node(op: str, left: Word, right: Word) -> Word:
    return (op, left, right)


def Sum(left: Word, right: Word) -> Word:
    return (SUM, left, right)


def Prod(left: Word, right: Word) -> Word:
    return (PROD, left, right)


# The binary pure words (_+_) and (_*_).
SUM2 = Sum(HOLE, HOLE)
PROD2 = Prod(HOLE, HOLE)


@cache
def length(w: Word) -> int:
    """Number of hole occurrences in ``w``."""
    if w == HOLE:
        return 1
    if w == ZERO or w == ONE:
        return 0
    return length(w[1]) + length(w[2])


def unit_count(w: Word) -> int:
    """Number of unit leaves (``0`` or ``1``) in ``w``."""
    if w == ZERO or w == ONE:
        return 1
    if w == HOLE:
        return 0
    return unit_count(w[1]) + unit_count(w[2])


def is_unit_free(w: Word) -> bool:
    return unit_count(w) == 0


def render_word(w: Word) -> str:
    """Canonical fully parenthesized text; inverse of :func:`parse_word`."""
    if w in LEAVES:
        return _LEAF_TEXT[w]
    op, left, right = w
    return f"({render_word(left)}{op}{render_word(right)})"


def parse_word(text: str) -> Word:
    """Parse the grammar ``w ::= "_" | "0" | "1" | "(" w "+" w ")" | "(" w "*" w ")"``.

    Whitespace between tokens is ignored.  Raises :class:`ParseError` with
    the offending offset on malformed input, and on parentheses nested
    deeper than ``MAX_NESTING``.
    """
    result, pos = parse_word_at(text, 0)
    rest = text[pos:].lstrip()
    if rest:
        raise ParseError(f"trailing input {rest!r}", len(text) - len(rest))
    return result


def parse_word_at(text: str, pos: int) -> tuple[Word, int]:
    """Parse one word of ``text`` starting at offset ``pos``, after any
    whitespace; return it with the offset just past it.

    Error offsets count from the start of ``text``, so a parser that
    embeds words (the term grammar) reports them in its own coordinates.
    """

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse(depth: int) -> Word:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of input, expected a word", pos)
        ch = text[pos]
        leaf = _LEAVES_BY_TEXT.get(ch)
        if leaf is not None:
            pos += 1
            return leaf
        if ch == "(":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"word nested deeper than {MAX_NESTING} parentheses", pos)
            pos += 1
            left = parse(depth + 1)
            skip_ws()
            if pos >= len(text) or text[pos] not in (SUM, PROD):
                raise ParseError("expected '+' or '*'", pos)
            op = text[pos]
            pos += 1
            right = parse(depth + 1)
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            return node(op, left, right)
        raise ParseError(f"unexpected character {ch!r}", pos)

    return parse(0), pos


@dataclass(frozen=True, slots=True)
class Attachment:
    """One unit-attachment operation: glue ``unit_word`` onto the given side."""

    op: str
    unit_word: Word
    side: str  # "left" | "right"

    def __post_init__(self) -> None:
        if self.op not in (SUM, PROD):
            raise ValueError(f"bad attachment op {self.op!r}")
        if self.side not in ("left", "right"):
            raise ValueError(f"bad attachment side {self.side!r}")
        if length(self.unit_word) != 0:
            raise ValueError("attachment unit word must have length 0")

    def apply(self, w: Word) -> Word:
        if self.side == "left":
            return node(self.op, self.unit_word, w)
        return node(self.op, w, self.unit_word)


@dataclass(frozen=True, slots=True)
class CoreSplit:
    """Decomposition of a length-2 word: attachments around ``w1 op w2``."""

    w1: Word
    op: str
    w2: Word
    attachments: tuple[Attachment, ...]

    def rebuild(self) -> Word:
        w = node(self.op, self.w1, self.w2)
        for att in self.attachments:
            w = att.apply(w)
        return w


def _peel(w: Word, stop_length: int) -> tuple[Word, tuple[Attachment, ...]]:
    """Strip outermost unit attachments until a node of the wanted kind.

    Returns the inner word together with attachments ordered innermost first,
    so that re-applying them in order reproduces ``w``.
    """
    outer: list[Attachment] = []
    cur = w
    while True:
        if stop_length == 1 and cur == HOLE:
            break
        op, left, right = cur
        llen = length(left)
        if stop_length == 2 and llen == 1 and length(right) == 1:
            break
        if llen == 0:
            outer.append(Attachment(op, left, "left"))
            cur = right
        else:
            outer.append(Attachment(op, right, "right"))
            cur = left
    return cur, tuple(reversed(outer))


def attachment_sequence(w: Word) -> tuple[Attachment, ...]:
    """The unique attachment sequence producing ``w`` from a single hole.

    Only defined for words of length 1.  The sequence is ordered innermost
    first: folding it over a hole reproduces ``w`` exactly.
    """
    if length(w) != 1:
        raise ValueError(f"attachment_sequence needs a length-1 word, got length {length(w)}")
    _, atts = _peel(w, stop_length=1)
    return atts


def core_split(w: Word) -> CoreSplit:
    """The unique core decomposition of a length-2 word."""
    if length(w) != 2:
        raise ValueError(f"core_split needs a length-2 word, got length {length(w)}")
    (op, w1, w2), atts = _peel(w, stop_length=2)
    return CoreSplit(w1, op, w2, atts)
