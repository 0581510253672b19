"""Core picture data model.

Pictures are rectangular grids of corner symbols (four roles a, b, c, d with
an index up to k), plus the neutral cell N and the bullet cell used by the
Chinese-boxes alphabet.  All values are immutable; every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import IndexOutOfRange, InvalidArgument, RaggedRows, UnknownToken

CORNER_ROLES = ("a", "b", "c", "d")
NEUTRAL = "N"
BULLET = "•"  # ascii alias "*"

_ROLE_OF_GLYPH = {"⌜": "a", "⌝": "b", "⌞": "c", "⌟": "d"}


@dataclass(frozen=True, slots=True)
class Symbol:
    """One cell: a corner role with index, or a neutral/bullet cell."""

    role: str
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.role in CORNER_ROLES:
            if not isinstance(self.index, int) or self.index < 1:
                raise IndexOutOfRange(f"corner {self.role!r} needs index >= 1")
        elif self.role in (NEUTRAL, BULLET):
            if self.index is not None:
                raise UnknownToken(f"{self.role!r} carries no index")
        else:
            raise UnknownToken(f"unknown role {self.role!r}")

    @property
    def is_corner(self) -> bool:
        return self.role in CORNER_ROLES

    @property
    def is_neutral(self) -> bool:
        return self.role == NEUTRAL

    def text(self, k: int = 1) -> str:
        if self.is_corner and k > 1:
            return f"{self.role}{self.index}"
        return self.role


def word_text(w: Sequence[Symbol], k: int = 1) -> str:
    sep = " " if k > 1 else ""
    return sep.join(s.text(k) for s in w)


@lru_cache(maxsize=1024)
def sym(role: str, index: Optional[int] = None) -> Symbol:
    """Interned Symbol constructor; its cache is bounded, so equal Symbols may be two objects."""
    return Symbol(role, index)


N = sym(NEUTRAL)
BULLET_SYM = sym(BULLET)


@dataclass(frozen=True, slots=True)
class Picture:
    """Rectangular array of symbols; (0, 0) is the distinct empty picture."""

    rows: int
    cols: int
    k: int
    cells: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0 or (self.rows == 0) != (self.cols == 0):
            raise InvalidArgument(f"bad picture size {self.rows}x{self.cols}: sides > 0, or 0x0")
        if len(self.cells) != self.rows * self.cols:
            raise InvalidArgument("cells length must be rows * cols")
        for s in self.cells:
            if s.index is not None and s.index > self.k:
                raise IndexOutOfRange(f"index {s.index} > k={self.k}")

    @property
    def is_empty(self) -> bool:
        return self.rows == 0

    def cell(self, i: int, j: int) -> Symbol:
        """1-based cell access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise InvalidArgument(f"cell ({i},{j}) outside {self.rows}x{self.cols}")
        return self.cells[(i - 1) * self.cols + (j - 1)]

    def row_word(self, i: int) -> tuple[Symbol, ...]:
        return self.cells[(i - 1) * self.cols : i * self.cols]


def empty_picture(k: int = 1) -> Picture:
    return Picture(0, 0, k, ())


def picture_from_rows(rows: Iterable[Iterable[Symbol]], k: int = 1) -> Picture:
    mat = [tuple(r) for r in rows]
    width = len(mat[0]) if mat else 0
    if any(len(r) != width for r in mat):
        raise RaggedRows("lines of unequal length")
    if not width:
        return empty_picture(k)
    return Picture(len(mat), width, k, tuple(chain.from_iterable(mat)))


def _parse_token(tok: str, k: int) -> Symbol:
    """Symbol of an indexed corner token like "a2"; alphabet characters are _SYMBOL_OF_CHAR's."""
    role, rest = _ROLE_OF_GLYPH.get(tok[0], tok[0]), tok[1:]
    if role not in CORNER_ROLES or not (rest.isascii() and rest.isdecimal()):
        raise UnknownToken(f"unknown token {_shown(tok)}")
    # compare lengths before int(), which refuses strings of more than 4300 digits
    digits = rest.lstrip("0")
    if len(digits) > len(str(k)):
        raise IndexOutOfRange(
            f"index of {len(digits)} digits outside [1..{k}] in token {_shown(tok)}"
        )
    index = int(digits or "0")
    if not (1 <= index <= k):
        raise IndexOutOfRange(f"index {index} outside [1..{k}] in token {_shown(tok)}")
    return sym(role, index)


def _shown(tok: str) -> str:
    """tok quoted for an error message, clipped when it is long."""
    return repr(tok if len(tok) <= 32 else tok[:29] + "...")


_SYMBOL_OF_CHAR = {
    **{ch: sym(_ROLE_OF_GLYPH.get(ch, ch), 1) for ch in (*CORNER_ROLES, *_ROLE_OF_GLYPH)},
    NEUTRAL: N,
    BULLET: BULLET_SYM,
    "*": BULLET_SYM,
}


def parse_picture(text: str, k: int = 1) -> Picture:
    """Parse picture text: one line per row.

    For k=1 each cell is a single character (a|b|c|d|N, corner glyphs and
    "*"/"•" accepted), and a line may also spell them as whitespace-separated
    one-character tokens; for k>1 cells are whitespace-separated tokens like
    "a2".  A one-character token is read from _SYMBOL_OF_CHAR and any other
    goes through _parse_token, which raises UnknownToken or IndexOutOfRange
    on a bad one.  InvalidArgument when k < 1.

    At k=1, when every line is one token (each line break is whitespace to
    str.split, so text.split() then has a word per line), the joined words
    are looked up in one map; an unknown character sends the text down the
    token path, so errors and their precedence over RaggedRows are its own.
    """
    if k < 1:
        raise InvalidArgument(f"a picture needs k >= 1, not {k}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return empty_picture(k)
    if k == 1 and len(words := text.split()) == len(lines):
        try:
            cells = tuple(map(_SYMBOL_OF_CHAR.__getitem__, "".join(words)))
        except KeyError:
            pass
        else:
            if len(set(map(len, words))) != 1:
                raise RaggedRows("lines of unequal length")
            return Picture(len(words), len(words[0]), 1, cells)
    rows = []
    for ln in lines:
        toks = ln.split()
        if len(toks) == 1 and k == 1:  # a line with no inner whitespace is one cell per character
            toks = toks[0]
        rows.append([_SYMBOL_OF_CHAR.get(t) or _parse_token(t, k) for t in toks])
    return picture_from_rows(rows, k)


def render_picture(p: Picture) -> str:
    """The text parse_picture reads back: a line per row, ascii roles, spaced tokens at k>1."""
    return "\n".join(word_text(p.row_word(i), p.k) for i in range(1, p.rows + 1))


def _join(ps: tuple[Picture, ...], horizontal: bool) -> Picture:
    """All of ps side by side or stacked, in one pass over their cells.

    Empty pictures are skipped (the identity) and k is the largest k of the
    others.  With nothing else to join it returns the last picture, or the
    empty picture when there is none, as a pairwise fold would.
    """
    parts = [p for p in ps if not p.is_empty]
    if len(parts) < 2:
        return parts[0] if parts else (ps[-1] if ps else empty_picture())
    first, k = parts[0], max(p.k for p in parts)
    if horizontal:
        for q in parts:
            if q.rows != first.rows:
                raise InvalidArgument(f"{first.rows} rows vs {q.rows} rows")
        runs = (q.cells[i * q.cols : (i + 1) * q.cols] for i in range(first.rows) for q in parts)
        cells = tuple(chain.from_iterable(runs))
        return Picture(first.rows, sum(q.cols for q in parts), k, cells)
    for q in parts:
        if q.cols != first.cols:
            raise InvalidArgument(f"{first.cols} cols vs {q.cols} cols")
    cells = tuple(chain.from_iterable(q.cells for q in parts))
    return Picture(sum(q.rows for q in parts), first.cols, k, cells)


def hcat(*ps: Picture) -> Picture:
    """Horizontal concatenation of ps, left to right; the empty picture is the identity."""
    return _join(ps, horizontal=True)


def vcat(*ps: Picture) -> Picture:
    """Vertical concatenation of ps, top to bottom; the empty picture is the identity."""
    return _join(ps, horizontal=False)
