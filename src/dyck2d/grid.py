"""Core picture data model.

Pictures are rectangular grids of corner symbols (four roles a, b, c, d with
an index up to k), plus the neutral cell N and the bullet cell used by the
Chinese-boxes alphabet.  All values are immutable; every operation is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Optional

from .errors import (
    DomainOutOfBounds,
    IndexOutOfRange,
    RaggedRows,
    SizeMismatch,
    UnknownToken,
)

CORNER_ROLES = ("a", "b", "c", "d")
NEUTRAL = "N"
BULLET = "•"  # ascii alias "*"

_GLYPH_OF = {"a": "⌜", "b": "⌝", "c": "⌞", "d": "⌟"}
_ROLE_OF_GLYPH = {v: k for k, v in _GLYPH_OF.items()}


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

    def text(self, k: int = 1, glyph: bool = False) -> str:
        base = self.role
        if glyph and self.role in _GLYPH_OF:
            base = _GLYPH_OF[self.role]
        if self.is_corner and k > 1:
            return f"{base}{self.index}"
        return base


@lru_cache(maxsize=None)
def sym(role: str, index: Optional[int] = None) -> Symbol:
    """Interned Symbol constructor."""
    return Symbol(role, index)


N = sym(NEUTRAL)
BULLET_SYM = sym(BULLET)


@dataclass(frozen=True, slots=True)
class Domain:
    """1-based inclusive rectangle (top, left, bottom, right)."""

    top: int
    left: int
    bottom: int
    right: int

    def __post_init__(self) -> None:
        if not (1 <= self.top <= self.bottom and 1 <= self.left <= self.right):
            raise DomainOutOfBounds(f"malformed domain {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.top, self.left, self.bottom, self.right)

    @property
    def rows(self) -> int:
        return self.bottom - self.top + 1

    @property
    def cols(self) -> int:
        return self.right - self.left + 1


@dataclass(frozen=True, slots=True)
class Picture:
    """Rectangular array of symbols; (0, 0) is the distinct empty picture."""

    rows: int
    cols: int
    k: int
    cells: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != self.rows * self.cols:
            raise ValueError("cells length must be rows * cols")
        for s in self.cells:
            if s.index is not None and s.index > self.k:
                raise IndexOutOfRange(f"index {s.index} > k={self.k}")

    @property
    def is_empty(self) -> bool:
        return self.rows == 0

    def cell(self, i: int, j: int) -> Symbol:
        """1-based cell access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise DomainOutOfBounds(f"cell ({i},{j}) outside {self.rows}x{self.cols}")
        return self.cells[(i - 1) * self.cols + (j - 1)]

    def row_word(self, i: int) -> tuple[Symbol, ...]:
        return self.cells[(i - 1) * self.cols : i * self.cols]

    def col_word(self, j: int) -> tuple[Symbol, ...]:
        return self.cells[j - 1 :: self.cols] if self.cols else ()

    def full_domain(self) -> Domain:
        if self.is_empty:
            raise DomainOutOfBounds("empty picture has no domain")
        return Domain(1, 1, self.rows, self.cols)


def empty_picture(k: int = 1) -> Picture:
    return Picture(0, 0, k, ())


def picture_from_rows(rows: Iterable[Iterable[Symbol]], k: int = 1) -> Picture:
    mat = [tuple(r) for r in rows]
    if not mat:
        return empty_picture(k)
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise RaggedRows("rows of unequal length")
    return Picture(len(mat), width, k, tuple(chain.from_iterable(mat)))


def _parse_token(tok: str, k: int) -> Symbol:
    if tok == NEUTRAL:
        return N
    if tok in (BULLET, "*"):
        return BULLET_SYM
    role, rest = tok[0], tok[1:]
    if role in _ROLE_OF_GLYPH:
        role = _ROLE_OF_GLYPH[role]
    if role not in CORNER_ROLES:
        raise UnknownToken(f"unknown token {tok!r}")
    if rest:
        if not (rest.isascii() and rest.isdecimal()):
            raise UnknownToken(f"unknown token {tok!r}")
        index = int(rest)
    else:
        index = 1
    if not (1 <= index <= k):
        raise IndexOutOfRange(f"index {index} outside [1..{k}] in token {tok!r}")
    return sym(role, index)


_SYMBOL_OF_CHAR = {
    **{ch: sym(_ROLE_OF_GLYPH.get(ch, ch), 1) for ch in (*CORNER_ROLES, *_ROLE_OF_GLYPH)},
    NEUTRAL: N,
    BULLET: BULLET_SYM,
    "*": BULLET_SYM,
}


def _parse_row(toks: Iterable[str], k: int) -> list[Symbol]:
    if k == 1:
        try:
            return [_SYMBOL_OF_CHAR[t] for t in toks]
        except KeyError:
            pass
    return [_parse_token(t, k) for t in toks]


def parse_picture(text: str, k: int = 1) -> Picture:
    """Parse picture text: one line per row.

    For k=1 each cell is a single character (a|b|c|d|N, corner glyphs and
    "*"/"•" accepted); for k>1 cells are whitespace-separated tokens like "a2".
    At k=1 each token is looked up in one table of those characters; any
    other token goes through _parse_token, which raises UnknownToken or
    IndexOutOfRange on a bad one.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return empty_picture(k)
    rows = []
    for ln in lines:
        toks = ln.split()
        # at k=1 a line with no inner whitespace is one cell per character
        rows.append(_parse_row(toks[0] if len(toks) == 1 and k == 1 else toks, k))
    if len({len(r) for r in rows}) != 1:
        raise RaggedRows("lines of unequal length")
    return picture_from_rows(rows, k)


def render_picture(p: Picture, style: str = "ascii") -> str:
    """Render a picture as text. Styles: ascii, glyph, json."""
    if style == "json":
        cells = [[s.role, s.index] for s in p.cells]
        return json.dumps({"rows": p.rows, "cols": p.cols, "k": p.k, "cells": cells})
    if style not in ("ascii", "glyph"):
        raise ValueError(f"unknown style {style!r}")
    glyph = style == "glyph"
    sep = " " if p.k > 1 else ""
    return "\n".join(
        sep.join(s.text(p.k, glyph) for s in p.row_word(i)) for i in range(1, p.rows + 1)
    )


def picture_from_json(text: str) -> Picture:
    obj = json.loads(text)
    cells = tuple(sym(role, idx) for role, idx in obj["cells"])
    return Picture(obj["rows"], obj["cols"], obj["k"], cells)


def concat(p: Picture, q: Picture, axis: str = "horizontal") -> Picture:
    """Horizontal or vertical juxtaposition; the empty picture is the identity."""
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"unknown axis {axis!r}")
    return _join((p, q), axis == "horizontal")


def _join(ps: tuple[Picture, ...], horizontal: bool) -> Picture:
    """All of ps side by side or stacked, in one pass over their cells.

    Empty pictures are skipped (the identity) and k is the largest k of the
    others.  With nothing else to join it returns the last picture, or the
    empty picture when there is none, as a pairwise fold of concat would.
    """
    parts = [p for p in ps if not p.is_empty]
    if len(parts) < 2:
        return parts[0] if parts else (ps[-1] if ps else empty_picture())
    first, k = parts[0], max(p.k for p in parts)
    if horizontal:
        for q in parts:
            if q.rows != first.rows:
                raise SizeMismatch(f"{first.rows} rows vs {q.rows} rows")
        runs = (q.cells[i * q.cols : (i + 1) * q.cols] for i in range(first.rows) for q in parts)
        cells = tuple(chain.from_iterable(runs))
        return Picture(first.rows, sum(q.cols for q in parts), k, cells)
    for q in parts:
        if q.cols != first.cols:
            raise SizeMismatch(f"{first.cols} cols vs {q.cols} cols")
    cells = tuple(chain.from_iterable(q.cells for q in parts))
    return Picture(sum(q.rows for q in parts), first.cols, k, cells)


def hcat(*ps: Picture) -> Picture:
    return _join(ps, horizontal=True)


def vcat(*ps: Picture) -> Picture:
    return _join(ps, horizontal=False)


def subpicture(p: Picture, d: Domain) -> Picture:
    if p.is_empty or d.bottom > p.rows or d.right > p.cols:
        raise DomainOutOfBounds(f"{d.as_tuple()} outside {p.rows}x{p.cols}")
    cells = tuple(
        p.cell(i, j)
        for i in range(d.top, d.bottom + 1)
        for j in range(d.left, d.right + 1)
    )
    return Picture(d.rows, d.cols, p.k, cells)


def homogeneous(s: Symbol, rows: int, cols: int, k: int = 1) -> Picture:
    if rows == 0 or cols == 0:
        return empty_picture(k)
    return Picture(rows, cols, k, (s,) * (rows * cols))


def simplot_partition(
    p: Picture,
    member: Callable[[Picture], bool],
    min_domains: int = 1,
) -> Optional[list[Domain]]:
    """Exhaustive search for a partition of p into domains satisfying member.

    Depth-first search on an explicit stack, so the number of domains is not
    bounded by the recursion limit.  Each domain is anchored at the
    top-left-most uncovered cell, and its bottom-right corners are tried in
    ascending (bottom, right) order.  A row of corners ends at the first
    overlap with the covered cells, and the search stops going down at the
    first covered cell below the anchor.  A cover state that failed is
    remembered and never searched again.  A None result therefore proves no
    partition exists.  Domains come out sorted by (top, left).  With
    min_domains=2 the single full-grid domain is rejected, which lets
    recursive membership predicates avoid self-reference.
    """
    if p.is_empty:
        raise DomainOutOfBounds("cannot partition the empty picture")
    rows, cols = p.rows, p.cols
    full = (1 << (rows * cols)) - 1
    member_cache: dict[Domain, bool] = {}

    def ok(d: Domain) -> bool:
        if d not in member_cache:
            member_cache[d] = bool(member(subpicture(p, d)))
        return member_cache[d]

    def candidates(covered: int):
        free = ~covered & full
        i, j = divmod((free & -free).bit_length() - 1, cols)
        for bottom in range(i, rows):
            if covered >> (bottom * cols + j) & 1:
                break
            for right in range(j, cols):
                row_bits = ((1 << (right - j + 1)) - 1) << j
                m = sum(row_bits << (r * cols) for r in range(i, bottom + 1))
                if m & covered:
                    break
                d = Domain(i + 1, j + 1, bottom + 1, right + 1)
                if (m != full or min_domains < 2) and ok(d):
                    yield d, m

    dead: set[tuple[int, int]] = set()
    chosen: list[Domain] = []
    masks: list[int] = []
    covered = 0
    stack = [candidates(0)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            dead.add((covered, min(len(chosen), min_domains)))
            stack.pop()
            if chosen:
                chosen.pop()
                covered ^= masks.pop()
            continue
        chosen.append(step[0])
        masks.append(step[1])
        covered |= step[1]
        if covered == full:
            if len(chosen) >= min_domains:
                return chosen
        elif (covered, min(len(chosen), min_domains)) not in dead:
            stack.append(candidates(covered))
            continue
        chosen.pop()
        covered ^= masks.pop()
    return None
