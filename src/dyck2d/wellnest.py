"""Well-nested Dyck pictures and the Chinese-boxes comparison language."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, pairwise
from operator import attrgetter
from typing import Callable

from .crossword import _crossword_matching
from .dyck1d import Pairing, Word, is_dyck
from .errors import ContainsNeutral, LengthMismatch, NotDyckBorder
from .grid import BULLET_SYM, NEUTRAL, Domain, Picture, Symbol, picture_from_rows, sym

_A1 = sym("a", 1)
_BOX_CORNERS = (sym("b", 1), sym("c", 1), sym("d", 1))


def _h_r(s: Symbol) -> Symbol:
    """Bottom-border image of a top-border letter: a -> c, b -> d."""
    return sym({"a": "c", "b": "d"}[s.role], s.index)


def _h_c(s: Symbol) -> Symbol:
    """Right-border image of a left-border letter: a -> b, c -> d.

    Only this mapping keeps the side columns Dyck; the a -> c variant would
    duplicate the left border.
    """
    return sym({"a": "b", "c": "d"}[s.role], s.index)


@dataclass(frozen=True, slots=True)
class Accretion:
    """Frame recipe: corner index, border words, and the framed core."""

    index: int
    w_r: Word
    w_c: Word
    core: Picture


def _check_border(w: Word, roles: str, pr: Pairing, uniform_index: int | None) -> None:
    for s in w:
        if s.role not in roles:
            raise NotDyckBorder(f"border letter {s.role!r} not in {{{roles}}}")
        if uniform_index is not None and s.index != uniform_index:
            raise NotDyckBorder(f"border index {s.index} != {uniform_index}")
    if w and not is_dyck(w, pr):
        raise NotDyckBorder("border word is not Dyck over its pairs")


def nesting_accretion(acc: Accretion, mixed_border_indices: bool = True) -> Picture:
    """Frame the core with a corner quadruple and Dyck border words."""
    core = acc.core
    if len(acc.w_r) != core.cols or len(acc.w_c) != core.rows:
        raise LengthMismatch(
            f"|w_r|={len(acc.w_r)} |w_c|={len(acc.w_c)} vs core {core.rows}x{core.cols}"
        )
    k = max(core.k, acc.index)
    uniform = None if mixed_border_indices else acc.index
    _check_border(acc.w_r, "ab", Pairing("Row", k), uniform)
    _check_border(acc.w_c, "ac", Pairing("Col", k), uniform)
    top = [sym("a", acc.index), *acc.w_r, sym("b", acc.index)]
    bottom = [sym("c", acc.index), *(_h_r(s) for s in acc.w_r), sym("d", acc.index)]
    middle = [
        [acc.w_c[r], *core.row_word(r + 1), _h_c(acc.w_c[r])]
        for r in range(core.rows)
    ]
    return picture_from_rows([top, *middle, bottom], k)


def _is_frame(p: Picture, d: Domain, mixed_border_indices: bool) -> bool:
    """Whether the border of d in the crossword p is a nesting accretion frame.

    d is the box of the a at its top-left corner, so its top-right and
    bottom-left corners are that a's partners, and the border words between
    partners are Dyck; the rest is read from the border cells.
    """
    cells, cols = p.cells, p.cols
    top, left, bottom, right = (x - 1 for x in d.as_tuple())
    i = cells[top * cols + left].index
    if cells[bottom * cols + right] != sym("d", i) or (d.rows == 2) != (d.cols == 2):
        return False  # a (0, n) or (n, 0) core is not a picture
    top_bottom = (
        (cells[top * cols + j], cells[bottom * cols + j], "ab", _h_r) for j in range(left + 1, right)
    )
    left_right = (
        (cells[r * cols + left], cells[r * cols + right], "ac", _h_c) for r in range(top + 1, bottom)
    )
    return all(
        s.role in roles and t == image(s) and (mixed_border_indices or s.index == i)
        for s, t, roles, image in chain(top_bottom, left_right)
    )


def _cores(tiles: list[Domain]) -> list[Domain]:
    """The core of every tile larger than 2x2."""
    return [Domain(d.top + 1, d.left + 1, d.bottom - 1, d.right - 1) for d in tiles if d.rows > 2]


def _tiled_top_down(p: Picture, tile: Callable, parts: Callable) -> bool:
    """Whether every region of a worklist, from the full domain of p down, is tiled.

    A region is scanned in row-major order.  Each uncovered cell anchors
    tile(i, j), its one tile or None, which must stay in the region and miss
    the covered cells of its top row: a tile anchored earlier can reach it
    only through that row.  parts(region, tiles) gives the regions to decide
    next, or None to reject.  Nothing is copied, remembered or recursed into.
    """
    regions = [p.full_domain()]
    while regions:
        region = regions.pop()
        top, left, bottom, right = region.as_tuple()
        width = region.cols
        covered, tiles, x = bytearray(region.rows * width), [], 0
        while (x := covered.find(0, x)) >= 0:
            d = tile(top + x // width, left + x % width)
            if d is None or d.bottom > bottom or d.right > right or 1 in covered[x : x + d.cols]:
                return False
            for y in range(x, x + d.rows * width, width):
                covered[y : y + d.cols] = b"\1" * d.cols
            tiles.append(d)
        if (more := parts(region, tiles)) is None:
            return False
        regions += more
    return True


def _well_nested(
    p: Picture, row: dict[int, int], col: dict[int, int], mixed_border_indices: bool = True
) -> bool:
    """DW membership of the crossword p, given its matching.

    A picture is well-nested iff it is tiled by accretions: a part of a
    partition that is itself partitioned can be replaced by its parts.  The
    top-left corner of an accretion is an a whose row and column partners are
    its top-right and bottom-left corners, so the only tile anchored at a
    cell is that cell's box, and the tiling needs no search.  Regions are
    decided top-down from a worklist: each is tiled by framed boxes, the core
    of every tile larger than 2x2 is pushed, and the first region with no
    such tiling decides False.
    """
    cells, cols = p.cells, p.cols

    def tile(i: int, j: int) -> Domain | None:
        a = (i - 1) * cols + j - 1
        if cells[a].role != "a":
            return None
        d = Domain(i, j, col[a] // cols + 1, row[a] % cols + 1)
        return d if _is_frame(p, d, mixed_border_indices) else None

    return _tiled_top_down(p, tile, lambda _, tiles: _cores(tiles))


def in_DW(p: Picture, mixed_border_indices: bool = True) -> bool:
    """Membership in the well-nested Dyck language, decided top-down.

    p is well-nested iff it is empty, or it is the nesting accretion of a
    well-nested core (the frame determines the border words uniquely), or it
    partitions into at least two well-nested subpictures.  On a crossword the
    tiling is forced, since each a anchors one box; see _well_nested.  A
    picture with a neutral or bullet cell is not well-nested.
    """
    if p.is_empty:
        return True
    if not all(s.is_corner for s in p.cells):
        return False
    match = _crossword_matching(p)
    return match is not None and _well_nested(p, *match, mixed_border_indices)


def chinese_accretion(p: Picture) -> Picture:
    """Frame p with a corner quadruple and bullet sides."""
    if NEUTRAL in map(attrgetter("role"), p.cells):
        raise ContainsNeutral("Chinese boxes use corners and bullets only")
    a, b, c, d = (sym(r, 1) for r in "abcd")
    rule = [BULLET_SYM] * p.cols
    middle = ([BULLET_SYM, *p.row_word(r), BULLET_SYM] for r in range(1, p.rows + 1))
    return picture_from_rows([[a, *rule, b], *middle, [c, *rule, d]], max(p.k, 1) if p.rows else 1)


def _is_box(p: Picture, d: Domain) -> bool:
    """Whether the border of d in p is a Chinese box frame.

    d is the box of the a1 at its top-left corner, so its top row and left
    column are bullets between the corners; the rest is read here.
    """
    cells, cols = p.cells, p.cols
    top, left, bottom, right = (x - 1 for x in d.as_tuple())
    corners = (cells[top * cols + right], cells[bottom * cols + left], cells[bottom * cols + right])
    sides = (
        *cells[bottom * cols + left + 1 : bottom * cols + right],
        *cells[(top + 1) * cols + right : bottom * cols + right : cols],
    )
    return corners == _BOX_CORNERS and (d.rows == 2) == (d.cols == 2) and set(sides) <= {BULLET_SYM}


def _db_parts(region: Domain, tiles: list[Domain]) -> list[Domain] | None:
    """The regions to decide once region is tiled by Chinese boxes.

    One tile leaves its core.  Several leave the parts between the column
    boundaries that no tile crosses, else between such row boundaries, and
    None when every boundary is crossed.
    """
    if len(tiles) == 1:
        return _cores(tiles)
    top, left, bottom, right = region.as_tuple()
    col_cuts = sorted(set(range(left, right)).difference(*(range(d.left, d.right) for d in tiles)))
    if col_cuts:
        return [Domain(top, a + 1, bottom, b) for a, b in pairwise([left - 1, *col_cuts, right])]
    row_cuts = sorted(set(range(top, bottom)).difference(*(range(d.top, d.bottom) for d in tiles)))
    if row_cuts:
        return [Domain(a + 1, left, b, right) for a, b in pairwise([top - 1, *row_cuts, bottom])]
    return None


def in_DB(p: Picture) -> bool:
    """Chinese-boxes membership: accretion plus horizontal and vertical concatenation.

    Decided top-down over index domains of p, like _well_nested.  The box of
    an a1 reaches the first non-bullet cell to its right and the first one
    below it, so each region has at most one tiling by boxes; its parts are
    pushed by _db_parts.  A straight cut of a slicing partition leaves
    slicing partitions on both sides, so any cut keeps every member.  A
    tiling alone would accept the pinwheel, which no straight cut splits.
    """
    if p.is_empty:
        return True
    cells, cols = p.cells, p.cols

    def tile(i: int, j: int) -> Domain | None:
        a = (i - 1) * cols + j - 1
        if cells[a] != _A1:
            return None
        right = next((x for x in range(a + 1, i * cols) if cells[x] != BULLET_SYM), None)
        below = next((x for x in range(a + cols, len(cells), cols) if cells[x] != BULLET_SYM), None)
        if right is None or below is None:
            return None
        d = Domain(i, j, below // cols + 1, right % cols + 1)
        return d if _is_box(p, d) else None

    return _tiled_top_down(p, tile, _db_parts)
