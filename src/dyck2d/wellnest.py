"""Well-nested Dyck pictures and the Chinese-boxes comparison language."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, pairwise
from operator import attrgetter
from typing import Callable

from .crossword import _crossword_matching
from .dyck1d import COL, ROW, Pairing, Word, is_dyck
from .errors import ContainsNeutral, LengthMismatch, NotDyckBorder
from .grid import BULLET, BULLET_SYM, NEUTRAL, Domain, Picture, picture_from_rows, sym

_TOP, _LEFT, _BOTTOM, _RIGHT = map(attrgetter, ("top", "left", "bottom", "right"))


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
    """Frame the core with a corner quadruple and Dyck border words.

    The bottom border closes the top one by column (a -> c, b -> d), the right
    border the left one by row (a -> b, c -> d): only that keeps the side
    columns Dyck, where a -> c would duplicate the left border.
    """
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
    bottom = [sym("c", acc.index), *map(COL.close_of, acc.w_r), sym("d", acc.index)]
    middle = [
        [acc.w_c[r], *core.row_word(r + 1), ROW.close_of(acc.w_c[r])]
        for r in range(core.rows)
    ]
    return picture_from_rows([top, *middle, bottom], k)


def _is_frame(p: Picture, row: list[int], col: list[int], a: int, mixed: bool) -> bool:
    """Whether the box of the a at flat position a of the crossword p is an accretion frame.

    Its corners b and c are a's row and column partners.  It is a frame when
    b and c close one 4-cycle, it is 2x2 or has a core, each top-border cell's
    column partner is straight below it and each left-border cell's row partner
    straight across, and unless mixed, the top and left borders carry a's index.
    """
    cells, cols = p.cells, p.cols
    b, c = row[a], col[a]
    width, height = b - a, c - a  # flat steps across and down the box
    if col[b] != row[c] or (width == 1) != (height == cols):
        return False  # a (0, n) or (n, 0) core is not a picture
    top, left = range(a + 1, b), range(a + cols, c, cols)
    return (
        all(col[x] == x + height for x in top)
        and all(row[x] == x + width for x in left)
        and (mixed or all(cells[x].index == cells[a].index for x in chain(top, left)))
    )


def _cores(tiles: list[Domain]) -> list[tuple[Domain, None]]:
    """The core of every tile larger than 2x2, to be tiled afresh."""
    boxes = map(Domain.as_tuple, tiles)
    return [(Domain(t + 1, l + 1, b - 1, r - 1), None) for t, l, b, r in boxes if b - t > 1]


def _tiling(region: Domain, tile: Callable) -> list[Domain] | None:
    """The tiles of region found by one row-major scan, or None.

    Each uncovered cell anchors tile(i, j), its one tile or None, which must
    stay in the region and miss the covered cells of its top row: a tile
    anchored earlier can reach it only through that row.
    """
    top, left, bottom, right = region.as_tuple()
    width = right - left + 1
    covered, tiles, x = bytearray((bottom - top + 1) * width), [], 0
    while (x := covered.find(0, x)) >= 0:
        if (d := tile(top + x // width, left + x % width)) is None:
            return None
        t, l, b, r = d.as_tuple()
        ones = b"\1" * (r - l + 1)
        if b > bottom or r > right or 1 in covered[x : x + len(ones)]:
            return None
        for y in range(x, x + (b - t + 1) * width, width):
            covered[y : y + len(ones)] = ones
        tiles.append(d)
    return tiles


def _well_nested(p: Picture, row: list[int], col: list[int], mixed: bool = True) -> bool:
    """DW membership of the crossword p, given its row and column partner lists.

    A picture is well-nested iff it is tiled by accretions whose cores are
    tiled by accretions, so the border rings (top and bottom rows, left and
    right columns) of its frames partition the cells.  One row-major scan
    claims them: the first unclaimed cell must be an a whose box (its row and
    column partners are the top-right and bottom-left corners) is a frame
    whose ring meets no claimed cell.  That cell is the top-left corner of
    its ring, so a member's rings are found one by one.  Conversely, rings
    that share no cell are closed loops, so their boxes nest or are disjoint
    (two boxes that meet with neither inside the other cross borders), and
    each core is tiled by the frames inside it.
    """
    cells, cols = p.cells, p.cols
    claimed, a = bytearray(len(cells)), 0
    while (a := claimed.find(0, a)) >= 0:
        if cells[a].role != "a" or not _is_frame(p, row, col, a, mixed):
            return False
        b, c = row[a], col[a]
        top, bottom = slice(a, b + 1), slice(c, c + b - a + 1)
        left, right = slice(a + cols, c, cols), slice(b + cols, c + b - a, cols)
        if any(1 in claimed[side] for side in (top, bottom, left, right)):
            return False
        claimed[top] = claimed[bottom] = b"\1" * (b - a + 1)
        claimed[left] = claimed[right] = b"\1" * ((c - a) // cols - 1)
    return True


def in_DW(p: Picture, mixed_border_indices: bool = True) -> bool:
    """Membership in the well-nested Dyck language, decided in one scan.

    p is well-nested iff it is empty, or it is the nesting accretion of a
    well-nested core (the frame determines the border words uniquely), or it
    partitions into at least two well-nested subpictures.  On a crossword
    each a anchors one box, and one scan claims the frames' rings; see
    _well_nested.  A picture with a neutral or bullet cell is not in DW.
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
    sides = chain(
        cells[bottom * cols + left + 1 : bottom * cols + right],
        cells[(top + 1) * cols + right : bottom * cols + right : cols],
    )
    framed = [(s.role, s.index) for s in corners] == [("b", 1), ("c", 1), ("d", 1)]
    square = (bottom - top == 1) == (right - left == 1)
    return framed and square and all(s.role == BULLET for s in sides)


def _db_parts(region: Domain, tiles: list[Domain]) -> list[tuple] | None:
    """The (region, tiles) pairs to decide once region is tiled by Chinese boxes.

    One tile leaves its core, to be tiled afresh.  Several leave the parts
    between the column boundaries that no tile crosses, else between such
    row boundaries, and None when every boundary is crossed.  A part holding
    one tile is that tile and leaves its core at once; any other part comes
    with the tiles inside it.
    """
    if len(tiles) == 1:
        return _cores(tiles)
    top, left, bottom, right = region.as_tuple()
    for first, last, start, end, part in (
        (_LEFT, _RIGHT, left, right, lambda a, b: Domain(top, a, bottom, b)),
        (_TOP, _BOTTOM, top, bottom, lambda a, b: Domain(a, left, b, right)),
    ):
        cuts = sorted(set(range(start, end)).difference(*(range(first(d), last(d)) for d in tiles)))
        if cuts:
            inside = [[] for _ in range(len(cuts) + 1)]
            for d in tiles:
                inside[bisect_left(cuts, first(d))].append(d)
            bounds = pairwise([start - 1, *cuts, end])
            parts = []
            for (a, b), ds in zip(bounds, inside):
                parts += _cores(ds) if len(ds) == 1 else [(part(a + 1, b), ds)]
            return parts
    return None


def in_DB(p: Picture) -> bool:
    """Chinese-boxes membership: accretion plus horizontal and vertical concatenation.

    Decided over index domains of p by a worklist of (region, tiles) pairs,
    from the full domain down.  The box of an a1 reaches the first non-bullet
    cell to its right and the first one below it, so a region has at most one
    tiling by boxes (_tiling); _db_parts pushes its parts with the boxes
    inside them, so each box is checked once.  A straight cut of a slicing
    partition leaves slicing partitions on both sides, so any cut keeps every
    member.  A tiling alone would accept the pinwheel, which no straight cut
    splits.  Nothing is copied, remembered or recursed into.
    """
    if p.is_empty:
        return True
    cells, cols, n = p.cells, p.cols, len(p.cells)

    def tile(i: int, j: int) -> Domain | None:
        a = (i - 1) * cols + j - 1
        if cells[a].role != "a" or cells[a].index != 1:
            return None
        right = next((x for x in range(a + 1, i * cols) if cells[x].role != BULLET), None)
        below = next((x for x in range(a + cols, n, cols) if cells[x].role != BULLET), None)
        if right is None or below is None:
            return None
        d = Domain(i, j, below // cols + 1, right % cols + 1)
        return d if _is_box(p, d) else None

    regions = [(p.full_domain(), None)]
    while regions:
        region, tiles = regions.pop()
        if tiles is None and (tiles := _tiling(region, tile)) is None:
            return False
        if (parts := _db_parts(region, tiles)) is None:
            return False
        regions += parts
    return True
