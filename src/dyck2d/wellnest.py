"""Well-nested Dyck pictures and the Chinese-boxes comparison language."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .crossword import _sweep
from .dyck1d import COL, ROW, Pairing, Word, is_dyck
from .errors import ContainsNeutral, InvalidArgument, NotDyck
from .grid import BULLET, BULLET_SYM, NEUTRAL, Picture, picture_from_rows, sym


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
            raise NotDyck(f"border letter {s.role!r} not in {{{roles}}}")
        if uniform_index is not None and s.index != uniform_index:
            raise NotDyck(f"border index {s.index} != {uniform_index}")
    if not is_dyck(w, pr):
        raise NotDyck("border word is not Dyck over its pairs")


def nesting_accretion(acc: Accretion, mixed_border_indices: bool = True) -> Picture:
    """Frame the core with a corner quadruple and Dyck border words.

    The bottom border closes the top one by column (a -> c, b -> d), the right
    border the left one by row (a -> b, c -> d): only that keeps the side
    columns Dyck, where a -> c would duplicate the left border.
    """
    core = acc.core
    if len(acc.w_r) != core.cols or len(acc.w_c) != core.rows:
        raise InvalidArgument(
            f"|w_r|={len(acc.w_r)} |w_c|={len(acc.w_c)} vs core {core.rows}x{core.cols}"
        )
    k = max(core.k, acc.index)
    uniform = None if mixed_border_indices else acc.index
    _check_border(acc.w_r, "ab", ROW, uniform)
    _check_border(acc.w_c, "ac", COL, uniform)
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


def _well_nested(p: Picture, row: list[int], col: list[int], mixed: bool = True) -> bool:
    """DW membership of the crossword p, given its row and column partner lists.

    A picture is well-nested iff it is tiled by accretions whose cores are
    tiled by accretions, so the border rings (top and bottom rows, left and
    right columns) of its frames partition the cells.  One row-major scan
    claims them: the first unclaimed cell must be an a whose box (its row and
    column partners are the top-right and bottom-left corners) is a frame.
    That cell is the top-left corner of its ring, so a member's rings are
    found one by one.  Every cell ends up claimed, so the ring sizes sum to
    the cell count iff no two rings share a cell.  Rings that share no cell
    are closed loops, so their boxes nest or are disjoint (two boxes that
    meet with neither inside the other cross borders), and each core is
    tiled by the frames inside it.
    """
    cells, cols = p.cells, p.cols
    claimed, size, a = bytearray(len(cells)), 0, 0
    while (a := claimed.find(0, a)) >= 0:
        if cells[a].role != "a" or not _is_frame(p, row, col, a, mixed):
            return False
        b, c = row[a], col[a]
        w, h = b - a + 1, (c - a) // cols - 1
        claimed[a : b + 1] = claimed[c : c + w] = b"\1" * w
        claimed[a + cols : c : cols] = claimed[b + cols : c + w - 1 : cols] = b"\1" * h
        size += 2 * (w + h)
    return size == len(cells)


def in_DW(p: Picture, mixed_border_indices: bool = True) -> bool:
    """Membership in the well-nested Dyck language, decided in one scan.

    p is well-nested iff it is empty, or it is the nesting accretion of a
    well-nested core (the frame determines the border words uniquely), or it
    partitions into at least two well-nested subpictures.  On a crossword
    each a anchors one box, and one scan claims the frames' rings; see
    _well_nested.  Neutral and bullet cells are never matched, so a picture
    with one is not in DW; the empty picture's scan claims nothing.
    """
    row, col, _, _ = _sweep(p, rectangles=False)
    return -1 not in row and -1 not in col and _well_nested(p, row, col, mixed_border_indices)


def chinese_accretion(p: Picture) -> Picture:
    """Frame p with a corner quadruple and bullet sides."""
    if NEUTRAL in [s.role for s in p.cells]:
        raise ContainsNeutral("Chinese boxes use corners and bullets only")
    a, b, c, d = (sym(r, 1) for r in "abcd")
    rule = [BULLET_SYM] * p.cols
    middle = ([BULLET_SYM, *p.row_word(r), BULLET_SYM] for r in range(1, p.rows + 1))
    return picture_from_rows([[a, *rule, b], *middle, [c, *rule, d]], max(p.k, 1) if p.rows else 1)


def _box(p: Picture, roles: str, a: int) -> tuple | None:
    """The Chinese box of the a1 at flat position a, 0-based (top, left, bottom, right), or None.

    roles holds the role of each cell of p.  A box's top row and left column
    are bullets between its corners, so its top-right corner is the first
    non-bullet cell right of a in its row and its bottom-left corner the
    first one below a in its column; each is found by stepping over the
    bullets, so no cell past it is read.  The frame is read by slice
    comparisons: the rest of the border is bullets, the corners are a1 b1 c1
    d1, and the box is 2x2 or both its sides are longer.
    """
    cells, cols, n = p.cells, p.cols, len(roles)
    top, left = divmod(a, cols)
    b, c, end = a + 1, a + cols, (top + 1) * cols
    while b < end and roles[b] == BULLET:
        b += 1
    while c < n and roles[c] == BULLET:
        c += cols
    w, h = b - a - 1, (c - a) // cols - 1
    if roles[a] != "a" or b == end or c >= n or (w == 0) != (h == 0):
        return None
    d = c + w + 1
    framed = (
        roles[c : d + 1] == f"c{BULLET * w}d"
        and roles[b : d + 1 : cols] == f"b{BULLET * h}d"
        and cells[a].index == cells[b].index == cells[c].index == cells[d].index == 1
    )
    return (top, left, top + h + 1, left + w + 1) if framed else None


def in_DB(p: Picture) -> bool:
    """Chinese-boxes membership: accretion plus horizontal and vertical concatenation.

    One row-major scan over the roles of p claims box rings as _well_nested
    claims frames: the first unclaimed cell must anchor a _box, whose ring
    is then claimed, so a member's boxes are found one by one.  A worklist
    of box lists, from all of them, then takes p apart.  A list's boxes lie
    in its part and their rings cover it, so its least box B by (top, left)
    sits at the part's top-left.  If no other box reaches B's right column,
    B is the part (the cells right of its top-right corner and below its
    bottom-right one lie on rings that would), and the rest lie in B's core
    (a corner on B's ring would sit on a bullet): B is peeled.  Otherwise
    the list is cut at the gaps of its merged column intervals, else of its
    merged row intervals, or rejected.  A straight cut of a concatenation
    leaves concatenations on both sides, so no cut loses a member; the
    pinwheel, a tiling by boxes, has no straight cut.  Ring cells are not
    counted: two crossing rings share a column and a row interval, so no
    cut separates them, and neither lies in the other's core, so neither
    is peeled and their list is rejected.  Nothing is copied, remembered or
    recursed into.
    """
    cols, roles = p.cols, "".join([s.role for s in p.cells])
    claimed, boxes, a = bytearray(len(roles)), [], 0
    while (a := claimed.find(0, a)) >= 0:
        if (box := _box(p, roles, a)) is None:
            return False
        top, left, bottom, right = box
        w, h, c = right - left + 1, bottom - top - 1, bottom * cols + left
        claimed[a : a + w] = claimed[c : c + w] = b"\1" * w
        claimed[a + cols : c : cols] = claimed[a + w - 1 + cols : c + w - 1 : cols] = b"\1" * h
        boxes.append(box)
    work = [boxes] if len(boxes) > 1 else []
    while work:
        tiles = work.pop()
        right = min(tiles)[3]
        parts = [[x for x in tiles if x[3] < right]]
        if len(parts[0]) < len(tiles) - 1:  # no peel: column cuts, then row cuts
            for first, last in ((1, 3), (0, 2)):
                tiles.sort(key=itemgetter(first))
                parts, reach = [], -1
                for box in tiles:
                    if box[first] > reach:
                        parts.append([])
                    parts[-1].append(box)
                    reach = max(reach, box[last])
                if len(parts) > 1:
                    break
            else:
                return False
        work += [part for part in parts if len(part) > 1]  # one box is 2x2: its ring is its part
    return True
