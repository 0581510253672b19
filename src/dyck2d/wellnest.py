"""Well-nested Dyck pictures and the Chinese-boxes comparison language."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .crossword import _crossword_matching
from .dyck1d import Pairing, Word, is_dyck
from .errors import ContainsNeutral, LengthMismatch, NotDyckBorder
from .grid import (
    BULLET,
    BULLET_SYM,
    Picture,
    Symbol,
    empty_picture,
    hcat,
    _exact_cover,
    homogeneous,
    picture_from_rows,
    subpicture,
    sym,
    vcat,
    Domain,
)


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


def _well_nested(
    p: Picture, row: dict[int, int], col: dict[int, int], mixed_border_indices: bool = True
) -> bool:
    """DW membership of the crossword p, given its matching.

    A picture is well-nested iff it is tiled by accretions: a part of a
    partition that is itself partitioned can be replaced by its parts.  The
    top-left corner of an accretion is an a whose row and column partners are
    its top-right and bottom-left corners, so the only tile anchored at a
    cell is that cell's box, and the cover never backtracks.  Regions are
    decided top-down from a worklist: each is tiled by framed boxes, the core
    of every tile larger than 2x2 is pushed, and the first region with no
    such tiling decides False.
    """
    cells, cols = p.cells, p.cols

    def reach(i: int, j: int) -> tuple[int, int, int, int] | None:
        a = (i - 1) * cols + j - 1
        if cells[a].role != "a":
            return None
        bottom, right = col[a] // cols + 1, row[a] % cols + 1
        return bottom, right, bottom, right

    regions = [p.full_domain()]
    while regions:
        tiles = _exact_cover(regions.pop(), reach, lambda d: _is_frame(p, d, mixed_border_indices))
        if tiles is None:
            return False
        regions += (Domain(d.top + 1, d.left + 1, d.bottom - 1, d.right - 1) for d in tiles if d.rows > 2)
    return True


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
    if any(s.is_neutral for s in p.cells):
        raise ContainsNeutral("Chinese boxes use corners and bullets only")
    if p.is_empty:
        return picture_from_rows([[sym("a", 1), sym("b", 1)], [sym("c", 1), sym("d", 1)]])
    top = hcat(
        homogeneous(sym("a", 1), 1, 1),
        homogeneous(BULLET_SYM, 1, p.cols),
        homogeneous(sym("b", 1), 1, 1),
    )
    mid = hcat(homogeneous(BULLET_SYM, p.rows, 1), p, homogeneous(BULLET_SYM, p.rows, 1))
    bottom = hcat(
        homogeneous(sym("c", 1), 1, 1),
        homogeneous(BULLET_SYM, 1, p.cols),
        homogeneous(sym("d", 1), 1, 1),
    )
    return vcat(top, mid, bottom)


def _db_frame_core(p: Picture) -> Picture | None:
    if p.rows < 2 or p.cols < 2:
        return None
    if (
        p.cell(1, 1) != sym("a", 1)
        or p.cell(1, p.cols) != sym("b", 1)
        or p.cell(p.rows, 1) != sym("c", 1)
        or p.cell(p.rows, p.cols) != sym("d", 1)
    ):
        return None
    if (p.rows == 2) != (p.cols == 2):
        return None
    border = [
        *p.row_word(1)[1:-1],
        *p.row_word(p.rows)[1:-1],
        *(p.cell(r, 1) for r in range(2, p.rows)),
        *(p.cell(r, p.cols) for r in range(2, p.rows)),
    ]
    if any(s != BULLET_SYM for s in border):
        return None
    if p.rows == 2:
        return empty_picture(p.k)
    return subpicture(p, Domain(2, 2, p.rows - 1, p.cols - 1))


def in_DB(p: Picture) -> bool:
    """Chinese-boxes membership: accretion plus plain concatenation closure."""
    return _in_db(p, {})


def _in_db(p: Picture, memo: dict[tuple, bool]) -> bool:
    """in_DB with a memo keyed by picture content that lives for one top-level call."""
    if p.is_empty:
        return True
    key = (p.rows, p.cols, p.cells)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = False
    core = _db_frame_core(p)
    if core is not None and _in_db(core, memo):
        result = True
    if not result:
        for j in range(1, p.cols):
            if _in_db(subpicture(p, Domain(1, 1, p.rows, j)), memo) and _in_db(
                subpicture(p, Domain(1, j + 1, p.rows, p.cols)), memo
            ):
                result = True
                break
    if not result:
        for i in range(1, p.rows):
            if _in_db(subpicture(p, Domain(1, 1, i, p.cols)), memo) and _in_db(
                subpicture(p, Domain(i + 1, 1, p.rows, p.cols)), memo
            ):
                result = True
                break
    memo[key] = result
    return result
