"""Experiments: classification, censuses, constructive families, searches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .crossword import _crossword_matching, _walk
from .dyck1d import ROW, Word, is_dyck, word_text
from .errors import BudgetExceeded, HierarchyViolation, InvalidArgument, NotDyck
from .grid import Picture, parse_picture, picture_from_rows, sym
from .neutralize import _kahn
from .wellnest import _well_nested

DEFAULT_CENSUS_BUDGET = 36

CLASS_NAMES = ("dc", "dq", "dn", "dw")
_GAPS = ("dc_not_dq", "dq_not_dn", "dn_not_dw")  # in a class, not the next


@dataclass(frozen=True, slots=True)
class ClassFlags:
    in_dc: bool
    in_dq: bool
    in_dn: bool
    in_dw: bool

    def __post_init__(self) -> None:
        if not self.in_dc >= self.in_dq >= self.in_dn >= self.in_dw:  # bools: narrow implies wide
            raise HierarchyViolation(f"hierarchy violated: {self}")

    def as_dict(self) -> dict[str, bool]:
        return {"in_dc": self.in_dc, "in_dq": self.in_dq, "in_dn": self.in_dn, "in_dw": self.in_dw}


@dataclass(frozen=True, slots=True)
class Census:
    rows: int
    cols: int
    k: int
    counts: dict[str, int]
    witnesses: dict[str, Picture] = field(default_factory=dict)


def classify(p: Picture) -> ClassFlags:
    """The four memberships, each only inside the wider class.

    One sweep of the cells (crossword._crossword_matching) matches every row
    and column and reads off the rectangles; DC is every cell matched, and
    _classify_matched reads the other three off that sweep, DW before DN:
    a well-nested picture is neutralizable, so it needs no Kahn pass.
    """
    match = _crossword_matching(p, rectangles=True)
    if match is None:
        return ClassFlags(in_dc=False, in_dq=False, in_dn=False, in_dw=False)
    return _classify_matched(p, *match)


def _classify_matched(p: Picture, row: list, col: list, rects: list, owner: list) -> ClassFlags:
    """The memberships of the crossword p, given its matching and its rectangles.

    rects and owner are as crossword._sweep(p, rectangles=True) gives them,
    but owner need only be exact when the rectangles cover the cells, which
    is DQ.  DW is read first: the picture is tiled by accretions (see in_DW),
    a ring scan that is exact on any crossword.  DN: a well-nested picture is
    neutralizable (the paper's DW ⊆ DN), so Kahn's pass runs only on DQ
    pictures off DW, where its order completes iff the precedence relation is
    acyclic (the paper's theorem).  The tests, not this function, re-derive
    DW ⊆ DN through in_DN.  in_DN gives traces.
    """
    dq = 4 * len(rects) == len(p.cells)
    dw = dq and _well_nested(p, row, col)
    dn = dw or dq and len(_kahn(p.cols, rects, owner)) == len(rects)
    return ClassFlags(in_dc=True, in_dq=dq, in_dn=dn, in_dw=dw)


def enumerate_dc(rows: int, cols: int, k: int = 1) -> Iterator[Picture]:
    """All crossword pictures of the given size, in lexicographic order.

    The pictures of _enumerate_matched; nothing for an odd or empty size.
    """
    for p, *_ in _enumerate_matched(rows, cols, k):
        yield p


def _enumerate_matched(rows: int, cols: int, k: int, halve: bool = False) -> Iterator[tuple]:
    """Each crossword of the given size as (picture, row, col, rects, owner, weight).

    Cells are filled in row-major order by an iterative search over an
    explicit stack.  One row stack and one stack per column hold the flat
    positions of open cells.  Whether a cell pushes or pops each stack fixes
    its role:

        row push, col push: a
        row pop,  col push: b, when the row top is an a
        row push, col pop:  c, when the column top is an a
        row pop,  col pop:  d, when the row top is a c and the column top
                            a b of the same index

    A popping cell takes its top's index, so a cell has at most k + 3
    options (a1..ak, b, c, d, tried in that order, which keeps the output
    lexicographic), each checked in O(1).  A stack may be no deeper than the
    cells left in its line.  Each pop records its pair both ways in the
    partner lists row and col, and an undone closer reads its opener back.
    A d closes a rectangle when the a above its c is the a left of its b; it
    is pushed on rects as crossword._sweep gives it, owner marks its
    corners, and undoing the d pops it.  At a yield row, col and rects equal
    those of crossword._sweep(picture, rectangles=True); owner is stale only
    on cells no rectangle owns, so it is exact on DQ.
    The lists are live, not copies: each is valid until the next item.

    weight is how many crosswords of the full stream the item stands for:
    1, unless halve keeps one picture of each left-right mirror pair (see
    census).  Then at the last cell of row i, while palin[i] says that every
    row above is its own mirror, the row's (role, index) pairs are compared
    with its mirror's, read left to right with the roles a<->b and c<->d
    swapped (role ^ 1).  That order is the option order, so a row that reads
    greater than its mirror has a mirror picture earlier in the stream: the
    cell is undone as after a yield, which skips the whole subtree, and a
    picture whose first row that is not its own mirror reads less than it is
    kept with weight 2.  palin[i + 1] is set each time row i ends, so
    backtracking undoes nothing; a picture with palin[rows], every row its
    own mirror, is its own mirror and has weight 1.
    """
    if rows % 2 or cols % 2 or rows <= 0 or cols <= 0:
        return
    n = rows * cols
    letters = [[sym(r, i) for i in range(1, k + 1)] for r in "abcd"]
    a, b, c, d = range(4)  # bit 1: pops the row stack; bit 2: pops the column stack
    # role and 0-based index per cell; position n is the bottom of every stack
    role, index, tried = [-1] * (n + 1), [0] * (n + 1), [0] * n
    grid: list = [None] * n
    palin = [True] * (rows + 1)  # palin[i]: rows 0..i-1 are their own mirrors; set as row i-1 ends
    row, col = [-1] * n, [-1] * n
    rects, owner = [], [None] * n
    row_stack = [n]
    col_stacks = [[n] for _ in range(cols)]
    # per cell: its column stack, and the deepest each stack may be before a push there
    lines = [(col_stacks[j], cols - j, rows - i) for i in range(rows) for j in range(cols)]
    x, o = 0, 0  # the cell, and the first option left to try there
    while True:
        col_stack, row_limit, col_limit = lines[x]
        rt, ct = row_stack[-1], col_stack[-1]
        row_room = len(row_stack) < row_limit  # one more push leaves the rest room to pop
        col_room = len(col_stack) < col_limit
        if o < k and row_room and col_room:
            r, t, o = a, o, o + 1
        elif o <= k and col_room and role[rt] == a:
            r, t, o = b, index[rt], k + 1
        elif o <= k + 1 and row_room and role[ct] == a:
            r, t, o = c, index[ct], k + 2
        elif o <= k + 2 and role[rt] == c and role[ct] == b and index[rt] == index[ct]:
            r, t, o = d, index[rt], k + 3
        else:
            r = None
        if r is not None:
            role[x], index[x], tried[x], grid[x] = r, t, o, letters[r][t]
            if r & 1:
                row[rt], row[x] = x, row_stack.pop()
            else:
                row_stack.append(x)
            if r & 2:
                col[ct], col[x] = x, col_stack.pop()
            else:
                col_stack.append(x)
            if r == d and (top_left := col[rt]) == row[ct]:
                owner[top_left] = owner[ct] = owner[rt] = owner[x] = rid = len(rects)
                (top, left), (bottom, right) = divmod(top_left, cols), divmod(x, cols)
                rects.append((left + 1, top + 1, right + 1, bottom + 1, t + 1, rid))
            # at a row's last cell, halve undoes a row greater than its mirror, as after a yield
            if row_limit > 1 or not halve or _row_kept(role, index, palin, x, cols):
                if x + 1 < n:
                    x, o = x + 1, 0
                    continue
                yield Picture(rows, cols, k, tuple(grid)), row, col, rects, owner, 2 - palin[rows]
        elif x == 0:
            return
        else:
            x -= 1
        # undo the cell at x and resume its options; a d reads its c and b back
        col_stack = lines[x][0]
        if role[x] & 1:
            row_stack.append(row[x])
        else:
            row_stack.pop()
        if role[x] & 2:
            col_stack.append(col[x])
        else:
            col_stack.pop()
        if role[x] == d and col[row[x]] == row[col[x]]:
            rects.pop()
        o = tried[x]


def _row_kept(role: list, index: list, palin: list, x: int, cols: int) -> bool:
    """Whether halve keeps the row i that ends at flat position x; sets palin[i + 1].

    See _enumerate_matched: the row is kept unless palin[i] and it reads
    greater than its mirror.
    """
    i = x // cols
    palin[i + 1] = False
    if not palin[i]:
        return True
    half = cols // 2  # a row whose first half matches its mirror's is its own mirror
    line = [(role[y], index[y]) for y in range(x + 1 - cols, x + 1 - half)]
    flip = [(role[y] ^ 1, index[y]) for y in range(x, x - half, -1)]
    palin[i + 1] = line == flip
    return line <= flip


def census(
    rows: int, cols: int, k: int = 1, budget: int = DEFAULT_CENSUS_BUDGET
) -> Census:
    """Classify every crossword of the given size.

    _classify_matched decides each from the matching and the rectangles that
    _enumerate_matched hands over, with no cell scanned again; Kahn's pass
    runs only on the DQ pictures off DW.  Each is tallied
    by its depth, the classes past DC it is in; the first of each depth below
    DW witnesses that gap.

    Only one picture of each left-right mirror pair is classified, and it is
    tallied with its weight.  The mirror (each row reversed, a<->b and c<->d
    swapped) keeps the depth: it maps row-Dyck words to row-Dyck words and
    the column pairs (a, c) and (b, d) onto each other, so it maps crosswords
    to crosswords, and their rectangles, circuits, redexes, precedences and
    accretion frames to their own kind.  So the weighted tally equals the
    full one.  A skipped picture's mirror has its depth and comes earlier in
    the stream, so the first picture of each depth is kept and the witnesses
    are those of the full stream.
    """
    if rows <= 0 or cols <= 0 or k < 1:
        raise InvalidArgument("census needs positive sizes and k >= 1")
    if rows % 2 or cols % 2:
        raise InvalidArgument("census sizes must be even")
    if rows * cols > budget:
        raise BudgetExceeded(f"{rows}x{cols} exceeds the {budget}-cell budget")
    tally, first = [0] * len(CLASS_NAMES), {}
    for p, row, col, rects, owner, weight in _enumerate_matched(rows, cols, k, halve=True):
        flags = _classify_matched(p, row, col, rects, owner)
        depth = flags.in_dq + flags.in_dn + flags.in_dw
        tally[depth] += weight
        first.setdefault(depth, p)
    counts = {name: sum(tally[depth:]) for depth, name in enumerate(CLASS_NAMES)}
    witnesses = {_GAPS[depth]: p for depth, p in first.items() if depth < len(_GAPS)}
    return Census(rows, cols, k, counts, witnesses)


_EMBED_COLUMN = {
    sym(r, 1): tuple(sym(x, 1) for x in col)
    for r, col in zip("abcd", ("acac", "bdbd", "aacc", "bbdd"))
}


def embed_row(w: Word) -> Picture:
    """A height-4 neutralizable picture whose third row is w.

    By structural induction on the row word: length-2 primes map to fixed
    4x2 blocks (ab to ab/cd/ab/cd, cd to ab/ab/cd/cd), concatenations
    juxtapose, and a wrapped prime gains a border column on each side (acac
    and bdbd around a...b, aacc and bbdd around c...d).  So column t
    depends only on the letter w[t], and the picture is read off that table.
    """
    if not w or not is_dyck(w, ROW) or not all(s in _EMBED_COLUMN for s in w):
        raise NotDyck(word_text(w) or "the empty word")
    return picture_from_rows(zip(*(_EMBED_COLUMN[s] for s in w)))


_DOUBLE_NOOSE_BASE = "aaabbb\ncabdab\nacdbcd\ncccddd"
_DOUBLE_NOOSE_MAX_CELLS = 10**6


def double_noose(h: int) -> Picture:
    """The (4h, 6) family whose longest circuit has length 4 + 8h.

    h base blocks stacked, with the four junction cells of each seam
    relabelled (a and b ending the upper block, c and d starting the lower)
    so the two long circuits merge through a new rectangle.  BudgetExceeded,
    before anything is allocated, past 10**6 cells (h > 41666).
    """
    if h < 1:
        raise InvalidArgument("h must be >= 1")
    if 24 * h > _DOUBLE_NOOSE_MAX_CELLS:
        raise BudgetExceeded(f"h={h} exceeds the {_DOUBLE_NOOSE_MAX_CELLS}-cell budget")
    cells = list(parse_picture(_DOUBLE_NOOSE_BASE).cells * h)
    a, b, c, d = (sym(r, 1) for r in "abcd")
    for x in range(18, 24 * (h - 1), 24):  # the last row of each block but the last
        cells[x], cells[x + 5], cells[x + 6], cells[x + 11] = a, b, c, d
    return Picture(4 * h, 6, 1, tuple(cells))


def hamiltonian_search(
    max_rows: int, max_cols: int, k: int = 1, budget: int = DEFAULT_CENSUS_BUDGET
) -> list[Picture]:
    """Crossword pictures within bounds whose matching graph is one circuit.

    Each crossword comes from _enumerate_matched with its matching, and its
    circuits are walked off that matching, with no matching graph built.
    """
    if max_rows <= 0 or max_cols <= 0 or k < 1:
        raise InvalidArgument("search needs positive bounds and k >= 1")
    if max_rows * max_cols > budget:
        raise BudgetExceeded(f"{max_rows}x{max_cols} exceeds the {budget}-cell budget")
    found = []
    for rows in range(2, max_rows + 1, 2):
        for cols in range(2, max_cols + 1, 2):
            for p, row, col, *_ in _enumerate_matched(rows, cols, k):
                if len(_walk(row, col)[0]) == 1:
                    found.append(p)
    return found


_FIXTURE_TEXT = {
    # 4x4 well-nested picture: base rectangle framed once
    "fig1_left": "aabb\naabb\nccdd\nccdd",
    # the Chinese-boxes picture of the same size
    "fig1_mid": "a**b\n*ab*\n*cd*\nc**d",
    # 4x4 quaternate, neutralizable, not well-nested
    "fig2": "aabb\nabab\ncdcd\nccdd",
    # 4x4 with circuits of lengths 12 and 4
    "fig3_left": "abab\ncabd\nacdb\ncdcd",
    # 8x8 with one circuit of length 36 and seven rectangles
    "fig3_right": (
        "abababab\n"
        "cabdcabd\n"
        "acdabcdb\n"
        "cdaabbcd\n"
        "abccddab\n"
        "cabcdabd\n"
        "acdbacdb\n"
        "cdcdcdcd"
    ),
    # the base block of the double-noose family
    "fig4_left": _DOUBLE_NOOSE_BASE,
    # 8x8 quaternate but not neutralizable: 2-cycle in the precedence
    "fig5_left": (
        "aabbaabb\n"
        "abaabbab\n"
        "cdacdbcd\n"
        "cabdcabd\n"
        "acdbacdb\n"
        "abcabdab\n"
        "cdccddcd\n"
        "ccddccdd"
    ),
    # 6x6 quaternate with a 4-cycle in the precedence
    "fig5_right": (
        "aababb\n"
        "abacdb\n"
        "cdcabd\n"
        "acdbab\n"
        "cabdcd\n"
        "ccdcdd"
    ),
    # the 4x6 picture neutralized in six steps
    "example1": "aababb\naabcdb\nccdabd\nccdcdd",
    # neutralizable but not well-nested
    "p_N": "aabb\nccdd",
}


def fixtures() -> dict[str, Picture]:
    """Named reference pictures used across tests and the CLI."""
    return {name: parse_picture(text) for name, text in _FIXTURE_TEXT.items()}
