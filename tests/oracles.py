"""Independent reference implementations used only by the tests.

Everything here is written definitionally and shares no algorithmic ideas
with the library: Dyck membership by repeated adjacent cancellation, circuit
extraction by explicit partner tables built from the cancellation matching,
word neutralization by rewriting redexes until a rescan finds none,
neutralizability by blind search over all rectangles, the greedy trace by a
rescan of every rectangle after each rewrite, well-nestedness by
a bottom-up closure over a finite universe of small pictures, and Chinese
boxes by generating every member within bounds from the empty picture, or
by the definition memoised over the sub-rectangles of one picture.
The DW count is a weighted count of rectangle tilings of the half grid, and
the DC count a row-by-row transfer over the tuple of column stacks.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb

from dyck2d.grid import (
    BULLET,
    N,
    Picture,
    empty_picture,
    hcat,
    parse_picture,
    sym,
    vcat,
)

ROW_PAIRS = {("a", "b"), ("c", "d")}
COL_PAIRS = {("a", "c"), ("b", "d")}


def _pairs(kind: str) -> set[tuple[str, str]]:
    return ROW_PAIRS if kind == "Row" else COL_PAIRS


def _col_word(p: Picture, j: int) -> list:
    """Column j (1-based), top to bottom."""
    return [p.cell(i, j) for i in range(1, p.rows + 1)]


def _sub(p: Picture, top: int, left: int, bottom: int, right: int) -> tuple:
    """The 1-based inclusive sub-rectangle as the (rows, cols, cells) key of a member set."""
    cells = tuple(p.cell(i, j) for i in range(top, bottom + 1) for j in range(left, right + 1))
    return (bottom - top + 1, right - left + 1, cells)


def oracle_is_dyck(word, kind: str) -> bool:
    """Repeatedly delete adjacent matched pairs until nothing changes."""
    pairs = _pairs(kind)
    letters = [(s.role, s.index) for s in word]
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (r1, i1), (r2, i2) = letters[i], letters[i + 1]
            if (r1, r2) in pairs and i1 == i2:
                del letters[i : i + 2]
                changed = True
                break
    return not letters


def oracle_match_positions(word, kind: str) -> set[tuple[int, int]]:
    """The matching, recovered by cancellation with original positions kept."""
    out = oracle_cancelled_pairs(word, kind)
    if 2 * len(out) != len(word):
        raise ValueError("word is not Dyck")
    return {(x + 1, y + 1) for x, y in out}


def oracle_cancelled_pairs(word, kind: str) -> set[tuple[int, int]]:
    """The 0-based position pairs that adjacent cancellation removes, N cells skipped.

    Whatever cannot be cancelled stays: bullets, unmatched letters, and the N cells.
    """
    pairs = _pairs(kind)
    items = [(s.role, s.index, pos) for pos, s in enumerate(word) if s.role != "N"]
    out: set[tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            (r1, i1, p1), (r2, i2, p2) = items[i], items[i + 1]
            if (r1, r2) in pairs and i1 == i2:
                out.add((p1, p2))
                del items[i : i + 2]
                changed = True
                break
    return out


def oracle_neutralize_word(word, kind: str) -> bool:
    """Rescan until no redex is left: an opener, an even run of N, its closer become N."""
    pairs = _pairs(kind)
    letters = [(s.role, s.index) for s in word]
    n = len(letters)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < n:
            j = i + 1
            while j < n and letters[j][0] == "N":
                j += 1
            (r1, i1), (r2, i2) = letters[i], letters[j] if j < n else ("N", None)
            if (r1, r2) in pairs and i1 == i2 and (j - i - 1) % 2 == 0:
                letters[i : j + 1] = [("N", None)] * (j + 1 - i)
                changed = True
                i = j + 1
            else:
                i += 1
    return all(r == "N" for r, _ in letters)


def oracle_in_dc(p: Picture) -> bool:
    if p.is_empty or any(not s.is_corner for s in p.cells):
        return False
    return all(
        oracle_is_dyck(p.row_word(i), "Row") for i in range(1, p.rows + 1)
    ) and all(oracle_is_dyck(_col_word(p, j), "Col") for j in range(1, p.cols + 1))


def oracle_circuits(p: Picture) -> list[list[tuple[int, int]]]:
    """Circuits via explicit partner tables from the cancellation matching."""
    row_partner: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(1, p.rows + 1):
        for jo, jc in oracle_match_positions(p.row_word(i), "Row"):
            row_partner[(i, jo)] = (i, jc)
            row_partner[(i, jc)] = (i, jo)
    col_partner: dict[tuple[int, int], tuple[int, int]] = {}
    for j in range(1, p.cols + 1):
        for io, ic in oracle_match_positions(_col_word(p, j), "Col"):
            col_partner[(io, j)] = (ic, j)
            col_partner[(ic, j)] = (io, j)
    todo = {(i, j) for i in range(1, p.rows + 1) for j in range(1, p.cols + 1)}
    circuits = []
    while todo:
        start = min(todo)
        cycle = [start]
        todo.remove(start)
        pos, via_row = start, True
        while True:
            pos = (row_partner if via_row else col_partner)[pos]
            via_row = not via_row
            if pos == start:
                break
            cycle.append(pos)
            todo.remove(pos)
        circuits.append(cycle)
    return circuits


def oracle_is_quaternate(p: Picture) -> bool:
    return oracle_in_dc(p) and all(len(c) == 4 for c in oracle_circuits(p))


def _rectangles_all(p: Picture):
    for top in range(1, p.rows):
        for bottom in range(top + 1, p.rows + 1):
            for left in range(1, p.cols):
                for right in range(left + 1, p.cols + 1):
                    yield top, left, bottom, right


def _redexes(p: Picture):
    for top, left, bottom, right in _rectangles_all(p):
        nw = p.cell(top, left)
        if nw.role != "a":
            continue
        if (
            p.cell(top, right) != sym("b", nw.index)
            or p.cell(bottom, left) != sym("c", nw.index)
            or p.cell(bottom, right) != sym("d", nw.index)
        ):
            continue
        interior = [
            p.cell(i, j)
            for i in range(top, bottom + 1)
            for j in range(left, right + 1)
            if (i, j) not in {(top, left), (top, right), (bottom, left), (bottom, right)}
        ]
        if all(s.is_neutral for s in interior):
            yield top, left, bottom, right


def _rewrite(p: Picture, rect) -> Picture:
    top, left, bottom, right = rect
    cells = list(p.cells)
    for i in range(top, bottom + 1):
        for j in range(left, right + 1):
            cells[(i - 1) * p.cols + (j - 1)] = N
    return Picture(p.rows, p.cols, p.k, tuple(cells))


def oracle_in_dn(p: Picture) -> bool:
    """Blind search over every order of rectangle rewrites."""
    seen = set()
    stack = [p]
    while stack:
        q = stack.pop()
        if all(s.is_neutral for s in q.cells):
            return True
        if q.cells in seen:
            continue
        seen.add(q.cells)
        stack.extend(_rewrite(q, r) for r in _redexes(q))
    return False


def oracle_greedy_trace(p: Picture) -> tuple[list[tuple[tuple[int, int, int, int], int]], bool]:
    """Rewrite the least redex by (left, top, right, bottom) until none is left.

    Returns the ((top, left, bottom, right), index) steps and whether the
    final picture is all neutral.
    """
    trace = []
    while True:
        found = sorted(_redexes(p), key=lambda r: (r[1], r[0], r[3], r[2]))
        if not found:
            return trace, all(s.is_neutral for s in p.cells)
        top, left, _, _ = found[0]
        trace.append((found[0], p.cell(top, left).index))
        p = _rewrite(p, found[0])


def all_pictures(rows: int, cols: int) -> list[Picture]:
    """Every grid over the four corner letters (index 1)."""
    letters = [sym(r, 1) for r in "abcd"]
    out = []
    for combo in product(letters, repeat=rows * cols):
        out.append(Picture(rows, cols, 1, combo))
    return out


def _relabelled(rows: int, cols: int, k: int, cells, swap: str) -> Picture:
    """The rows x cols picture of cells, with a, b, c and d sent to the roles swap names."""
    image = dict(zip("abcd", swap))
    cells = tuple(sym(image[s.role], s.index) if s.is_corner else s for s in cells)
    return Picture(rows, cols, k, cells)


def mirror_lr(p: Picture) -> Picture:
    """p with each row reversed and the roles a<->b, c<->d swapped."""
    cells = [p.cell(i, j) for i in range(1, p.rows + 1) for j in range(p.cols, 0, -1)]
    return _relabelled(p.rows, p.cols, p.k, cells, "badc")


def mirror_tb(p: Picture) -> Picture:
    """p with each column reversed and the roles a<->c, b<->d swapped."""
    cells = [p.cell(i, j) for i in range(p.rows, 0, -1) for j in range(1, p.cols + 1)]
    return _relabelled(p.rows, p.cols, p.k, cells, "cdab")


def transpose(p: Picture) -> Picture:
    """p with rows and columns exchanged and the roles b<->c swapped."""
    cells = [p.cell(i, j) for j in range(1, p.cols + 1) for i in range(1, p.rows + 1)]
    return _relabelled(p.cols, p.rows, p.k, cells, "acbd")


_H_R = {"a": "c", "b": "d"}
_H_C = {"a": "b", "c": "d"}


def _is_accretion_of(p: Picture, members: set) -> bool:
    if p.rows < 2 or p.cols < 2:
        return False
    i = p.cell(1, 1).index
    if (
        p.cell(1, 1).role != "a"
        or p.cell(1, p.cols) != sym("b", i)
        or p.cell(p.rows, 1) != sym("c", i)
        or p.cell(p.rows, p.cols) != sym("d", i)
    ):
        return False
    if p.rows == 2 and p.cols == 2:
        return True
    if p.rows == 2 or p.cols == 2:
        return False  # the core would have one zero dimension
    w_r = p.row_word(1)[1:-1]
    w_c = [p.cell(r, 1) for r in range(2, p.rows)]
    if any(s.role not in "ab" for s in w_r) or not oracle_is_dyck(w_r, "Row"):
        return False
    if any(s.role not in "ac" for s in w_c) or not oracle_is_dyck(w_c, "Col"):
        return False
    if any(
        p.cell(p.rows, 1 + t) != sym(_H_R[s.role], s.index) for t, s in enumerate(w_r, 1)
    ):
        return False
    if any(
        p.cell(1 + t, p.cols) != sym(_H_C[s.role], s.index) for t, s in enumerate(w_c, 1)
    ):
        return False
    return _sub(p, 2, 2, p.rows - 1, p.cols - 1) in members


def _has_partition(p: Picture, members: set) -> bool:
    """Tiling by at least two member subpictures, by naive set cover."""
    cells = {(i, j) for i in range(1, p.rows + 1) for j in range(1, p.cols + 1)}

    def cover(left: frozenset, count: int) -> bool:
        if not left:
            return count >= 2
        top, lft = min(left)
        for bottom in range(top, p.rows + 1):
            for right in range(lft, p.cols + 1):
                rect = {
                    (i, j) for i in range(top, bottom + 1) for j in range(lft, right + 1)
                }
                if not rect <= left:
                    continue
                if _sub(p, top, lft, bottom, right) not in members:
                    continue
                if cover(left - frozenset(rect), count + 1):
                    return True
        return False

    return cover(frozenset(cells), 0)


def oracle_dw_set(max_rows: int, max_cols: int) -> set:
    """All well-nested pictures within bounds, as a bottom-up closure.

    The universe is the crossword pictures of every even size within the
    bounds; crossword membership is necessary, and the closure rules
    (accretion, tiling by smaller members) never leave it.
    """
    from dyck2d.lab import enumerate_dc

    universe = []
    for rows in range(2, max_rows + 1, 2):
        for cols in range(2, max_cols + 1, 2):
            universe.extend(enumerate_dc(rows, cols))
    members: set = set()
    changed = True
    while changed:
        changed = False
        for p in universe:
            key = (p.rows, p.cols, p.cells)
            if key in members:
                continue
            if _is_accretion_of(p, members) or _has_partition(p, members):
                members.add(key)
                changed = True
    return members


def oracle_db_set(max_rows: int, max_cols: int) -> set:
    """All Chinese-box pictures within bounds, as a bottom-up closure.

    Starting from the empty picture, chinese_accretion and the horizontal and
    vertical concatenation of two members are applied until no new picture
    within the bounds appears.
    """
    from dyck2d.wellnest import chinese_accretion

    members = {empty_picture()}
    fresh = set(members)
    while fresh:
        grown = {chinese_accretion(p) for p in fresh}
        for p, q in product(fresh, members):
            if p.rows == q.rows and p.cols + q.cols <= max_cols:
                grown |= {hcat(p, q), hcat(q, p)}
            if p.cols == q.cols and p.rows + q.rows <= max_rows:
                grown |= {vcat(p, q), vcat(q, p)}
        fresh = {p for p in grown if p.rows <= max_rows and p.cols <= max_cols} - members
        members |= fresh
    return {(p.rows, p.cols, p.cells) for p in members}


def oracle_in_db(p: Picture) -> bool:
    """Chinese-box membership by the definition, memoised over the sub-rectangles of p.

    A sub-rectangle (top, left, bottom, right; 0-based, half-open) is a
    member iff it is empty, or it is the Chinese accretion of a member (a1 b1
    c1 d1 corners, bullet sides, 2x2 or both sides longer, a member core), or
    one straight cut splits it into two members.  A member starts with a1 and
    ends with d1, so only cuts between a b1 and an a1 on the top row (column
    cuts) or between a c1 and an a1 in the left column (row cuts) are tried.
    """
    cell = [[(s.role, s.index) for s in p.row_word(i)] for i in range(1, p.rows + 1)]
    a, b, c, d = (("a", 1), ("b", 1), ("c", 1), ("d", 1))
    bullet = (BULLET, None)

    @lru_cache(maxsize=None)
    def member(top: int, left: int, bottom: int, right: int) -> bool:
        if top == bottom:
            return True
        if cell[top][left] != a or cell[bottom - 1][right - 1] != d:
            return False
        rows, cols = bottom - top, right - left
        sides = [cell[top][j] for j in range(left + 1, right - 1)]
        sides += [cell[bottom - 1][j] for j in range(left + 1, right - 1)]
        sides += [cell[i][left] for i in range(top + 1, bottom - 1)]
        sides += [cell[i][right - 1] for i in range(top + 1, bottom - 1)]
        if (
            rows >= 2
            and cols >= 2
            and (rows == 2) == (cols == 2)
            and cell[top][right - 1] == b
            and cell[bottom - 1][left] == c
            and all(s == bullet for s in sides)
            and member(top + 1, left + 1, bottom - 1, right - 1)
        ):
            return True
        for j in range(left + 1, right):
            if cell[top][j - 1] == b and cell[top][j] == a:
                if member(top, left, bottom, j) and member(top, j, bottom, right):
                    return True
        for i in range(top + 1, bottom):
            if cell[i - 1][left] == c and cell[i][left] == a:
                if member(top, left, i, right) and member(i, left, bottom, right):
                    return True
        return False

    return member(0, 0, p.rows, p.cols)


def random_db_member(rng, rows: int, cols: int) -> Picture:
    """A seeded random rows x cols Chinese-box picture, for even rows and cols >= 2.

    Each part is ab/cd at 2x2, else at random the Chinese accretion of a
    random core (when both sides are at least 4) or the concatenation of two
    random parts cut at an even column or row.
    """

    def build(h: int, w: int) -> list[str]:
        steps = ["frame"] * (h > 2 and w > 2) + ["cols"] * (w > 2) + ["rows"] * (h > 2)
        if not steps:
            return ["ab", "cd"]
        step = rng.choice(steps)
        if step == "frame":
            core = build(h - 2, w - 2)
            rule = "*" * (w - 2)
            return [f"a{rule}b", *(f"*{line}*" for line in core), f"c{rule}d"]
        if step == "cols":
            j = 2 * rng.randrange(1, w // 2)
            return [x + y for x, y in zip(build(h, j), build(h, w - j))]
        i = 2 * rng.randrange(1, h // 2)
        return build(i, w) + build(h - i, w)

    return parse_picture("\n".join(build(rows, cols)))


def oracle_dw_count(rows: int, cols: int) -> int:
    """The number of rows x cols DW pictures at k = 1 with mixed border indices.

    A DW picture has exactly one tiling by accretions, and every accretion
    is 2h x 2w, so the tilings are the rectangle tilings of the (rows/2) x
    (cols/2) half grid.  A 1x1 tile is ab/cd; a 1xw or hx1 tile with w or h
    above 1 would frame a core with a zero side, so it counts 0; any other
    h x w tile has Cat(w-1) top borders, Cat(h-1) left borders and
    DW(2h-2, 2w-2) cores.  A tiling is built by covering the first free cell
    of the half grid, in row-major order, with every tile that fits there.
    """

    @lru_cache(maxsize=None)
    def count(h_rows: int, h_cols: int) -> int:
        full = (1 << (h_rows * h_cols)) - 1

        @lru_cache(maxsize=None)
        def fill(covered: int) -> int:
            if covered == full:
                return 1
            top, left = divmod((~covered & (covered + 1)).bit_length() - 1, h_cols)
            total = 0
            for bottom in range(top, h_rows):
                for right in range(left, h_cols):
                    h, w = bottom - top + 1, right - left + 1
                    row = ((1 << w) - 1) << left
                    mask = sum(row << (r * h_cols) for r in range(top, bottom + 1))
                    if mask & covered:
                        break
                    if h == w == 1:
                        total += fill(covered | mask)
                    elif h > 1 and w > 1:
                        tile = _catalan(w - 1) * _catalan(h - 1) * count(h - 1, w - 1)
                        total += tile * fill(covered | mask)
            return total

        return fill(0)

    return count(rows // 2, cols // 2)


def oracle_dc_count(rows: int, cols: int) -> int:
    """The number of rows x cols DC pictures at k = 1, with no picture built.

    Each cell opens or closes its row and its column: a opens both, b closes
    the row over an a, c closes the column over an a, d closes both over a c
    in the row and a b in the column.  The count goes row by row over the
    tuple of column stacks, each the roles of the open cells of its column.
    A row is filled cell by cell from each tuple, with a row stack; no stack
    may grow deeper than the cells left in its line, so every stack ends empty.
    """
    if rows % 2 or cols % 2 or rows <= 0 or cols <= 0:
        return 0

    def next_stacks(stacks: tuple, below: int):
        out = []

        def fill(j: int, row: str, made: tuple) -> None:
            if j == cols:
                out.append(made)
                return
            col, right = stacks[j], cols - 1 - j
            if len(row) < right and len(col) < below:
                fill(j + 1, row + "a", made + (col + "a",))
            if row.endswith("a") and len(col) < below:
                fill(j + 1, row[:-1], made + (col + "b",))
            if len(row) < right and col.endswith("a"):
                fill(j + 1, row + "c", made + (col[:-1],))
            if row.endswith("c") and col.endswith("b"):
                fill(j + 1, row[:-1], made + (col[:-1],))

        fill(0, "", ())
        return out

    states = Counter({("",) * cols: 1})
    for i in range(rows):
        following = Counter()
        for stacks, ways in states.items():
            for made in next_stacks(stacks, rows - 1 - i):
                following[made] += ways
        states = following
    return sum(states.values())


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)
