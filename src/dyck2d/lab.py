"""Experiments: classification, censuses, constructive families, searches."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator

from .crossword import _crossword_matching, picture_circuits
from .dyck1d import Pairing, Word, is_dyck, word_text
from .errors import BudgetExceeded, HierarchyViolation, InvalidArgument, NotDyck
from .grid import Picture, parse_picture, picture_from_rows, sym, vcat
from .neutralize import _kahn, _rectangles
from .wellnest import _well_nested

DEFAULT_CENSUS_BUDGET = 36

CLASS_NAMES = ("dc", "dq", "dn", "dw")


@dataclass(frozen=True, slots=True)
class ClassFlags:
    in_dc: bool
    in_dq: bool
    in_dn: bool
    in_dw: bool

    def __post_init__(self) -> None:
        chain = (self.in_dw, self.in_dn, self.in_dq, self.in_dc)
        for narrow, wide in zip(chain, chain[1:]):
            if narrow and not wide:
                raise HierarchyViolation(f"hierarchy violated: {self}")

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class Census:
    rows: int
    cols: int
    k: int
    counts: dict[str, int]
    witnesses: dict[str, Picture] = field(default_factory=dict)


def classify(p: Picture) -> ClassFlags:
    """The four memberships in hierarchy order, each only inside the wider class.

    All four come from one row and column matching.  DC: every cell is
    matched.  DQ: every a closes a 4-cycle, so the rectangles cover the
    cells.  DN: Kahn's order over the rectangles completes, which on DQ is
    acyclicity of the precedence relation (the paper's theorem).  DW: the
    picture is tiled by accretions (see in_DW).  in_DN gives traces.
    """
    match = _crossword_matching(p)
    if match is None:
        return ClassFlags(in_dc=False, in_dq=False, in_dn=False, in_dw=False)
    rects, owner = _rectangles(p, *match)
    dq = 4 * len(rects) == len(p.cells)
    dn = dq and len(_kahn(p, rects, owner)) == len(rects)
    dw = dn and _well_nested(p, *match)
    return ClassFlags(in_dc=True, in_dq=dq, in_dn=dn, in_dw=dw)


def enumerate_dc(rows: int, cols: int, k: int = 1) -> Iterator[Picture]:
    """All crossword pictures of the given size, cell by cell with pruning.

    Cells are filled in row-major order, letters tried in a < b < c < d with
    indices ascending, so output order is lexicographic.  A partial row is
    pruned when its stack is deeper than the remaining columns; a partial
    column when its stack is deeper than the remaining rows.  Parity needs
    no check: the sizes are even and each cell moves both stacks by one.
    """
    if rows % 2 or cols % 2 or rows <= 0 or cols <= 0:
        return
    row_pr, col_pr = Pairing("Row", k), Pairing("Col", k)
    alphabet = [sym(r, i) for r in "abcd" for i in range(1, k + 1)]
    grid: list = []
    row_stack: list = []
    col_stacks: list[list] = [[] for _ in range(cols)]

    def fill(i: int, j: int) -> Iterator[Picture]:
        if j == cols:
            if i + 1 == rows:
                yield picture_from_rows(
                    [grid[r * cols : (r + 1) * cols] for r in range(rows)], k
                )
            else:
                yield from fill(i + 1, 0)
            return
        cols_left = cols - j - 1
        rows_left = rows - i - 1
        col_stack = col_stacks[j]
        for s in alphabet:
            row_push = row_pr.is_open(s)
            if not row_push and not (row_stack and row_pr.matches(row_stack[-1], s)):
                continue
            depth = len(row_stack) + (1 if row_push else -1)
            if depth > cols_left:
                continue
            col_push = col_pr.is_open(s)
            if not col_push and not (col_stack and col_pr.matches(col_stack[-1], s)):
                continue
            depth = len(col_stack) + (1 if col_push else -1)
            if depth > rows_left:
                continue
            if row_push:
                row_stack.append(s)
            else:
                row_popped = row_stack.pop()
            if col_push:
                col_stack.append(s)
            else:
                col_popped = col_stack.pop()
            grid.append(s)
            yield from fill(i, j + 1)
            grid.pop()
            if col_push:
                col_stack.pop()
            else:
                col_stack.append(col_popped)
            if row_push:
                row_stack.pop()
            else:
                row_stack.append(row_popped)

    yield from fill(0, 0)


def census(
    rows: int, cols: int, k: int = 1, budget: int = DEFAULT_CENSUS_BUDGET
) -> Census:
    """Classify every crossword of the given size."""
    if rows % 2 or cols % 2:
        raise InvalidArgument("census sizes must be even")
    if rows * cols > budget:
        raise BudgetExceeded(f"{rows}x{cols} exceeds the {budget}-cell budget")
    counts = {name: 0 for name in CLASS_NAMES}
    witnesses: dict[str, Picture] = {}
    for p in enumerate_dc(rows, cols, k):
        flags = classify(p)
        for name, member in zip(CLASS_NAMES, (flags.in_dc, flags.in_dq, flags.in_dn, flags.in_dw)):
            counts[name] += member
        for gap, hit in (
            ("dc_not_dq", flags.in_dc and not flags.in_dq),
            ("dq_not_dn", flags.in_dq and not flags.in_dn),
            ("dn_not_dw", flags.in_dn and not flags.in_dw),
        ):
            if hit and gap not in witnesses:
                witnesses[gap] = p
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
    if not w or not is_dyck(w, Pairing("Row", 1)) or not all(s in _EMBED_COLUMN for s in w):
        raise NotDyck(word_text(w))
    return picture_from_rows(zip(*(_EMBED_COLUMN[s] for s in w)))


_DOUBLE_NOOSE_BASE = "aaabbb\ncabdab\nacdbcd\ncccddd"


def double_noose(h: int) -> Picture:
    """The (4h, 6) family whose longest circuit has length 4 + 8h.

    Each step appends the base block underneath and relabels the four
    junction cells so the two long circuits merge through a new rectangle.
    """
    if h < 1:
        raise InvalidArgument("h must be >= 1")
    base = parse_picture(_DOUBLE_NOOSE_BASE)
    p = base
    for step in range(2, h + 1):
        p = vcat(p, base)
        cells = list(p.cells)
        seam = 4 * (step - 1)  # last row of the previous block, 1-based

        def put(i: int, j: int, role: str) -> None:
            cells[(i - 1) * p.cols + (j - 1)] = sym(role, 1)

        put(seam, 1, "a")
        put(seam, 6, "b")
        put(seam + 1, 1, "c")
        put(seam + 1, 6, "d")
        p = Picture(p.rows, p.cols, p.k, tuple(cells))
    return p


def hamiltonian_search(
    max_rows: int, max_cols: int, k: int = 1, budget: int = DEFAULT_CENSUS_BUDGET
) -> list[Picture]:
    """Crossword pictures within bounds whose matching graph is one circuit."""
    if max_rows * max_cols > budget:
        raise BudgetExceeded(f"{max_rows}x{max_cols} exceeds the {budget}-cell budget")
    found = []
    for rows in range(2, max_rows + 1, 2):
        for cols in range(2, max_cols + 1, 2):
            for p in enumerate_dc(rows, cols, k):
                if len(picture_circuits(p)) == 1:
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
