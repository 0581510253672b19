"""Dyck crosswords: membership, matching graphs, circuits, quaternate test."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import ContainsNeutral, NotInDC
from .grid import NEUTRAL, Picture, Symbol

Pos = tuple[int, int]
Edge = tuple[Pos, Pos]

_CIRCUIT_ROLE_ORDER = "abdc"

_NEUTRAL = -1  # the owner of a neutral cell in _sweep

_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
)
_MARK_COLOR = ("", *_PALETTE)  # _walk marks circuit n's cells n % len(_PALETTE) + 1


@dataclass(frozen=True, slots=True)
class MatchingGraph:
    """Row and column match edges of a crossword picture, held as two partner lists.

    MatchingGraph(picture) sweeps the picture: row_of[x] and col_of[x] are the
    row and the column partner of the cell at flat position
    x = (i - 1) * cols + j - 1, and the edge sets are views of them.  Raises
    NotInDC off crosswords and ContainsNeutral on a neutral or bullet cell.
    """

    row_of: tuple[int, ...] = field(init=False)
    col_of: tuple[int, ...] = field(init=False)
    picture: Picture

    def __post_init__(self) -> None:
        row, col, _, _ = _match_or_raise(self.picture, rectangles=False)
        object.__setattr__(self, "row_of", tuple(row))
        object.__setattr__(self, "col_of", tuple(col))

    @property
    def row_edges(self) -> frozenset[Edge]:
        return frozenset(_edges(self.row_of, _positions(self.picture)))

    @property
    def col_edges(self) -> frozenset[Edge]:
        return frozenset(_edges(self.col_of, _positions(self.picture)))


@dataclass(frozen=True, slots=True)
class Circuit:
    """Simple cycle of the matching graph, started at its first a-node."""

    nodes: tuple[Pos, ...]
    labels: tuple[Symbol, ...]

    @property
    def length(self) -> int:
        return len(self.nodes)

    @property
    def label_text(self) -> str:
        return "".join(s.role for s in self.labels)

    @property
    def northwest(self) -> Pos:
        return self.nodes[0]


def _sweep(p: Picture, *, rectangles: bool) -> tuple[list, list, list | None, list | None]:
    """The row and column partner lists of p, and its rectangles and their owners, in one pass.

    Cells are read in row-major order with one row stack and one stack per
    column, holding flat positions x = i * cols + j (0-based) of open cells:
    an a pushes both, a b pops the row stack when its top is an a of its
    index and pushes its column, a c pushes its row and pops the column stack
    when its top is an a of its index, and a d pops both, its row's top a c
    and its column's a b.  A closer that cannot be cancelled clears that
    stack, a bullet clears both, and N is skipped.  partner[x] is -1 when x
    is unmatched, so p is a crossword exactly when no entry is -1.

    A d closes a 4-cycle a -> b -> d -> c when the a above its c is the a
    left of its b.  Each is a (left, top, right, bottom, index, id) tuple,
    1-based, with id its place in the list, in the order of the d's; owner
    gives, per flat position, the id of the rectangle the cell is a corner
    of, _NEUTRAL for N, or None.  Without rectangles both are None: no owner
    list is made, and a d runs no 4-cycle test and builds no tuple.
    """
    cells, cols = p.cells, p.cols
    n = len(cells)
    row, col = [-1] * n, [-1] * n
    rects, owner = ([], [None] * n) if rectangles else (None, None)
    stacks, rs, j = [[] for _ in range(cols)], [], cols
    for x, s in enumerate(cells):
        if j == cols:  # x starts a row
            rs, j = [], 0
        cs = stacks[j]
        j += 1
        role = s.role
        if role == "a":
            rs.append(x)
            cs.append(x)
        elif role == "b":
            if rs and (t := cells[rs[-1]]).role == "a" and t.index == s.index:
                row[x] = y = rs.pop()
                row[y] = x
            else:
                rs.clear()
            cs.append(x)
        elif role == "c":
            rs.append(x)
            if cs and (t := cells[cs[-1]]).role == "a" and t.index == s.index:
                col[x] = y = cs.pop()
                col[y] = x
            else:
                cs.clear()
        elif role == "d":
            i, c = s.index, -1
            if rs and (t := cells[rs[-1]]).role == "c" and t.index == i:
                row[x] = c = rs.pop()
                row[c] = x
            else:
                rs.clear()
            if cs and (t := cells[cs[-1]]).role == "b" and t.index == i:
                col[x] = b = cs.pop()
                col[b] = x
                # off crosswords c, col[c] and row[b] can each be -1
                if rectangles and c >= 0 and (a := col[c]) >= 0 and a == row[b]:
                    owner[a] = owner[b] = owner[c] = owner[x] = rid = len(rects)
                    (top, left), (bottom, right) = divmod(a, cols), divmod(x, cols)
                    rects.append((left + 1, top + 1, right + 1, bottom + 1, i, rid))
            else:
                cs.clear()
        elif role == NEUTRAL:
            if rectangles:
                owner[x] = _NEUTRAL
        else:
            rs.clear()
            cs.clear()
    return row, col, rects, owner


def _crossword_matching(p: Picture, *, rectangles: bool) -> tuple | None:
    """_sweep(p, rectangles=...) of a crossword; None for the empty picture and off crosswords.

    Raises ContainsNeutral on a non-empty picture with a neutral or bullet
    cell.  Those cells are never matched, so only a picture with an
    unmatched cell is checked for them.
    """
    if p.is_empty:
        return None
    sweep = _sweep(p, rectangles=rectangles)
    if -1 in sweep[0] or -1 in sweep[1]:
        for s in p.cells:  # a plain loop: the slot read is cheaper than a generator or attrgetter
            if s.index is None:  # only N and the bullet carry no index
                raise ContainsNeutral("crossword membership is defined over corner symbols")
        return None
    return sweep


def in_DC(p: Picture) -> bool:
    """Whether every row is a row-Dyck word and every column a column-Dyck word."""
    return _crossword_matching(p, rectangles=False) is not None


def _positions(p: Picture) -> list[Pos]:
    """The 1-based (i, j) of each flat position x = (i - 1) * cols + j - 1, in row-major order."""
    return [(i, j) for i in range(1, p.rows + 1) for j in range(1, p.cols + 1)]


def _edges(partner: Sequence[int], table: list[Pos]) -> list[Edge]:
    """The pairs (table[x], table[y]) of a partner list with x < y; a row-major pass sorts them."""
    return [(table[x], table[y]) for x, y in enumerate(partner) if x < y]


def _match_or_raise(p: Picture, *, rectangles: bool) -> tuple:
    match = _crossword_matching(p, rectangles=rectangles)
    if match is None:
        raise NotInDC("matching graph needs a crossword picture")
    return match


def matching_graph(p: Picture) -> MatchingGraph:
    """MatchingGraph(p): the row and column partner lists of a crossword; NotInDC off crosswords."""
    return MatchingGraph(p)


def _walk(row_of: Sequence[int], col_of: Sequence[int]) -> tuple[list[list[int]], bytearray]:
    """The circuits of a crossword's two partner lists, as flat positions, and each cell's mark.

    A circuit starts at the first cell not yet seen, in row-major order, and
    follows the row partner first, so the circuits come out sorted by their
    start.  That cell is an a: its circuit has no cell before it, so it lies in
    the circuit's top row, where a c or a d would have its column partner
    above it and a b its row partner to its left.  The walk jumps to it with
    one find, and marks circuit n's cells n % len(_PALETTE) + 1, the slot of
    its colour in _MARK_COLOR.

    The lists must be a crossword's, as the sweep and the enumerator give them
    to every caller.  They pair every cell with another, so each step is undone
    by the list it used: the walk is back at its start after an even number of
    steps before it can repeat a node, and no later walk enters a closed
    circuit.  The paper proves the rest: the circuits partition the cells, and
    each reads (a b d c)^+ with one index.
    """
    marks, out, start = bytearray(len(row_of)), [], 0
    while (start := marks.find(0, start)) >= 0:
        nodes, x, mark = [], start, len(out) % len(_PALETTE) + 1
        while True:
            nodes += (x, y := row_of[x])
            marks[x] = marks[y] = mark
            if (x := col_of[y]) == start:
                break
        out.append(nodes)
    return out, marks


def circuits(g: MatchingGraph) -> list[Circuit]:
    """Partition of the grid into simple circuits, sorted by their start.

    Each circuit starts at its lexicographically smallest a-labeled node and
    follows the row edge first, so labels always read (a b d c)^+.  One walk
    over g's two partner lists, a crossword's, yields the circuits.
    """
    cells, table = g.picture.cells, _positions(g.picture)
    walks, _ = _walk(g.row_of, g.col_of)
    return [Circuit(tuple([table[x] for x in c]), tuple([cells[x] for x in c])) for c in walks]


def picture_circuits(p: Picture) -> list[Circuit]:
    """circuits(matching_graph(p)).

    NotInDC off crosswords, ContainsNeutral on a neutral or bullet cell.
    """
    return circuits(matching_graph(p))


def is_quaternate(p: Picture) -> bool:
    """Whether all matching-graph circuits have length 4; NotInDC off crosswords.

    Every circuit has length 4 exactly when the rectangles of the matching
    cover the cells.
    """
    return 4 * len(_match_or_raise(p, rectangles=True)[2]) == len(p.cells)


def _export_parts(g: MatchingGraph, sep: str) -> tuple[list[str], list[str], tuple]:
    """Per flat position the text i + sep + j of its (i, j) and its label text, and the _walk.

    Each row number and each column number is formatted once per picture; a
    position's text is only the concatenation of its row's and its column's.
    """
    p = g.picture
    cells, cols = p.cells, [str(j) for j in range(1, p.cols + 1)]
    pos = [row + j for row in [f"{i}{sep}" for i in range(1, p.rows + 1)] for j in cols]
    # a symbol's text at k = 1 is its role
    labels = [s.role for s in cells] if p.k == 1 else [s.text(p.k) for s in cells]
    return pos, labels, _walk(g.row_of, g.col_of)


def graph_to_dot(g: MatchingGraph) -> str:
    """DOT export: row edges solid, column edges dashed, one color per circuit.

    Nodes in row-major order, and edges sorted as one row-major pass over each
    partner list reads them.  A cell's colour is read off the mark _walk left
    on it.  The node lines and the edge lines are joined apart, so no list of
    every line is held.
    """
    pos, labels, (_, marks) = _export_parts(g, ",")
    color = list(map(_MARK_COLOR.__getitem__, marks))
    nodes = "".join(
        [f'  "{ij}" [label="{label}", color="{c}"];\n' for ij, label, c in zip(pos, labels, color)]
    )
    edges = "".join(
        [
            f'  "{pos[x]}" -- "{pos[y]}" [style={style}, color="{color[x]}"];\n'
            for partner, style in ((g.row_of, "solid"), (g.col_of, "dashed"))
            for x, y in enumerate(partner)
            if x < y
        ]
    )
    return f"graph matching {{\n  node [shape=circle];\n{nodes}{edges}}}"


def graph_to_json(g: MatchingGraph) -> str:
    """JSON export: nodes in row-major order, sorted edges, circuits sorted by start.

    The text is json.dumps' of that object with its default separators, written
    by joins over one table of position texts "i, j"; a label is a role and
    index digits, so nothing needs escaping.  The edges are read off the
    partner lists as for DOT.
    """
    pos, labels, (circs, _) = _export_parts(g, ", ")
    nodes = ", ".join([f'[{ij}, "{label}"]' for ij, label in zip(pos, labels)])
    row, col = (
        ", ".join([f"[[{pos[x]}], [{pos[y]}]]" for x, y in enumerate(partner) if x < y])
        for partner in (g.row_of, g.col_of)
    )
    cycles = ", ".join(
        [
            f'{{"nodes": [[{"], [".join(map(pos.__getitem__, c))}]], '
            f'"label": "{_CIRCUIT_ROLE_ORDER * (len(c) // 4)}"}}'
            for c in circs
        ]
    )
    return (
        f'{{"rows": {g.picture.rows}, "cols": {g.picture.cols}, "nodes": [{nodes}], '
        f'"row_edges": [{row}], "col_edges": [{col}], "circuits": [{cycles}]}}'
    )
