"""Dyck crosswords: membership, matching graphs, circuits, quaternate test."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dyck1d import _COL_CLOSE, _ROW_CLOSE
from .errors import ContainsNeutral, DegreeViolation, NotInDC
from .grid import NEUTRAL, Picture, Symbol

Pos = tuple[int, int]
Edge = tuple[Pos, Pos]

_CIRCUIT_ROLE_ORDER = "abdc"

_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
)


@dataclass(frozen=True, slots=True)
class MatchingGraph:
    """Row and column match edges laid on the picture grid."""

    rows: int
    cols: int
    row_edges: frozenset[Edge]
    col_edges: frozenset[Edge]
    picture: Picture

    def label(self, pos: Pos) -> Symbol:
        return self.picture.cell(*pos)


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


def _require_corners(p: Picture) -> None:
    if any(not s.is_corner for s in p.cells):
        raise ContainsNeutral("crossword membership is defined over corner symbols")


def _stack_match(cells: tuple, lines, close: dict[str, str]) -> dict[int, int]:
    """Opener -> closer flat positions by one stack per line.

    Neutral cells are skipped; an unmatched closer or a bullet can never be
    cancelled, so it clears the stack.
    """
    partner = {}
    for line in lines:
        stack = []
        for x in line:
            s = cells[x]
            if s.role in close:
                stack.append(x)
            elif s.role != NEUTRAL:
                top = cells[stack[-1]] if stack else None
                if top and close[top.role] == s.role and top.index == s.index:
                    partner[stack.pop()] = x
                else:
                    stack.clear()
    return partner


def _matching(p: Picture) -> tuple[dict[int, int], dict[int, int]]:
    """The row and the column matching of p, opener -> closer over flat positions.

    A cell (i, j), 0-based, sits at i * p.cols + j.  Neutral and bullet cells
    are never matched, so p is a crossword exactly when every cell is matched
    in its row and in its column.
    """
    cells, rows, cols = p.cells, p.rows, p.cols
    row_lines = [range(i * cols, (i + 1) * cols) for i in range(rows)]
    col_lines = [range(j, rows * cols, cols) for j in range(cols)]
    return _stack_match(cells, row_lines, _ROW_CLOSE), _stack_match(cells, col_lines, _COL_CLOSE)


def _crossword_matching(p: Picture) -> tuple[dict[int, int], dict[int, int]] | None:
    """The matching of a crossword; None for the empty picture and for a non-crossword.

    Raises ContainsNeutral on a non-empty picture with a neutral or bullet cell.
    """
    if p.is_empty:
        return None
    _require_corners(p)
    row, col = _matching(p)
    return (row, col) if 2 * len(row) == 2 * len(col) == len(p.cells) else None


def in_DC(p: Picture) -> bool:
    """Whether every row is a row-Dyck word and every column a column-Dyck word."""
    return _crossword_matching(p) is not None


def matching_graph(p: Picture) -> MatchingGraph:
    match = _crossword_matching(p)
    if match is None:
        raise NotInDC("matching graph needs a crossword picture")

    def pos(x: int) -> Pos:
        return (x // p.cols + 1, x % p.cols + 1)

    row_edges, col_edges = (frozenset((pos(x), pos(y)) for x, y in m.items()) for m in match)
    return MatchingGraph(p.rows, p.cols, row_edges, col_edges, p)


def _partner_maps(g: MatchingGraph) -> tuple[dict[Pos, Pos], dict[Pos, Pos]]:
    row_of: dict[Pos, Pos] = {}
    col_of: dict[Pos, Pos] = {}
    for edges, partner, kind in ((g.row_edges, row_of, "row"), (g.col_edges, col_of, "column")):
        for u, v in edges:
            for x, y in ((u, v), (v, u)):
                if x in partner:
                    raise DegreeViolation(f"two {kind} edges at {x}")
                partner[x] = y
    nodes = {(i, j) for i in range(1, g.rows + 1) for j in range(1, g.cols + 1)}
    if set(row_of) != nodes or set(col_of) != nodes:
        raise DegreeViolation("node without both a row and a column edge")
    return row_of, col_of


def circuits(g: MatchingGraph) -> list[Circuit]:
    """Partition of the grid into simple circuits.

    Each circuit starts at its lexicographically smallest a-labeled node and
    follows the row edge first, so labels always read (a b d c)^+.
    """
    row_of, col_of = _partner_maps(g)
    seen: set[Pos] = set()
    out: list[Circuit] = []
    for i in range(1, g.rows + 1):
        for j in range(1, g.cols + 1):
            start = (i, j)
            if start in seen or g.label(start).role != "a":
                continue
            nodes = []
            pos, use_row = start, True
            while True:
                nodes.append(pos)
                seen.add(pos)
                pos = (row_of if use_row else col_of)[pos]
                use_row = not use_row
                if pos == start:
                    break
                if pos in seen:
                    raise DegreeViolation(f"circuit through {pos} is not simple")
            labels = tuple(g.label(n) for n in nodes)
            if len(nodes) % 4:
                raise DegreeViolation(f"circuit length {len(nodes)} not divisible by 4")
            index = labels[0].index
            expected = [_CIRCUIT_ROLE_ORDER[t % 4] for t in range(len(nodes))]
            if [s.role for s in labels] != expected or any(s.index != index for s in labels):
                raise DegreeViolation(f"circuit labels {labels} violate the (abdc)+ law")
            out.append(Circuit(tuple(nodes), labels))
    if len(seen) != g.rows * g.cols:
        raise DegreeViolation("some node lies on no circuit")
    out.sort(key=lambda c: c.northwest)
    return out


def picture_circuits(p: Picture) -> list[Circuit]:
    return circuits(matching_graph(p))


def is_quaternate(p: Picture) -> bool:
    """Whether all matching-graph circuits have length 4; NotInDC off crosswords."""
    return all(c.length == 4 for c in picture_circuits(p))


def graph_to_dot(g: MatchingGraph) -> str:
    """DOT export: row edges solid, column edges dashed, one color per circuit."""
    circs = circuits(g)
    color_of_node: dict[Pos, str] = {}
    for n, c in enumerate(circs):
        for pos in c.nodes:
            color_of_node[pos] = _PALETTE[n % len(_PALETTE)]
    lines = ["graph matching {", "  node [shape=circle];"]
    for i in range(1, g.rows + 1):
        for j in range(1, g.cols + 1):
            label = g.label((i, j)).text(g.picture.k)
            lines.append(
                f'  "{i},{j}" [label="{label}", color="{color_of_node[(i, j)]}"];'
            )
    for (u, v) in sorted(g.row_edges):
        lines.append(
            f'  "{u[0]},{u[1]}" -- "{v[0]},{v[1]}"'
            f' [style=solid, color="{color_of_node[u]}"];'
        )
    for (u, v) in sorted(g.col_edges):
        lines.append(
            f'  "{u[0]},{u[1]}" -- "{v[0]},{v[1]}"'
            f' [style=dashed, color="{color_of_node[u]}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(g: MatchingGraph) -> str:
    circs = circuits(g)
    obj = {
        "rows": g.rows,
        "cols": g.cols,
        "nodes": [
            [i, j, g.label((i, j)).text(g.picture.k)]
            for i in range(1, g.rows + 1)
            for j in range(1, g.cols + 1)
        ],
        "row_edges": sorted([list(u), list(v)] for u, v in g.row_edges),
        "col_edges": sorted([list(u), list(v)] for u, v in g.col_edges),
        "circuits": [
            {"nodes": [list(n) for n in c.nodes], "label": c.label_text}
            for c in circs
        ],
    }
    return json.dumps(obj)
