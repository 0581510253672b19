"""Dyck crosswords: membership, matching graphs, circuits, quaternate test."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dyck1d import Pairing, is_dyck, match_positions
from .errors import ContainsNeutral, DegreeViolation, NotDyck, NotInDC
from .grid import Picture, Symbol

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


def in_DC(p: Picture) -> bool:
    """Whether every row is a row-Dyck word and every column a column-Dyck word."""
    if p.is_empty:
        return False
    _require_corners(p)
    row_pr, col_pr = Pairing("Row", p.k), Pairing("Col", p.k)
    return all(is_dyck(p.row_word(i), row_pr) for i in range(1, p.rows + 1)) and all(
        is_dyck(p.col_word(j), col_pr) for j in range(1, p.cols + 1)
    )


def matching_graph(p: Picture) -> MatchingGraph:
    if p.is_empty:
        raise NotInDC("matching graph needs a crossword picture")
    _require_corners(p)
    row_pr, col_pr = Pairing("Row", p.k), Pairing("Col", p.k)
    row_edges, col_edges = set(), set()
    try:
        for i in range(1, p.rows + 1):
            for jo, jc in match_positions(p.row_word(i), row_pr):
                row_edges.add(((i, jo), (i, jc)))
        for j in range(1, p.cols + 1):
            for io, ic in match_positions(p.col_word(j), col_pr):
                col_edges.add(((io, j), (ic, j)))
    except NotDyck:
        raise NotInDC("matching graph needs a crossword picture") from None
    return MatchingGraph(p.rows, p.cols, frozenset(row_edges), frozenset(col_edges), p)


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
