"""Neutralization rewriting: DN membership and the precedence relation."""

from __future__ import annotations

import graphlib
import heapq
import json
from dataclasses import dataclass

from .crossword import Circuit, _matching, picture_circuits
from .errors import NotQuaternate, StaleRedex, ThreeCornerAnomaly
from .grid import NEUTRAL, Domain, N, Picture, sym

Pos = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Redex:
    """A rectangle with corner quadruple i and all-neutral interior."""

    domain: Domain
    index: int


@dataclass(frozen=True, slots=True)
class Decision:
    member: bool
    trace: tuple[Redex, ...]

    def trace_json(self) -> str:
        return json.dumps(
            [
                {"domain": list(r.domain.as_tuple()), "index": r.index, "step_number": n}
                for n, r in enumerate(self.trace, start=1)
            ]
        )


def _matches_redex(p: Picture, d: Domain, index: int) -> bool:
    if d.bottom > p.rows or d.right > p.cols or d.rows < 2 or d.cols < 2:
        return False
    corners = {
        (d.top, d.left): "a",
        (d.top, d.right): "b",
        (d.bottom, d.left): "c",
        (d.bottom, d.right): "d",
    }
    for (i, j), role in corners.items():
        if p.cell(i, j) != sym(role, index):
            return False
    for i in range(d.top, d.bottom + 1):
        for j in range(d.left, d.right + 1):
            if (i, j) not in corners and not p.cell(i, j).is_neutral:
                return False
    return True


def find_redexes(p: Picture) -> list[Redex]:
    """All rewritable rectangles, sorted by (left, top, right, bottom).

    Column-major order matches the sequence of the worked 4x6 reduction:
    its first step is the inner rectangle at (2,2), not the one at (1,4).
    """
    out = []
    for top in range(1, p.rows):
        for left in range(1, p.cols):
            nw = p.cell(top, left)
            if nw.role != "a":
                continue
            for bottom in range(top + 1, p.rows + 1):
                if p.cell(bottom, left).role == "c" and p.cell(bottom, left).index == nw.index:
                    for right in range(left + 1, p.cols + 1):
                        d = Domain(top, left, bottom, right)
                        if _matches_redex(p, d, nw.index):
                            out.append(Redex(d, nw.index))
    out.sort(key=lambda r: (r.domain.left, r.domain.top, r.domain.right, r.domain.bottom))
    return out


def apply_step(p: Picture, r: Redex) -> Picture:
    """Overwrite the redex rectangle with neutral cells."""
    if not _matches_redex(p, r.domain, r.index):
        raise StaleRedex(f"{r.domain.as_tuple()} no longer matches")
    cells = list(p.cells)
    for i in range(r.domain.top, r.domain.bottom + 1):
        for j in range(r.domain.left, r.domain.right + 1):
            cells[(i - 1) * p.cols + (j - 1)] = N
    return Picture(p.rows, p.cols, p.k, tuple(cells))


def _rectangles(p: Picture, row: dict[int, int], col: dict[int, int]) -> tuple[list, dict]:
    """The 4-cycles a -> b -> d -> c of the row and column matchings.

    Each is a (left, top, right, bottom, index, id) tuple, 1-based, with id its
    place in the list; the dict maps each corner's flat position to that id.
    """
    cells, cols = p.cells, p.cols
    rects, owner = [], {}
    for a, b in row.items():
        d = col.get(b)
        if cells[a].role == "a" and d is not None and row.get(col.get(a)) == d:
            (top, left), (bottom, right) = divmod(a, cols), divmod(d, cols)
            for x in (a, b, col[a], d):
                owner[x] = len(rects)
            rects.append((left + 1, top + 1, right + 1, bottom + 1, cells[a].index, len(rects)))
    return rects, owner


def _kahn(p: Picture, rects: list, owner: dict) -> list:
    """Kahn's order over the rectangles, popping the least (left, top, right, bottom).

    A rectangle waits for the owners of the non-neutral non-corner cells in
    its box (forever for a cell that has none).  A cell turns neutral only as
    a corner of its own rectangle and applying a redex disables no other, so
    the ready set is find_redexes at every step and the heap pops its first.
    """
    cells, cols = p.cells, p.cols
    waits, dependents = [], [[] for _ in rects]
    for left, top, right, bottom, _, rid in rects:
        deps = {
            owner.get(x)
            for i in range(top - 1, bottom)
            for x in range(i * cols + left - 1, i * cols + right)
            if cells[x].role != NEUTRAL
        } - {rid}
        waits.append(len(deps))
        for o in deps - {None}:
            dependents[o].append(rid)
    ready = [r for r in rects if not waits[r[-1]]]
    heapq.heapify(ready)
    order = []
    while ready:
        rect = heapq.heappop(ready)
        order.append(rect)
        for r in dependents[rect[-1]]:
            waits[r] -= 1
            if not waits[r]:
                heapq.heappush(ready, rects[r])
    return order


def _greedy(p: Picture) -> Decision:
    """Kahn's order over the rectangles of the row and column matchings."""
    order = _kahn(p, *_rectangles(p, *_matching(p)))
    trace = tuple(
        Redex(Domain(top, left, bottom, right), index)
        for left, top, right, bottom, index, _ in order
    )
    member = 4 * len(trace) == sum(s.role != NEUTRAL for s in p.cells)
    return Decision(member, trace)


def _exhaustive(p: Picture) -> Decision:
    """Depth-first search over every redex order, on an explicit stack.

    Each stack entry is a picture and its untried redexes; the trace is the
    redex applied at each entry but the last.  A picture all of whose
    redexes failed is dead and is never searched again.
    """
    dead: set[tuple] = set()
    trace: list[Redex] = []
    stack: list = []
    q = p
    while True:
        if all(s.is_neutral for s in q.cells):
            return Decision(True, tuple(trace))
        if q.cells not in dead:
            stack.append((q, iter(find_redexes(q))))
        else:
            trace.pop()
        while stack:
            top, untried = stack[-1]
            r = next(untried, None)
            if r is not None:
                break
            dead.add(top.cells)
            stack.pop()
            if stack:
                trace.pop()
        else:
            return Decision(False, ())
        trace.append(r)
        q = apply_step(top, r)


def in_DN(p: Picture, strategy: str = "greedy") -> Decision:
    """Decide neutralizability.

    greedy applies the first redex in (left, top, right, bottom) order until
    fixpoint, in one pass: Kahn's order over the rectangles of the row and
    column matchings.  Cells turn neutral only as corners of their own
    rectangle and a redex stays one until applied, so the ready rectangles are
    exactly the redexes at every step.  exhaustive backtracks over all redex
    orders with memoization on dead states and serves as the completeness
    oracle.  The paper-claimed order independence (the two always agree) is
    exercised by the test suite rather than re-checked on every call.
    """
    if strategy == "greedy":
        return _greedy(p)
    if strategy == "exhaustive":
        return _exhaustive(p)
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True, slots=True)
class PrecedenceGraph:
    """Rectangles of a quaternate picture with neutralization-priority edges."""

    rectangles: tuple[Circuit, ...]
    priority_edges: frozenset[tuple[Pos, Pos]]

    def precedence(self) -> frozenset[tuple[Pos, Pos]]:
        """Transitive closure of the priority relation."""
        succ: dict[Pos, set[Pos]] = {r.northwest: set() for r in self.rectangles}
        for a, b in self.priority_edges:
            succ[a].add(b)
        closed = set(self.priority_edges)
        changed = True
        while changed:
            changed = False
            for a, b in list(closed):
                for c in succ[b]:
                    if (a, c) not in closed:
                        closed.add((a, c))
                        succ[a].add(c)
                        changed = True
        return frozenset(closed)

    def is_acyclic(self) -> bool:
        graph: dict[Pos, set[Pos]] = {r.northwest: set() for r in self.rectangles}
        for a, b in self.priority_edges:
            graph[b].add(a)
        try:
            list(graphlib.TopologicalSorter(graph).static_order())
            return True
        except graphlib.CycleError:
            return False

    def to_dot(self) -> str:
        lines = ["digraph precedence {"]
        for r in self.rectangles:
            i, j = r.northwest
            lines.append(f'  "{i},{j}";')
        for (a, b) in sorted(self.priority_edges):
            lines.append(f'  "{a[0]},{a[1]}" -> "{b[0]},{b[1]}";')
        lines.append("}")
        return "\n".join(lines)


def _bounding_box(r: Circuit) -> tuple[int, int, int, int]:
    rows = [i for i, _ in r.nodes]
    cols = [j for _, j in r.nodes]
    return min(rows), min(cols), max(rows), max(cols)


def priority_graph(p: Picture) -> PrecedenceGraph:
    """The precedence graph of p; NotInDC off crosswords, NotQuaternate off DQ.

    Rectangle alpha has priority over beta (edge alpha -> beta, alpha must be
    neutralized first) when 1, 2 or 4 of alpha's corners lie inside beta's
    bounding box or on its sides; a count of 3 is impossible and asserted.
    """
    rects = tuple(picture_circuits(p))
    if any(r.length != 4 for r in rects):
        raise NotQuaternate("precedence is defined for quaternate pictures")
    edges = set()
    boxes = {r.northwest: _bounding_box(r) for r in rects}
    for alpha in rects:
        for beta in rects:
            if alpha is beta:
                continue
            top, left, bottom, right = boxes[beta.northwest]
            inside = sum(top <= i <= bottom and left <= j <= right for i, j in alpha.nodes)
            if inside == 3:
                raise ThreeCornerAnomaly(
                    f"{alpha.northwest} has 3 corners inside {beta.northwest}"
                )
            if inside in (1, 2, 4):
                edges.add((alpha.northwest, beta.northwest))
    return PrecedenceGraph(rects, frozenset(edges))


def in_DN_quaternate(p: Picture) -> bool:
    """Neutralizable iff the precedence relation is acyclic."""
    return priority_graph(p).is_acyclic()
