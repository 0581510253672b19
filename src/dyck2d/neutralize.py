"""Neutralization rewriting: DN membership and the precedence relation."""

from __future__ import annotations

import graphlib
import heapq
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import NamedTuple

from .crossword import _NEUTRAL, Circuit, Pos, _sweep, picture_circuits
from .errors import InvalidArgument, NotQuaternate
from .grid import Picture


class Redex(NamedTuple):
    """A 1-based inclusive box whose corners a b c d carry index; all else in it is N."""

    top: int
    left: int
    bottom: int
    right: int
    index: int


@dataclass(frozen=True, slots=True)
class Decision:
    member: bool
    trace: tuple[Redex, ...]

    def trace_json(self) -> str:
        """The trace as a JSON list of {"domain", "index", "step_number"} objects.

        The domain is [top, left, bottom, right] and steps count from 1.  The
        text is json.dumps' with its default separators, written by joins:
        every value is an int, so nothing needs escaping.
        """
        steps = ", ".join(
            [
                f'{{"domain": [{top}, {left}, {bottom}, {right}], '
                f'"index": {index}, "step_number": {n}}}'
                for n, (top, left, bottom, right, index) in enumerate(self.trace, start=1)
            ]
        )
        return f"[{steps}]"


# Kahn's (left, top, right, bottom, index, id) rectangle, read in Redex's field order
_BOX = itemgetter(1, 0, 3, 2, 4)


def _kahn(cols: int, rects: list, owner: list) -> list:
    """Kahn's order over the rectangles, popping the least (left, top, right, bottom).

    A rectangle waits for the owners of the cells in its box, other than
    itself, read a box row at a time as slices of owner (a 2x2 box holds
    only its own corners).  The owner of a neutral cell (_NEUTRAL) is
    discarded with the rectangle's own id.  A non-neutral cell that is no
    rectangle's corner contributes None: it never turns neutral, so a
    rectangle that waits for it is never ready and is nobody's dependent.
    A cell turns neutral only as a corner of its own rectangle and applying
    a redex disables no other, so the ready set is the set of redexes of
    the rewritten picture at every step and the heap pops its least.
    """
    waits, dependents = [], [[] for _ in rects]
    for left, top, right, bottom, _, rid in rects:
        deps, width = set(), right - left + 1
        if width > 2 or bottom - top > 1:
            for x in range((top - 1) * cols + left - 1, bottom * cols, cols):
                deps.update(owner[x : x + width])
        deps.discard(rid)
        deps.discard(_NEUTRAL)
        waits.append(len(deps))
        if None not in deps:
            for o in deps:
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


def in_DN(p: Picture, strategy: str = "greedy") -> Decision:
    """Decide neutralizability.

    greedy applies the first redex in (left, top, right, bottom) order until
    fixpoint, in one pass: Kahn's order over the rectangles of the row and
    column matchings.  exhaustive runs no search: it is the greedy verdict,
    with the greedy trace on DN and an empty trace off it.  That is what a
    search over every redex order would give: two redexes never share a
    corner and a redex stays one until it is applied, so every maximal order
    applies the same rectangles, and one order neutralizes p iff all do.
    Each step is a Redex named tuple read off Kahn's rectangle by _BOX, and
    exhaustive builds none off DN.
    """
    if strategy not in ("greedy", "exhaustive"):
        raise InvalidArgument(f"unknown strategy {strategy!r}")
    rects, owner = _sweep(p, rectangles=True)[2:]  # the partner lists are freed here
    order = _kahn(p.cols, rects, owner)
    member = 4 * len(order) + owner.count(_NEUTRAL) == len(p.cells)
    trace = tuple(starmap(Redex, map(_BOX, order))) if member or strategy == "greedy" else ()
    return Decision(member, trace)


@dataclass(frozen=True, slots=True)
class PrecedenceGraph:
    """Rectangles of a quaternate picture with neutralization-priority edges."""

    rectangles: tuple[Circuit, ...]
    priority_edges: frozenset[tuple[Pos, Pos]]

    def precedence(self) -> frozenset[tuple[Pos, Pos]]:
        """Transitive closure of the priority relation, by one walk from each rectangle."""
        succ: dict[Pos, list[Pos]] = {r.northwest: [] for r in self.rectangles}
        for a, b in self.priority_edges:
            succ[a].append(b)
        closed = set()
        for a, out in succ.items():
            seen, stack = set(), list(out)
            while stack:
                if (b := stack.pop()) not in seen:
                    seen.add(b)
                    stack += succ[b]
            closed.update((a, b) for b in seen)
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


def priority_graph(p: Picture) -> PrecedenceGraph:
    """The precedence graph of p; NotInDC off crosswords, NotQuaternate off DQ.

    Rectangle alpha has priority over beta (edge alpha -> beta, alpha must be
    neutralized first) when 1, 2 or 4 of alpha's corners lie inside beta's
    bounding box or on its sides, that is when any does: three corners span
    both rows and both columns of alpha, so a count of 3 puts the fourth in.
    """
    rects = tuple(picture_circuits(p))
    if any(r.length != 4 for r in rects):
        raise NotQuaternate("precedence is defined for quaternate pictures")
    edges = set()
    for alpha in rects:
        for beta in rects:
            if alpha is beta:
                continue
            # each circuit reads a b d c from its a, so its box spans its a to its d
            (top, left), _, (bottom, right), _ = beta.nodes
            if any(top <= i <= bottom and left <= j <= right for i, j in alpha.nodes):
                edges.add((alpha.northwest, beta.northwest))
    return PrecedenceGraph(rects, frozenset(edges))


def in_DN_quaternate(p: Picture) -> bool:
    """Neutralizable iff the precedence relation is acyclic."""
    return priority_graph(p).is_acyclic()
