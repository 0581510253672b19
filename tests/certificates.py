"""Checkers for neutralization traces, built on the rescan oracle alone.

A greedy trace is the certificate of a DN verdict: a sequence of steps,
each a box (top, left, bottom, right) and an index that must be a redex of
the picture the steps before it leave.  These helpers read redexes with
oracles._redexes and apply them with oracles._rewrite; they call no decider
of the package.  A failed check raises AssertionError by a raise statement,
so python -O keeps it.
"""

from __future__ import annotations

from oracles import _redexes, _rewrite


def ordered_redexes(p) -> list[tuple[int, int, int, int]]:
    """The redex boxes of p, sorted by (left, top, right, bottom)."""
    return sorted(_redexes(p), key=lambda r: (r[1], r[0], r[3], r[2]))


def replay_dn_trace(p, trace) -> list:
    """The picture after each step of trace, applied in order from p.

    A step is anything with top, left, bottom, right and index.  Raises
    AssertionError at the first step whose box is not a redex of the picture
    in front of it, or whose index is not that redex's index.
    """
    pictures = []
    for n, step in enumerate(trace, start=1):
        box = (step.top, step.left, step.bottom, step.right)
        if box not in _redexes(p) or p.cell(step.top, step.left).index != step.index:
            raise AssertionError(f"step {n}: {box} with index {step.index} is not a redex")
        p = _rewrite(p, box)
        pictures.append(p)
    return pictures
