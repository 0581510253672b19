import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dyck2d import neutralize
from dyck2d.errors import NotInDC, NotQuaternate
from dyck2d.grid import (
    BULLET_SYM,
    N,
    Picture,
    hcat,
    parse_picture,
    render_picture,
    sym,
    vcat,
)
from dyck2d.lab import enumerate_dc
from dyck2d.neutralize import (
    Redex,
    in_DN,
    in_DN_quaternate,
    priority_graph,
)
from dyck2d.wellnest import in_DW

from certificates import ordered_redexes, replay_dn_trace
from oracles import _rewrite, oracle_greedy_trace, oracle_in_dn

SMALL_DC = [
    p
    for rows, cols in ((2, 2), (2, 4), (4, 2), (2, 6), (4, 4))
    for p in enumerate_dc(rows, cols)
]
K2_DC = [
    p
    for rows, cols in ((2, 2), (2, 4), (4, 2), (4, 4))
    for p in enumerate_dc(rows, cols, k=2)
]


def perturbed(pictures, rng):
    """Pictures with some neutral area: one random rewrite step applied."""
    out = []
    for p in pictures:
        redexes = ordered_redexes(p)
        if redexes:
            out.append(_rewrite(p, rng.choice(redexes)))
    return out


def with_cell(p, rng, choices):
    """p with one random cell replaced by a random symbol from choices."""
    cells = list(p.cells)
    cells[rng.randrange(len(cells))] = rng.choice(choices)
    return Picture(p.rows, p.cols, p.k, tuple(cells))


def rescan_pool(fx):
    """Crosswords, rewritten ones, fixtures, and N, bullet and corner mutations."""
    rng = random.Random(5)
    corners = [sym(role, i) for role in "abcd" for i in (1, 2)]
    pool = SMALL_DC + perturbed(SMALL_DC, rng) + K2_DC + list(fx.values())
    pool += [with_cell(p, rng, [N, BULLET_SYM]) for p in SMALL_DC + K2_DC]
    # one changed corner breaks a row and a column: never a crossword
    pool += [
        with_cell(p, rng, [s for s in corners if s.index <= p.k])
        for p in SMALL_DC + K2_DC
        if p.rows == p.cols == 4
    ]
    return pool


class TestInDN:
    def test_minimal(self):
        d = in_DN(parse_picture("ab\ncd"))
        assert d.member and len(d.trace) == 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            in_DN(parse_picture("ab\ncd"), strategy="eager")

    def test_worked_example_trace(self, fx):
        d = in_DN(fx["example1"])
        assert d.member
        assert [(r.top, r.left, r.bottom, r.right) for r in d.trace] == [
            (2, 2, 3, 3),
            (1, 2, 4, 3),
            (1, 4, 2, 5),
            (3, 4, 4, 5),
            (2, 1, 3, 6),
            (1, 1, 4, 6),
        ]

    def test_trace_json(self, fx):
        d = in_DN(fx["example1"])
        steps = json.loads(d.trace_json())
        assert [s["step_number"] for s in steps] == [1, 2, 3, 4, 5, 6]
        assert steps[0] == {"domain": [2, 2, 3, 3], "index": 1, "step_number": 1}

    def test_trace_json_is_json_dumps_text(self, fx):
        # 3-digit positions over thousands of steps, 4-digit columns, and a 7-digit index
        from test_wellnest import deep_nest

        strip = parse_picture("ab" * 1000 + "\n" + "cd" * 1000)
        huge = parse_picture("a999999 b999999\nc999999 d999999", k=10**6)
        for p in [*rescan_pool(fx), deep_nest(60), strip, huge]:
            for strategy in ("greedy", "exhaustive"):
                d = in_DN(p, strategy)
                steps = [
                    {"domain": [r.top, r.left, r.bottom, r.right], "index": r.index, "step_number": n}
                    for n, r in enumerate(d.trace, start=1)
                ]
                assert d.trace_json() == json.dumps(steps), render_picture(p)

    def test_records_only_the_returned_trace(self, fx, monkeypatch):
        # fig5_left's greedy pass applies 8 rectangles before it sticks
        calls = []
        new = Redex.__new__
        monkeypatch.setattr(Redex, "__new__", lambda cls, *a: calls.append(a) or new(cls, *a))
        assert in_DN(fx["fig5_left"], "exhaustive") == neutralize.Decision(False, ())
        assert not calls, f"{len(calls)} Redexes built"
        assert len(in_DN(fx["fig5_left"]).trace) == len(calls) == 8

    def test_well_nested_is_neutralizable(self, fx):
        # the paper's DW ⊆ DN, which classify relies on and no longer checks
        from test_wellnest import deep_nest

        pool = SMALL_DC + K2_DC + list(fx.values()) + [deep_nest(d) for d in range(1, 31)]
        pool += enumerate_dc(6, 6)
        well_nested = [p for p in pool if in_DW(p)]
        assert len(well_nested) >= 100
        for p in well_nested:
            assert in_DN(p).member, render_picture(p)

    def test_fixture_memberships(self, fx):
        assert in_DN(fx["fig1_left"]).member
        assert in_DN(fx["fig2"]).member
        assert in_DN(fx["p_N"]).member
        assert not in_DN(fx["fig5_left"]).member
        assert not in_DN(fx["fig5_right"]).member
        assert not in_DN(fx["fig3_left"]).member

    def test_greedy_equals_exhaustive(self):
        rng = random.Random(7)
        for p in SMALL_DC + perturbed(SMALL_DC, rng):
            assert in_DN(p, "greedy").member == in_DN(p, "exhaustive").member
            assert in_DN(p).member == oracle_in_dn(p)

    def test_matches_blind_search_oracle(self):
        rng = random.Random(11)
        sample = [p for p in SMALL_DC if p.rows * p.cols <= 16]
        for p in sample + perturbed(sample, rng):
            assert in_DN(p).member == oracle_in_dn(p)

    def test_matches_greedy_rescan_oracle(self, fx):
        for p in rescan_pool(fx):
            d = in_DN(p)
            steps = [((r.top, r.left, r.bottom, r.right), r.index) for r in d.trace]
            assert (steps, d.member) == oracle_greedy_trace(p), render_picture(p)

    def test_exhaustive_matches_rescan_oracle(self, fx):
        for p in rescan_pool(fx):
            steps, member = oracle_greedy_trace(p)
            d = in_DN(p, "exhaustive")
            expected = (steps, True) if member else ([], False)
            actual = [((r.top, r.left, r.bottom, r.right), r.index) for r in d.trace], d.member
            assert actual == expected, render_picture(p)

    def test_scale(self, fx):
        tiled = vcat(*[hcat(*[fx["fig2"]] * 6)] * 6)
        strip = hcat(*[parse_picture("ab\ncd")] * 1200)
        start = time.perf_counter()
        big, long = in_DN(tiled), in_DN(strip)
        assert time.perf_counter() - start < 2.0
        assert big.member and len(big.trace) == 144
        assert long.member
        assert [(r.top, r.left, r.bottom, r.right) for r in long.trace] == [
            (1, j, 2, j + 1) for j in range(1, 2400, 2)
        ]

    def test_exhaustive_scale(self):
        strip = parse_picture("ab" * 1200 + "\n" + "cd" * 1200)
        start = time.perf_counter()
        d = in_DN(strip, "exhaustive")
        assert time.perf_counter() - start < 1.0
        assert d.member and d.trace == in_DN(strip).trace

    def test_exhaustive_needs_no_recursion(self):
        # the 2x80 strip takes 40 steps; the limit is below that
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys\n"
            "from dyck2d.grid import hcat, parse_picture\n"
            "from dyck2d.neutralize import in_DN\n"
            "strip = hcat(*[parse_picture('ab\\ncd')] * 40)\n"
            "sys.setrecursionlimit(30)\n"
            "d = in_DN(strip, 'exhaustive')\n"
            "assert d.member and d.trace == in_DN(strip).trace, d\n"
            "print(len(d.trace))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["40"]

    def test_trace_replays(self, fx):
        # each step is a redex of the picture before it, and the last leaves all N iff p is in DN
        for p in rescan_pool(fx) + list(fx.values()):
            d = in_DN(p)
            last = [p, *replay_dn_trace(p, d.trace)][-1]
            assert all(s.is_neutral for s in last.cells) == d.member, render_picture(p)


class TestRedex:
    def test_public_face(self):
        r = Redex(1, 1, 2, 2, 1)
        assert r == Redex(top=1, left=1, bottom=2, right=2, index=1)
        assert Redex._fields == ("top", "left", "bottom", "right", "index")
        assert (r.top, r.left, r.bottom, r.right, r.index) == (1, 1, 2, 2, 1)
        assert repr(r) == "Redex(top=1, left=1, bottom=2, right=2, index=1)"
        assert hash(r) == hash(Redex(1, 1, 2, 2, 1)) and len({r, Redex(1, 1, 2, 2, 1)}) == 1
        assert r != Redex(1, 1, 2, 2, 2)
        assert r == (1, 1, 2, 2, 1)  # a named tuple equals the plain tuple of its fields
        with pytest.raises(AttributeError):
            r.top = 2


class TestReplayDNTrace:
    @pytest.mark.parametrize(
        "corrupt, step",
        [
            (lambda t: t[1:], 1),
            (lambda t: t[:1] + t, 2),
            (lambda t: [t[0]._replace(left=t[0].left + 1, right=t[0].right + 1), *t[1:]], 1),
            (lambda t: [t[0]._replace(index=2), *t[1:]], 1),
            (lambda t: [*t[:-1], t[-1]._replace(bottom=t[-1].bottom + 1)], 6),
        ],
        ids=["dropped", "repeated", "shifted", "wrong-index", "past-edge"],
    )
    def test_rejects(self, fx, corrupt, step):
        # a corrupted greedy trace of the worked 4x6 reduction fails at its first bad step
        trace = list(in_DN(fx["example1"]).trace)
        assert len(replay_dn_trace(fx["example1"], trace)) == 6
        with pytest.raises(AssertionError, match=f"^step {step}: "):
            replay_dn_trace(fx["example1"], corrupt(trace))


class TestPrecedence:
    def test_requires_quaternate(self, fx):
        with pytest.raises(NotQuaternate):
            priority_graph(fx["fig3_left"])

    def test_requires_crossword(self):
        with pytest.raises(NotInDC):
            priority_graph(parse_picture("ab\nab"))

    def test_nested_pair_is_acyclic(self, fx):
        g = priority_graph(fx["fig1_left"])
        assert g.is_acyclic()
        # the inner rectangle must precede the outer frame
        assert ((2, 2), (1, 1)) in g.priority_edges

    def test_two_cycle(self, fx):
        g = priority_graph(fx["fig5_left"])
        assert ((1, 1), (3, 3)) in g.priority_edges
        assert ((3, 3), (1, 1)) in g.priority_edges
        assert not g.is_acyclic()

    def test_four_cycle(self, fx):
        g = priority_graph(fx["fig5_right"])
        cycle = [(1, 2), (4, 1), (3, 4), (2, 3), (1, 2)]
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in g.priority_edges

    def test_precedence_is_transitive(self, fx):
        # precedence() is exactly the pairs joined by a path of priority edges, by
        # Warshall's algorithm; fig5_right's priority edges are not transitive themselves
        from dyck2d.crossword import is_quaternate
        from test_wellnest import deep_nest

        tiled = vcat(*[hcat(*[fx["fig5_right"]] * 3)] * 3)
        pool = [fx[name] for name in ("fig1_left", "fig5_left", "fig5_right")] + [tiled, deep_nest(10)]
        pool += [p for p in enumerate_dc(4, 4) if is_quaternate(p)]
        for p in pool:
            g = priority_graph(p)
            nodes, paths = [r.northwest for r in g.rectangles], set(g.priority_edges)
            for via in nodes:
                for a in nodes:
                    if (a, via) in paths:
                        paths.update((a, b) for b in nodes if (via, b) in paths)
            assert g.precedence() == paths, render_picture(p)

    def test_acyclicity_decides_dn_for_quaternate(self, fx):
        from dyck2d.crossword import is_quaternate
        from dyck2d.lab import classify

        pool = SMALL_DC + K2_DC
        names = ("fig1_left", "fig2", "fig3_left", "fig5_left", "fig5_right", "p_N")
        pool += [fx[n] for n in names]
        for p in pool:
            member = in_DN(p).member
            assert classify(p).in_dn == member, render_picture(p)
            if is_quaternate(p):
                assert in_DN_quaternate(p) == member, render_picture(p)
