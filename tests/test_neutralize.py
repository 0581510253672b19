import json
import os
import random
import re
from itertools import combinations_with_replacement
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dyck2d import neutralize
from dyck2d.errors import InvalidArgument, NotInDC, NotQuaternate, StaleRedex
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
    apply_step,
    find_redexes,
    in_DN,
    in_DN_quaternate,
    priority_graph,
)

from oracles import _redexes, _rewrite, oracle_greedy_trace, oracle_in_dn

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
        redexes = find_redexes(p)
        if redexes:
            out.append(apply_step(p, rng.choice(redexes)))
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


class TestRedex:
    def test_malformed_domain(self):
        for bounds in ((2, 1, 1, 1), (1, 2, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)):
            with pytest.raises(InvalidArgument, match=f"^malformed domain {re.escape(str(bounds))}$"):
                Redex(*bounds, 1)


class TestFindRedexes:
    def test_minimal_block(self):
        [r] = find_redexes(parse_picture("ab\ncd"))
        assert (r.top, r.left, r.bottom, r.right) == (1, 1, 2, 2) and r.index == 1

    def test_all_neutral(self):
        assert find_redexes(parse_picture("NN\nNN")) == []

    def test_interior_must_be_neutral(self):
        assert find_redexes(parse_picture("aNb\ncNd")) == [Redex(1, 1, 2, 3, 1)]
        assert find_redexes(parse_picture("aab\ncNd")) == []

    def test_worked_example_first_redex(self, fx):
        r = find_redexes(fx["example1"])[0]
        assert (r.top, r.left, r.bottom, r.right) == (2, 2, 3, 3)

    def test_column_major_order(self, fx):
        domains = [(r.top, r.left, r.bottom, r.right) for r in find_redexes(fx["example1"])]
        assert domains == [(2, 2, 3, 3), (1, 4, 2, 5), (3, 4, 4, 5)]

    def test_indices_must_agree(self):
        assert find_redexes(parse_picture("a1 b2\nc1 d2", k=2)) == []

    def test_matches_rescan_oracle(self, fx):
        for p in rescan_pool(fx):
            found = sorted(_redexes(p), key=lambda r: (r[1], r[0], r[3], r[2]))
            expected = [(r, p.cell(r[0], r[1]).index) for r in found]
            actual = [((r.top, r.left, r.bottom, r.right), r.index) for r in find_redexes(p)]
            assert actual == expected, render_picture(p)


class TestApplyStep:
    def test_rewrites_to_neutral(self):
        p = apply_step(parse_picture("ab\ncd"), Redex(1, 1, 2, 2, 1))
        assert render_picture(p) == "NN\nNN"

    def test_stale_redex(self):
        p = parse_picture("ab\ncd")
        r = Redex(1, 1, 2, 2, 1)
        q = apply_step(p, r)
        # already applied, wrong index, past the picture's edge
        for pic, stale in ((q, r), (p, Redex(1, 1, 2, 2, 2)), (p, Redex(1, 1, 2, 3, 1))):
            box = (stale.top, stale.left, stale.bottom, stale.right)
            with pytest.raises(StaleRedex, match=f"^{re.escape(str(box))} no longer matches$"):
                apply_step(pic, stale)

    def test_stale_exactly_off_the_rescan_oracle(self, fx):
        # every box of every fourth small picture, and one row and one column past its edge
        for p in [p for p in rescan_pool(fx) if len(p.cells) <= 16][::4]:
            applied = {}
            for top, bottom in combinations_with_replacement(range(1, p.rows + 2), 2):
                for left, right in combinations_with_replacement(range(1, p.cols + 2), 2):
                    for index in range(1, p.k + 2):
                        box = (top, left, bottom, right)
                        try:
                            applied[box, index] = apply_step(p, Redex(*box, index))
                        except StaleRedex:
                            pass
            fresh = {(box, p.cell(*box[:2]).index) for box in _redexes(p)}
            assert applied.keys() == fresh, render_picture(p)
            assert all(q == _rewrite(p, box) for (box, _), q in applied.items())

    def test_replay_reads_only_the_box(self, fx, monkeypatch):
        # each step is checked on its own box, so replaying a trace is linear in its boxes
        trace = in_DN(fx["example1"]).trace

        def rescan(p):
            raise AssertionError("apply_step rescanned the picture")

        monkeypatch.setattr(neutralize, "find_redexes", rescan)
        p = fx["example1"]
        for r in trace:
            p = apply_step(p, r)
        assert set(p.cells) == {N}
        with pytest.raises(StaleRedex):
            apply_step(p, trace[-1])


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
        for p in rescan_pool(fx):
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
        post_init = Redex.__post_init__
        monkeypatch.setattr(Redex, "__post_init__", lambda r: calls.append(r) or post_init(r))
        assert in_DN(fx["fig5_left"], "exhaustive") == neutralize.Decision(False, ())
        assert not calls, f"{len(calls)} Redexes built"
        assert len(in_DN(fx["fig5_left"]).trace) == len(calls) == 8

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
        for name in ("fig2", "example1", "fig1_left"):
            p = fx[name]
            d = in_DN(p)
            for r in d.trace:
                p = apply_step(p, r)
            assert all(s.is_neutral for s in p.cells)


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
