"""End-to-end acceptance checks.

Each test covers one numbered criterion; a PASS/FAIL line per criterion is
printed in the terminal summary (see conftest).  The criteria pin down the
published worked examples byte-for-byte and cross-check the deciders against
the independent oracles in oracles.py.
"""

import functools
import random
import time

from dyck2d.crossword import is_quaternate, matching_graph, picture_circuits
from dyck2d.dyck1d import Pairing, enumerate_dyck, word_text
from dyck2d.grid import hcat, parse_picture, render_picture, vcat
from dyck2d.lab import census, classify, double_noose, embed_row, enumerate_dc, fixtures
from dyck2d.neutralize import in_DN, in_DN_quaternate, priority_graph
from dyck2d.wellnest import in_DW

from certificates import ordered_redexes, replay_dn_trace
from oracles import (
    _rewrite,
    all_pictures,
    oracle_dw_set,
    oracle_in_dc,
    oracle_in_dn,
    oracle_is_quaternate,
)

RESULTS = {}

FX = fixtures()


def criterion(number, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                RESULTS[number] = ("FAIL", text)
                raise
            RESULTS[number] = ("PASS", text)

        return wrapper

    return deco


def small_dc(shapes):
    return [p for rows, cols in shapes for p in enumerate_dc(rows, cols)]


@criterion(1, "hierarchy witnesses classify exactly, under 1 s")
def test_criterion_1_hierarchy_witnesses():
    expected = {
        "fig1_left": (True, True, True, True),
        "p_N": (True, True, True, False),
        "fig2": (True, True, True, False),
        "fig5_left": (True, True, False, False),
        "fig5_right": (True, True, False, False),
        "fig3_left": (True, False, False, False),
        "fig3_right": (True, False, False, False),
    }
    start = time.perf_counter()
    for name, (dc, dq, dn, dw) in expected.items():
        flags = classify(FX[name])
        assert (flags.in_dc, flags.in_dq, flags.in_dn, flags.in_dw) == (
            dc,
            dq,
            dn,
            dw,
        ), name
    assert time.perf_counter() - start < 1.0


@criterion(2, "worked 4x6 reduction replayed byte-for-byte in 6 greedy steps")
def test_criterion_2_worked_reduction():
    stages = [
        "aababb\naNNcdb\ncNNabd\nccdcdd",
        "aNNabb\naNNcdb\ncNNabd\ncNNcdd",
        "aNNNNb\naNNNNb\ncNNabd\ncNNcdd",
        "aNNNNb\naNNNNb\ncNNNNd\ncNNNNd",
        "aNNNNb\nNNNNNN\nNNNNNN\ncNNNNd",
        "NNNNNN\nNNNNNN\nNNNNNN\nNNNNNN",
    ]
    decision = in_DN(FX["example1"], strategy="greedy")
    assert decision.member and len(decision.trace) == 6
    replayed = replay_dn_trace(FX["example1"], decision.trace)
    assert [render_picture(p) for p in replayed] == stages


@criterion(3, "circuit length multisets and labels of the published pictures")
def test_criterion_3_circuit_structure():
    start = time.perf_counter()
    left = picture_circuits(FX["fig3_left"])
    assert sorted(c.length for c in left) == [4, 12]
    assert max(left, key=lambda c: c.length).label_text == "abdc" * 3
    right = picture_circuits(FX["fig3_right"])
    assert sorted(c.length for c in right) == [4] * 7 + [36]
    assert sorted(c.length for c in picture_circuits(FX["fig2"])) == [4, 4, 4, 4]
    assert time.perf_counter() - start < 1.0


@criterion(4, "double-noose family: size (4h,6), longest circuit 4+8h, h=1..5")
def test_criterion_4_double_noose():
    start = time.perf_counter()
    for h in range(1, 6):
        p = double_noose(h)
        assert (p.rows, p.cols) == (4 * h, 6)
        lengths = [c.length for c in picture_circuits(p)]  # implies DC membership
        assert max(lengths) == 4 + 8 * h, h
    assert time.perf_counter() - start < 1.0


@criterion(5, "precedence cycles in the two quaternate counterexamples")
def test_criterion_5_precedence_cycles():
    g_left = priority_graph(FX["fig5_left"])
    assert ((1, 1), (3, 3)) in g_left.priority_edges
    assert ((3, 3), (1, 1)) in g_left.priority_edges
    g_right = priority_graph(FX["fig5_right"])
    four_cycle = [(1, 2), (4, 1), (3, 4), (2, 3), (1, 2)]
    for a, b in zip(four_cycle, four_cycle[1:]):
        assert (a, b) in g_right.priority_edges
    assert not in_DN_quaternate(FX["fig5_left"])
    assert not in_DN_quaternate(FX["fig5_right"])


def oracle_census_counts(rows, cols, dw_members):
    counts = {"dc": 0, "dq": 0, "dn": 0, "dw": 0}
    for p in all_pictures(rows, cols):
        if not oracle_in_dc(p):
            continue
        counts["dc"] += 1
        counts["dq"] += oracle_is_quaternate(p)
        counts["dn"] += oracle_in_dn(p)
        counts["dw"] += (p.rows, p.cols, p.cells) in dw_members
    return counts


@criterion(6, "census counts equal brute-force oracle counts, under 5 min")
def test_criterion_6_census_oracle():
    start = time.perf_counter()
    dw_members = oracle_dw_set(4, 4)
    assert census(2, 2).counts == oracle_census_counts(2, 2, dw_members)
    assert census(2, 2).counts == {"dc": 1, "dq": 1, "dn": 1, "dw": 1}
    assert census(2, 4).counts == oracle_census_counts(2, 4, dw_members)
    assert census(2, 4).counts == {"dc": 2, "dq": 2, "dn": 2, "dw": 1}

    counts = census(4, 4).counts
    assert counts["dc"] >= counts["dq"] >= counts["dn"] >= counts["dw"] > 0

    # classify must agree with the oracle on a random sample of stacked
    # Dyck-row candidates (arbitrary grids are almost never crosswords)
    rng = random.Random(20260823)
    rows4 = enumerate_dyck(4, Pairing("Row", 1))
    from dyck2d.grid import picture_from_rows

    for _ in range(1000):
        p = picture_from_rows([rng.choice(rows4) for _ in range(4)])
        flags = classify(p)
        assert flags.in_dc == oracle_in_dc(p)
        if flags.in_dc:
            assert flags.in_dq == oracle_is_quaternate(p)
            assert flags.in_dn == oracle_in_dn(p)
            assert flags.in_dw == ((p.rows, p.cols, p.cells) in dw_members)
    assert time.perf_counter() - start < 300


@criterion(7, "greedy and exhaustive neutralization never disagree")
def test_criterion_7_order_independence():
    shapes = [(2, 2), (2, 4), (4, 2), (2, 6), (6, 2), (2, 8), (8, 2), (4, 4)]
    pool = small_dc(shapes)
    # also exercise partially rewritten pictures, which contain neutrals
    perturbed = [_rewrite(p, r) for p in pool for r in ordered_redexes(p)]
    for p in pool + perturbed:
        assert in_DN(p, "greedy").member == in_DN(p, "exhaustive").member
        assert in_DN(p).member == oracle_in_dn(p)

    quaternate_pool = [
        p
        for p in pool + small_dc([(4, 6), (6, 4)])
        if is_quaternate(p)
    ]
    assert quaternate_pool
    for p in quaternate_pool:
        assert in_DN_quaternate(p) == in_DN(p, "greedy").member


@criterion(8, "matching-graph laws hold on every small crossword")
def test_criterion_8_matching_graph_laws():
    shapes = [
        (r, c)
        for r in range(2, 19, 2)
        for c in range(2, 19, 2)
        if r * c <= 36
    ]
    checked = 0
    for p in small_dc(shapes):
        g = matching_graph(p)
        degree = {}
        for kind, edges in (("row", g.row_edges), ("col", g.col_edges)):
            for u, v in edges:
                assert (abs(u[0] - v[0]) + abs(u[1] - v[1])) % 2 == 1
                for node in (u, v):
                    key = (node, kind)
                    assert key not in degree
                    degree[key] = True
        assert len(degree) == 2 * p.rows * p.cols
        circs = picture_circuits(p)
        covered = [n for c in circs for n in c.nodes]
        assert len(covered) == len(set(covered)) == p.rows * p.cols
        for c in circs:
            assert c.length % 4 == 0
            assert c.label_text == "abdc" * (c.length // 4)
        checked += 1
    assert checked > 10000


@criterion(9, "every Dyck word embeds as a third row; abdc-order forbids abcd rows in DW")
def test_criterion_9_row_saturation():
    start = time.perf_counter()
    for n in (2, 4, 6, 8):
        for w in enumerate_dyck(n, Pairing("Row", 1)):
            p = embed_row(w)
            assert p.rows == 4 and p.cols == n
            assert p.row_word(3) == tuple(w), word_text(w)
            assert in_DN(p).member, word_text(w)

    abcd = tuple(parse_picture("abcd").cells)
    saw_abcd_row = False
    for height in (2, 4, 6, 8):
        for p in enumerate_dc(height, 4):
            has_abcd = any(p.row_word(i) == abcd for i in range(1, p.rows + 1))
            saw_abcd_row = saw_abcd_row or has_abcd
            if has_abcd:
                assert not in_DW(p), render_picture(p)
    assert saw_abcd_row
    assert time.perf_counter() - start < 120


@criterion(10, "block compositions stay in DC (500x) and in DN (100x)")
def test_criterion_10_simplot_invariance():
    from dyck2d.crossword import in_DC

    sizes = ((2, 2), (2, 4), (4, 2), (4, 4))
    dc_pool = {s: list(enumerate_dc(*s)) for s in sizes}
    dn_pool = {s: [p for p in ps if in_DN(p).member] for s, ps in dc_pool.items()}

    def compose(rng, pool):
        heights = [rng.choice((2, 4)) for _ in range(rng.randint(1, 3))]
        widths = [rng.choice((2, 4)) for _ in range(rng.randint(1, 3))]
        return vcat(
            *(
                hcat(*(rng.choice(pool[(h, w)]) for w in widths))
                for h in heights
            )
        )

    rng = random.Random(4142)
    for _ in range(500):
        assert in_DC(compose(rng, dc_pool))
    for _ in range(100):
        assert in_DN(compose(rng, dn_pool)).member
