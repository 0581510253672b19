import hashlib
import json
import random
from collections import Counter

import pytest

from dyck2d import crossword, neutralize, wellnest
from dyck2d.crossword import (
    _PALETTE,
    MatchingGraph,
    _sweep,
    circuits,
    graph_to_dot,
    graph_to_json,
    in_DC,
    is_quaternate,
    matching_graph,
    picture_circuits,
)
from dyck2d.errors import ContainsNeutral, NotInDC
from dyck2d.grid import (
    BULLET_SYM,
    N,
    Picture,
    parse_picture,
    render_picture,
    sym,
)
from dyck2d.lab import classify, double_noose, enumerate_dc
from dyck2d.neutralize import in_DN, priority_graph
from dyck2d.wellnest import in_DW

from oracles import (
    oracle_cancelled_pairs,
    oracle_circuits,
    oracle_in_dc,
    oracle_is_quaternate,
    oracle_match_positions,
)


def small_dc_pictures():
    out = []
    for rows, cols in ((2, 2), (2, 4), (4, 2), (2, 6), (4, 4)):
        out.extend(enumerate_dc(rows, cols))
    return out


SMALL_DC = small_dc_pictures()
K2_DC = [
    p
    for rows, cols in ((2, 2), (2, 4), (4, 2), (4, 4))
    for p in enumerate_dc(rows, cols, k=2)
]


def one_cell_mutants(pictures, count, seed):
    """count seeded one-cell mutants; N and the bullet are among the new symbols."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice(pictures)
        x = rng.randrange(len(p.cells))
        s = rng.choice([N, BULLET_SYM, *(sym(r, i) for r in "abcd" for i in range(1, p.k + 1))])
        out.append(Picture(p.rows, p.cols, p.k, p.cells[:x] + (s,) + p.cells[x + 1 :]))
    return out


MATCH_POOL = SMALL_DC + K2_DC + one_cell_mutants(SMALL_DC + K2_DC, 600, seed=13)


class TestPartnerLists:
    """_sweep's partner lists: partner[x] is x's partner in its row (column), or -1."""

    def test_involutions(self):
        for p in MATCH_POOL:
            for partner in _sweep(p, rectangles=True)[:2]:
                assert len(partner) == len(p.cells)
                assert all(y == -1 or partner[y] == x for x, y in enumerate(partner))

    def test_minus_one_marks_exactly_the_unmatched_cells(self):
        assert any(N in p.cells for p in MATCH_POOL)
        assert any(BULLET_SYM in p.cells for p in MATCH_POOL)
        for p in MATCH_POOL:
            rows, cols = p.rows, p.cols
            row_pairs = {
                (i * cols + x, i * cols + y)
                for i in range(rows)
                for x, y in oracle_cancelled_pairs(p.row_word(i + 1), "Row")
            }
            col_pairs = {
                (x * cols + j, y * cols + j)
                for j in range(cols)
                for x, y in oracle_cancelled_pairs(p.cells[j::cols], "Col")
            }
            for partner, pairs in zip(_sweep(p, rectangles=True), (row_pairs, col_pairs)):
                assert {(x, y) for x, y in enumerate(partner) if x < y} == pairs
                matched = {x for pair in pairs for x in pair}
                unmatched = set(range(rows * cols)) - matched
                assert {x for x, y in enumerate(partner) if y == -1} == unmatched

    def test_partners_share_a_line_and_the_opener_comes_first(self):
        for p in MATCH_POOL:
            row, col, _, _ = _sweep(p, rectangles=True)
            for partner, line, openers, closers in (
                (row, lambda x: x // p.cols, "ac", "bd"),
                (col, lambda x: x % p.cols, "ab", "cd"),
            ):
                for x, y in enumerate(partner):
                    if x < y:
                        assert line(x) == line(y)
                        assert p.cells[x].role in openers and p.cells[y].role in closers
                        assert p.cells[x].index == p.cells[y].index


class TestSweepRectangles:
    """_sweep's rectangles and owners are the 4-cycles of the cancellation matching."""

    def test_off_crosswords_too(self):
        # MATCH_POOL holds N, bullets and one-cell mutants, where partners can be -1
        assert any(not in_DC(p) for p in MATCH_POOL)
        for p in MATCH_POOL:
            cols, row, col = p.cols, {}, {}
            for i in range(p.rows):
                for x, y in oracle_cancelled_pairs(p.row_word(i + 1), "Row"):
                    row[i * cols + x], row[i * cols + y] = i * cols + y, i * cols + x
            for j in range(cols):
                for x, y in oracle_cancelled_pairs(p.cells[j::cols], "Col"):
                    col[x * cols + j], col[y * cols + j] = y * cols + j, x * cols + j
            # a cycle's first cell a opens its row and its column: a -> b -> d -> c -> a
            cycles = []
            for a, b in row.items():
                c, d = col.get(a, -1), col.get(b)
                if a < b and c > a and d is not None and row.get(c) == d:
                    cycles.append((a, b, c, d))
            cycles.sort(key=lambda cycle: cycle[3])  # in the order of the d's
            owner = [-1 if s == N else None for s in p.cells]
            rects = []
            for rid, (a, b, c, d) in enumerate(cycles):
                owner[a] = owner[b] = owner[c] = owner[d] = rid
                top, left = divmod(a, cols)
                bottom, right = divmod(d, cols)
                rects.append((left + 1, top + 1, right + 1, bottom + 1, p.cells[a].index, rid))
            assert _sweep(p, rectangles=True)[2:] == (rects, owner), p

    def test_without_rectangles_only_the_partner_lists(self):
        for p in MATCH_POOL:
            row, col, rects, owner = _sweep(p, rectangles=False)
            assert (row, col) == _sweep(p, rectangles=True)[:2], p
            assert rects is None and owner is None, p

    def test_callers_ask_for_rectangles_only_when_they_read_them(self, monkeypatch, fx):
        asked, sweep = [], _sweep

        def spy(p, *, rectangles):
            asked.append(rectangles)
            return sweep(p, rectangles=rectangles)

        for module in (crossword, neutralize, wellnest):
            monkeypatch.setattr(module, "_sweep", spy)
        callers = {
            matching_graph: False, picture_circuits: False, priority_graph: False,
            in_DC: False, in_DW: False, classify: True, in_DN: True, is_quaternate: True,
        }
        for decide, wanted in callers.items():
            asked.clear()
            decide(fx["fig2"])
            assert asked == [wanted], decide.__name__


class TestInDC:
    def test_minimal(self):
        assert in_DC(parse_picture("ab\ncd"))

    def test_row_failure(self):
        assert not in_DC(parse_picture("ba\ndc"))

    def test_col_failure(self):
        # both rows are row-Dyck but the columns pair nothing
        assert not in_DC(parse_picture("ab\nab"))

    def test_neutral_raises(self):
        with pytest.raises(ContainsNeutral):
            in_DC(parse_picture("aNb\ncNd"))

    def test_empty_is_not_a_crossword(self):
        assert not in_DC(parse_picture(""))

    def test_fixtures_are_crosswords(self, fx):
        for name, p in fx.items():
            if name == "fig1_mid":
                continue
            assert in_DC(p), name

    def test_matches_oracle_on_census_candidates(self):
        for p in SMALL_DC:
            assert oracle_in_dc(p)

    def test_matches_oracle_on_2x4_brute_force(self):
        from oracles import all_pictures

        ours = {p.cells for p in enumerate_dc(2, 4)}
        theirs = {p.cells for p in all_pictures(2, 4) if oracle_in_dc(p)}
        assert ours == theirs


class TestMatchingGraph:
    def test_requires_crossword(self):
        with pytest.raises(NotInDC):
            matching_graph(parse_picture("ba\ndc"))
        # rows are Dyck, a column is not
        with pytest.raises(NotInDC):
            matching_graph(parse_picture("ab\nab"))
        with pytest.raises(NotInDC):
            matching_graph(parse_picture(""))

    def test_neutral_raises(self):
        with pytest.raises(ContainsNeutral):
            matching_graph(parse_picture("aNb\ncNd"))

    def test_built_from_the_picture_only(self, fx):
        for name, p in fx.items():
            if name != "fig1_mid":
                assert MatchingGraph(p) == matching_graph(p), name
        # partner lists are no input: the picture is swept
        with pytest.raises(TypeError):
            MatchingGraph((1, 0, 3, 2), (2, 3, 0, 1), parse_picture("ab\ncd"))
        for text in ("ba\ndc", ""):
            with pytest.raises(NotInDC, match="^matching graph needs a crossword picture$"):
                MatchingGraph(parse_picture(text))
        with pytest.raises(
            ContainsNeutral, match="^crossword membership is defined over corner symbols$"
        ):
            MatchingGraph(parse_picture("aNb\ncNd"))

    def test_degree_law(self):
        for p in SMALL_DC:
            g = matching_graph(p)
            row_deg = Counter()
            col_deg = Counter()
            for u, v in g.row_edges:
                row_deg[u] += 1
                row_deg[v] += 1
            for u, v in g.col_edges:
                col_deg[u] += 1
                col_deg[v] += 1
            nodes = {(i, j) for i in range(1, p.rows + 1) for j in range(1, p.cols + 1)}
            assert row_deg == {n: 1 for n in nodes}
            assert col_deg == {n: 1 for n in nodes}

    def test_edge_sets_match_oracle(self):
        """The edge sets, views of the partner lists, are the matches of each row and column."""
        for p in SMALL_DC + K2_DC:
            g = matching_graph(p)
            assert g.row_edges == {
                ((i, x), (i, y))
                for i in range(1, p.rows + 1)
                for x, y in oracle_match_positions(p.row_word(i), "Row")
            }
            assert g.col_edges == {
                ((x, j), (y, j))
                for j in range(1, p.cols + 1)
                for x, y in oracle_match_positions(p.cells[j - 1 :: p.cols], "Col")
            }

    def test_edge_endpoint_distances_are_odd(self):
        for p in SMALL_DC:
            g = matching_graph(p)
            for u, v in g.row_edges | g.col_edges:
                assert (abs(u[0] - v[0]) + abs(u[1] - v[1])) % 2 == 1


class TestCircuits:
    def test_partition_and_label_law(self, fx):
        """The circuits partition the cells, alternate row and column matches, and
        read (a b d c)^+ with one index, read off the picture's own cells."""
        for p in export_pool(fx):
            circs = picture_circuits(p)
            seen = [n for c in circs for n in c.nodes]
            assert len(seen) == len(set(seen)) == p.rows * p.cols
            for c in circs:
                cells = [p.cells[(i - 1) * p.cols + j - 1] for i, j in c.nodes]
                assert "".join([s.role for s in cells]) == "abdc" * (c.length // 4)
                assert {s.index for s in cells} == {cells[0].index}
                # even steps stay in a row, odd steps in a column
                steps = zip(c.nodes, c.nodes[1:] + c.nodes[:1])
                assert all(u[n % 2] == v[n % 2] for n, (u, v) in enumerate(steps))
                assert c.labels == tuple(cells)

    def test_matches_oracle_node_sets(self, fx):
        for p in export_pool(fx) + [parse_picture("abab\ncabd\nacdb\ncdcd")]:
            ours = sorted(sorted(c.nodes) for c in picture_circuits(p))
            theirs = sorted(sorted(c) for c in oracle_circuits(p))
            assert ours == theirs

    def test_circuits_sorted_by_start(self, fx):
        # with the partition law, sorted starts put each start at the first cell
        # no earlier circuit covers, where the walk jumps
        for p in export_pool(fx):
            starts = [c.northwest for c in picture_circuits(p)]
            assert starts == sorted(starts)

    def test_fixture_multisets(self, fx):
        lengths = lambda p: sorted(c.length for c in picture_circuits(p))
        assert lengths(fx["fig2"]) == [4, 4, 4, 4]
        assert lengths(fx["fig3_left"]) == [4, 12]
        assert lengths(fx["fig3_right"]) == [4] * 7 + [36]
        assert lengths(fx["fig4_left"]) == [4, 4, 4, 12]
        abcd = matching_graph(parse_picture("ab\ncd"))
        assert [c.label_text for c in circuits(abcd)] == ["abdc"]


class TestQuaternate:
    def test_fixtures(self, fx):
        assert is_quaternate(fx["fig1_left"])
        assert is_quaternate(fx["fig2"])
        assert is_quaternate(fx["fig5_left"])
        assert is_quaternate(fx["fig5_right"])
        assert not is_quaternate(fx["fig3_left"])
        assert not is_quaternate(fx["fig3_right"])

    def test_matches_oracle(self):
        for p in SMALL_DC + K2_DC:
            assert is_quaternate(p) == oracle_is_quaternate(p)

    def test_requires_crossword(self):
        with pytest.raises(NotInDC):
            is_quaternate(parse_picture("ab\nab"))


def export_pool(fx):
    """The export tests' pictures: small crosswords at k = 1 and 2, the fixtures, the
    double nooses h = 1..60, and pictures with column numbers and labels of two digits."""
    pictures = SMALL_DC + K2_DC + [fx[name] for name in sorted(fx) if name != "fig1_mid"]
    pictures += [double_noose(h) for h in range(1, 61)]
    pictures.append(parse_picture("\n".join(["ab" * 6, "cd" * 6] * 5)))
    fig3_right = render_picture(fx["fig3_right"]).splitlines()
    pictures.append(parse_picture("\n".join([line * 2 for line in fig3_right] * 2)))
    # a1 .. a10 b10 .. b1 over c1 .. c10 d10 .. d1, twice: labels a10, b10, c10, d10
    rows = [
        " ".join([f"{r}{i}" for i in range(1, 11)] + [f"{s}{i}" for i in range(10, 0, -1)])
        for r, s in ("ab", "cd")
    ]
    pictures.append(parse_picture("\n".join(rows * 2), 10))
    return pictures


class TestExports:
    def test_json_schema(self, fx):
        g = matching_graph(fx["fig3_left"])
        obj = json.loads(graph_to_json(g))
        assert obj["rows"] == obj["cols"] == 4
        assert len(obj["nodes"]) == 16
        assert len(obj["row_edges"]) == len(obj["col_edges"]) == 8
        assert sorted(len(c["nodes"]) for c in obj["circuits"]) == [4, 12]
        assert {c["label"] for c in obj["circuits"]} == {"abdc", "abdcabdcabdc"}

    def test_dot_styles(self, fx):
        dot = graph_to_dot(matching_graph(fx["fig2"]))
        assert dot.startswith("graph matching {") and dot.endswith("}")
        assert dot.count("style=solid") == 8
        assert dot.count("style=dashed") == 8

    def test_dot_one_color_per_circuit(self, fx):
        p = fx["fig2"]
        dot = graph_to_dot(matching_graph(p))
        colors = {
            line.split('color="')[1].split('"')[0]
            for line in dot.splitlines()
            if "color=" in line
        }
        assert len(colors) == len(picture_circuits(p))

    def test_json_is_json_dumps_text(self, fx):
        """The writer's text is json.dumps' of an object built from the edge views and circuits."""
        for p in export_pool(fx):
            g = matching_graph(p)
            out = graph_to_json(g)
            assert json.dumps(json.loads(out)) == out
            label = (lambda s: s.role) if p.k == 1 else (lambda s: f"{s.role}{s.index}")
            expected = {
                "rows": p.rows,
                "cols": p.cols,
                "nodes": [
                    [x // p.cols + 1, x % p.cols + 1, label(s)] for x, s in enumerate(p.cells)
                ],
                "row_edges": [[list(u), list(v)] for u, v in sorted(g.row_edges)],
                "col_edges": [[list(u), list(v)] for u, v in sorted(g.col_edges)],
                "circuits": [
                    {"nodes": [list(v) for v in c.nodes], "label": c.label_text}
                    for c in picture_circuits(p)
                ],
            }
            # equal as objects, and as text: the keys come in the same order
            assert json.loads(out) == expected and out == json.dumps(expected)

    def test_dot_is_built_from_edge_views_circuits_and_palette(self, fx):
        """The DOT text, line by line, from the edge views, the circuits and the palette."""
        for p in export_pool(fx):
            g = matching_graph(p)
            color = {
                v: _PALETTE[n % len(_PALETTE)]
                for n, c in enumerate(picture_circuits(p))
                for v in c.nodes
            }
            label = (lambda s: s.role) if p.k == 1 else (lambda s: f"{s.role}{s.index}")
            lines = ["graph matching {", "  node [shape=circle];"]
            for x, s in enumerate(p.cells):
                i, j = x // p.cols + 1, x % p.cols + 1
                lines.append(f'  "{i},{j}" [label="{label(s)}", color="{color[i, j]}"];')
            for edges, style in ((g.row_edges, "solid"), (g.col_edges, "dashed")):
                lines += [
                    f'  "{u[0]},{u[1]}" -- "{v[0]},{v[1]}" [style={style}, color="{color[u]}"];'
                    for u, v in sorted(edges)
                ]
            lines.append("}")
            assert graph_to_dot(g) == "\n".join(lines)

    def test_golden_digest(self, fx):
        """DOT and JSON of the fixtures, the double nooses h = 1..30 and a k = 2 picture."""
        pictures = [fx[name] for name in sorted(fx) if name != "fig1_mid"]
        pictures += [double_noose(h) for h in range(1, 31)]
        pictures.append(parse_picture("a2 a1 b1 b2\nc2 c1 d1 d2", 2))
        digest = hashlib.sha256()
        for p in pictures:
            g = matching_graph(p)
            digest.update((graph_to_dot(g) + "\n" + graph_to_json(g) + "\n").encode())
        assert digest.hexdigest() == (
            "2eef5c2c60a4c66ec886984a7c71e6ae56f6d83d0c41da7f606e0940ef13ec70"
        )
