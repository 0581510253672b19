import hashlib
import json
from collections import Counter

import pytest

from dyck2d.crossword import (
    MatchingGraph,
    circuits,
    graph_to_dot,
    graph_to_json,
    in_DC,
    is_quaternate,
    matching_graph,
    picture_circuits,
)
from dyck2d.errors import ContainsNeutral, DegreeViolation, NotInDC
from dyck2d.grid import parse_picture
from dyck2d.lab import double_noose, enumerate_dc

from oracles import oracle_circuits, oracle_in_dc, oracle_is_quaternate


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

    def test_edge_endpoint_distances_are_odd(self):
        for p in SMALL_DC:
            g = matching_graph(p)
            for u, v in g.row_edges | g.col_edges:
                assert (abs(u[0] - v[0]) + abs(u[1] - v[1])) % 2 == 1


class TestCircuits:
    def test_partition_and_label_law(self):
        for p in SMALL_DC:
            circs = picture_circuits(p)
            seen = [n for c in circs for n in c.nodes]
            assert len(seen) == len(set(seen)) == p.rows * p.cols
            for c in circs:
                assert c.length % 4 == 0
                reps = c.length // 4
                assert c.label_text == "abdc" * reps

    def test_matches_oracle_node_sets(self):
        for p in SMALL_DC + [parse_picture("abab\ncabd\nacdb\ncdcd")]:
            ours = sorted(sorted(c.nodes) for c in picture_circuits(p))
            theirs = sorted(sorted(c) for c in oracle_circuits(p))
            assert ours == theirs

    def test_circuits_sorted_by_start(self):
        for p in SMALL_DC:
            starts = [c.northwest for c in picture_circuits(p)]
            assert starts == sorted(starts)

    def test_fixture_multisets(self, fx):
        lengths = lambda p: sorted(c.length for c in picture_circuits(p))
        assert lengths(fx["fig2"]) == [4, 4, 4, 4]
        assert lengths(fx["fig3_left"]) == [4, 12]
        assert lengths(fx["fig3_right"]) == [4] * 7 + [36]
        assert lengths(fx["fig4_left"]) == [4, 4, 4, 12]


class TestDegreeViolation:
    """The matching-graph laws circuits checks on hand-built graphs over ab/cd."""

    ROW = frozenset({((1, 1), (1, 2)), ((2, 1), (2, 2))})
    COL = frozenset({((1, 1), (2, 1)), ((1, 2), (2, 2))})

    def graph(self, row_edges, col_edges, text="ab\ncd"):
        return MatchingGraph(2, 2, row_edges, col_edges, parse_picture(text))

    def test_well_formed(self):
        assert [c.label_text for c in circuits(self.graph(self.ROW, self.COL))] == ["abdc"]

    def test_extra_row_edge(self):
        with pytest.raises(DegreeViolation, match=r"^two row edges at \(1, 1\)$"):
            circuits(self.graph(self.ROW | {((1, 1), (1, 1))}, self.COL))

    def test_missing_column_edge(self):
        with pytest.raises(DegreeViolation, match="^node without both a row and a column edge$"):
            circuits(self.graph(self.ROW, self.COL - {((1, 2), (2, 2))}))

    def test_node_outside_the_grid(self):
        col = self.COL - {((1, 2), (2, 2))} | {((1, 2), (3, 2))}
        with pytest.raises(DegreeViolation, match="^node without both a row and a column edge$"):
            circuits(self.graph(self.ROW, col))

    def test_labels_break_the_abdc_law(self):
        with pytest.raises(DegreeViolation, match=r"violate the \(abdc\)\+ law$"):
            circuits(self.graph(self.ROW, self.COL, "ab\ndc"))

    def test_circuit_of_length_two(self):
        with pytest.raises(DegreeViolation, match="^circuit length 2 not divisible by 4$"):
            circuits(self.graph(self.ROW, self.ROW))

    def test_node_on_no_circuit(self):
        with pytest.raises(DegreeViolation, match="^some node lies on no circuit$"):
            circuits(self.graph(self.ROW, self.COL, "dd\ndd"))


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
