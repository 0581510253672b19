import json
import time

import pytest
from hypothesis import given, strategies as st

from dyck2d.errors import (
    DomainOutOfBounds,
    IndexOutOfRange,
    RaggedRows,
    SizeMismatch,
    UnknownToken,
)
from dyck2d.grid import (
    Domain,
    Picture,
    Symbol,
    concat,
    empty_picture,
    hcat,
    homogeneous,
    parse_picture,
    picture_from_json,
    picture_from_rows,
    render_picture,
    simplot_partition,
    subpicture,
    sym,
    vcat,
)

letters = st.sampled_from("abcdN")
grids = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(letters, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


def from_matrix(mat):
    return picture_from_rows(
        [[sym(ch, None if ch == "N" else 1) for ch in row] for row in mat]
    )


class TestSymbol:
    def test_corner_needs_index(self):
        with pytest.raises(IndexOutOfRange):
            Symbol("a")
        with pytest.raises(IndexOutOfRange):
            Symbol("b", 0)

    def test_neutral_carries_no_index(self):
        with pytest.raises(UnknownToken):
            Symbol("N", 1)

    def test_unknown_role(self):
        with pytest.raises(UnknownToken):
            Symbol("x", 1)

    def test_interning(self):
        assert sym("a", 1) is sym("a", 1)

    def test_text(self):
        assert sym("a", 2).text(k=3) == "a2"
        assert sym("a", 1).text() == "a"
        assert sym("a", 1).text(glyph=True) == "⌜"


class TestParseRender:
    def test_round_trip_ascii(self):
        text = "aabb\nccdd"
        assert render_picture(parse_picture(text)) == text

    def test_glyph_and_ascii_parse_alike(self):
        assert parse_picture("⌜⌝\n⌞⌟") == parse_picture("ab\ncd")

    def test_bullet_alias(self):
        p = parse_picture("a*b\nc*d")
        assert p.cell(1, 2).role == "•"
        assert render_picture(p) == "a*b\nc*d".replace("*", "•")

    def test_k2_tokens(self):
        p = parse_picture("a2 b2\nc2 d2", k=2)
        assert p.cell(1, 1) == sym("a", 2)
        assert render_picture(p) == "a2 b2\nc2 d2"

    def test_index_outside_k(self):
        with pytest.raises(IndexOutOfRange):
            parse_picture("a2 b2", k=1)

    def test_ragged(self):
        with pytest.raises(RaggedRows):
            parse_picture("ab\nabc")

    def test_unknown_token(self):
        with pytest.raises(UnknownToken):
            parse_picture("ax\nbd")

    @pytest.mark.parametrize("token", ["a\u00b2", "a\u0662", "a\uff12"])
    def test_non_ascii_index(self, token):
        # superscript, Arabic-Indic and fullwidth two: only ASCII digits index a symbol
        with pytest.raises(UnknownToken):
            parse_picture(f"{token} b1\nc1 d1", k=2)

    def test_empty_text(self):
        assert parse_picture("  \n ").is_empty

    def test_json_round_trip(self):
        p = parse_picture("aNb\ncNd")
        blob = render_picture(p, style="json")
        assert json.loads(blob)["rows"] == 2
        assert picture_from_json(blob) == p

    @given(grids)
    def test_round_trip_any(self, mat):
        p = from_matrix(mat)
        assert parse_picture(render_picture(p)) == p


class TestPicture:
    def test_cell_is_one_based(self):
        p = parse_picture("ab\ncd")
        assert p.cell(1, 1) == sym("a", 1)
        assert p.cell(2, 2) == sym("d", 1)
        with pytest.raises(DomainOutOfBounds):
            p.cell(0, 1)
        with pytest.raises(DomainOutOfBounds):
            p.cell(2, 3)

    def test_row_and_col_words(self):
        p = parse_picture("abab\ncdcd")
        assert [s.role for s in p.row_word(2)] == ["c", "d", "c", "d"]
        assert [s.role for s in p.col_word(3)] == ["a", "c"]

    def test_empty(self):
        e = empty_picture()
        assert e.is_empty and e.cells == ()
        with pytest.raises(DomainOutOfBounds):
            e.full_domain()

    def test_index_above_k(self):
        # parse_picture rejects such indices first, so only these reach Picture's own check
        blob = json.dumps({"rows": 1, "cols": 2, "k": 1, "cells": [["a", 2], ["b", 2]]})
        with pytest.raises(IndexOutOfRange):
            picture_from_json(blob)
        with pytest.raises(IndexOutOfRange):
            Picture(1, 2, 1, (sym("a", 2), sym("b", 2)))


class TestConcat:
    def test_identity(self):
        p = parse_picture("ab\ncd")
        e = empty_picture()
        for axis in ("horizontal", "vertical"):
            assert concat(p, e, axis) == p
            assert concat(e, p, axis) == p

    def test_horizontal(self):
        p = parse_picture("ab\ncd")
        assert render_picture(concat(p, p)) == "abab\ncdcd"

    def test_vertical(self):
        p = parse_picture("ab\ncd")
        assert render_picture(concat(p, p, "vertical")) == "ab\ncd\nab\ncd"

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            concat(parse_picture("ab\ncd"), parse_picture("ab"))
        with pytest.raises(SizeMismatch):
            concat(parse_picture("ab"), parse_picture("abab"), "vertical")

    def test_many_parts(self):
        p, q = parse_picture("ab\ncd"), parse_picture("a2 b2\nc2 d2", 2)
        assert hcat() == empty_picture()
        assert hcat(p, empty_picture(), q, p) == concat(concat(p, q), p)
        assert vcat(q, p, empty_picture()) == concat(q, p, "vertical")
        assert hcat(p, q).k == 2
        with pytest.raises(SizeMismatch):
            hcat(p, p, parse_picture("ab"))
        with pytest.raises(SizeMismatch):
            vcat(p, p, parse_picture("abab"))

    def test_many_parts_in_one_pass(self):
        block = parse_picture("ab\ncd")
        start = time.perf_counter()
        wide, tall = hcat(*[block] * 2400), vcat(*[block] * 2400)
        assert time.perf_counter() - start < 0.5
        assert (wide.rows, wide.cols, tall.rows, tall.cols) == (2, 4800, 4800, 2)
        assert wide.row_word(2) == tuple(block.row_word(2)) * 2400

    @given(grids, grids, grids)
    def test_associative(self, m1, m2, m3):
        ps = [from_matrix(m) for m in (m1, m2, m3)]
        if len({p.rows for p in ps}) == 1:
            assert hcat(hcat(ps[0], ps[1]), ps[2]) == hcat(ps[0], hcat(ps[1], ps[2]))
        if len({p.cols for p in ps}) == 1:
            assert vcat(vcat(ps[0], ps[1]), ps[2]) == vcat(ps[0], vcat(ps[1], ps[2]))


class TestDomainSubpicture:
    def test_malformed_domain(self):
        with pytest.raises(DomainOutOfBounds):
            Domain(2, 1, 1, 1)

    def test_subpicture(self):
        p = parse_picture("abab\ncdcd\nabab")
        q = subpicture(p, Domain(2, 2, 3, 3))
        assert render_picture(q) == "dc\nba"

    def test_out_of_bounds(self):
        with pytest.raises(DomainOutOfBounds):
            subpicture(parse_picture("ab"), Domain(1, 1, 2, 2))

    def test_homogeneous(self):
        p = homogeneous(sym("a", 1), 2, 3)
        assert render_picture(p) == "aaa\naaa"
        assert homogeneous(sym("a", 1), 0, 3).is_empty


class TestSimplotPartition:
    def test_smallest_domains_come_first(self):
        p = parse_picture("ab\ncd")
        parts = simplot_partition(p, lambda q: True)
        assert parts == [Domain(i, j, i, j) for i in (1, 2) for j in (1, 2)]

    def test_full_grid_partition(self):
        p = parse_picture("ab\ncd")
        full = lambda q: q.rows == 2 and q.cols == 2
        assert simplot_partition(p, full) == [Domain(1, 1, 2, 2)]

    def test_min_domains_rejects_full_grid(self):
        p = parse_picture("ab\ncd")
        full = lambda q: q.rows == 2 and q.cols == 2
        assert simplot_partition(p, full, min_domains=2) is None

    def test_partition_covers_and_is_disjoint(self):
        p = homogeneous(sym("a", 1), 3, 4)
        shapes = {(1, 1), (1, 2), (2, 1), (2, 2)}
        parts = simplot_partition(p, lambda q: (q.rows, q.cols) in shapes)
        covered = set()
        for d in parts:
            rect = {
                (i, j)
                for i in range(d.top, d.bottom + 1)
                for j in range(d.left, d.right + 1)
            }
            assert not rect & covered
            covered |= rect
        assert len(covered) == 12

    def test_partition_without_unit_tiles(self):
        p = homogeneous(sym("a", 1), 3, 4)
        shapes = {(1, 2), (2, 1), (2, 2)}
        found = simplot_partition(p, lambda q: (q.rows, q.cols) in shapes)
        assert found is not None
        assert sum(d.rows * d.cols for d in found) == 12

    def test_none_when_impossible(self):
        p = homogeneous(sym("a", 1), 3, 3)
        assert simplot_partition(p, lambda q: q.rows == 2 and q.cols == 2) is None

    def test_content_sensitive_member(self):
        p = parse_picture("ab\ncd")
        member = lambda q: tuple(s.role for s in q.cells) in {("a", "b"), ("c", "d")}
        parts = simplot_partition(p, member)
        assert parts == [Domain(1, 1, 1, 2), Domain(2, 1, 2, 2)]

    def test_empty_raises(self):
        with pytest.raises(DomainOutOfBounds):
            simplot_partition(empty_picture(), lambda q: True)

    def test_long_row(self):
        p = homogeneous(sym("a", 1), 1, 1200)
        parts = simplot_partition(p, lambda q: True)
        assert parts == [Domain(1, j, 1, j) for j in range(1, 1201)]
