import time

import pytest
from hypothesis import given, strategies as st

import dyck2d
from dyck2d import grid
from dyck2d.errors import IndexOutOfRange, InvalidArgument, RaggedRows, UnknownToken
from dyck2d.grid import (
    Picture,
    Symbol,
    empty_picture,
    hcat,
    parse_picture,
    picture_from_rows,
    render_picture,
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
        with pytest.raises(UnknownToken):
            Symbol("x")

    def test_interning(self):
        assert sym("a", 1) is sym("a", 1)

    def test_text(self):
        assert sym("a", 2).text(k=3) == "a2"
        assert sym("a", 1).text() == "a"


class TestParseRender:
    def test_round_trip_ascii(self):
        text = "aabb\nccdd"
        assert render_picture(parse_picture(text)) == text

    def test_glyph_and_ascii_parse_alike(self):
        assert parse_picture("⌜⌝\n⌞⌟") == parse_picture("ab\ncd")
        assert parse_picture("⌜2 ⌝2\n⌞2 ⌟2", k=2) == parse_picture("a2 b2\nc2 d2", k=2)

    def test_bullet_alias(self):
        p = parse_picture("a*b\nc*d")
        assert p.cell(1, 2).role == "•"
        assert render_picture(p) == "a*b\nc*d".replace("*", "•")

    def test_k2_tokens(self):
        p = parse_picture("a2 b2\nc2 d2", k=2)
        assert p.cell(1, 1) == sym("a", 2)
        assert render_picture(p) == "a2 b2\nc2 d2"
        # the neutral and bullet tokens carry no index, at any k
        p = parse_picture("a1 N b1\nc1 * d1\na2 • b2\nc2 N d2", k=2)
        assert [s.role for s in p.cells[1::3]] == ["N", "•", "•", "N"]
        assert render_picture(p) == "a1 N b1\nc1 • d1\na2 • b2\nc2 N d2"
        # a corner with no index is index 1, and a line of one token is one cell
        a1, b2, c1, d2 = sym("a", 1), sym("b", 2), sym("c", 1), sym("d", 2)
        assert parse_picture("a b2\nc d2", k=2).cells == (a1, b2, c1, d2)
        assert parse_picture("a2\nc2", k=2).cells == (sym("a", 2), sym("c", 2))

    def test_index_outside_k(self):
        with pytest.raises(IndexOutOfRange):
            parse_picture("a2 b2", k=1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        # an argument error, checked before any cell is read
        with pytest.raises(InvalidArgument, match=f"^a picture needs k >= 1, not {k}$"):
            parse_picture("ab\ncd", k)
        with pytest.raises(InvalidArgument):
            parse_picture("", k)

    def test_ragged(self):
        with pytest.raises(RaggedRows):
            parse_picture("ab\nabc")

    def test_unknown_token(self):
        for text, k in (("ax\nbd", 1), ("ax b1\nc1 d1", 2), ("a+2 b1\nc1 d1", 2)):
            with pytest.raises(UnknownToken):
                parse_picture(text, k)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("digits", [4301, 10**5])
    def test_long_index(self, k, digits):
        # rejected by its length, before int() meets CPython's 4300-digit limit,
        # and the message clips the token it echoes
        text = "a" + "1" * digits + " b\nc d"
        with pytest.raises(IndexOutOfRange, match=f"^index of {digits} digits outside ") as e:
            parse_picture(text, k)
        assert len(str(e.value)) < 200

    def test_leading_zeros(self):
        ab_cd = parse_picture("ab\ncd").cells
        assert parse_picture("a01 b\nc d", 2).cells == ab_cd
        zeros = "0" * 5000
        assert parse_picture(f"a{zeros}1 b\nc d", 2).cells == ab_cd
        with pytest.raises(IndexOutOfRange, match=r"^index 0 outside \[1..2\] in token 'a0+\.\.\.'$"):
            parse_picture(f"a{zeros} b\nc d", 2)

    @pytest.mark.parametrize("token", ["a\u00b2", "a\u0662", "a\uff12"])
    def test_non_ascii_index(self, token):
        # superscript, Arabic-Indic and fullwidth two: only ASCII digits index a symbol
        with pytest.raises(UnknownToken):
            parse_picture(f"{token} b1\nc1 d1", k=2)

    def test_empty_text(self):
        assert parse_picture("  \n ").is_empty

    def test_spaced_k1(self):
        # at k = 1 a line may spell its cells as whitespace-separated one-character tokens
        pairs = (("a b\nc d", "ab\ncd"), ("⌜ ⌝\n⌞ ⌟", "⌜⌝\n⌞⌟"), ("a * b\nc N d", "a*b\ncNd"))
        for spaced, compact in pairs:
            assert parse_picture(spaced).cells == parse_picture(compact).cells
        with pytest.raises(UnknownToken, match="^unknown token 'x'$"):
            parse_picture("a x\nc d")
        with pytest.raises(RaggedRows):
            parse_picture("a b\nc")

    def test_spaced_k1_reads_the_char_table(self, monkeypatch):
        # a one-character token is read from the char table at every k, not parsed token by token
        def parse_token(tok, k):
            raise AssertionError(f"_parse_token({tok!r}) called")

        monkeypatch.setattr(grid, "_parse_token", parse_token)
        corners = tuple(sym(role, 1) for role in "abcd")
        others = (grid.N, grid.BULLET_SYM, grid.BULLET_SYM, grid.N)
        for k in (1, 2, 3):
            assert parse_picture("a b\nc d", k).cells == corners
            assert parse_picture("⌜ ⌝\n⌞ ⌟", k).cells == corners
            assert parse_picture("N *\n• N", k).cells == others

    @given(grids)
    def test_round_trip_any(self, mat):
        p = from_matrix(mat)
        assert parse_picture(render_picture(p)) == p


class TestPicture:
    def test_cell_is_one_based(self):
        p = parse_picture("ab\ncd")
        assert p.cell(1, 1) == sym("a", 1)
        assert p.cell(2, 2) == sym("d", 1)
        with pytest.raises(InvalidArgument):
            p.cell(0, 1)
        with pytest.raises(InvalidArgument):
            p.cell(2, 3)

    def test_row_and_col_words(self):
        p = parse_picture("abab\ncdcd")
        assert [s.role for s in p.row_word(2)] == ["c", "d", "c", "d"]

    def test_empty(self):
        e = empty_picture()
        assert e.is_empty and e.cells == ()
        assert e.row_word(1) == ()

    def test_cell_count(self):
        with pytest.raises(ValueError, match="^cells length must be rows \\* cols$"):
            Picture(2, 2, 1, (sym("a", 1), sym("b", 1)))

    def test_index_above_k(self):
        # parse_picture rejects such indices first, so only these reach Picture's own check
        with pytest.raises(IndexOutOfRange):
            Picture(1, 2, 1, (sym("a", 2), sym("b", 2)))
        # the message names the first offending cell in row-major order, not the largest index
        with pytest.raises(IndexOutOfRange, match=r"^index 2 > k=1$"):
            Picture(1, 2, 1, (sym("a", 2), sym("b", 3)))

    @pytest.mark.parametrize("rows, cols", [(-2, -2), (-1, -4), (0, 3), (3, 0), (-1, 0)])
    def test_malformed_size(self, rows, cols):
        # -2 x -2 holds rows * cols = 4 cells; 0 x 3 would read as empty yet have a side
        cells = (sym("a", 1),) * max(rows * cols, 0)
        with pytest.raises(InvalidArgument):
            Picture(rows, cols, 1, cells)

    def test_rows_of_no_cells_are_the_empty_picture(self):
        assert picture_from_rows([]) == picture_from_rows([[], []]) == empty_picture()
        assert picture_from_rows([[], []], k=2) == empty_picture(2)
        with pytest.raises(RaggedRows, match="^lines of unequal length$"):
            picture_from_rows([[], [sym("a", 1)]])


class TestConcat:
    def test_exported(self):
        assert dyck2d.hcat is hcat and dyck2d.vcat is vcat
        assert {"hcat", "vcat"} <= set(dyck2d.__all__)

    def test_identity(self):
        p = parse_picture("ab\ncd")
        e = empty_picture()
        for join in (hcat, vcat):
            assert join(p, e) == p
            assert join(e, p) == p
        # joining only empty pictures gives the last one, k and all
        assert hcat(empty_picture(3)).k == vcat(empty_picture(), empty_picture(3)).k == 3

    def test_horizontal(self):
        p = parse_picture("ab\ncd")
        assert render_picture(hcat(p, p)) == "abab\ncdcd"

    def test_vertical(self):
        p = parse_picture("ab\ncd")
        assert render_picture(vcat(p, p)) == "ab\ncd\nab\ncd"

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgument):
            hcat(parse_picture("ab\ncd"), parse_picture("ab"))
        with pytest.raises(InvalidArgument):
            vcat(parse_picture("ab"), parse_picture("abab"))

    def test_many_parts(self):
        p, q = parse_picture("ab\ncd"), parse_picture("a2 b2\nc2 d2", 2)
        assert hcat() == empty_picture()
        assert hcat(p, empty_picture(), q, p) == hcat(hcat(p, q), p)
        assert vcat(q, p, empty_picture()) == vcat(vcat(q, p), empty_picture())
        assert hcat(p, q).k == 2
        with pytest.raises(InvalidArgument):
            hcat(p, p, parse_picture("ab"))
        with pytest.raises(InvalidArgument):
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

