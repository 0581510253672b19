import inspect
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyck2d.crossword import _sweep, in_DC
from dyck2d.dyck1d import Pairing, enumerate_dyck, parse_word
from dyck2d.errors import ContainsNeutral, InvalidArgument, NotDyck
from dyck2d import crossword, wellnest
from dyck2d.grid import (
    BULLET_SYM,
    N,
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
from dyck2d.lab import census, classify, enumerate_dc
from dyck2d.neutralize import Redex
from dyck2d.wellnest import (
    Accretion,
    chinese_accretion,
    in_DB,
    in_DW,
    nesting_accretion,
)

from oracles import (
    oracle_db_set,
    oracle_dc_count,
    oracle_dw_count,
    oracle_dw_set,
    oracle_in_db,
    random_db_member,
)


def pinwheel(north, east, south, west):
    """10x10 picture of four tiles (4x6, 6x4, 4x6, 6x4) turning around a central ab/cd.

    No straight cut crosses it: every line through the picture runs into a tile.
    """
    grid = [[None] * 10 for _ in range(10)]
    placed = ((north, 0, 0), (east, 0, 6), (south, 6, 4), (west, 4, 0), (parse_picture("ab\ncd"), 4, 4))
    for tile, top, left in placed:
        for r in range(tile.rows):
            for c in range(tile.cols):
                grid[top + r][left + c] = tile.cell(r + 1, c + 1)
    return picture_from_rows(grid)


def deep_nest(depth):
    """nesting_accretion applied depth times to ab/cd, with abab... and acac... borders."""
    p = parse_picture("ab\ncd")
    for _ in range(depth):
        w_r, w_c = parse_word("ab" * (p.cols // 2)), parse_word("ac" * (p.rows // 2))
        p = nesting_accretion(Accretion(1, w_r, w_c, p))
    return p


def chinese_nest(depth):
    """chinese_accretion applied depth times to the empty picture, built in one pass."""
    n = 2 * depth

    def cell(i, j):
        ring = min(i, j, n - 1 - i, n - 1 - j)
        if i in (ring, n - 1 - ring) and j in (ring, n - 1 - ring):
            return sym("ac"[i != ring] if j == ring else "bd"[i != ring], 1)
        return BULLET_SYM

    return Picture(n, n, 1, tuple(cell(i, j) for i in range(n) for j in range(n)))


def dyck_over(n, roles, kind):
    """Dyck words of length n restricted to an opening/closing role pair."""
    return [
        w
        for w in enumerate_dyck(n, Pairing(kind, 1))
        if all(s.role in roles for s in w)
    ]


border_pairs = st.integers(0, 2).flatmap(
    lambda hr: st.integers(0, 2).flatmap(
        lambda hc: st.tuples(
            st.sampled_from(dyck_over(2 * hr, "ab", "Row") or [()]),
            st.sampled_from(dyck_over(2 * hc, "ac", "Col") or [()]),
        )
    )
)


class TestNestingAccretion:
    def test_empty_core(self):
        p = nesting_accretion(Accretion(1, (), (), empty_picture()))
        assert render_picture(p) == "ab\ncd"

    def test_framed_block(self):
        core = parse_picture("ab\ncd")
        p = nesting_accretion(Accretion(1, parse_word("ab"), parse_word("ac"), core))
        assert render_picture(p) == "aabb\naabb\nccdd\nccdd"

    def test_border_images(self):
        core = parse_picture("abab\ncdcd")
        w_r = parse_word("aabb")
        w_c = parse_word("ac")
        p = nesting_accretion(Accretion(1, w_r, w_c, core))
        assert render_picture(p) == "aaabbb\naababb\nccdcdd\ncccddd"

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            nesting_accretion(Accretion(1, parse_word("ab"), (), empty_picture()))

    def test_bad_border_letters(self):
        core = parse_picture("ab\ncd")
        with pytest.raises(NotDyck):
            nesting_accretion(Accretion(1, parse_word("cd"), parse_word("ac"), core))
        with pytest.raises(NotDyck):
            nesting_accretion(Accretion(1, parse_word("ab"), parse_word("ab"), core))

    def test_non_dyck_border(self):
        core = parse_picture("ab\ncd")
        with pytest.raises(NotDyck):
            nesting_accretion(Accretion(1, parse_word("ba"), parse_word("ac"), core))

    def test_uniform_index_switch(self):
        core = parse_picture("a1 b1\nc1 d1", k=2)
        acc = Accretion(2, parse_word("a1 b1", k=2), parse_word("a1 c1", k=2), core)
        framed = nesting_accretion(acc)  # mixed indices allowed by default
        assert framed.cell(1, 1).index == 2 and framed.cell(1, 2).index == 1
        with pytest.raises(NotDyck):
            nesting_accretion(acc, mixed_border_indices=False)

    def test_uniform_index_accepts_matching_borders(self):
        # borders that carry the corner index pass the uniform check
        core = parse_picture("a1 b1\nc1 d1", k=2)
        acc = Accretion(2, parse_word("a2 b2", k=2), parse_word("a2 c2", k=2), core)
        framed = nesting_accretion(acc, mixed_border_indices=False)
        assert framed == nesting_accretion(acc)
        assert in_DW(framed, mixed_border_indices=False)

    @settings(max_examples=60, deadline=None)
    @given(border_pairs)
    def test_accretions_are_well_nested_crosswords(self, borders):
        w_r, w_c = borders
        core = parse_picture("ab\ncd") if (w_r or w_c) else empty_picture()
        if len(w_r) != core.cols or len(w_c) != core.rows:
            return
        p = nesting_accretion(Accretion(1, w_r, w_c, core))
        assert in_DC(p)
        assert in_DW(p)


BORDER_MODES = pytest.mark.parametrize("mixed", [True, False], ids=["mixed", "uniform"])


@pytest.fixture
def no_corner_pre_pass(monkeypatch):
    # neutral and bullet cells are never matched, and the empty picture's scan
    # claims nothing, so in_DW never reaches the crossword gate and its corner check
    def no_pre_pass(p):
        raise AssertionError("in_DW ran the crossword gate")

    monkeypatch.setattr(crossword, "_crossword_matching", no_pre_pass)


class TestInDW:
    @BORDER_MODES
    def test_empty(self, mixed, no_corner_pre_pass):
        assert in_DW(empty_picture(), mixed_border_indices=mixed)

    def test_minimal(self):
        assert in_DW(parse_picture("ab\ncd"))

    def test_fixture_flags(self, fx):
        assert in_DW(fx["fig1_left"])
        assert not in_DW(fx["p_N"])
        assert not in_DW(fx["fig2"])
        assert not in_DW(fx["example1"])
        assert not in_DW(fx["fig3_left"])

    def test_concatenations_are_well_nested(self):
        from dyck2d.grid import hcat, vcat

        block = parse_picture("ab\ncd")
        assert in_DW(hcat(block, block))
        assert in_DW(vcat(block, block, block))

    def test_odd_sizes_rejected(self):
        assert not in_DW(parse_picture("ab"))

    @BORDER_MODES
    def test_neutral_and_bullet_cells(self, mixed, no_corner_pre_pass):
        assert not in_DW(parse_picture("aNNb\ncNNd"), mixed_border_indices=mixed)
        assert not in_DW(parse_picture("a**b\nc**d"), mixed_border_indices=mixed)
        # and a deep member beside them, on the same matching and no pre-pass
        assert in_DW(deep_nest(60), mixed_border_indices=mixed)

    def test_uniform_border_indices(self):
        core = parse_picture("a1 b1\nc1 d1", k=2)
        acc = Accretion(2, parse_word("a1 b1", k=2), parse_word("a1 c1", k=2), core)
        framed = nesting_accretion(acc)
        assert in_DW(framed)
        assert not in_DW(framed, mixed_border_indices=False)

    def test_long_strip(self):
        strip = hcat(*[parse_picture("ab\ncd")] * 1200)
        start = time.perf_counter()
        assert in_DW(strip)
        assert time.perf_counter() - start < 1.0

    def test_strip_ending_in_p_n(self, fx):
        # no partition splits p_N off the blocks before it
        strip = hcat(*[parse_picture("ab\ncd")] * 40, fx["p_N"])
        start = time.perf_counter()
        assert not in_DW(strip)
        assert time.perf_counter() - start < 1.0

    def test_matches_bottom_up_oracle(self):
        oracle = oracle_dw_set(4, 4)
        for rows, cols in ((2, 2), (2, 4), (4, 2), (4, 4)):
            for p in enumerate_dc(rows, cols):
                assert in_DW(p) == ((p.rows, p.cols, p.cells) in oracle), render_picture(p)

    # in_DW / in_DW(mixed_border_indices=False) summed over enumerate_dc
    @pytest.mark.parametrize(
        "rows, cols, k, mixed, uniform",
        [
            (4, 4, 2, 32, 20),
            (2, 6, 2, 8, 8),
            (6, 2, 2, 8, 8),
            (2, 4, 3, 9, 9),
            (4, 2, 3, 9, 9),
            (4, 6, 1, 5, 5),
            (6, 6, 1, 21, 21),
        ],
    )
    def test_golden_counts(self, rows, cols, k, mixed, uniform):
        pictures = list(enumerate_dc(rows, cols, k))
        assert sum(in_DW(p) for p in pictures) == mixed
        assert sum(in_DW(p, mixed_border_indices=False) for p in pictures) == uniform

    # every even size up to 36 cells but the two slowest, 2x18 and 18x2
    @pytest.mark.parametrize(
        "rows, cols",
        [(r, c) for r in range(2, 17, 2) for c in range(2, 17, 2) if r * c <= 36],
    )
    def test_counts_match_tiling_oracle(self, rows, cols):
        counts = census(rows, cols).counts
        assert counts["dw"] == oracle_dw_count(rows, cols)
        assert counts["dc"] == oracle_dc_count(rows, cols)

    @pytest.mark.parametrize(
        "decide, nest",
        [(in_DW, deep_nest), (lambda p: classify(p).in_dw, deep_nest), (in_DB, chinese_nest)],
        ids=["in_DW", "classify", "in_DB"],
    )
    def test_builds_no_domain(self, monkeypatch, decide, nest):
        # DW claims rings in one bytearray and DB keeps box tuples: no per-rectangle Redex
        grid = vcat(*[hcat(*[parse_picture("ab\ncd")] * 20)] * 20)
        pictures = (grid, nest(60))
        calls = []
        new = Redex.__new__
        monkeypatch.setattr(Redex, "__new__", lambda cls, *a: calls.append(a) or new(cls, *a))
        for p in pictures:
            assert decide(p)
        assert not calls, f"{len(calls)} Redexes built"
        assert Redex(1, 1, 2, 2, 1) and len(calls) == 1  # the counter counts

    def test_reads_no_is_corner(self, monkeypatch):
        # the crossword matching rejects neutral and bullet cells: no separate corner pass
        p = deep_nest(60)
        calls = []
        get = Symbol.is_corner.fget
        monkeypatch.setattr(Symbol, "is_corner", property(lambda s: calls.append(s) or get(s)))
        assert in_DW(p)
        assert not calls, f"{len(calls)} Symbol.is_corner reads"
        assert p.cells[0].is_corner and len(calls) == 1  # the counter counts

    def test_pinwheel_of_accretions(self):
        block = parse_picture("ab\ncd")
        wide = nesting_accretion(Accretion(1, parse_word("abab"), parse_word("ac"), hcat(block, block)))
        tall = nesting_accretion(Accretion(1, parse_word("ab"), parse_word("acac"), vcat(block, block)))
        assert (wide.rows, wide.cols, tall.rows, tall.cols) == (4, 6, 6, 4)
        # DW closes under partition, not only under concatenation
        assert in_DW(pinwheel(wide, tall, wide, tall))

    def test_woven_frames_are_not_well_nested(self):
        # two nested tall frames (columns 3-8, 4-7) woven through two nested wide ones
        # (rows 3-8, 4-7): every ring is a frame and every cell ends up claimed, but rings
        # cross, so their sizes sum past the cell count; no crossword up to 48 cells needs that
        p = parse_picture(
            "abaaabbbab\ncdaaabbbcd\n"
            + "aaaaabbbbb\n" * 3
            + "cccccddddd\n" * 3
            + "abcccdddab\ncdcccdddcd"
        )
        flags = classify(p)
        assert (flags.in_dc, flags.in_dq, flags.in_dn, flags.in_dw) == (True, True, True, False)
        assert not in_DW(p)
        assert not in_DW(p, mixed_border_indices=False)

    def test_deep_nesting_never_recurses(self):
        script = (
            "import sys, time\n"
            "from test_wellnest import deep_nest\n"
            "from dyck2d.grid import hcat, parse_picture, vcat\n"
            "from dyck2d.wellnest import in_DW\n"
            "nest = deep_nest(120)\n"
            "assert (nest.rows, nest.cols) == (242, 242)\n"
            "ab = parse_picture('ab\\ncd')\n"
            "grid = vcat(*[hcat(*[ab] * 200)] * 200)\n"
            "sys.setrecursionlimit(60)\n"
            "for p in (nest, grid):\n"
            "    start = time.perf_counter()\n"
            "    assert in_DW(p), (p.rows, p.cols)\n"
            "    assert time.perf_counter() - start < 1.0, (p.rows, p.cols)\n"
        )
        path = [str(Path(__file__).parent), str(Path(wellnest.__file__).parents[1])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


class TestFrame:
    """_is_frame reads the matching: a 4-cycle of corners, borders paired straight across."""

    def test_fixtures(self, fx):
        p = fx["fig1_left"]
        assert wellnest._is_frame(p, *_sweep(p, rectangles=False)[:2], 0, True)
        # fig2's border symbols read as a frame, but its core ba/dc is not balanced,
        # so the top and left borders are not paired across the box
        p = fx["fig2"]
        assert not wellnest._is_frame(p, *_sweep(p, rectangles=False)[:2], 0, True)
        assert not in_DW(p)

    def test_frames_read_as_accretions(self):
        # an accepted box has the corners and the border images of a nesting accretion
        sizes = ((4, 4, 1), (4, 6, 1), (6, 4, 1), (4, 4, 2))
        pool = [p for rows, cols, k in sizes for p in enumerate_dc(rows, cols, k)]
        below, across = {"a": "c", "b": "d"}, {"a": "b", "c": "d"}
        accepted = 0
        for p in pool:
            row, col, _, _ = _sweep(p, rectangles=False)
            for a, s in enumerate(p.cells):
                if s.role != "a" or not wellnest._is_frame(p, row, col, a, True):
                    continue
                accepted += 1
                b, c = row[a], col[a]
                d = col[b]
                assert [p.cells[x] for x in (b, c, d)] == [sym(r, s.index) for r in "bcd"]
                for x in range(a + 1, b):
                    t = p.cells[x]
                    assert t.role in below and p.cells[x + c - a] == sym(below[t.role], t.index)
                for x in range(a + p.cols, c, p.cols):
                    t = p.cells[x]
                    assert t.role in across and p.cells[x + b - a] == sym(across[t.role], t.index)
        assert accepted > len(pool)


class TestRingScan:
    """in_DB claims box rings in one row-major scan, then peels and cuts box lists."""

    @pytest.mark.parametrize(
        "anchor, box",
        [(0, (0, 0, 3, 3)), (7, (1, 1, 2, 2)), (4, None)],
        ids=["outer", "inner", "beside"],
    )
    def test_box_finds_frame(self, anchor, box):
        # the 4x4 box and its core on a 4x6 picture, whose searches run to the first
        # non-bullet cell; right of it, a 4x2 frame would have a core with no columns
        p = hcat(chinese_accretion(parse_picture("ab\ncd")), parse_picture("ab\n**\n**\ncd"))
        roles = "".join(s.role for s in p.cells)
        assert wellnest._box(p, roles, anchor) == box

    def test_box_search_stays_in_its_row(self):
        # the a in the last column anchors no box, though the next row starts b c
        # and a search run on into it would read a wrapped 2x2 frame
        p = parse_picture("*a\nbc\nd*")
        assert wellnest._box(p, "".join(s.role for s in p.cells), 1) is None
        assert not in_DB(p)

    @pytest.mark.parametrize(
        "text",
        ["a1 b2\nc1 d1", "a1 b1\nc2 d1", "a1 * * b1\n* a1 b2 *\n* c1 d1 *\nc1 * * d1"],
        ids=["b2", "c2", "inner-b2"],
    )
    def test_box_reads_every_corner_index(self, text):
        # a top-right or bottom-left corner of index 2, alone or in an inner box, makes no box
        p = parse_picture(text, k=2)
        assert not in_DB(p) and not oracle_in_db(p)

    @pytest.mark.parametrize(
        "text, member",
        [
            ("abab\ncdcd\nabab\ncdcd", True),  # cut by columns, then by rows, then peeled
            ("a****b\n*abab*\n*cdcd*\nc****d", True),  # peeled, then cut
            ("ab**\ncd**", False),  # the first unclaimed cell anchors no box
            ("a**b\n*ab*\n*cd*\nca*d", False),  # a box whose bottom row is not bullets
            ("ab\ncd\n**", False),  # an odd row left over
            ("a*b\nc*d", False),  # a 2x3 box has a core with no rows
        ],
        ids=["grid", "nested", "no-box", "bad-frame", "leftover-row", "flat-core"],
    )
    def test_verdict(self, text, member):
        p = parse_picture(text)
        assert in_DB(p) == oracle_in_db(p) == member

    def test_woven_rings_cover_every_cell(self, monkeypatch):
        # two tall boxes (columns 3-8, 4-7, 1-based) cross two wide ones (rows 3-8, 4-7)
        # around a central ab/cd: the scan claims every cell, and only the worklist rejects,
        # because crossing boxes share a column and a row interval and neither holds the other
        p = parse_picture(
            "aba****bab\n"
            "cd*a**b*cd\n"
            "a********b\n"
            "*a******b*\n"
            "****ab****\n"
            "****cd****\n"
            "*c******d*\n"
            "c********d\n"
            "ab*c**d*ab\n"
            "cdc****dcd"
        )
        boxes = []
        find = wellnest._box
        monkeypatch.setattr(wellnest, "_box", lambda *args: boxes.append(find(*args)) or boxes[-1])
        assert not in_DB(p) and not oracle_in_db(p)
        assert None not in boxes and len(boxes) == 9
        covered = Counter()
        for top, left, bottom, right in boxes:
            ring = {(i, j) for i in (top, bottom) for j in range(left, right + 1)}
            covered.update(ring | {(i, j) for i in range(top, bottom + 1) for j in (left, right)})
        assert len(covered) == p.rows * p.cols
        assert max(covered.values()) > 1  # rings cross


class TestMemo:
    def test_no_module_state_grows(self, fx):
        def sizes():
            return {
                name: len(value)
                for name, value in vars(wellnest).items()
                if isinstance(value, (dict, set, list))
            }

        before = sizes()
        for _ in range(2):
            census(4, 4)
            in_DB(fx["fig1_mid"])
            in_DB(chinese_accretion(fx["fig1_mid"]))
        assert sizes() == before


@pytest.fixture(scope="module")
def db_closure():
    """Every Chinese-box picture of at most 8 rows and 8 columns, from the closure oracle."""
    return oracle_db_set(8, 8)


class TestChineseBoxes:
    def test_accretion_of_empty(self):
        assert render_picture(chinese_accretion(empty_picture())) == "ab\ncd"
        assert chinese_accretion(empty_picture(3)) == parse_picture("ab\ncd")

    def test_accretion_frames_with_bullets(self):
        p = chinese_accretion(parse_picture("ab\ncd"))
        assert render_picture(p) == "a••b\n•ab•\n•cd•\nc••d"
        p = chinese_accretion(parse_picture("a2 b2\nc2 d2", 2))
        assert render_picture(p) == "a1 • • b1\n• a2 b2 •\n• c2 d2 •\nc1 • • d1"

    def test_neutral_rejected(self):
        with pytest.raises(ContainsNeutral):
            chinese_accretion(parse_picture("aNb\ncNd"))

    def test_fig1_mid_is_a_chinese_box(self, fx):
        assert in_DB(fx["fig1_mid"])

    def test_membership(self):
        from dyck2d.grid import hcat

        box = chinese_accretion(empty_picture())
        assert in_DB(box)
        assert in_DB(hcat(box, box))
        assert in_DB(chinese_accretion(hcat(box, box)))
        assert not in_DB(parse_picture("ba\ndc"))
        assert not in_DB(parse_picture("a•b\nc•d".replace("•", "*")))

    def test_empty(self):
        assert in_DB(empty_picture())

    def test_corners_need_index_one(self):
        box = chinese_accretion(parse_picture("ab\ncd"))
        assert in_DB(Picture(4, 4, 2, box.cells))
        for x, s in enumerate(box.cells):
            if s.is_corner:
                cells = box.cells[:x] + (sym(s.role, 2),) + box.cells[x + 1 :]
                assert not in_DB(Picture(4, 4, 2, cells)), x

    def test_pinwheel_has_no_guillotine_cut(self):
        block = parse_picture("ab\ncd")
        wide, tall = chinese_accretion(hcat(block, block)), chinese_accretion(vcat(block, block))
        assert in_DB(wide) and in_DB(tall)
        # DB closes under concatenation only: a partition into boxes is not enough
        assert not in_DB(pinwheel(wide, tall, wide, tall))
        assert not oracle_in_db(pinwheel(wide, tall, wide, tall))

    def test_matches_closure_oracle_on_small_pictures(self):
        members = oracle_db_set(6, 6)
        alphabet = [*(sym(r, 1) for r in "abcd"), BULLET_SYM]
        for rows in range(1, 7):
            for cols in range(1, 6 // rows + 1):
                for cells in product(alphabet, repeat=rows * cols):
                    assert in_DB(Picture(rows, cols, 1, cells)) == ((rows, cols, cells) in members)

    def test_matches_closure_oracle_on_members_and_mutants(self, db_closure):
        members = db_closure
        alphabet = [*(sym(r, 1) for r in "abcd"), BULLET_SYM, N]
        rng = random.Random(0)
        for rows, cols, cells in sorted(members, key=lambda m: (m[:2], [s.role for s in m[2]])):
            assert in_DB(Picture(rows, cols, 1, cells))
            # every cell of a member under 8 rows and 8 columns, two seeded cells of any other
            spots = range(len(cells)) if max(rows, cols) < 8 else rng.sample(range(len(cells)), 2)
            for x, s in product(spots, alphabet):
                if s != cells[x]:
                    mutant = (rows, cols, cells[:x] + (s,) + cells[x + 1 :])
                    assert in_DB(Picture(rows, cols, 1, mutant[2])) == (mutant in members)

    def test_definition_oracle_matches_closure_oracle(self, db_closure):
        # the two DB oracles, on every closure member of at most 8 rows and columns and its
        # one-cell mutants: every cell under 8 rows and 8 columns, two seeded cells otherwise
        members = db_closure
        alphabet = [*(sym(r, 1) for r in "abcd"), BULLET_SYM, N]
        rng = random.Random(0)
        for rows, cols, cells in sorted(members, key=lambda m: (m[:2], [s.role for s in m[2]])):
            assert oracle_in_db(Picture(rows, cols, 1, cells))
            spots = range(len(cells)) if max(rows, cols) < 8 else rng.sample(range(len(cells)), 2)
            for x, s in product(spots, alphabet):
                mutant = (rows, cols, cells[:x] + (s,) + cells[x + 1 :])
                assert oracle_in_db(Picture(rows, cols, 1, mutant[2])) == (mutant in members)

    def test_matches_definition_oracle_on_random_members_and_mutants(self):
        # seeded members up to 16x16, far past the closure oracle's 8 cells a side,
        # and one, two and three seeded cells of each changed
        alphabet = [*(sym(r, 1) for r in "abcd"), BULLET_SYM, N, sym("a", 2)]
        rng = random.Random(18)
        accepted = 0
        for _ in range(800):
            rows, cols = 2 * rng.randint(1, 8), 2 * rng.randint(1, 8)
            p = random_db_member(rng, rows, cols)
            assert in_DB(p) and oracle_in_db(p), render_picture(p)
            for changed in (1, 2, 3):
                cells = list(p.cells)
                for x in rng.sample(range(len(cells)), min(changed, len(cells))):
                    cells[x] = rng.choice(alphabet)
                q = Picture(rows, cols, 2, tuple(cells))
                verdict = oracle_in_db(q)
                assert in_DB(q) == verdict, render_picture(q)
                accepted += verdict
        assert accepted > 10  # some mutants are members again

    @pytest.mark.parametrize(
        "side, nested, boxes",
        [(20, False, 400), (3, True, 18), (1, True, 2)],
    )
    def test_each_box_checked_once(self, monkeypatch, side, nested, boxes):
        # parts between cuts keep the boxes found inside them: no box is framed twice
        box = parse_picture("ab\ncd")
        if nested:
            box = chinese_accretion(box)
        grid = vcat(*[hcat(*[box] * side)] * side)
        calls = []
        find = wellnest._box
        monkeypatch.setattr(wellnest, "_box", lambda p, roles, a: calls.append(a) or find(p, roles, a))
        assert in_DB(grid)
        assert len(calls) == len(set(calls)) == boxes

    @pytest.mark.parametrize("decide", [in_DB, in_DW])
    def test_no_symbol_comparisons(self, monkeypatch, decide):
        # the deciders read roles and indices: no dataclass __eq__ or __hash__ runs
        grid = vcat(*[hcat(*[parse_picture("ab\ncd")] * 20)] * 20)
        calls = []
        for name in ("__eq__", "__hash__"):
            method = getattr(Symbol, name)
            monkeypatch.setattr(Symbol, name, lambda *args, m=method: calls.append(m) or m(*args))
        assert decide(grid)
        assert not calls, f"{len(calls)} Symbol comparisons or hashes"
        assert grid.cells[0] == grid.cells[2] and len(calls) == 1  # the counter counts

    def test_chinese_nest_is_iterated_accretion(self):
        p = empty_picture()
        for depth in range(6):
            assert chinese_nest(depth) == p
            p = chinese_accretion(p)

    def test_scale_never_recurses(self):
        # chinese_nest is pasted in, so the child imports neither pytest nor hypothesis
        script = (
            "import sys, time\n"
            "from dyck2d.grid import BULLET_SYM, Picture, empty_picture, hcat, sym, vcat\n"
            f"{inspect.getsource(chinese_nest)}"
            "from dyck2d.wellnest import chinese_accretion, in_DB\n"
            "box = chinese_accretion(empty_picture())\n"
            "strip = hcat(*[box] * 1200)\n"
            "nest = chinese_nest(240)\n"
            "grid = vcat(*[hcat(*[chinese_accretion(box)] * 20)] * 20)\n"
            "broken = Picture(80, 80, 1, grid.cells[:-1] + (sym('b', 1),))\n"
            "blocks = vcat(*[hcat(*[box] * 200)] * 200)\n"
            "sys.setrecursionlimit(60)\n"
            "cases = ((strip, True), (nest, True), (grid, True), (broken, False), (blocks, True))\n"
            "for p, member in cases:\n"
            "    start = time.perf_counter()\n"
            "    assert in_DB(p) == member, (p.rows, p.cols)\n"
            "    assert time.perf_counter() - start < 1.0, (p.rows, p.cols)\n"
        )
        path = [str(Path(__file__).parent), str(Path(wellnest.__file__).parents[1])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
