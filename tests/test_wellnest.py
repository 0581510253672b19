import inspect
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyck2d.crossword import in_DC
from dyck2d.dyck1d import Pairing, enumerate_dyck, parse_word
from dyck2d.errors import ContainsNeutral, LengthMismatch, NotDyckBorder
from dyck2d import wellnest
from dyck2d.grid import (
    BULLET_SYM,
    Domain,
    N,
    Picture,
    empty_picture,
    hcat,
    parse_picture,
    picture_from_rows,
    render_picture,
    sym,
    vcat,
)
from dyck2d.lab import census, enumerate_dc
from dyck2d.wellnest import (
    Accretion,
    chinese_accretion,
    in_DB,
    in_DW,
    nesting_accretion,
)

from oracles import oracle_db_set, oracle_dw_set


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
        with pytest.raises(LengthMismatch):
            nesting_accretion(Accretion(1, parse_word("ab"), (), empty_picture()))

    def test_bad_border_letters(self):
        core = parse_picture("ab\ncd")
        with pytest.raises(NotDyckBorder):
            nesting_accretion(Accretion(1, parse_word("cd"), parse_word("ac"), core))
        with pytest.raises(NotDyckBorder):
            nesting_accretion(Accretion(1, parse_word("ab"), parse_word("ab"), core))

    def test_non_dyck_border(self):
        core = parse_picture("ab\ncd")
        with pytest.raises(NotDyckBorder):
            nesting_accretion(Accretion(1, parse_word("ba"), parse_word("ac"), core))

    def test_uniform_index_switch(self):
        core = parse_picture("a1 b1\nc1 d1", k=2)
        acc = Accretion(2, parse_word("a1 b1", k=2), parse_word("a1 c1", k=2), core)
        framed = nesting_accretion(acc)  # mixed indices allowed by default
        assert framed.cell(1, 1).index == 2 and framed.cell(1, 2).index == 1
        with pytest.raises(NotDyckBorder):
            nesting_accretion(acc, mixed_border_indices=False)

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


class TestInDW:
    def test_empty(self):
        assert in_DW(empty_picture())

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

    def test_neutral_and_bullet_cells(self):
        assert not in_DW(parse_picture("aNNb\ncNNd"))
        assert not in_DW(parse_picture("a**b\nc**d"))

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

    def test_pinwheel_of_accretions(self):
        block = parse_picture("ab\ncd")
        wide = nesting_accretion(Accretion(1, parse_word("abab"), parse_word("ac"), hcat(block, block)))
        tall = nesting_accretion(Accretion(1, parse_word("ab"), parse_word("acac"), vcat(block, block)))
        assert (wide.rows, wide.cols, tall.rows, tall.cols) == (4, 6, 6, 4)
        # DW closes under partition, not only under concatenation
        assert in_DW(pinwheel(wide, tall, wide, tall))

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


class TestTiledTopDown:
    """The row-major scan alone, on stand-in tiles: a cell not listed is its own 1x1 tile."""

    @pytest.mark.parametrize(
        "listed, tiles",
        [
            ({}, [(1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 2, 1), (2, 2, 2, 2)]),
            ({(1, 1): (1, 1, 2, 1), (1, 2): (1, 2, 2, 2)}, [(1, 1, 2, 1), (1, 2, 2, 2)]),
            ({(1, 2): None}, None),
            ({(1, 1): (1, 1, 1, 3)}, None),  # leaves the region on the right
            ({(1, 1): (1, 1, 3, 1)}, None),  # leaves the region at the bottom
            ({(1, 2): (1, 2, 2, 2), (2, 1): (2, 1, 2, 2)}, None),  # its top row meets a tile
        ],
    )
    def test_scan(self, listed, tiles):
        seen = []

        def tile(i, j):
            d = listed.get((i, j), (i, j, i, j))
            return d and Domain(*d)

        def parts(region, found):
            seen.append([d.as_tuple() for d in found])
            return []

        assert wellnest._tiled_top_down(parse_picture("ab\ncd"), tile, parts) == (tiles is not None)
        assert seen == ([] if tiles is None else [tiles])


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


class TestChineseBoxes:
    def test_accretion_of_empty(self):
        assert render_picture(chinese_accretion(empty_picture())) == "ab\ncd"

    def test_accretion_frames_with_bullets(self):
        p = chinese_accretion(parse_picture("ab\ncd"))
        assert render_picture(p) == "a••b\n•ab•\n•cd•\nc••d"

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

    def test_pinwheel_has_no_guillotine_cut(self):
        block = parse_picture("ab\ncd")
        wide, tall = chinese_accretion(hcat(block, block)), chinese_accretion(vcat(block, block))
        assert in_DB(wide) and in_DB(tall)
        # DB closes under concatenation only: a partition into boxes is not enough
        assert not in_DB(pinwheel(wide, tall, wide, tall))

    def test_matches_closure_oracle_on_small_pictures(self):
        members = oracle_db_set(6, 6)
        alphabet = [*(sym(r, 1) for r in "abcd"), BULLET_SYM]
        for rows in range(1, 7):
            for cols in range(1, 6 // rows + 1):
                for cells in product(alphabet, repeat=rows * cols):
                    assert in_DB(Picture(rows, cols, 1, cells)) == ((rows, cols, cells) in members)

    def test_matches_closure_oracle_on_members_and_mutants(self):
        members = oracle_db_set(8, 8)
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
            "sys.setrecursionlimit(60)\n"
            "for p, member in ((strip, True), (nest, True), (grid, True), (broken, False)):\n"
            "    start = time.perf_counter()\n"
            "    assert in_DB(p) == member, (p.rows, p.cols)\n"
            "    assert time.perf_counter() - start < 1.0, (p.rows, p.cols)\n"
        )
        path = [str(Path(__file__).parent), str(Path(wellnest.__file__).parents[1])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
