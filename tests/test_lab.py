import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dyck2d.crossword import in_DC, picture_circuits
from dyck2d.dyck1d import Pairing, enumerate_dyck, parse_word, word_text
from dyck2d.errors import BudgetExceeded, ContainsNeutral, Dyck2dError, NotDyck
from dyck2d.grid import hcat, parse_picture, render_picture
from dyck2d.lab import (
    ClassFlags,
    census,
    classify,
    double_noose,
    embed_row,
    enumerate_dc,
    fixtures,
    hamiltonian_search,
)
from dyck2d.neutralize import in_DN

from oracles import all_pictures, oracle_in_dc


class TestClassFlags:
    def test_hierarchy_asserted(self):
        with pytest.raises(AssertionError):
            ClassFlags(in_dc=False, in_dq=True, in_dn=False, in_dw=False)

    def test_hierarchy_checked_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "from dyck2d.lab import ClassFlags; ClassFlags(False, False, False, True)"
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert "HierarchyViolation" in result.stderr

    def test_violation_is_a_package_error(self):
        # the CLI maps every Dyck2dError to exit code 2
        with pytest.raises(Dyck2dError):
            ClassFlags(in_dc=True, in_dq=False, in_dn=True, in_dw=False)

    def test_as_dict(self):
        flags = ClassFlags(in_dc=True, in_dq=True, in_dn=False, in_dw=False)
        assert flags.as_dict() == {
            "in_dc": True,
            "in_dq": True,
            "in_dn": False,
            "in_dw": False,
        }


class TestClassify:
    def test_non_crossword(self):
        flags = classify(parse_picture("ba\ndc"))
        assert flags.as_dict() == dict.fromkeys(flags.as_dict(), False)

    def test_minimal_block(self):
        assert all(classify(parse_picture("ab\ncd")).as_dict().values())

    def test_neutral_cells_raise(self):
        with pytest.raises(ContainsNeutral):
            classify(parse_picture("aNNb\ncNNd"))

    def test_long_strip(self):
        strip = hcat(*[parse_picture("ab\ncd")] * 1200)
        start = time.perf_counter()
        flags = classify(strip)
        assert time.perf_counter() - start < 1.0
        assert all(flags.as_dict().values())


class TestEnumerateDC:
    def test_odd_sizes_empty(self):
        assert list(enumerate_dc(3, 4)) == []
        assert list(enumerate_dc(2, 5)) == []

    def test_2x2(self):
        [p] = enumerate_dc(2, 2)
        assert render_picture(p) == "ab\ncd"

    def test_2xn_counts_are_catalan(self):
        # height-2 crosswords are exactly the {a,b} Dyck rows over {c,d} shadows
        assert len(list(enumerate_dc(2, 4))) == 2
        assert len(list(enumerate_dc(2, 6))) == 5
        assert len(list(enumerate_dc(2, 8))) == 14

    def test_matches_brute_force_2x4(self):
        ours = {p.cells for p in enumerate_dc(2, 4)}
        theirs = {p.cells for p in all_pictures(2, 4) if oracle_in_dc(p)}
        assert ours == theirs

    def test_all_outputs_are_crosswords(self):
        for p in enumerate_dc(4, 4):
            assert in_DC(p)


class TestCensus:
    def test_2x2(self):
        result = census(2, 2)
        assert result.counts == {"dc": 1, "dq": 1, "dn": 1, "dw": 1}
        assert result.witnesses == {}

    def test_2x4(self):
        result = census(2, 4)
        assert result.counts == {"dc": 2, "dq": 2, "dn": 2, "dw": 1}
        assert render_picture(result.witnesses["dn_not_dw"]) == "aabb\nccdd"

    @pytest.mark.parametrize(
        "rows, cols, k, counts",
        [
            (4, 4, 1, (13, 12, 12, 2)),
            (4, 6, 1, (125, 104, 104, 5)),
            (6, 4, 1, (125, 104, 104, 5)),
            (2, 8, 1, (14, 14, 14, 1)),
            (2, 4, 2, (8, 8, 8, 4)),
            (2, 6, 2, (40, 40, 40, 8)),
            (4, 4, 2, (196, 192, 192, 32)),
            (6, 6, 1, (5403, 3547, 3545, 21)),
        ],
    )
    def test_golden_counts(self, rows, cols, k, counts):
        assert census(rows, cols, k=k).counts == dict(zip(("dc", "dq", "dn", "dw"), counts))

    def test_monotone(self):
        counts = census(4, 4).counts
        assert counts["dc"] >= counts["dq"] >= counts["dn"] >= counts["dw"] > 0

    def test_witnesses_have_the_right_flags(self):
        result = census(4, 4)
        gaps = {
            "dc_not_dq": ("in_dc", "in_dq"),
            "dq_not_dn": ("in_dq", "in_dn"),
            "dn_not_dw": ("in_dn", "in_dw"),
        }
        # the smallest quaternate-but-not-neutralizable pictures are larger
        # than 4x4, so that gap has no witness here
        assert set(result.witnesses) == {"dc_not_dq", "dn_not_dw"}
        for name, p in result.witnesses.items():
            inside, outside = gaps[name]
            flags = classify(p).as_dict()
            assert flags[inside] and not flags[outside], name

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            census(6, 8, budget=36)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            census(3, 4)


class TestEmbedRow:
    def test_base_cases(self):
        assert render_picture(embed_row(parse_word("ab"))) == "ab\ncd\nab\ncd"
        assert render_picture(embed_row(parse_word("cd"))) == "ab\nab\ncd\ncd"

    def test_wrapped(self):
        assert render_picture(embed_row(parse_word("abcd"))) == "abab\ncdab\nabcd\ncdcd"

    def test_third_row_is_the_word(self):
        for n in (2, 4, 6):
            for w in enumerate_dyck(n, Pairing("Row", 1)):
                p = embed_row(w)
                assert p.rows == 4 and p.cols == n
                assert p.row_word(3) == tuple(w), word_text(w)
                assert in_DN(p).member, word_text(w)

    def test_rejects_non_dyck(self):
        with pytest.raises(NotDyck):
            embed_row(parse_word("ba"))
        with pytest.raises(NotDyck):
            embed_row(())


class TestDoubleNoose:
    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            double_noose(0)

    def test_base(self, fx):
        assert double_noose(1) == fx["fig4_left"]

    def test_h2_text(self):
        assert render_picture(double_noose(2)) == (
            "aaabbb\ncabdab\nacdbcd\naccddb\ncaabbd\ncabdab\nacdbcd\ncccddd"
        )

    def test_sizes_and_longest_circuit(self):
        for h in range(1, 5):
            p = double_noose(h)
            assert (p.rows, p.cols) == (4 * h, 6)
            assert in_DC(p)
            lengths = sorted(c.length for c in picture_circuits(p))
            assert lengths[-1] == 4 + 8 * h
            assert set(lengths[:-1]) == {4}


class TestHamiltonianSearch:
    def test_finds_the_unit_rectangle(self):
        found = hamiltonian_search(2, 2)
        assert [render_picture(p) for p in found] == ["ab\ncd"]

    def test_all_results_are_single_circuits(self):
        for p in hamiltonian_search(4, 4):
            assert len(picture_circuits(p)) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            hamiltonian_search(8, 8, budget=36)


class TestFixtures:
    def test_all_parse_to_expected_sizes(self):
        sizes = {
            "fig1_left": (4, 4),
            "fig1_mid": (4, 4),
            "fig2": (4, 4),
            "fig3_left": (4, 4),
            "fig3_right": (8, 8),
            "fig4_left": (4, 6),
            "fig5_left": (8, 8),
            "fig5_right": (6, 6),
            "example1": (4, 6),
            "p_N": (2, 4),
        }
        table = fixtures()
        assert set(table) == set(sizes)
        for name, p in table.items():
            assert (p.rows, p.cols) == sizes[name], name
