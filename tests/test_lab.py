import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dyck2d import crossword, lab
from dyck2d.crossword import _crossword_matching, in_DC, picture_circuits
from dyck2d.dyck1d import Pairing, enumerate_dyck, parse_word, word_text
from dyck2d.errors import BudgetExceeded, ContainsNeutral, Dyck2dError, InvalidArgument, NotDyck
from dyck2d.grid import Picture, hcat, parse_picture, render_picture, sym, vcat
from dyck2d.lab import (
    ClassFlags,
    _enumerate_matched,
    census,
    classify,
    double_noose,
    embed_row,
    enumerate_dc,
    fixtures,
    hamiltonian_search,
)
from dyck2d.neutralize import in_DN

from oracles import all_pictures, mirror_lr, oracle_in_dc


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

    def test_kahn_runs_only_off_dw(self, fx, monkeypatch):
        # DW ⊆ DN: a well-nested picture is neutralizable without Kahn's pass
        from test_wellnest import deep_nest

        calls = []
        kahn = lab._kahn
        monkeypatch.setattr(lab, "_kahn", lambda *a: calls.append(a) or kahn(*a))
        grid = vcat(*[hcat(*[parse_picture("ab\ncd")] * 10)] * 10)
        for p in (fx["fig1_left"], grid, deep_nest(60)):
            assert classify(p).in_dw
        assert not calls, f"{len(calls)} Kahn passes"
        for name, in_dn in (("fig2", True), ("p_N", True), ("fig5_left", False)):
            calls.clear()
            flags = classify(fx[name])
            assert (flags.in_dq, flags.in_dn, flags.in_dw) == (True, in_dn, False)
            assert len(calls) == 1, name


class TestEnumerateDC:
    def test_odd_sizes_empty(self):
        assert list(enumerate_dc(3, 4)) == []
        assert list(enumerate_dc(2, 5)) == []

    @pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (-2, 2)])
    def test_empty_or_negative_sizes_empty(self, rows, cols):
        assert list(enumerate_dc(rows, cols)) == []

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

    # sha256 of render_picture(p) + "\n\n" over the stream, pinned from the
    # recursive enumerator that tried all 4k symbols at every cell
    @pytest.mark.parametrize(
        "rows, cols, k, count, digest",
        [
            (6, 6, 1, 5403, "4c722b339317bfb69a77dde351c1de7dec1a6bb298def6a17ae0f97849727d23"),
            (4, 8, 1, 1484, "2f225b891cb94eb9786f17c5d9bf9b85209295ef331597c4acf5efb5466b2fd4"),
            (8, 4, 1, 1484, "add67c4323e4364551758f2359aee383713995dbe6f5434392ba72abb60c9a4d"),
            (2, 10, 1, 42, "e831fce0070c2c1df0c9e81d08c5ca8d72cb48ff63f0140b0bed5ae54ac078a1"),
            (2, 8, 2, 224, "e394a670cb8993eeaa18a25037660256f9c7fa1f16a404f93ab2642b63867860"),
            (4, 4, 2, 196, "d847621aa1b83d667d3b5078d26c97319361dd643ea12baddb881a9ee153283e"),
            (4, 4, 3, 981, "1055d5a7c7a5003d241c12c3805c9878e623e53b19bd6a4c0a991cbdc116de98"),
            (2, 6, 3, 135, "664c6b5b9513cf2ecae3dc4e23d0d1e9766cf66ff2308e01dc4b92f6fb895694"),
            (4, 2, 3, 18, "603fc7814a2a6f289fe40feef967b884d59ad83d50f268cc8062a5311256af9b"),
        ],
    )
    def test_stream_is_pinned(self, rows, cols, k, count, digest):
        h, n = hashlib.sha256(), 0
        for p in enumerate_dc(rows, cols, k):
            h.update((render_picture(p) + "\n\n").encode())
            n += 1
        assert (n, h.hexdigest()) == (count, digest)

    @pytest.mark.parametrize("rows, cols, k", [(6, 6, 1), (4, 4, 2), (2, 6, 3)])
    def test_matching_handed_over(self, rows, cols, k):
        # the lists are live, so each item is checked before the next is asked for;
        # census reads the halved stream, and the full one gives every picture weight 1
        for halve in (False, True):
            for p, row, col, rects, owner, weight in _enumerate_matched(rows, cols, k, halve):
                text = render_picture(p)
                assert weight == 1 or halve, text
                # both close a rectangle at its d, so the lists and ids agree outright
                sweep = _crossword_matching(p, rectangles=True)
                assert sweep is not None and (row, col, rects) == sweep[:3], text
                assert [r[-1] for r in rects] == list(range(len(rects))), text
                for left, top, right, bottom, _, rid in rects:
                    for i, j in ((top, left), (top, right), (bottom, left), (bottom, right)):
                        assert owner[(i - 1) * cols + j - 1] == rid, text
                if 4 * len(rects) == rows * cols:  # owner is exact on DQ
                    assert owner == sweep[3], text

    @pytest.mark.parametrize(
        "rows, cols, k",
        [(r, c, 1) for r in range(2, 13, 2) for c in range(2, 13, 2) if r * c <= 24]
        + [(4, 4, 2), (2, 4, 3)],
    )
    def test_halve_keeps_one_picture_of_each_mirror_pair(self, rows, cols, k):
        full = list(enumerate_dc(rows, cols, k))
        kept = [(p, weight) for p, *_, weight in _enumerate_matched(rows, cols, k, halve=True)]
        pictures = [p for p, _ in kept]
        covered = pictures + [mirror_lr(p) for p, weight in kept if weight == 2]
        assert len(covered) == len(set(covered)) == len(full)
        assert set(covered) == set(full)
        assert sum(weight for _, weight in kept) == len(full)
        assert all((weight == 1) == (mirror_lr(p) == p) for p, weight in kept)
        assert [p for p in full if p in set(pictures)] == pictures  # a subsequence of the stream
        first = {}
        for p in full:
            first.setdefault(classify(p), p)
        assert set(first.values()) <= set(pictures)

    def test_long_row_needs_no_recursion(self):
        p = next(enumerate_dc(2, 2400))
        assert render_picture(p) == "a" * 1200 + "b" * 1200 + "\n" + "c" * 1200 + "d" * 1200

    def test_linear_in_k(self):
        start = time.perf_counter()
        found = list(enumerate_dc(2, 2, 2000))
        assert time.perf_counter() - start < 1.0
        assert len(found) == 2000


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
            (4, 8, 1, (1484, 1084, 1084, 14)),
            (8, 4, 1, (1484, 1084, 1084, 14)),
            (2, 10, 1, (42, 42, 42, 1)),
            (2, 8, 2, (224, 224, 224, 16)),
            (4, 4, 3, (981, 972, 972, 162)),
            (2, 6, 3, (135, 135, 135, 27)),
            # 48-cell sizes; DQ and DN checked once against is_quaternate and in_DN_quaternate
            (4, 10, 1, (20140, 12628, 12628, 42)),
            (10, 4, 1, (20140, 12628, 12628, 42)),
        ],
    )
    def test_golden_counts(self, rows, cols, k, counts):
        result = census(rows, cols, k=k, budget=48)
        assert result.counts == dict(zip(("dc", "dq", "dn", "dw"), counts))

    def test_reads_rectangles_off_the_enumerator(self, monkeypatch, fx):
        # census and the search take each crossword's rectangles from the
        # enumerator; only classify scans a picture for them
        class Scanned(Exception):
            pass

        def scan(*args, **kwargs):
            raise Scanned

        monkeypatch.setattr(crossword, "_sweep", scan)
        result = census(4, 4)
        assert result.counts == {"dc": 13, "dq": 12, "dn": 12, "dw": 2}
        assert {name: render_picture(p) for name, p in result.witnesses.items()} == {
            "dc_not_dq": "abab\ncabd\nacdb\ncdcd",
            "dn_not_dw": "aabb\nabab\ncdcd\nccdd",
        }
        assert [render_picture(p) for p in hamiltonian_search(4, 4)] == ["ab\ncd"]
        with pytest.raises(Scanned):
            classify(fx["fig2"])

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
        with pytest.raises(InvalidArgument, match="^census sizes must be even$"):
            census(4, 3)

    @pytest.mark.parametrize("rows, cols, k", [(0, 2, 1), (2, 0, 1), (-2, 2, 1), (2, -2, 1), (2, 2, 0)])
    def test_empty_or_negative_rejected(self, rows, cols, k):
        with pytest.raises(InvalidArgument):
            census(rows, cols, k=k)


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
        with pytest.raises(InvalidArgument, match="^h must be >= 1$"):
            double_noose(0)

    def test_base(self, fx):
        assert double_noose(1) == fx["fig4_left"]

    def test_h2_text(self):
        assert render_picture(double_noose(2)) == (
            "aaabbb\ncabdab\nacdbcd\naccddb\ncaabbd\ncabdab\nacdbcd\ncccddd"
        )

    def test_matches_fold_of_vcat(self, fx):
        def put(p, i, j, role):
            cells = list(p.cells)
            cells[(i - 1) * p.cols + (j - 1)] = sym(role, 1)
            return Picture(p.rows, p.cols, p.k, tuple(cells))

        p = base = fx["fig4_left"]
        for h in range(1, 41):
            if h > 1:
                p, seam = vcat(p, base), 4 * (h - 1)
                p = put(put(p, seam, 1, "a"), seam, 6, "b")
                p = put(put(p, seam + 1, 1, "c"), seam + 1, 6, "d")
            assert render_picture(double_noose(h)) == render_picture(p), h

    def test_scale(self):
        start = time.perf_counter()
        p = double_noose(2000)
        assert time.perf_counter() - start < 1.0
        assert (p.rows, p.cols) == (8000, 6)

    def test_cell_budget(self):
        assert double_noose(41666).rows == 4 * 41666
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            double_noose(100_000_000)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(BudgetExceeded):
            double_noose(41667)

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
        assert len(hamiltonian_search(2, 2, budget=4)) == 1  # a search of exactly the budget runs

    @pytest.mark.parametrize("bounds", [(0, 4, 1), (4, 0, 1), (4, -2, 1), (4, 4, 0), (-8, -8, 1)])
    def test_non_positive_bounds_rejected(self, bounds):
        # (-8, -8) is over the 36-cell budget too: the bounds are checked first
        with pytest.raises(InvalidArgument):
            hamiltonian_search(*bounds, budget=36)


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
