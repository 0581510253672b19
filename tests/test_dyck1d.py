import math
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from dyck2d.dyck1d import (
    Pairing,
    enumerate_dyck,
    is_dyck,
    match_positions,
    neutralize_word,
    parse_word,
    prime_factorize,
    word_text,
)
from dyck2d.errors import ContainsNeutral, InvalidArgument, NotDyck
from dyck2d.grid import BULLET_SYM, N, sym

from oracles import oracle_is_dyck, oracle_match_positions, oracle_neutralize_word

ROW = Pairing("Row", 1)
COL = Pairing("Col", 1)

random_words = st.lists(st.sampled_from("abcd"), max_size=12).map(
    lambda rs: tuple(sym(r, 1) for r in rs)
)
pairings = st.sampled_from([ROW, COL])


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class TestPairing:
    def test_row_pairs(self):
        assert ROW.close_of(sym("a", 1)) == sym("b", 1)
        assert ROW.close_of(sym("c", 1)) == sym("d", 1)

    def test_col_pairs(self):
        assert COL.close_of(sym("a", 1)) == sym("c", 1)
        assert COL.close_of(sym("b", 1)) == sym("d", 1)

    def test_index_must_agree(self):
        pr = Pairing("Row", 2)
        assert pr.close_of(sym("a", 2)) == sym("b", 2)
        assert pr.close_of(sym("a", 1)) != sym("b", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Pairing("Diag")


class TestParse:
    def test_round_trip(self):
        w = parse_word("abcd")
        assert word_text(w) == "abcd"

    def test_k2(self):
        w = parse_word("a2 b2", k=2)
        assert w == (sym("a", 2), sym("b", 2))
        assert word_text(w, k=2) == "a2 b2"

    def test_multiline_rejected(self):
        with pytest.raises(ValueError):
            parse_word("ab\ncd")


class TestIsDyck:
    def test_examples(self):
        assert is_dyck(parse_word("ab"), ROW)
        assert is_dyck(parse_word("acbd"), ROW) is False
        assert is_dyck(parse_word("aabb"), ROW)
        assert is_dyck(parse_word("abcd"), ROW)
        assert is_dyck(parse_word("ac"), COL)
        assert is_dyck(parse_word("ab"), COL) is False
        assert is_dyck((), ROW)

    def test_neutral_rejected(self):
        with pytest.raises(ContainsNeutral):
            is_dyck(parse_word("aNb"), ROW)

    @given(random_words, pairings)
    def test_matches_cancellation_oracle(self, w, pr):
        assert is_dyck(w, pr) == oracle_is_dyck(w, pr.kind)

    @pytest.mark.parametrize("kind", ["Row", "Col"])
    @pytest.mark.parametrize("k, longest", [(1, 6), (2, 4)])
    def test_exhaustive_length_6(self, kind, k, longest):
        # every word of at most 6 letters at k = 1 and 4 at k = 2, bullets included
        letters = [sym(r, i) for r in "abcd" for i in range(1, k + 1)] + [BULLET_SYM]
        pr = Pairing(kind, k)
        for length in range(longest + 1):
            for w in product(letters, repeat=length):
                member = is_dyck(w, pr)
                assert member == oracle_is_dyck(w, kind)
                if member:
                    assert set(match_positions(w, pr)) == oracle_match_positions(w, kind)


class TestNeutralOrder:
    # a neutral raises only when the letters before it have not already failed

    def test_failure_before_neutral(self):
        w = parse_word("baN")
        assert is_dyck(w, ROW) is False
        for reader in (match_positions, prime_factorize):
            with pytest.raises(NotDyck, match="^baN$"):
                reader(w, ROW)

    def test_neutral_before_failure(self):
        w = parse_word("abN")
        for reader in (is_dyck, match_positions):
            with pytest.raises(ContainsNeutral, match="^neutral at position 3$"):
                reader(w, ROW)

    def test_bullet_is_never_matched(self):
        assert is_dyck(parse_word("a•b"), ROW) is False


class TestMatchPositions:
    def test_example(self):
        assert match_positions(parse_word("abcd"), ROW) == [(1, 2), (3, 4)]
        assert match_positions(parse_word("acbd"), COL) == [(1, 2), (3, 4)]

    def test_non_dyck_raises(self):
        with pytest.raises(NotDyck):
            match_positions(parse_word("ba"), ROW)
        with pytest.raises(NotDyck):
            match_positions(parse_word("aab"), ROW)

    @given(st.integers(0, 4), pairings, st.randoms())
    def test_matches_oracle(self, half, pr, rng):
        words = enumerate_dyck(2 * half, pr)
        w = words[rng.randrange(len(words))] if words else ()
        got = set(match_positions(w, pr))
        assert got == oracle_match_positions(w, pr.kind)
        # pairs partition the positions
        flat = [p for pair in got for p in pair]
        assert sorted(flat) == list(range(1, len(w) + 1))


class TestNeutralizeWord:
    def test_plain_dyck(self):
        assert neutralize_word(parse_word("abab"), ROW)
        assert neutralize_word(parse_word("aabb"), ROW)
        assert not neutralize_word(parse_word("ba"), ROW)

    def test_even_neutral_runs_bridge(self):
        assert neutralize_word(parse_word("aNNb"), ROW)
        assert neutralize_word(parse_word("aNNNNb"), ROW)
        assert neutralize_word(parse_word("NNabNN"), ROW)

    def test_odd_neutral_runs_do_not(self):
        assert not neutralize_word(parse_word("aNb"), ROW)
        assert not neutralize_word(parse_word("aNbN"), ROW)

    def test_all_neutral(self):
        assert neutralize_word(parse_word("NN"), ROW)
        assert neutralize_word((), ROW)

    @pytest.mark.parametrize("kind", ["Row", "Col"])
    def test_matches_rescan_oracle(self, kind):
        for k, length in ((1, 6), (2, 4)):
            pr = Pairing(kind, k)
            alphabet = [*(sym(r, i) for r in "abcd" for i in range(1, k + 1)), N, BULLET_SYM]
            for n in range(length + 1):
                for w in product(alphabet, repeat=n):
                    assert neutralize_word(w, pr) == oracle_neutralize_word(w, kind), w

    @pytest.mark.parametrize("half, middle", [(2000, ""), (1000, "NN")])
    def test_scale(self, half, middle):
        w = parse_word("a" * half + middle + "b" * half)
        start = time.perf_counter()
        assert neutralize_word(w, ROW)
        assert time.perf_counter() - start < 0.5

    @given(random_words, pairings)
    def test_agrees_with_is_dyck_on_neutral_free(self, w, pr):
        assert neutralize_word(w, pr) == is_dyck(w, pr)


class TestPrimeFactorize:
    def test_examples(self):
        factors = prime_factorize(parse_word("abcdaabb"), ROW)
        assert [word_text(f) for f in factors] == ["ab", "cd", "aabb"]

    def test_non_dyck_raises(self):
        with pytest.raises(NotDyck):
            prime_factorize(parse_word("ba"), ROW)

    @given(st.integers(0, 4), pairings, st.randoms())
    def test_factors_concatenate_back(self, half, pr, rng):
        words = enumerate_dyck(2 * half, pr)
        w = words[rng.randrange(len(words))] if words else ()
        factors = prime_factorize(w, pr)
        assert tuple(s for f in factors for s in f) == tuple(w)
        for f in factors:
            assert is_dyck(f, pr)
            # prime: no proper prefix is itself Dyck
            for cut in range(2, len(f), 2):
                assert not is_dyck(f[:cut], pr)


class TestEnumerate:
    def test_counts_follow_catalan(self):
        for k in (1, 2):
            for n in (0, 2, 4, 6):
                pr = Pairing("Row", k)
                words = enumerate_dyck(n, pr)
                assert len(words) == catalan(n // 2) * (2 * k) ** (n // 2)
                assert len(set(words)) == len(words)
                assert all(is_dyck(w, pr) for w in words)

    def test_lexicographic(self):
        words = enumerate_dyck(6, ROW)
        keys = [tuple((s.role, s.index) for s in w) for w in words]
        assert keys == sorted(keys)

    def test_matches_brute_force(self):
        letters = [sym(r, 1) for r in "abcd"]
        brute = {w for w in product(letters, repeat=6) if oracle_is_dyck(w, "Col")}
        assert set(enumerate_dyck(6, COL)) == brute

    def test_odd_raises(self):
        with pytest.raises(InvalidArgument):
            enumerate_dyck(3, ROW)
