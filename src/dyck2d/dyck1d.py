"""1D Dyck machinery over the row and column alphabets.

The same four-letter alphabet carries two matching disciplines: rows pair
(a_i, b_i) and (c_i, d_i); columns pair (a_i, c_i) and (b_i, d_i).  One stack
pass, _stack_match, gives the partner list of a word (partner[x] is x's
partner, -1 if unmatched), the one form a matching takes; each word reader is
one linear pass over it.  The rows and columns of a picture are matched by
crossword._sweep, with the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ContainsNeutral, InvalidArgument, NotDyck
from .grid import NEUTRAL, Symbol, parse_picture, sym, word_text

Word = tuple[Symbol, ...]

_ROW_CLOSE = {"a": "b", "c": "d"}
_COL_CLOSE = {"a": "c", "b": "d"}


@dataclass(frozen=True, slots=True)
class Pairing:
    """Matching discipline: kind is "Row" or "Col", over indices 1..k."""

    kind: str
    k: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("Row", "Col"):
            raise InvalidArgument(f"unknown pairing kind {self.kind!r}")

    @property
    def _close_map(self) -> dict[str, str]:
        return _ROW_CLOSE if self.kind == "Row" else _COL_CLOSE

    def close_of(self, s: Symbol) -> Symbol:
        """The closing symbol matching an opening one."""
        return sym(self._close_map[s.role], s.index)


ROW = Pairing("Row", 1)
COL = Pairing("Col", 1)


def parse_word(text: str, k: int = 1) -> Word:
    """Parse a word with the same token syntax as picture rows."""
    p = parse_picture(text, k)
    if p.rows > 1:
        raise InvalidArgument("a word is a single line")
    return p.cells


def _stack_match(w: Sequence[Symbol], end: int, close: dict[str, str]) -> list[int]:
    """The partner of each position of w by one stack pass over w[:end], -1 if unmatched.

    Neutral symbols are skipped; an unmatched closer or a bullet can never be
    cancelled, so it clears the stack.
    """
    partner, stack = [-1] * len(w), []
    for x in range(end):
        s = w[x]
        if s.role in close:
            stack.append(x)
        elif s.role != NEUTRAL:
            top = w[stack[-1]] if stack else None
            if top and close[top.role] == s.role and top.index == s.index:
                y = partner[x] = stack.pop()
                partner[y] = x
            else:
                stack.clear()
    return partner


def _word_match(w: Sequence[Symbol], pr: Pairing) -> Optional[list[int]]:
    """The partner list over 0-based positions of the Dyck word w, else None.

    A neutral raises ContainsNeutral unless a closer or bullet before it failed.
    """
    close = pr._close_map
    roles = [s.role for s in w]
    end = roles.index(NEUTRAL) if NEUTRAL in roles else len(roles)
    partner = _stack_match(w, end, close)
    pairs = (len(w) - partner.count(-1)) // 2
    closers = end - sum(map(close.__contains__, roles[:end]))  # bullets included
    if closers > pairs:
        return None
    if end < len(roles):
        raise ContainsNeutral(f"neutral at position {end + 1}")
    return partner if 2 * pairs == end else None


def is_dyck(w: Sequence[Symbol], pr: Pairing) -> bool:
    """Single left-to-right stack pass; neutral symbols are rejected."""
    return _word_match(w, pr) is not None


def match_positions(w: Sequence[Symbol], pr: Pairing) -> list[tuple[int, int]]:
    """Matched 1-based index pairs (open < close), sorted by closing position."""
    if (partner := _word_match(w, pr)) is None:
        raise NotDyck(word_text(w, pr.k))
    return [(x + 1, y + 1) for y, x in enumerate(partner) if x < y]


def neutralize_word(w: Sequence[Symbol], pr: Pairing) -> bool:
    """Whether w rewrites to all-neutral by the word neutralization rule.

    A redex is an opening symbol, an even-length run of neutrals, and the
    matching closing symbol; it rewrites to neutrals.  Only pairs of the stack
    matching that skips neutrals are ever rewritten, innermost first, and a
    pair's interior keeps its length, so w neutralizes iff every letter but N
    is matched and every pair has an even interior.
    """
    partner = _stack_match(w, len(w), pr._close_map)
    neutrals = sum(s.is_neutral for s in w)
    pairs = ((x, y) for x, y in enumerate(partner) if x < y)
    return partner.count(-1) == neutrals and all((y - x) % 2 for x, y in pairs)


def prime_factorize(w: Sequence[Symbol], pr: Pairing) -> list[Word]:
    """Unique decomposition into prime Dyck factors: each runs from an opener to its partner."""
    if (partner := _word_match(w, pr)) is None:
        raise NotDyck(word_text(w, pr.k))
    factors, start = [], 0
    while start < len(w):
        end = partner[start] + 1
        factors.append(tuple(w[start:end]))
        start = end
    return factors


def enumerate_dyck(n: int, pr: Pairing) -> list[Word]:
    """All Dyck words of length n under pr, in lexicographic order.

    Lexicographic order is a < b < c < d with indices ascending inside each
    letter.  The count is Catalan(n/2) * (2k)^(n/2).  Each level extends every
    prefix by the letters in alphabet order, so it stays lexicographic.
    """
    if n < 0 or n % 2:
        raise InvalidArgument(f"no Dyck words of length {n}")
    close = pr._close_map
    letters = [(r, i) for r in "abcd" for i in range(1, pr.k + 1)]
    alphabet = [(sym(r, i), sym(close[r], i) if r in close else None) for r, i in letters]
    words: list[tuple[Word, Word]] = [((), ())]  # (prefix, closers still owed, innermost last)
    for remaining in range(n, 0, -1):  # an opener leaves room for its closer and those owed
        words = [
            (prefix + (s,), owed + (closer,) if closer else owed[:-1])
            for prefix, owed in words
            for s, closer in alphabet
            if (len(owed) < remaining - 1 if closer else owed and owed[-1] is s)
        ]
    return [prefix for prefix, _ in words]
