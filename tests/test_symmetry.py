"""The mirror law: every class is invariant under the left-right mirror (a<->b,
c<->d), the top-bottom mirror (a<->c, b<->d) and the transpose (b<->c).

The deciders scan row-major and are not symmetric in their code, so the law
checks them against the symmetry of the definitions.
"""

import random

import pytest

from dyck2d.crossword import is_quaternate
from dyck2d.grid import BULLET_SYM, N, Picture, sym
from dyck2d.lab import classify, enumerate_dc, fixtures
from dyck2d.neutralize import in_DN
from dyck2d.wellnest import in_DB, in_DW

from certificates import ordered_redexes
from oracles import _rewrite, mirror_lr, mirror_tb, random_db_member, transpose

SIZES = [(2, 2, 1), (2, 4, 1), (4, 2, 1), (2, 6, 1), (6, 2, 1), (4, 4, 1), (2, 8, 1), (8, 2, 1)]
SIZES += [(4, 6, 1), (6, 4, 1), (2, 2, 2), (2, 4, 2), (4, 2, 2), (4, 4, 2)]
CROSSWORDS = [p for rows, cols, k in SIZES for p in enumerate_dc(rows, cols, k)]
CROSSWORDS += [p for p in fixtures().values() if all(s.is_corner for s in p.cells)]


def corner_mutants(pictures, seed):
    """Every seventh picture with one seeded cell set to a corner letter: mostly not crosswords."""
    rng = random.Random(seed)
    out = []
    for p in pictures[::7]:
        x = rng.randrange(len(p.cells))
        s = sym(rng.choice("abcd"), rng.randint(1, p.k))
        out.append(Picture(p.rows, p.cols, p.k, p.cells[:x] + (s,) + p.cells[x + 1 :]))
    return out


MUTANTS = corner_mutants(CROSSWORDS, 22)


def db_pool():
    """Seeded Chinese-box members up to 12x12, two one-cell mutants of each, and fig1_mid."""
    rng = random.Random(22)
    alphabet = [*(sym(r, 1) for r in "abcd"), BULLET_SYM, N]
    out = [fixtures()["fig1_mid"]]
    for _ in range(60):
        p = random_db_member(rng, 2 * rng.randint(1, 6), 2 * rng.randint(1, 6))
        out.append(p)
        for _ in range(2):
            x = rng.randrange(len(p.cells))
            cells = p.cells[:x] + (rng.choice(alphabet),) + p.cells[x + 1 :]
            out.append(Picture(p.rows, p.cols, 1, cells))
    return out


DB_POOL = db_pool()
# the crosswords with their first redex neutralized: neutral cells map to themselves
PARTLY_NEUTRAL = [_rewrite(p, r[0]) for p in CROSSWORDS[::7] if (r := ordered_redexes(p))]

# each map's image of a 1-based box (top, left, bottom, right) of a picture p
MAPS = {
    "lr": (mirror_lr, lambda p, t, l, b, r: (t, p.cols + 1 - r, b, p.cols + 1 - l)),
    "tb": (mirror_tb, lambda p, t, l, b, r: (p.rows + 1 - b, l, p.rows + 1 - t, r)),
    "transpose": (transpose, lambda p, t, l, b, r: (l, t, r, b)),
}
EACH_MAP = pytest.mark.parametrize("name", MAPS)


@EACH_MAP
def test_classify(name):
    flip, _ = MAPS[name]
    depths = set()
    for p in CROSSWORDS + MUTANTS:
        flags = classify(p)
        assert classify(flip(p)) == flags, p
        depths.add(sum(flags.as_dict().values()))
    assert depths == {0, 1, 2, 3, 4}  # every class and its gap occur in the pool


@EACH_MAP
@pytest.mark.parametrize("mixed", [True, False], ids=["mixed", "uniform"])
def test_in_DW(name, mixed):
    flip, _ = MAPS[name]
    members = 0
    for p in CROSSWORDS + MUTANTS + PARTLY_NEUTRAL + DB_POOL:
        verdict = in_DW(p, mixed)
        assert in_DW(flip(p), mixed) == verdict, p
        members += verdict
    assert 0 < members < len(CROSSWORDS)


@EACH_MAP
def test_in_DB(name):
    flip, _ = MAPS[name]
    members = 0
    for p in DB_POOL + CROSSWORDS:
        verdict = in_DB(p)
        assert in_DB(flip(p)) == verdict, p
        members += verdict
    assert 60 < members < len(DB_POOL) + len(CROSSWORDS)


@EACH_MAP
def test_is_quaternate(name):
    flip, _ = MAPS[name]
    verdicts = {is_quaternate(p) for p in CROSSWORDS}
    assert all(is_quaternate(flip(p)) == is_quaternate(p) for p in CROSSWORDS)
    assert verdicts == {True, False}


@EACH_MAP
def test_in_DN_and_its_trace(name):
    # every maximal redex order applies the same rectangles, so the traces are equal as sets
    flip, box = MAPS[name]
    for p in CROSSWORDS + MUTANTS + PARTLY_NEUTRAL:
        d, e = in_DN(p), in_DN(flip(p))
        assert e.member == d.member, p
        assert {(*box(p, r.top, r.left, r.bottom, r.right), r.index) for r in d.trace} == {
            (r.top, r.left, r.bottom, r.right, r.index) for r in e.trace
        }, p
