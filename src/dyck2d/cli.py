"""Command-line front end."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import crossword, lab, neutralize
from .errors import Dyck2dError, InvalidArgument
from .grid import parse_picture, render_picture
from .dyck1d import parse_word

EXIT_OK = 0
EXIT_EXPECT_FAILED = 1
EXIT_INPUT_ERROR = 2


def _read_picture(path: str, k: int):
    """The picture in a file or on stdin; one leading UTF-8 byte order mark is not a cell."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_picture(text.removeprefix("\ufeff"), k)


def _cmd_classify(args) -> int:
    p = _read_picture(args.picture, args.k)
    flags = lab.classify(p).as_dict()
    print(json.dumps(flags))
    if args.expect and not flags[f"in_{args.expect}"]:
        return EXIT_EXPECT_FAILED
    return EXIT_OK


def _cmd_graph(args) -> int:
    p = _read_picture(args.picture, args.k)
    g = crossword.matching_graph(p)
    if args.format == "dot":
        print(crossword.graph_to_dot(g))
    else:
        print(crossword.graph_to_json(g))
    return EXIT_OK


def _cmd_neutralize(args) -> int:
    p = _read_picture(args.picture, args.k)
    decision = neutralize.in_DN(p, strategy=args.strategy)
    print(decision.trace_json())
    print("neutralizable" if decision.member else "not neutralizable")
    return EXIT_OK


def _cmd_census(args) -> int:
    result = lab.census(args.rows, args.cols, k=args.k, budget=args.budget)
    print(
        json.dumps(
            {
                "rows": result.rows,
                "cols": result.cols,
                "k": result.k,
                "counts": result.counts,
                "witnesses": {
                    name: render_picture(p) for name, p in sorted(result.witnesses.items())
                },
            }
        )
    )
    return EXIT_OK


def _cmd_family(args) -> int:
    print(render_picture(lab.double_noose(args.double_noose)))
    return EXIT_OK


def _cmd_embed_row(args) -> int:
    w = parse_word(args.word, k=1)
    print(render_picture(lab.embed_row(w)))
    return EXIT_OK


def _cmd_search_hamiltonian(args) -> int:
    found = lab.hamiltonian_search(
        args.max_rows, args.max_cols, k=args.k, budget=args.budget
    )
    print(json.dumps([render_picture(p) for p in found]))
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    table = lab.fixtures()
    if args.name is None:
        for name in table:
            print(name)
        return EXIT_OK
    if args.name not in table:
        raise InvalidArgument(f"unknown fixture {args.name!r}")
    print(render_picture(table[args.name]))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="dyck2d", description="Two-dimensional Dyck picture languages"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp, picture_arg=True):
        sp.add_argument("--k", type=int, default=1, help="alphabet index bound")
        if picture_arg:
            sp.add_argument("picture", nargs="?", default="-", help="picture file or - for stdin")

    sp = sub.add_parser("classify", help="print class membership flags")
    add_common(sp)
    sp.add_argument("--expect", choices=lab.CLASS_NAMES, help="exit 1 unless a member")
    sp.set_defaults(run=_cmd_classify)

    sp = sub.add_parser("graph", help="export the matching graph")
    add_common(sp)
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.set_defaults(run=_cmd_graph)

    sp = sub.add_parser("neutralize", help="print the neutralization trace")
    add_common(sp)
    sp.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy")
    sp.set_defaults(run=_cmd_neutralize)

    sp = sub.add_parser("census", help="classify every crossword of a size")
    add_common(sp, picture_arg=False)
    sp.add_argument("--rows", type=int, required=True)
    sp.add_argument("--cols", type=int, required=True)
    sp.add_argument("--budget", type=int, default=lab.DEFAULT_CENSUS_BUDGET)
    sp.set_defaults(run=_cmd_census)

    sp = sub.add_parser("family", help="generate a constructive family member")
    sp.add_argument("--double-noose", type=int, required=True, metavar="H")
    sp.set_defaults(run=_cmd_family)

    sp = sub.add_parser("embed-row", help="embed a Dyck word as a third row")
    sp.add_argument("word")
    sp.set_defaults(run=_cmd_embed_row)

    sp = sub.add_parser("search-hamiltonian", help="single-circuit pictures")
    add_common(sp, picture_arg=False)
    sp.add_argument("--max-rows", type=int, required=True)
    sp.add_argument("--max-cols", type=int, required=True)
    sp.add_argument("--budget", type=int, default=lab.DEFAULT_CENSUS_BUDGET)
    sp.set_defaults(run=_cmd_search_hamiltonian)

    sp = sub.add_parser("fixtures", help="list or print the reference pictures")
    sp.add_argument("--name", default=None)
    sp.set_defaults(run=_cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one verb and return its exit status; argument errors raise SystemExit(2).

    main can be called repeatedly in one process and builds its parser once.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (Dyck2dError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
