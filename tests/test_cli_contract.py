"""The CLI contract: one sha256 per verb over every call of a pinned pool.

Each call's argv, stdin text, exit code (or SystemExit code), stdout and
stderr go into its verb's digest, so a change to any byte the CLI prints
fails here and names the verb. A change meant to alter CLI bytes updates
that verb's digest in the same commit and says which bytes changed and why.

The text after ``: error:`` is argparse's own wording, which may change
between the Python versions CI runs, so a SystemExit call pins its code,
its usage lines and the prog that reported the error. tests/test_cli.py
checks that text against argparse itself.
"""

import hashlib
import json

from dyck2d.grid import render_picture
from dyck2d.lab import CLASS_NAMES, enumerate_dc, fixtures

from test_cli import run_in_process
from test_wellnest import deep_nest

PICTURE_VERBS = (
    ["classify"],
    *(["classify", "--expect", name] for name in CLASS_NAMES),
    ["neutralize"],
    ["neutralize", "--strategy", "exhaustive"],
    ["graph", "--format", "dot"],
    ["graph", "--format", "json"],
)
ERROR_INPUTS = (
    "ab\nabc",  # ragged rows
    "a x\nc d",  # an unknown token
    "a2 b1\nc1 d1",  # an index past k
    "aNb\ncNd",  # neutral cells
    "a•b\nc•d",  # bullet cells
    "",  # the empty picture
)
# the CI reuse step's arguments
OTHER_CALLS = (
    ["census", "--rows", "4", "--cols", "4"],
    ["fixtures"],
    ["fixtures", "--name", "fig3_right"],
    ["fixtures", "--name", "nope"],
    ["family", "--double-noose", "2"],
    ["embed-row", "abcd"],
    ["embed-row", "abN"],
    ["search-hamiltonian", "--max-rows", "4", "--max-cols", "4"],
)
# argv that argparse alone accepts or rejects
PARSER_CALLS = (
    (["graph", "--form", "json", "-"], "ab\ncd"),
    (["classify", "--k=2", "-"], "a2 b2\nc2 d2"),
    (["classify", "--", "-"], "ab\ncd"),
    (["classify", "--expect", "xx", "-"], "ab\ncd"),
    (["census", "--cols", "4"], ""),
    (["classify", "-", "extra"], "ab\ncd"),
    (["nope"], ""),
    ([], ""),
)

VERBS = {argv[0] for argv in (*PICTURE_VERBS, *OTHER_CALLS)}


def calls():
    """(argv, stdin text) of every call in the pool."""
    pictures = [*fixtures().values(), *map(deep_nest, range(1, 11))]
    for rows, cols in ((2, 2), (2, 4), (4, 2), (2, 6), (4, 4)):
        pictures += enumerate_dc(rows, cols)
    for text in [*map(render_picture, pictures), *ERROR_INPUTS]:
        for argv in PICTURE_VERBS:
            yield [*argv, "-"], text
    for rows, cols in ((2, 2), (2, 4), (4, 2), (4, 4)):
        for p in enumerate_dc(rows, cols, k=2):
            for argv in PICTURE_VERBS:
                yield [argv[0], "--k", "2", *argv[1:], "-"], render_picture(p)
    yield from ((argv, "") for argv in OTHER_CALLS)
    yield from PARSER_CALLS


def run(argv, text):
    """run_in_process, with an argument error's stderr cut before argparse's own words."""
    code, out, err = run_in_process(argv, text)
    if isinstance(code, tuple):
        err = err.partition(": error: ")[0]
    return code, out, err


def digests():
    by_verb = {}
    for argv, text in calls():
        verb = argv[0] if argv and argv[0] in VERBS else "(no verb)"
        record = json.dumps([argv, text, *run(argv, text)])
        by_verb.setdefault(verb, hashlib.sha256()).update(record.encode() + b"\n")
    return {verb: h.hexdigest() for verb, h in by_verb.items()}


PINNED = {
    "classify": "f52302c37e8d1eae1bf46367cecec903a3894c99777ca02d158e76b4b056298e",
    "neutralize": "a4fff139b6fc928dce9b466bb5c3f776203e15e740dd0ca0a134653b1014d8ba",
    "graph": "ae046c8dc3ab04e4245b06be8e87bd0d4db037f8a964be76b4421d591778d972",
    "census": "78512a8c9c489c578de7839af011100c62c2edab1106d22abf62222082c284f5",
    "fixtures": "bed350b42685e05704f6f256e45cfad8fff53ab6445cd9d372a99e0522b99482",
    "family": "a46b14b92ea589b8d1820484bf035cfe731b193d921f7175005f6d3c1a2a9538",
    "embed-row": "652f88f465949081486e209fc741d9de31405e712307d951d88ee460ffccf889",
    "search-hamiltonian": "02d1676aa059aa9e0456c8324ab0e54494a5676e6c00fd791653cf79af997a7c",
    "(no verb)": "5a808f2e31b558a1bc4e6630978c23fe304a6ca0f5740e59ec2549cf87e94fe0",
}


def test_cli_bytes_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    assert digests() == PINNED
