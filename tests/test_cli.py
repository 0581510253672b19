import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dyck2d import cli
from dyck2d.cli import EXIT_EXPECT_FAILED, EXIT_INPUT_ERROR, EXIT_OK, build_parser, main
from dyck2d.dyck1d import ROW, Pairing, enumerate_dyck, parse_word
from dyck2d import errors
from dyck2d.errors import Dyck2dError
from dyck2d.grid import Picture, hcat, parse_picture, sym
from dyck2d.neutralize import in_DN
from dyck2d.wellnest import Accretion, nesting_accretion


def write(tmp_path, text, name="picture.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestClassify:
    def test_reads_file(self, tmp_path, capsys):
        path = write(tmp_path, "ab\ncd")
        assert main(["classify", path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out == {"in_dc": True, "in_dq": True, "in_dn": True, "in_dw": True}

    def test_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("aabb\nccdd"))
        assert main(["classify"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["in_dn"] and not out["in_dw"]

    def test_expect_pass_and_fail(self, tmp_path):
        path = write(tmp_path, "aabb\nccdd")
        assert main(["classify", "--expect", "dn", path]) == EXIT_OK
        assert main(["classify", "--expect", "dw", path]) == EXIT_EXPECT_FAILED

    def test_missing_file(self):
        assert main(["classify", "/no/such/file"]) == EXIT_INPUT_ERROR

    def test_bad_picture(self, tmp_path):
        path = write(tmp_path, "ab\nabc")
        assert main(["classify", path]) == EXIT_INPUT_ERROR

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "picture.txt"
        path.write_bytes(b"a\xffb\ncd")
        assert main(["classify", str(path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_non_ascii_index(self, tmp_path, capsys):
        path = write(tmp_path, "a\u00b2 b1\nc1 d1")
        assert main(["classify", "--k", "2", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark(self, tmp_path, monkeypatch, capsys, source):
        # a leading BOM marks the file's encoding; the picture is the same without it
        def run(text):
            if source == "stdin":
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                return main(["classify", "--expect", "dw", "-"]), capsys.readouterr()
            return main(["classify", "--expect", "dw", write(tmp_path, text)]), capsys.readouterr()

        assert run("\ufeffab\ncd") == run("ab\ncd")
        assert run("\ufeffab\ncd")[0] == EXIT_OK

    def test_k2(self, tmp_path, capsys):
        path = write(tmp_path, "a2 b2\nc2 d2")
        assert main(["classify", "--k", "2", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["in_dw"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1 b1\nc1 d1", "unknown token 'x1'"),
            ("a0 b1\nc1 d1", "index 0 outside [1..2] in token 'a0'"),
            ("a3 b1\nc1 d1", "index 3 outside [1..2] in token 'a3'"),
            ("a1 b1\nc1 d1 a1", "lines of unequal length"),
        ],
    )
    def test_k2_bad_picture(self, tmp_path, capsys, text, message):
        # the parser's own words, not those of Symbol or Picture behind it
        assert main(["classify", "--k", "2", write(tmp_path, text)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("k", ["1", "2"])
    @pytest.mark.parametrize("digits", [4301, 10**5])
    def test_long_index(self, k, digits):
        # a clean input error in a fresh process: exit 2, one short line, no traceback
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "dyck2d.cli", "classify", "--k", k, "-"],
            input="a" + "1" * digits + " b\nc d\n",
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in result.stderr and len(result.stderr.encode()) < 200
        assert result.stderr.startswith(f"error: index of {digits} digits outside [1..{k}]")


@pytest.mark.parametrize("k", ["0", "-3"])
@pytest.mark.parametrize("verb", ["classify", "neutralize", "graph"])
def test_k_below_one(tmp_path, capsys, verb, k):
    path = write(tmp_path, "aaabbb\ncccddd")
    assert main([verb, "--k", k, path]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: a picture needs k >= 1, not {k}\n"


class TestGraph:
    def test_dot(self, tmp_path, capsys):
        path = write(tmp_path, "ab\ncd")
        assert main(["graph", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith("graph matching {")

    def test_json(self, tmp_path, capsys):
        path = write(tmp_path, "ab\ncd")
        assert main(["graph", "--format", "json", path]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["circuits"] == [
            {"nodes": [[1, 1], [1, 2], [2, 2], [2, 1]], "label": "abdc"}
        ]

    def test_non_crossword(self, tmp_path):
        path = write(tmp_path, "ba\ndc")
        assert main(["graph", path]) == EXIT_INPUT_ERROR


class TestNeutralize:
    def test_trace(self, tmp_path, capsys):
        path = write(tmp_path, "ab\ncd")
        assert main(["neutralize", path]) == EXIT_OK
        trace_line, verdict = capsys.readouterr().out.splitlines()
        assert json.loads(trace_line) == [
            {"domain": [1, 1, 2, 2], "index": 1, "step_number": 1}
        ]
        assert verdict == "neutralizable"

    def test_exhaustive_strategy(self, tmp_path, capsys):
        path = write(tmp_path, "abab\ncdcd")
        assert main(["neutralize", "--strategy", "exhaustive", path]) == EXIT_OK
        assert "neutralizable" in capsys.readouterr().out

    def test_negative(self, tmp_path, capsys):
        path = write(tmp_path, "abab\ncabd\nacdb\ncdcd")
        assert main(["neutralize", path]) == EXIT_OK
        assert "not neutralizable" in capsys.readouterr().out


class TestCensus:
    def test_2x4(self, capsys):
        assert main(["census", "--rows", "2", "--cols", "4"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["counts"] == {"dc": 2, "dq": 2, "dn": 2, "dw": 1}
        assert obj["witnesses"]["dn_not_dw"] == "aabb\nccdd"

    def test_odd_size(self, capsys):
        assert main(["census", "--rows", "3", "--cols", "2"]) == EXIT_INPUT_ERROR
        assert "even" in capsys.readouterr().err

    def test_budget(self, capsys):
        code = main(["census", "--rows", "8", "--cols", "8", "--budget", "36"])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rows", "0", "--cols", "2"],
            ["--rows", "-2", "--cols", "2"],
            ["--rows", "2", "--cols", "2", "--k", "0"],
        ],
    )
    def test_empty_or_negative(self, argv, capsys):
        assert main(["census", *argv]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")


class TestFamilies:
    def test_double_noose(self, capsys):
        assert main(["family", "--double-noose", "1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "aaabbb\ncabdab\nacdbcd\ncccddd"

    def test_double_noose_h_zero(self, capsys):
        assert main(["family", "--double-noose", "0"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_double_noose_over_budget(self, capsys):
        assert main(["family", "--double-noose", "100000000"]) == EXIT_INPUT_ERROR
        assert "cell budget" in capsys.readouterr().err

    def test_embed_row(self, capsys):
        assert main(["embed-row", "abcd"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "abab\ncdab\nabcd\ncdcd"

    def test_embed_row_rejects_non_dyck(self, capsys):
        assert main(["embed-row", "ba"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: ba\n")
        for word in ("", "   "):
            assert main(["embed-row", word]) == EXIT_INPUT_ERROR
            assert capsys.readouterr() == ("", "error: the empty word\n")
        for brk in ("\n", "\r", "\x85", "\u2028"):
            assert main(["embed-row", f"ab{brk}cd"]) == EXIT_INPUT_ERROR
            assert capsys.readouterr() == ("", "error: a word is a single line\n")

    def test_embed_row_deep_word(self, capsys):
        word = "a" * 1000 + "b" * 1000
        assert main(["embed-row", word]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[2] == word


class TestSearch:
    def test_hamiltonian(self, capsys):
        code = main(["search-hamiltonian", "--max-rows", "2", "--max-cols", "2"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == ["ab\ncd"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-rows", "4", "--max-cols", "4", "--k", "0"],
            ["--max-rows", "-4", "--max-cols", "4"],
            ["--max-rows", "0", "--max-cols", "0"],
        ],
    )
    def test_empty_or_negative(self, argv, capsys):
        assert main(["search-hamiltonian", *argv]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")


class TestFixtures:
    def test_list(self, capsys):
        assert main(["fixtures"]) == EXIT_OK
        names = capsys.readouterr().out.split()
        assert "example1" in names and "fig3_right" in names

    def test_print_one(self, capsys):
        assert main(["fixtures", "--name", "p_N"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "aabb\nccdd"

    def test_unknown(self, capsys):
        assert main(["fixtures", "--name", "nope"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: unknown fixture 'nope'\n")


class TestParser:
    def test_requires_verb(self):
        with pytest.raises(SystemExit):
            main([])
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_argv_reads_sys_argv(self, tmp_path, monkeypatch, capsys):
        # the console script calls main() with no argument
        monkeypatch.setattr("sys.argv", ["dyck2d", "classify", "--expect", "dw", write(tmp_path, "ab\ncd")])
        assert main() == EXIT_OK
        assert json.loads(capsys.readouterr().out)["in_dw"]

    @pytest.mark.parametrize("argv", [["census", "--rows", "x", "--cols", "2"], ["no-such-verb"], []])
    def test_usage_errors_repeat(self, argv, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage:")


class TestReuse:
    """Back-to-back main calls share one parser and leak no option between them."""

    def test_expect_then_plain(self, tmp_path, capsys):
        path = write(tmp_path, "aabb\nccdd")
        assert main(["classify", "--expect", "dw", path]) == EXIT_EXPECT_FAILED
        first = capsys.readouterr().out
        assert main(["classify", path]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_exhaustive_then_greedy(self, tmp_path, capsys):
        path = write(tmp_path, "abab\ncabd\nacdb\ncdcd")
        assert main(["neutralize", "--strategy", "exhaustive", path]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["[]", "not neutralizable"]
        assert main(["neutralize", path]) == EXIT_OK
        trace, verdict = capsys.readouterr().out.splitlines()
        assert json.loads(trace) and verdict == "not neutralizable"

    def test_json_then_dot(self, tmp_path, capsys):
        path = write(tmp_path, "ab\ncd")
        assert main(["graph", "--format", "json", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rows"] == 2
        assert main(["graph", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith("graph matching {")

    def test_k2_then_default_k(self, tmp_path, capsys):
        path = write(tmp_path, "a2 b2\nc2 d2")
        assert main(["classify", "--k", "2", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["in_dw"]
        assert main(["classify", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_fresh_indices_keep_the_symbol_cache_bounded(self):
        calls = 2000
        for n in range(calls):
            i = 10**8 + n
            assert run_in_process(["classify", "--k", str(10**9), "-"], f"a{i} b{i}\nc{i} d{i}")[0] == EXIT_OK
        info = sym.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < 4 * calls


PICTURE_VERBS = (
    ["classify"],
    ["neutralize"],
    ["neutralize", "--strategy", "exhaustive"],
    ["graph", "--format", "dot"],
    ["graph", "--format", "json"],
)
_PIECES = st.one_of(
    st.sampled_from(["a", "b", "c", "d", "N", "*", "\u2022", "\u231c", "\u231d", "\u231e", "\u231f"]),
    st.text("0123456789", min_size=1, max_size=3),
    st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(4290, 4400)),
    st.sampled_from([" ", "\t", "\n", "\r\n", "\ufeff", "\x00"]),
    st.characters(),
)
_NOISE = st.lists(_PIECES, max_size=30).map("".join)
# token grids and small crosswords with a piece spliced in, so that some texts parse
_TOKENS = st.sampled_from(["a", "b", "c", "d", "a2", "b2", "c2", "d3", "N"])
_GRIDS = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(_TOKENS, min_size=cols, max_size=cols), min_size=1, max_size=4)
).map(lambda rows: "\n".join(" ".join(row) for row in rows))
_CROSSWORDS = st.sampled_from(
    ["ab\ncd", "aabb\nccdd", "abab\ncabd\nacdb\ncdcd", "aaabbb\ncabdab\nacdbcd\ncccddd", "a2 b2\nc2 d2"]
)
_SPLICED = st.builds(
    lambda text, at, piece: text[:at] + piece + text[at:],
    _CROSSWORDS,
    st.integers(0, 60),
    _PIECES,
)


def run_in_process(argv, text):
    """main(argv) on stdin text: its exit code, or ("SystemExit", code), standard output and standard error."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(st.one_of(_NOISE, _GRIDS, _SPLICED))
def test_fuzz_picture_verbs(text):
    # every picture verb at k = 1-3 ends in 0 or a clean input error of one short line
    for k in ("1", "2", "3"):
        for verb in PICTURE_VERBS:
            code, out, err = run_in_process([*verb, "--k", k, "-"], text)
            assert code in (EXIT_OK, EXIT_INPUT_ERROR), (verb, k, code)
            assert "Traceback" not in err and len(err.encode()) < 200, (verb, k, err[:300])
            if code == EXIT_OK and verb[-1] == "json":
                obj = out.removesuffix("\n")
                assert json.dumps(json.loads(obj)) == obj


# tokens, spaces, NUL and every line break of str.splitlines
_WORD_PIECES = st.sampled_from(
    ["a", "b", "c", "d", "N", "*", "a2", "x", " ", "\t", "\x00", "\r\n"]
    + list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_WORD_PIECES, max_size=12).map("".join))
def test_fuzz_word_verb(word):
    # embed-row ends in 0 or a clean input error of one short line
    code, _, err = run_in_process(["embed-row", word], "")
    assert code in (EXIT_OK, EXIT_INPUT_ERROR), (word, code)
    assert "Traceback" not in err and err.count("\n") <= 1 and len(err.encode()) < 200, err[:300]


# argv pieces from every verb and option string of the parser, with abbreviations,
# --opt=value, --, -h, -, "", a negative number, ints spelt as int() reads them
# (spaces, underscores, an Arabic-Indic 3) and choice values with near misses
_VERB_PARSERS = next(a for a in build_parser()._actions if a.dest == "verb").choices
_OPTION_STRINGS = sorted({s for sp in _VERB_PARSERS.values() for a in sp._actions for s in a.option_strings})
_ARG_VALUES = st.sampled_from(
    ["-", "", "-3", "2", " 3 ", "0_3", "\u0663", "x", "2.0", "dc", "dw", "xx", "json", "dot", "jso",
     "greedy", "exhaustive", "greed", "fig3_right", "abcd", "--", "-h", "nope"]
)
_OPTION = st.sampled_from(_OPTION_STRINGS)
_ARG_PIECES = st.one_of(
    _ARG_VALUES.map(lambda value: [value]),
    _OPTION.map(lambda option: [option]),
    st.tuples(_OPTION, _ARG_VALUES).map(list),
    st.tuples(_OPTION, st.integers(3, 9), _ARG_VALUES).map(lambda t: [t[0][: t[1]], t[2]]),
    st.tuples(_OPTION, _ARG_VALUES).map("=".join).map(lambda token: [token]),
)


def _taken_values(action):
    if action.choices:
        return list(action.choices)
    return ["2", " 3 ", "0_3", "\u0663"] if action.type is int else ["-", "abcd", "fig3_right"]


def _verb_argv(verb):
    """verb, then its own options and positionals with values they take, and one piece in four any other."""
    own = st.one_of(
        st.sampled_from(_taken_values(a)).map(lambda value, a=a: [*a.option_strings[-1:], value])
        for a in _VERB_PARSERS[verb]._actions
        if a.default != argparse.SUPPRESS
    )
    piece = st.integers(0, 3).flatmap(lambda n: own if n else _ARG_PIECES)
    return st.lists(piece, max_size=6).map(
        lambda pieces: [verb, *(token for piece in pieces for token in piece)]
    )


_ARGV = st.one_of(
    st.sampled_from(sorted(_VERB_PARSERS)).flatmap(_verb_argv),
    st.sampled_from([[], ["nope"], ["-h"], ["--"], [""]]),
)


class TestReader:
    """main reads a well-formed argv from the parser's actions; argparse reads every other one."""

    @settings(max_examples=600, deadline=None)
    @given(_ARGV)
    # one example per way the reader returns: read, and each fallback
    @example(["embed-row", "abcd"])
    @example(["graph", "--format", "json", "-"])
    @example([])
    @example(["nope"])
    @example(["fixtures", "--name", "--"])
    @example(["classify", "--k"])
    @example(["classify", "--k=2"])
    @example(["classify", "-", "-"])
    @example(["census", "--rows", "x", "--cols", "2"])
    @example(["classify", "--expect", "xx"])
    @example(["census", "--cols", "4"])
    def test_namespace_is_argparse_namespace(self, argv):
        args = cli._read_argv(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    @settings(max_examples=300, deadline=None)
    @given(_ARGV)
    def test_main_prints_what_argparse_alone_gives(self, argv):
        read = run_in_process(argv, "ab\ncd\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_read_argv", lambda argv: None)
            assert run_in_process(argv, "ab\ncd\n") == read

    def test_bench_argv_shapes_skip_argparse(self, tmp_path, monkeypatch):
        parsed, parse = [], argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            parsed.append(args)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        path = write(tmp_path, "ab\ncd")
        for argv in (
            ["classify", path],
            ["neutralize", path],
            ["graph", "--format", "dot", path],
            ["graph", "--format", "json", path],
            ["census", "--rows", "6", "--cols", "6"],
        ):
            assert run_in_process(argv, "")[0] == EXIT_OK
        assert parsed == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Picture(2, 2, 1, (sym("a", 1),)), "cells length must be rows * cols"),
        (lambda: Pairing("Diag"), "unknown pairing kind 'Diag'"),
        (lambda: in_DN(parse_picture("ab\ncd"), "eager"), "unknown strategy 'eager'"),
        (lambda: parse_word("ab\ncd"), "a word is a single line"),
        (lambda: hcat(parse_picture("ab\ncd"), parse_picture("ab\ncd\nab\ncd")), "2 rows vs 4 rows"),
        (lambda: parse_picture("ab\ncd").cell(0, 1), "cell (0,1) outside 2x2"),
        (lambda: enumerate_dyck(3, ROW), "no Dyck words of length 3"),
        (
            lambda: nesting_accretion(Accretion(1, (), (), parse_picture("ab\ncd"))),
            "|w_r|=0 |w_c|=0 vs core 2x2",
        ),
    ],
    ids=["Picture", "Pairing", "in_DN", "parse_word", "hcat", "cell", "enumerate_dyck", "nesting_accretion"],
)
def test_bad_argument_is_a_package_error(call, message):
    # one exception family, so main's one handler covers it; it is still a ValueError
    with pytest.raises(Dyck2dError) as e:
        call()
    assert isinstance(e.value, ValueError) and str(e.value) == message


def test_every_error_class_is_raised():
    # a class that no raise names is a rule with no home of its own: fold it into one that has
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    defined = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert defined - {"Dyck2dError"} - raised == set()


def peak_bytes_per_cell(tmp_path, verb):
    """A child's own peak RSS growth per cell over main([*verb, grid]), a 400x400 ab/cd grid."""
    path = write(tmp_path, "\n".join(["ab" * 200, "cd" * 200] * 200) + "\n")
    script = (
        "import contextlib, os, resource, sys\n"
        "from dyck2d.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    code = main(sys.argv[1:])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, (after - before) * 1024 / 400**2)\n"  # ru_maxrss is in KiB on Linux
    )
    # a process keeps the peak RSS of the one it was exec'd from, so a small
    # launcher starts the child: a child of the test process would read the test's peak
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", script, *verb, path],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    code, per_cell = result.stdout.split()
    assert int(code) == EXIT_OK
    return float(per_cell)


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_memory_per_cell(tmp_path, fmt):
    # the writers hold the position texts, the circuits and their sections of text:
    # measured 327 (json) and 419 (dot) bytes a cell over a 400x400 ab/cd grid
    per_cell = peak_bytes_per_cell(tmp_path, ["graph", "--format", fmt])
    assert per_cell < {"json": 375, "dot": 480}[fmt], f"{per_cell:.0f} bytes a cell"


@pytest.mark.parametrize("verb", ["classify", "neutralize"])
def test_decider_memory_per_cell(tmp_path, verb):
    # the deciders hold the picture, one sweep's lists and Kahn's sets: under 250 bytes a cell
    per_cell = peak_bytes_per_cell(tmp_path, [verb])
    assert per_cell < 250, f"{per_cell:.0f} bytes a cell"
