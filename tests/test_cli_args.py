"""The CLI's direct reading of a well-formed command line, against argparse.

`cli._quick_args` either gives up (None) or returns what `build_parser().parse_args`
returns for the same line; every line it gives up on goes to argparse as before.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import umbra.cli as cli
from umbra.cli import EXIT_OK, EXIT_USAGE, main

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PINS = Path(__file__).resolve().parent.parent / "bench" / "pins.json"


def parsed(argv):
    """vars() of argparse's namespace for argv, or the exit code argparse stops with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def test_every_benchmark_line_is_read_directly_as_argparse_reads_it():
    lines = list(json.loads(PINS.read_text()))
    assert len(lines) >= 21
    for line in lines:
        quick = cli._quick_args(line.split())
        assert quick is not None and vars(quick) == parsed(line.split()), line


def test_absent_options_take_their_defaults():
    quick = cli._quick_args(["verify", "--max-n", "2", "--theorems=t1"])
    assert vars(quick) == parsed(["verify", "--theorems", "t1", "--max-n", "2"])
    assert (quick.orders, quick.lambdas, quick.symbolic_lambda) == (None, None, False)
    assert cli._quick_args(["family", "--name", "", "--max-degree", "0"]).name == ""


_KEYWORDS = {flag: keywords for _, _, options in cli._COMMANDS.values()
             for flags, keywords in options for flag in flags}
_FLAGS = sorted(_KEYWORDS)
_NOISE = ["-h", "--help", "--", "--version", "--max", "--lam", "--orde", "-x", "", "verify"]
_VALUES = ["3", "0", "12", "-1", " 4", "+2", "1_0", "", "x", "2.5", "json", "csv", "xml",
           "all", "t1,t3", "t9", "1/2", "-1,2", "euler:1", "hermite", "a=b", "-", "--max-n"]


def values(flag):
    """Values a flag takes, twice as often as values of any kind."""
    keywords = _KEYWORDS.get(flag, {})
    if keywords.get("type") is int:
        fitting = st.integers(0, 12).map(str)
    else:
        fitting = st.sampled_from(keywords.get("choices", ["t1", "euler:1", "hermite", "1/2"]))
    return st.one_of(fitting, fitting, st.sampled_from(_VALUES), st.integers(-3, 30).map(str))


@st.composite
def grammar_lines(draw):
    """A command and its required options, a few dropped, then options of the command
    mostly, of any command and noise; in any order, each as the flag alone, `--flag value`
    or `--flag=value`."""
    command = draw(st.sampled_from([*cli._COMMANDS, "nope", "-h"]))
    options = cli._COMMANDS.get(command, (None, None, ()))[2]
    required = [flags[0] for flags, keywords in options if keywords.get("required")]
    own = [flag for flags, _ in options for flag in flags] or _FLAGS
    flags = [flag for flag in required if draw(st.integers(0, 9))]
    flags += draw(st.lists(st.one_of(*[st.sampled_from(own)] * 3, st.sampled_from(_FLAGS + _NOISE)),
                           max_size=3))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(values(flag))
        alone = "action" in _KEYWORDS.get(flag, {}) or not draw(st.integers(0, 9))
        form = "alone" if alone and draw(st.integers(0, 9)) else draw(st.booleans())
        argv += {"alone": [flag], True: [flag, value], False: [f"{flag}={value}"]}[form]
    return argv


@settings(max_examples=600, deadline=None, database=None)
@given(grammar_lines())
def test_a_line_read_directly_reads_as_argparse_reads_it(argv):
    quick = cli._quick_args(argv)
    if quick is not None:
        assert vars(quick) == parsed(argv)


# lines that name no table to build: argparse decides each one, with the code it gave
# before the direct reading existed, and writes no document
@pytest.mark.parametrize("argv, code, usage", [
    ("-h", EXIT_OK, "usage: umbra [-h]"),
    ("verify --help", EXIT_OK, "usage: umbra verify [-h]"),
    ("verify --theorems t1 --max-n 3 --symbolic-lambda=1", EXIT_USAGE, ""),
    ("verify --theorems t1 --max-n 3 --", EXIT_USAGE, ""),
    ("verify -- --theorems t1 --max-n 3", EXIT_USAGE, ""),
    ("verify --theorems t1 --max-n 3 --format csv", EXIT_USAGE, ""),
    ("verify --theorems t1 --max-n -1", EXIT_USAGE, ""),
    ("family --name hermite --max-degree 2 --format xml", EXIT_USAGE, ""),
    ("--version verify", EXIT_OK, "umbra "),
])
def test_help_and_errors_go_to_argparse(capsys, argv, code, usage):
    assert cli._quick_args(argv.split()) is None
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert out.startswith(usage) if usage else out == ""


# lines argparse accepts that the direct reading leaves to it: an abbreviation and a
# repeated option (the last one wins) write the document of the line spelled out
@pytest.mark.parametrize("argv, spelled_out", [
    ("verify --theorems t1 --max 3", "verify --theorems t1 --max-n 3"),
    ("verify --theorems t1 --max-n 5 --max-n 3", "verify --theorems t1 --max-n 3"),
    ("family --name euler --max-deg 3 --ord 2", "family --name euler --max-degree 3 --order 2"),
])
def test_abbreviations_and_repeats_go_to_argparse(capsys, argv, spelled_out):
    assert cli._quick_args(argv.split()) is None
    assert cli._quick_args(spelled_out.split()) is not None
    assert main(argv.split()) == EXIT_OK
    out = capsys.readouterr().out
    assert main(spelled_out.split()) == EXIT_OK
    assert capsys.readouterr().out == out


def test_version_is_printed_without_a_parser(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", None)  # a call would raise TypeError
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == f"umbra {cli.__version__}\n"
