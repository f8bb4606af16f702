"""The table-driven parser of ``symsemi.cli`` against the argparse parser it
replaced (``oracles.build_parser``), and its help and usage errors."""
from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from oracles import build_parser
from symsemi import cli

REFERENCE = build_parser()
# Every option name of the table with its kind, plus two no command has.
KINDS = {option[0]: option[1] for spec in cli.COMMANDS.values()
         for option in spec[4]}
KINDS.update({"T": str, "bogus": "flag"})
VALUES = {int: st.one_of(st.integers(-3, 12).map(str),
                         st.sampled_from(["x", "1.5", "", " 7", "+2", "0x1"])),
          str: st.sampled_from(["out.txt", "x", "all", "car,star", "a=b", ""])}
CHOICES = st.sampled_from(["text", "json", "exact", "float", "xml"])
# Positional words; none starts with "-" but "-" itself, which both parsers
# take as a positional.
WORDS = st.sampled_from(["builtin:t4", "m.json", "x=y", "-", ""])


@st.composite
def option_tokens(draw):
    """One option with its value, as one token or two; a flag sometimes
    with a value it must refuse."""
    name = draw(st.sampled_from(sorted(KINDS)))
    kind = KINDS[name]
    if kind == "flag":
        return [f"--{name}=x"] if draw(st.integers(0, 9)) == 0 \
            else [f"--{name}"]
    value = draw(CHOICES if isinstance(kind, tuple) else VALUES[kind])
    # argparse takes a token that starts with "-" as a positional when it
    # holds a space and names no option of the command: such a value goes
    # in its own token.
    if draw(st.booleans()) and " " not in value:
        return [f"--{name}={value}"]
    return [f"--{name}", value]


@st.composite
def command_lines(draw):
    """argv from the grammar, valid or not: a command (sometimes unknown
    or missing), options and positionals in any order, and sometimes an
    option left without its value at the end."""
    argv = draw(st.sampled_from([[]] + [[c] for c in cli.COMMANDS]
                                + [["conjure"]]))
    for _ in range(draw(st.integers(0, 5))):
        argv += draw(st.one_of(option_tokens(), WORDS.map(lambda w: [w])))
    if draw(st.integers(0, 9)) == 0:
        name = draw(st.sampled_from(sorted(k for k, v in KINDS.items()
                                           if v != "flag")))
        argv.append(f"--{name}")
    return argv


def reference(argv):
    """The argparse namespace of argv as a dict, or None if it refuses."""
    with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
        try:
            return vars(REFERENCE.parse_args(argv))
        except SystemExit:
            return None


def parsed(argv):
    try:
        return vars(cli.parse(argv))
    except cli._Usage:
        return None


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_the_table_parser_accepts_what_argparse_accepted(argv):
    assert parsed(argv) == reference(argv)


@pytest.mark.parametrize("argv", [
    ["compute", "builtin:t4", "--p=2", "--format=json"],
    ["verify", "--census", "c.json", "m.json"],
    ["oscillator", "--degree-cap", "-1", "--matrix", "a.txt"],
    ["clifford", "--n", "2", "--checks", "car,star", "--mode", "float"],
    ["compute", "--", "builtin:t4"],
    ["suite", "--list"],
])
def test_examples_parse_as_before(argv):
    assert parsed(argv) == reference(argv) is not None


def test_abbreviations_are_refused(capsys):
    # argparse took an unambiguous prefix of an option name; the table
    # parser matches names exactly.
    argv = ["compute", "builtin:t4", "--form", "json"]
    assert reference(argv) is not None
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized option --form\n")


def test_a_value_is_taken_verbatim(capsys):
    # A value that starts with "-" reaches the handler, which refuses it.
    assert cli.main(["compute", "builtin:t4", "--p", "-1"]) == 2
    assert capsys.readouterr().err == "error: --p must be >= 0\n"
    assert parsed(["compute", "m.json", "--out", "-o"])["out"] == "-o"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_help_exits_zero_and_names_each_option(command, capsys):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: symsemi {command} [-h]")
    positionals, options = cli.COMMANDS[command][3:]
    for name, _ in positionals:
        assert f"\n  {name} " in out
    for option in options:
        assert f"\n  --{option[0]}" in out
    assert cli.main([command, "-h"]) == 0
    assert capsys.readouterr().out == out


def test_top_level_help_lists_the_subcommands(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for command, spec in cli.COMMANDS.items():
        assert f"\n  {command} " in out and spec[2] in out


@pytest.mark.parametrize("argv, message", [
    ([], "no command; choose from compute, verify, clifford, oscillator, "
         "suite"),
    (["conjure"], "unknown command 'conjure'; choose from compute, verify, "
                  "clifford, oscillator, suite"),
    (["compute"], "missing model"),
    (["verify", "m.json"], "missing --census"),
    (["compute", "m.json", "extra"], "unexpected argument 'extra'"),
    (["compute", "m.json", "--p"], "--p needs a value"),
    (["compute", "m.json", "--p", "x"], "--p wants an integer, got 'x'"),
    (["compute", "m.json", "--format", "xml"],
     "--format wants one of text, json, got 'xml'"),
    (["suite", "--list=yes"], "--list takes no value"),
    (["oscillator", "--matrix", "a.txt", "--T", "2"],
     "unrecognized option --T"),
])
def test_usage_errors_exit_two_with_the_usage_line(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = argv[0] if argv and argv[0] in cli.COMMANDS else None
    assert captured.err == f"error: {message}\n{cli._usage(command)}\n"
    assert captured.err.splitlines()[1].startswith("usage: symsemi ")
