"""The live parser against the reference kept in parser_reference.py.

Every help and usage text, every refusal of PARSER_ERRORS, every refusal of
an option given ahead of its command, and the namespace of every line that
parses are pinned byte for byte to the parser that added all five
commands' arguments when it was built.  Each check starts from a freshly
built live parser, so it covers a command's first parse.
"""

import contextlib
import io

import pytest

import parser_reference
from test_cli import EXACT_LINES, OPTIONS_AHEAD, PARSER_ERRORS, ROUND_TRIPS
from ycel import cli
from ycel.errors import ConfigurationError

REFERENCE = parser_reference.build_parser()
HELP_LINES = [("--help",), ("-h",), *[(command, "--help") for command in cli.COMMANDS]]
REFUSED_LINES = [argv for argv, _ in PARSER_ERRORS.values()] + [argv for argv, _ in OPTIONS_AHEAD]
PARSED_LINES = [*ROUND_TRIPS.values(), *EXACT_LINES.values()]


def fresh_parser():
    """A newly built live parser, which no line has parsed yet."""
    return cli.build_parser.__wrapped__()


def reference_call(argv):
    """Exit code, stdout and stderr of the reference parser on argv, as main reports them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            REFERENCE.parse_args(cli._attach_negative_numbers(list(argv)))
        except ConfigurationError as exc:
            return 2, "", f"error: {exc}\n"
        except SystemExit as exc:
            return exc.code, out.getvalue(), ""
    raise AssertionError(f"the reference parser took {argv!r}")


def live_call(argv, monkeypatch):
    """Exit code, stdout and stderr of main on argv, with a fresh live parser."""
    parser = fresh_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def items(namespace):
    return [(key, repr(value)) for key, value in vars(namespace).items()]


def test_help_and_usage_texts_match_the_reference():
    live = fresh_parser()
    assert live.format_help() == REFERENCE.format_help()
    assert live.format_usage() == REFERENCE.format_usage()
    for command, parser in live.commands.items():
        parser.flags  # noqa: B018 -- the populated parser
        assert parser.format_help() == REFERENCE.commands[command].format_help(), command
        assert parser.format_usage() == REFERENCE.commands[command].format_usage(), command


@pytest.mark.parametrize("argv", HELP_LINES + REFUSED_LINES, ids=repr)
def test_main_gives_the_help_and_refusals_of_the_reference(argv, monkeypatch):
    expected = reference_call(argv)
    assert expected[0] in (0, 2)
    assert live_call(argv, monkeypatch) == expected


@pytest.mark.parametrize("argv", PARSED_LINES, ids=repr)
def test_namespaces_match_the_reference(argv):
    command, rest = argv[0], cli._attach_negative_numbers(list(argv[1:]))
    full = items(REFERENCE.parse_args([command, *rest]))
    assert items(fresh_parser().parse_args([command, *rest])) == full
    expected = items(REFERENCE.commands[command].parse_args(rest))
    assert items(fresh_parser().commands[command].parse_args(rest)) == expected
    assert items(cli._parse_exact(fresh_parser().commands[command], rest)) == expected
