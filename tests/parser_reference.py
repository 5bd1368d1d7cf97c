"""The ycel parser as it was built before each command's arguments were added
at the command's first parse.

``_Parser``, ``_CommandLine`` and ``build_parser`` are kept verbatim as the
reference that tests pin the live parser to byte for byte: every help and
usage text, every refusal and every namespace.  This parser adds all five
commands' arguments when it is built, and collects every command's option
strings then.  The parameter and command tables (``PARAMETERS`` and
``COMMANDS``) are imported from the live module.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ycel.cli import COMMANDS, PARAMETERS
from ycel.errors import ConfigurationError


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as ConfigurationError, not usage and exit."""

    def error(self, message):
        raise ConfigurationError(message)


class _CommandLine(_Parser):
    """The full parser.  It refuses a command's option given ahead of the
    command, where argparse would take the option as unknown and its value
    as the command."""

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        flag = args[0].split("=", 1)[0] if args else ""
        if flag in self.command_options:
            raise ConfigurationError(f"option {flag} goes after the command name")
        return super().parse_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ycel parser, built once per process: parse_args keeps no state.

    Its ``commands`` maps each command name to that command's parser, and
    its ``command_options`` holds the option strings of all the commands.
    Each command's parser holds its ``flags``, the Action each of its
    option strings names, and its ``defaults``, the namespace of an empty
    line once _parse_exact first needs it.
    """
    parser = _CommandLine(
        prog="ycel",
        description="Three-mode correlated-emission laser: moments, oracles, entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.command_options = set()
    for command, (func, text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        actions = [
            p.add_argument("--config",
                           help="JSON file with parameters (a previous run's JSON output works)"),
            p.add_argument("--out", help="write here instead of stdout"),
            p.add_argument("--format", choices=("csv", "json"), default="csv"),
        ]
        for key in names:
            _, _, choices, flag = PARAMETERS[key]
            flag = dict(flag, dest=key)
            if choices and "action" not in flag:
                flag["choices"] = choices
            actions.append(p.add_argument(flag.pop("flag", "--" + key.replace("_", "-")), **flag))
        p.set_defaults(func=func, command=command)
        p.flags = {option: action for action in actions for option in action.option_strings}
        p.defaults = None
        parser.command_options.update(p.flags)
    parser.commands = sub.choices
    return parser
