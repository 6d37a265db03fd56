"""The README's CLI matches the parser: every option it names exists, and
every ``modcmaes`` command in its shell blocks parses."""

import argparse
import pathlib
import re
import shlex

import pytest

from modcmaes.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
NOT_OURS = {"--no-build-isolation"}  # pip's, in the install block


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _commands(text):
    """The ``modcmaes`` lines of the ``sh`` blocks, continuations joined,
    comments and redirects stripped."""
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r"\s\d*[<>]+&?\s*\S+", "", line)
            words = shlex.split(line, comments=True)
            if words and words[0] == "modcmaes":
                yield words[1:]


def test_every_named_option_exists():
    options = {opt for sub in _subparsers(build_parser()).values()
               for opt in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    assert named - NOT_OURS - options == set()


COMMANDS = list(_commands(README.read_text()))


def test_the_examples_cover_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == set(_subparsers(build_parser()))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_every_example_command_parses(argv):
    build_parser().parse_args(argv)
