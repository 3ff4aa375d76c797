"""Every command line README documents parses with the CLI's own parser, so
the documented flags cannot drift from the parser."""

import re
import shlex
from pathlib import Path

import pytest

from raredis_toolkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_commands() -> list[str]:
    """The `raredis ...` lines of README's "Command line" block, with `\\`
    continuations joined and the `[ ]` around optional flags dropped."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [re.sub(r"[\[\]]", "", line) for line in lines if line.startswith("raredis ")]


@pytest.mark.parametrize("line", documented_commands())
def test_documented_command_parses(line, capsys):
    argv = shlex.split(line)[1:]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")
    # argparse takes a prefix of a flag too, so each flag must be spelled in full
    assert cli.run_cli([argv[0], "--help"]) == 0
    usage = capsys.readouterr().out
    for flag in (arg for arg in argv if arg.startswith("--")):
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", usage), (flag, line)


def test_every_subcommand_is_documented():
    subcommands = sorted(name[len("cmd_"):] for name in dir(cli) if name.startswith("cmd_"))
    assert sorted({shlex.split(line)[1] for line in documented_commands()}) == subcommands
