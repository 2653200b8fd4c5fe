"""The README's examples run and print what the README shows."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from counterpoint.cli_reports import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def console_examples() -> list:
    """(argv text, expected stdout) for each `$ counterpoint …` line of a plain block."""
    examples = []
    for lang, body in BLOCKS:
        if lang:
            continue
        for example in re.split(r"^\$ ", body, flags=re.MULTILINE)[1:]:
            command, _, shown = example.partition("\n")
            examples.append((command, shown.rstrip("\n") + "\n"))
    return examples


EXAMPLES = console_examples()


def test_the_readme_console_examples_are_found():
    assert {command.split()[1] for command, _ in EXAMPLES} >= {"step", "compare"}


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_console_example_prints_what_the_readme_shows(capsys, command, shown):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == shown


def test_library_quickstart_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def parser_options(parser: argparse.ArgumentParser) -> set:
    """Every option string of a parser and of its subcommands, at any depth."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                options |= parser_options(command)
    return options


def test_every_option_the_readme_names_exists():
    named = {
        option
        for line in README.splitlines() if "pip install" not in line
        for option in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
    }
    assert named, "the README names no option"
    assert named - parser_options(build_parser()) == set()


def test_the_scripts_section_names_every_script_and_no_other():
    section = README.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`scripts/([^`/]+)`", section))
    assert named == {path.name for path in (ROOT / "scripts").iterdir() if path.is_file()}
