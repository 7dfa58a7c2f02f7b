"""The README's config documentation agrees with the code that loads configs,
its CLI examples parse, and its library example runs."""

import json
import re
import shlex
from pathlib import Path

import pytest

from penseq.cli import ExperimentConfig, build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def config_block() -> dict:
    blocks = re.findall(r"```json\n(.*?)```", README, re.S)
    assert len(blocks) == 1, "the README should show exactly one json config block"
    return json.loads(blocks[0])


def table_fields(section: str) -> list:
    """Field names, in order, of the table after "The `<section>` section takes"."""
    start = README.index(f"The `{section}` section takes")
    table = README[start:].split("\n\n")[1].splitlines()
    assert table[0].startswith("| field |"), table[0]
    return [re.match(r"\| `(\w+)` \|", row).group(1) for row in table[2:]]


def test_config_block_loads():
    ExperimentConfig.from_dict(config_block())


@pytest.mark.parametrize("section", ["noise", "signal"])
def test_section_table_lists_the_fields_the_config_takes(section):
    # the resolved section holds every field the loader takes from the spec
    # type, with defaults filled in
    taken = getattr(ExperimentConfig.from_dict(config_block()), section)
    assert table_fields(section) == list(taken)


def test_library_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1, "the README should show exactly one python block"
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cli_block_lines_parse():
    # the first code block of the CLI section; argparse exits 2 on an option
    # the parser does not take
    section = README[README.index("\n## CLI\n"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("penseq ")]
    assert len(commands) == 4
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])
