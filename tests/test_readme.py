"""The README's config documentation agrees with the code that loads configs."""

import json
import re
from pathlib import Path

import pytest

from penseq.cli import ExperimentConfig

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
