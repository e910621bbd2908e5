"""The python examples of README.md run and their assertions hold."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_every_python_block_runs():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 3
    # the blocks share one namespace, as a reader pasting them in order would
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def command_table(text):
    """Subcommand -> (input cell, flags cell) of the "Command line" table."""
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        name = re.fullmatch(r"`([a-z-]+)`", cells[0])
        if line.startswith("|") and name:
            rows[name.group(1)] = (cells[1], cells[2])
    return rows


def test_flag_table_matches_the_parser():
    from intcone import cli

    table = command_table(README.read_text())
    assert set(table) == set(cli._COMMANDS)
    for name, cmd in cli._COMMANDS.items():
        input_cell, flags_cell = table[name]
        assert (input_cell == "none") == (not cmd.reads_input), name
        flags = {flag for flag, _ in cmd.flags}
        if cmd.lines_key is not None:
            flags.add("--lines")
        assert set(re.findall(r"`(--[a-z-]+)[^`]*`", flags_cell)) == flags, name
        options = dict(cmd.flags)
        defaults = re.findall(r"`(--[a-z-]+)[^`]*` \(default (\d+)\)", flags_cell)
        for flag, value in defaults:
            assert options[flag].get("default") == int(value), (name, flag)
