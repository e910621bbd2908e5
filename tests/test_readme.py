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
