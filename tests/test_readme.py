"""Every ``python`` block of README.md runs as written.

A README that imports a name the package no longer exports, or calls an
entry point that is gone, fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "readme_example"})
