"""Every ```python block of README.md runs as written, each in a fresh
namespace with a temporary working directory."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (number of README lines above the block, the block's source)
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)), match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
]


def test_readme_has_python_blocks():
    assert BLOCKS


def test_blocks_keep_their_readme_lines():
    lines = TEXT.splitlines()
    for offset, source in BLOCKS:
        assert lines[offset : offset + source.count("\n")] == source.splitlines()


@pytest.mark.parametrize("offset, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(offset, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # The padding puts each statement at its README line in warnings and tracebacks.
    code = compile("\n" * offset + source, str(README), "exec")
    exec(code, {"__name__": "__readme__"})
