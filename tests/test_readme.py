"""The README's library quick start runs, and names only exported code."""

import re
from pathlib import Path

import unruh_coherence

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)
SECTION = README.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
BLOCK, PROSE = re.fullmatch(r"\s*```python\n(.*?)```\n(.*)", SECTION, re.S).groups()


def test_quick_start_block_runs(capsys):
    exec(compile(BLOCK, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_quick_start_names_are_exported():
    listed = PROSE.split("are exported", 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert names
    assert [n for n in names if not hasattr(unruh_coherence, n)] == []
