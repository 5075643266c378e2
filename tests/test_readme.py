"""The README's library example must run against the package as exported."""

import re
from pathlib import Path

import ifrx

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    code = library_block()
    imported = re.search(r"^from ifrx import (.+)$", code, re.M).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(ifrx.__all__)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
