"""README's library layout table names only modules and attributes that exist, and its
library example prints what its comments say."""

from __future__ import annotations

import contextlib
import importlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _module_rows() -> dict[str, str]:
    """The contents cell of each ``| `stftpr.x` | ... |`` row, by module name."""
    rows = {}
    for line in README.read_text().splitlines():
        found = re.match(r"\|\s*`(stftpr\.\w+)`\s*\|(.*)\|\s*$", line)
        if found:
            rows[found.group(1)] = found.group(2)
    return rows


def test_readme_module_table_names_what_exists():
    rows = _module_rows()
    assert rows, "README has no stftpr module table"
    checked = 0
    for name, contents in rows.items():
        module = importlib.import_module(name)
        for span in re.findall(r"`([^`]+)`", contents):
            # the name a span starts with: `relation_transform(X, rows)` names relation_transform
            ident = re.match(r"[A-Za-z_]\w*", span)
            if ident is None or not ("_" in ident.group() or ident.group()[0].isupper()):
                continue
            assert hasattr(module, ident.group()), f"README names {name}.{ident.group()}, which does not exist"
            checked += 1
    assert checked


def test_readme_library_example_prints_its_commented_outputs():
    # each print line's comment is its output; "~x" reads as "at most 1000 x"
    block = re.search(r"## Library example\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().split()
    assert expected == ["True", "UniqueUpToGlobalPhase", "~1e-15"] and len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.startswith("~"):
            assert float(got) <= 1e3 * float(want[1:]), (got, want)
        else:
            assert got == want
