"""README's library layout table names only modules and attributes that exist."""

from __future__ import annotations

import importlib
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
