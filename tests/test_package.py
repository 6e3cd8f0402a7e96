import ast
from pathlib import Path

import qsl


def test_all_lists_every_public_import():
    tree = ast.parse(Path(qsl.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.level == 1 for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public, "no relative imports found in qsl/__init__.py"
    assert sorted(public - set(qsl.__all__)) == []


def test_all_names_resolve():
    assert [name for name in qsl.__all__ if not hasattr(qsl, name)] == []
