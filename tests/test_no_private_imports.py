"""No ncpoly module imports a private name (one starting with ``_``) from
another ncpoly module: a helper that two modules share is public in one of
them.  The check reads the source with ``ast``, so it also sees imports made
inside functions."""

import ast
from pathlib import Path

import ncpoly


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "ncpoly"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_private_name_imported_between_modules():
    paths = sorted(Path(ncpoly.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in _private_imports(path)] == []
