"""Every name an ncpoly module (other than ``__init__``, which re-exports)
imports is read in that module, so a deletion leaves no import behind.  The
check reads the source with ``ast``, so it also sees imports made inside
functions."""

import ast
from pathlib import Path

import ncpoly


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield f"{path.name}:{node.lineno} imports {name} unread"


def test_every_imported_name_is_read():
    paths = sorted(Path(ncpoly.__file__).parent.glob("*.py"))
    paths = [path for path in paths if path.name != "__init__.py"]
    assert len(paths) > 10
    assert [hit for path in paths for hit in _unused_imports(path)] == []
