"""``complexes`` and ``surgery`` keep one face format, the vertex bitmask: of
``signvec`` they use only the bridge into masks (``parse``, ``vertex_set``,
``members``, and ``cube_face``, which builds a mask from two ints), never a
sign-vector face operation.  The check reads the
source with ``ast``, so it also sees names used inside functions."""

import ast
from pathlib import Path

import ncpoly

BRIDGE = {"parse", "vertex_set", "members", "cube_face"}


def _signvec_names(path):
    """Every ``signvec`` name the module uses: ``signvec.<name>`` and the
    names imported from ``signvec``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "signvec"
        ):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "signvec":
            for alias in node.names:
                yield node.lineno, alias.name


def test_surgery_and_complexes_use_only_the_mask_bridge():
    root = Path(ncpoly.__file__).parent
    used = {}
    for name in ("complexes", "surgery"):
        path = root / f"{name}.py"
        for lineno, attr in _signvec_names(path):
            used.setdefault(attr, []).append(f"{path.name}:{lineno}")
    assert {"vertex_set", "members"} <= set(used)
    assert {attr: where for attr, where in used.items() if attr not in BRIDGE} == {}
