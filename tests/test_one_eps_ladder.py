"""Every eps decision lives in ``deformed``: no other ``ncpoly`` module
imports the certificate (``certify_epsilon``) or its minor tables
(``_minor_table``), or writes the ladder's bound ``2 ** 64``, so a second
eps walk cannot come back.  The check reads the source with ``ast``, so it
also sees names used inside functions."""

import ast
from pathlib import Path

import ncpoly

OWNED = {"certify_epsilon", "_minor_table"}

# the walk upper_face_subdivision once made beside choose_epsilon's
SECOND_WALK = """
from .deformed import certify_epsilon, choose_epsilon

def walk(n, d):
    eps = choose_epsilon(n, d + 1)
    while not (certify_epsilon(n, d, eps) and certify_epsilon(n, d + 1, eps)):
        eps /= 2
        if eps < Fraction(1, 2 ** 64):
            raise ConstructionError("no certified epsilon found down to 2^-64")
    return eps
"""


def _offences(tree):
    """(line, what) for each import or attribute use of an owned name and
    each ``2 ** 64`` (or its value) in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in OWNED:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr in OWNED:
            yield node.lineno, node.attr
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)
            and (node.left.value, node.right.value) == (2, 64)
        ) or (isinstance(node, ast.Constant) and node.value == 2 ** 64):
            yield node.lineno, "2 ** 64"


def test_the_check_sees_a_second_walk():
    assert sorted(what for _, what in _offences(ast.parse(SECOND_WALK))) == [
        "2 ** 64",
        "certify_epsilon",
    ]


def test_only_deformed_decides_eps():
    # the package re-exports the public certificate and calls nothing
    root = Path(ncpoly.__file__).parent
    found = {}
    for path in sorted(root.glob("*.py")):
        if path.name != "deformed.py":
            for lineno, what in _offences(ast.parse(path.read_text(), filename=str(path))):
                found.setdefault((path.name, what), []).append(lineno)
    assert set(found) <= {("__init__.py", "certify_epsilon")}, found
    assert len(found.get(("__init__.py", "certify_epsilon"), ())) <= 1, found
