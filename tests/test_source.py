"""Checks on the library source itself."""

import ast
import os

import goldman

SOURCE_DIR = os.path.dirname(os.path.abspath(goldman.__file__))


def test_library_source_has_no_assert():
    # python -O strips asserts, so every re-check must be an explicit
    # raise; an assert in the library would vanish under -O.
    found = []
    for name in sorted(os.listdir(SOURCE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SOURCE_DIR, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        found.extend("%s:%d" % (name, node.lineno)
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, "assert statements in src/goldman: " + ", ".join(found)
