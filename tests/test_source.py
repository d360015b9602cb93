"""Checks on the library source itself."""

import ast
import importlib
import os
import types

import goldman

SOURCE_DIR = os.path.dirname(os.path.abspath(goldman.__file__))
HOOKS_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "hooks.py")


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


def test_every_bench_hook_target_resolves():
    # The benchmark hooks name library callables; deleting or renaming
    # one would otherwise show only in `bench/run.py --self-test`.  The
    # hooks module is executed from its source text, so nothing is
    # written next to it.
    hooks = types.ModuleType("bench_hooks")
    with open(HOOKS_FILE) as fh:
        exec(compile(fh.read(), HOOKS_FILE, "exec"), hooks.__dict__)
    missing = ["%s: %s" % (module, target)
               for _, module, targets, _, _, _ in hooks.HOOKS for target in targets
               if hooks._resolve(importlib.import_module(module), target) is None]
    assert not missing, "bench hooks that do not resolve: " + ", ".join(missing)
    assert len(hooks.HOOKS) > 30
