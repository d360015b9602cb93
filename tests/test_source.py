"""Checks on the library source itself."""

import argparse
import ast
import importlib
import os
import re
import types

import goldman
from goldman.cli import build_parser

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


def test_every_exported_name_resolves():
    # A name deleted from a module must leave its __all__ and the
    # package's import blocks with it.
    modules = [goldman] + [importlib.import_module("goldman." + name[:-3])
                           for name in sorted(os.listdir(SOURCE_DIR))
                           if name.endswith(".py")
                           and name not in ("__init__.py", "__main__.py")]
    missing = ["%s.%s" % (module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, "names in __all__ that do not resolve: " + ", ".join(missing)
    assert len(goldman.__all__) > 30


def test_only_the_definition_and_the_package_name_wedge():
    # Chains, cochains and bases are labelled by wedge keys; the Wedge
    # class is defined in goldman.complexes and re-exported by the
    # package, and no other module names it.
    found = []
    for name in sorted(os.listdir(SOURCE_DIR)):
        if not name.endswith(".py") or name in ("complexes.py", "__init__.py"):
            continue
        with open(os.path.join(SOURCE_DIR, name)) as fh:
            found.extend("%s:%d" % (name, lineno)
                         for lineno, line in enumerate(fh, 1)
                         if re.search(r"\bWedge\b", line))
    assert not found, "Wedge named outside its definition: " + ", ".join(found)


def test_verify_reads_no_private_attribute_of_a_group():
    # The certification layer works through a group's public surface:
    # its coordinates, kernels, units and invariants.  A private slot
    # read here would tie a certificate to how the group stores itself.
    with open(os.path.join(SOURCE_DIR, "verify.py")) as fh:
        found = ["verify.py:%d" % lineno for lineno, line in enumerate(fh, 1)
                 if re.search(r"\bspec\._\w", line)]
    assert not found, "private group attributes read: " + ", ".join(found)


def test_no_module_forks_or_spawns():
    # Every command runs in one process: no module imports a process,
    # thread or pickling library, or names os.fork.
    banned = ("pickle", "select", "multiprocessing", "concurrent", "threading", "subprocess")
    found = []
    for name in sorted(os.listdir(SOURCE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SOURCE_DIR, name)) as fh:
            text = fh.read()
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + ["%s.%s" % (node.module, a.name)
                                                 for a in node.names]
            else:
                continue
            found.extend("%s:%d imports %s" % (name, node.lineno, m) for m in modules
                         if m.split(".")[0] in banned or m.startswith("os.fork"))
        found.extend("%s:%d names %s" % (name, lineno, m.group())
                     for lineno, line in enumerate(text.splitlines(), 1)
                     for m in re.finditer(r"\bos\.fork\w*", line))
    assert not found, "process machinery in src/goldman: " + ", ".join(found)


def test_readme_shared_flags_are_the_parser_flags():
    # The README's shared-flags paragraph names every flag the parser
    # accepts, and no other, so a removed flag cannot linger there.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        (paragraph,) = [p for p in fh.read().split("\n\n") if p.startswith("Shared flags:")]
    named = set(re.findall(r"`(--[a-z-]+)", paragraph))
    parsers, accepted = [build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            accepted.update(s for s in action.option_strings if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    accepted.discard("--help")
    assert "--box" in accepted and "--suite" in accepted
    assert named == accepted


def test_verify_integer_constants_are_the_allowed_ones():
    # Every module-level integer constant of goldman/verify.py sizes a
    # cap, a pool or a scan; a new one needs an explicit edit here.
    with open(os.path.join(SOURCE_DIR, "verify.py")) as fh:
        tree = ast.parse(fh.read(), filename="verify.py")
    arithmetic = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and all(
                isinstance(n, arithmetic) for n in ast.walk(node.value)):
            value = eval(compile(ast.Expression(node.value), "verify.py", "eval"))
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if type(value) is int:
                found.update(t.id for t in targets)
    assert found == {"INNER_SUPPORT_CAP", "IDEAL_BOX_ENLARGE"}


def _cached_proofs(source):
    """Where ``source`` memoises a proof outside a run's ``Proofs``: a def
    named ``*_holds`` or ``*_identities`` with a cache decorator, rebound
    at module level, or a function that names such a proof and also a
    module-level dict."""
    tree = ast.parse(source)
    proof = re.compile(r"_(holds|identities)$")
    dict_call = re.compile(r"\b(dict|defaultdict|OrderedDict|Counter)$")
    dicts = {t.id for node in tree.body if isinstance(node, ast.Assign)
             and (isinstance(node.value, (ast.Dict, ast.DictComp))
                  or isinstance(node.value, ast.Call) and dict_call.search(ast.unparse(node.value.func)))
             for t in node.targets if isinstance(t, ast.Name)}
    found = ["rebinds %s" % t.id for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name) and proof.search(t.id)]
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        if proof.search(fn.name):
            found.extend("%s: @%s" % (fn.name, ast.unparse(d)) for d in fn.decorator_list
                         if re.search(r"\b(cache|lru_cache|cached_property)\b", ast.unparse(d)))
        names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        if any(proof.search(n) for n in names | {fn.name}):
            found.extend("%s reads %s" % (fn.name, d) for d in sorted(names & dicts))
    return found


def test_no_proof_is_cached_at_module_level():
    # A proof kept in the module would hide a patched function behind an
    # old answer; a run keeps its proofs in its own Proofs value.
    with open(os.path.join(SOURCE_DIR, "verify.py")) as fh:
        source = fh.read()
    assert _cached_proofs(source) == []
    # The guard sees each way of caching one.
    assert _cached_proofs("import functools\n@functools.lru_cache(None)\n"
                          "def _f_identity_holds():\n    return True\n")
    assert _cached_proofs("def _f_identity_holds():\n    return True\n"
                          "_f_identity_holds = functools.cache(_f_identity_holds)\n")
    assert _cached_proofs("_DONE = {}\ndef cite():\n"
                          "    return _DONE.setdefault(1, _homotopy_identity_holds())\n")
    assert _cached_proofs("_DONE = dict()\ndef _omega_identities(free):\n"
                          "    return _DONE[free]\n")
