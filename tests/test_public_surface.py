"""Every public name of the package is used by the package itself.

The package keeps one implementation per quantity, plus at most one
independent oracle, and the oracles live in tests/.  A public module-level
function or class, or a public method or property, whose name appears
nowhere in src/flipchain except in its own definition and in __init__.py is
dead surface.  It fails here unless KEEP names the caller outside src/ that
needs it, by a .py path that exists and uses the name.  A private
module-level function or constant, or a private method of a class, that no
live code in the package reads is dead code, and fails with no KEEP
exception.

Names are matched, not resolved: a method counts as used when an attribute
of that name is read anywhere in the package, so a dead method that shares
its name with a live attribute is not caught.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flipchain"

# name -> the caller outside src/ that keeps it
KEEP = {
    "dfs_to_cochain": "perfbench/onepass.py",
    "is_exact": "perfbench/onepass.py; perfbench/tracer.py patches it",
    "inner_product": "demos/convolution_algebra.py; tests/test_algebra.py",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _surface():
    """(qualified name, bare name, is a method) of every public definition."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _public(node.name):
                yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{node.name}.{item.name}", item.name, True


def _private_names(node) -> list:
    """The private names a statement defines as a function or constant."""
    if isinstance(node, ast.FunctionDef):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in assigned if isinstance(t, ast.Name)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(nodes) -> set:
    """The names the nodes read, as a name or an attribute."""
    reads = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            reads.add(sub.attr)
    return reads


def _statements(path):
    """(qualified private names defined, names read) of every module-level
    statement; a class counts as its header and each statement of its body."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            yield [], _reads(node.decorator_list + node.bases + node.keywords)
            for item in node.body:
                names = _private_names(item)
                yield [f"{path.stem}.{node.name}.{n}" for n in names], _reads([item])
        else:
            yield [f"{path.stem}.{n}" for n in _private_names(node)], _reads([node])


def _dead_private():
    """module.name (module.Class.name for a method) of every private function,
    constant and method that no live statement outside __init__.py reads, as
    a name or an attribute.  A statement that defines only dead names is not
    live, so a helper read only by dead helpers is dead too."""
    statements = [s for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
                  for s in _statements(path)]
    dead = set()
    while True:
        read = set().union(*(reads for defined, reads in statements
                             if not defined or not dead.issuperset(defined)))
        now = {q for defined, _ in statements for q in defined
               if q.rsplit(".", 1)[1] not in read}
        if now == dead:
            return dead
        dead = now


def _references():
    """Names read as plain names, and as attributes, outside __init__.py."""
    names, attrs = set(), set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _unused():
    names, attrs = _references()
    return {
        qual for qual, bare, method in _surface()
        if bare not in attrs and (method or bare not in names)
    }


def test_every_public_name_is_used_in_the_package():
    dead = sorted(_unused() - KEEP.keys())
    assert not dead, f"public names no module in src/ uses: {dead}"


def test_every_private_helper_is_read_in_the_package():
    dead = sorted(_dead_private())
    assert not dead, f"private names no live code in src/ reads: {dead}"


def test_keep_names_only_what_would_fail():
    defined = {qual for qual, _, _ in _surface()}
    assert KEEP.keys() <= defined, sorted(KEEP.keys() - defined)
    stale = sorted(KEEP.keys() - _unused())
    assert not stale, f"KEEP entries the package now uses itself: {stale}"


def test_keep_cites_callers_that_use_the_name():
    for qual, reason in KEEP.items():
        name = qual.rsplit(".", 1)[-1]
        paths = re.findall(r"[\w/.-]+\.py", reason)
        assert paths, f"KEEP[{qual!r}] cites no caller"
        for path in paths:
            caller = ROOT / path
            assert caller.is_file(), f"KEEP[{qual!r}] cites a missing file {path}"
            assert re.search(rf"\b{name}\b", caller.read_text()), \
                f"KEEP[{qual!r}] cites {path}, which does not use {name}"
