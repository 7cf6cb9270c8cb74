"""Package layout: `src/sunlab` keeps only code that the package runs.

A top-level function, class or assignment of the package must be named
somewhere in the package beyond its own definition and its re-export from
`sunlab/__init__.py`, or be on the README's "Library API" list.  A method
of a package class must be read as an attribute somewhere in the package
beyond its own body.  A test-only helper or oracle lives in the test
module that uses it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sunlab"

# names that perfbench/tracer.py binds by name: they stay until the tracer
# reads its counters some other way
EXEMPT = {"satisfies_class_at", "canonical_sets"}


def library_api(readme: Path) -> set[str]:
    """The names listed (one `* `name`` bullet each) under the README's
    "Library API" heading."""
    section = readme.read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\* `(\w+)`", section, re.MULTILINE))


def _top_level_names(tree: ast.Module):
    """(name, defining node) for each top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _names_read(node: ast.AST) -> set[str]:
    """The names a statement reads, bare or as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _exported(package: Path) -> set[str]:
    """The names `sunlab/__init__.py` defines or imports."""
    init = ast.parse((package / "__init__.py").read_text())
    return {name for name, _ in _top_level_names(init)} | {
        alias.asname or alias.name for node in init.body
        if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused_names(package: Path, api: set[str]) -> list[str]:
    """Top-level names of the package's modules that nothing else names,
    leaving out the names in `api`."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    # names read by each top-level statement, so that a definition's own
    # body (a recursive call, say) does not count as a use; a re-export in
    # __init__.py is an import, which reads no name
    reads = [(node, _names_read(node)) for tree in trees.values() for node in tree.body]
    out = []
    for module, tree in trees.items():
        for name, defn in _top_level_names(tree):
            if name in api or name in EXEMPT:
                continue
            if not any(name in names for node, names in reads if node is not defn):
                out.append(f"{module}:{name}")
    return out


def _attributes(node: ast.AST) -> Counter:
    """How often each name is read as an attribute under `node`."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unused_members(package: Path) -> list[str]:
    """Methods of the package's classes, dunders aside, that nothing in the
    package reads as an attribute outside the method's own body."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    reads = sum(map(_attributes, trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for defn in cls.body:
                if (isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (defn.name.startswith("__") and defn.name.endswith("__"))
                        and defn.name not in EXEMPT
                        and reads[defn.name] == _attributes(defn)[defn.name]):
                    out.append(f"{module}:{cls.name}.{defn.name}")
    return out


def test_every_top_level_name_is_used_or_exported():
    assert unused_names(PACKAGE, library_api(ROOT / "README.md")) == []


def test_the_library_api_is_exported():
    api = library_api(ROOT / "README.md")
    assert api and api <= _exported(PACKAGE)


def test_every_class_member_is_read_by_the_package():
    assert unused_members(PACKAGE) == []
