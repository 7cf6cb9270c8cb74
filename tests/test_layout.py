"""Package layout: `src/sunlab` keeps only code that the package runs.

A top-level function, class or assignment of the package must be named
somewhere in the package beyond its own definition, or be exported from
`sunlab/__init__.py`.  A test-only helper lives in the test module that
uses it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sunlab"

# a test oracle that perfbench/tracer.py binds by name: it stays until the
# tracer reads its counters some other way
EXEMPT = {"satisfies_class_at"}


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


def unused_names(package: Path) -> list[str]:
    """Top-level names of the package's modules that nothing else names."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    init = trees["__init__.py"]
    exported = {name for name, _ in _top_level_names(init)}
    exported |= {alias.asname or alias.name for node in init.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    # names read by each top-level statement, so that a definition's own
    # body (a recursive call, say) does not count as a use
    reads = [(node, _names_read(node)) for tree in trees.values() for node in tree.body]
    out = []
    for module, tree in trees.items():
        for name, defn in _top_level_names(tree):
            if name in exported or name in EXEMPT:
                continue
            if not any(name in names for node, names in reads if node is not defn):
                out.append(f"{module}:{name}")
    return out


def test_every_top_level_name_is_used_or_exported():
    assert unused_names(PACKAGE) == []
