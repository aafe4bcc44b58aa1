"""Every module-level private function, class or constant is used."""

import ast
import pathlib

import congrkit

PACKAGE = pathlib.Path(congrkit.__file__).parent


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_private_module_names_are_referenced_in_the_package():
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    used = set().union(*(_references(tree) for tree in trees.values()))
    unused = [
        "%s:%s" % (module, name)
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not unused, "unreferenced private names: %s" % ", ".join(unused)
