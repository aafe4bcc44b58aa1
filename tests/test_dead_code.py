"""Every module-level private function, class or constant is used, and every
module's __all__ lists exactly what it defines for export."""

import ast
import pathlib

import congrkit

PACKAGE = pathlib.Path(congrkit.__file__).parent


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    names = _definitions(tree)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _imported_names(tree: ast.Module) -> set[str]:
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _exports(tree: ast.Module) -> "list[str] | None":
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


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


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_private_module_names_are_referenced_in_the_package():
    trees = _trees()
    used = set().union(*(_references(tree) for tree in trees.values()))
    unused = [
        "%s:%s" % (module, name)
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not unused, "unreferenced private names: %s" % ", ".join(unused)


def test_all_lists_every_public_definition_and_nothing_undefined():
    problems = []
    for module, tree in _trees().items():
        exports = _exports(tree)
        if exports is None:
            continue
        defined = set(_definitions(tree)) | _imported_names(tree)
        problems += [
            "%s: %s undefined" % (module, n) for n in exports if n not in defined
        ]
        problems += [
            "%s: %s not in __all__" % (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in exports
        ]
    assert not problems, "; ".join(problems)
