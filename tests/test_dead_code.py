"""Every module-level private function, class or constant is used, every
module's __all__ lists exactly what it defines for export and only names that
the package or its tests read, every module-level list or dict is a known
fixed table or a registered memo, lru_cache is applied only through
exactnum's registering decorator, no checker names its family or params
(registry.run_instance stamps them), only result.py turns a claim into
PASS or FAIL, apart from the listed hand-built results, and no checker
module imports the verify facade or another checker module but
sequences."""

import ast
import importlib
import pathlib

import congrkit
from congrkit import registry
from congrkit.result import CheckResult

PACKAGE = pathlib.Path(congrkit.__file__).parent
TESTS = pathlib.Path(__file__).parent


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


def _exports(tree: ast.Module, name: str = "__all__") -> "list[str] | None":
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in tree,
    and the checker functions the registry's _TABLE rows name by string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "_TABLE"
        ):
            # a row's fourth field is its checker, as "module.function"
            out.update(
                row.elts[3].value.rpartition(".")[2]
                for rows in node.value.values
                for row in rows.elts
            )
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
        if "__getattr__" in defined:
            # a module __getattr__ (PEP 562) serves names on their first read
            served = importlib.import_module(
                "congrkit" if module == "__init__.py" else "congrkit." + module[:-3]
            )
            defined.update(name for name in exports if hasattr(served, name))
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


def test_every_export_is_read_by_the_package_or_a_test():
    trees = _trees()
    tests = [ast.parse(path.read_text(), str(path)) for path in TESTS.glob("*.py")]
    used = set().union(*map(_references, [*trees.values(), *tests]))
    dead = [
        "%s:%s" % (module, name)
        for module, tree in trees.items()
        for name in _exports(tree) or ()
        if name not in used
    ]
    assert not dead, "exports nothing reads: %s" % ", ".join(dead)


# Module-level lists and dicts that are never changed after import (_MEMOS
# only takes the registrations made as modules load).  Every other one is a
# memo and must be built by exactnum._memo_table, which registers it.
TABLES = {
    "cli.py": {"_QVERIFY_ALIASES"},
    "exactnum.py": {"_MEMOS"},
    "kernels.py": {"PAPER_KERNELS"},
    "prefixes.py": {"_COR11_POWER"},
    "registry.py": {"FAMILIES", "_DECODE", "CONJ52_START", "_TABLE"},
    "sequences.py": {"SEQUENCES", "_WEIGHTS"},
    "verify.py": {"_HOMES"},
}

_CONTAINERS = (ast.List, ast.Dict, ast.ListComp, ast.DictComp)


def _module_containers(tree: ast.Module) -> set[str]:
    """Names bound at module level to a list or dict (display, comprehension
    or call of list, dict or a collections type), other than __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Call) and isinstance(value.func, (ast.Name, ast.Attribute)):
            func = value.func.id if isinstance(value.func, ast.Name) else value.func.attr
            is_container = func in ("list", "dict", "defaultdict", "OrderedDict")
        else:
            is_container = isinstance(value, _CONTAINERS)
        if is_container:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names - {"__all__"}


def test_module_level_memos_are_registered():
    found = {module: _module_containers(tree) for module, tree in _trees().items()}
    bare = sorted(
        "%s:%s" % (module, name)
        for module in found
        for name in found[module] - TABLES.get(module, set())
    )
    gone = sorted(
        "%s:%s" % (module, name)
        for module in TABLES
        for name in TABLES[module] - found.get(module, set())
    )
    assert not bare, "bare module-level lists or dicts: %s" % ", ".join(bare)
    assert not gone, "listed but no longer defined: %s" % ", ".join(gone)


def test_lru_cache_is_applied_only_by_the_registering_decorator():
    trees = _trees()
    exactnum = trees["exactnum.py"]
    exactnum.body = [n for n in exactnum.body if getattr(n, "name", None) != "_memo_cache"]
    users = sorted(m for m, tree in trees.items() if "lru_cache" in _references(tree))
    assert not users, "lru_cache outside exactnum._memo_cache: %s" % ", ".join(users)


def _builds_check_result(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"
    )


def test_no_check_result_in_the_package_names_its_family_or_params():
    fields = list(CheckResult.__slots__)
    first_stamped = min(fields.index("family"), fields.index("params"))
    found = sorted(
        "%s:%d" % (module, node.lineno)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if _builds_check_result(node)
        and (
            len(node.args) > first_stamped
            or any(kw.arg in ("family", "params") for kw in node.keywords)
        )
    )
    assert not found, "CheckResult passes family or params: %s" % ", ".join(found)


# Functions outside result.py that build a CheckResult themselves: a loop
# that renders only its failing member, an ILL_POSED or INCONCLUSIVE row, or
# a PASS row whose fields no claim produces.  Every other result comes from
# result.verdict or result.equal.
HAND_BUILT = {
    "displays.py": {"check_thm15_i_grid", "check_thm15_ii", "check_xval15"},
    "framework.py": {"check_thm43"},
    "prefixes.py": {"check_thm14_i"},
    "qalgebra.py": {"check_conj58_q"},
    "residues.py": {"check_thm11", "check_thm12"},
    "scans.py": {"check_remark52", "check_conj58i", "conj53_witness"},
}


def _builders(tree: ast.Module) -> set[str]:
    """Top-level definitions that call CheckResult."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if _builds_check_result(node)
    }


def test_check_results_are_built_in_result_py_or_at_the_listed_sites():
    trees = _trees()
    del trees["result.py"]
    found = {module: _builders(tree) for module, tree in trees.items()}
    extra = sorted(
        "%s:%s" % (module, name)
        for module, names in found.items()
        for name in names - HAND_BUILT.get(module, set())
    )
    gone = sorted(
        "%s:%s" % (module, name)
        for module, names in HAND_BUILT.items()
        for name in names - found.get(module, set())
    )
    assert not extra, "CheckResult built outside result.py: %s" % ", ".join(extra)
    assert not gone, "listed but no longer hand-built: %s" % ", ".join(gone)


def test_no_conditional_status_outside_result_py():
    found = sorted(
        "%s:%d" % (module, node.lineno)
        for module, tree in _trees().items()
        if module != "result.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.IfExp)
        and {getattr(node.body, "id", None), getattr(node.orelse, "id", None)}
        & {"PASS", "FAIL"}
    )
    assert not found, "PASS/FAIL chosen outside result.verdict: %s" % ", ".join(found)


def _imported_modules(tree: ast.Module, module: str) -> set[str]:
    """The congrkit modules that module's source imports, at any depth of
    its tree (function-level imports included), by their file names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0] + ".py")
            elif node.level == 1:  # from . import a, b
                out.update(alias.name + ".py" for alias in node.names)
            elif node.module and node.module.startswith("congrkit."):
                out.add(node.module.split(".")[1] + ".py")
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1] + ".py"
                for alias in node.names
                if alias.name.startswith("congrkit.")
            )
    return out - {module}


def test_no_checker_module_imports_the_facade_or_another_checker_module():
    # a checker module is one the registry names; sequences is the shared
    # row and prefix layer, so the others may read it
    checkers = {fam.check.module + ".py" for fam in registry.FAMILIES.values()}
    assert "verify.py" not in checkers
    trees = _trees()
    found = sorted(
        "%s imports %s" % (module, other)
        for module in checkers
        for other in _imported_modules(trees[module], module)
        if other == "verify.py" or other in checkers - {"sequences.py"}
    )
    assert not found, "; ".join(found)
