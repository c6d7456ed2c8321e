"""The package's public surface, checked with ``ast`` in place of a linter.

Every function and class that ``specmatch/__init__.py`` re-exports, and
every public method or property of those classes, has a caller outside the
tests, no module imports a name that it never uses, and the package has
no assert statement.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specmatch"
# exported ahead of their first caller: the quotient functions for exact
# certificate decisions
AWAITING_CALLERS = (
    "adjacency_quotient",
    "quotient_spectral_radius",
    "exact_char_poly",
    "poly_divmod",
)
# public members kept for readers of the README, whose library sketch reads
# a transversal's vertex classes through ``.W``
DOCUMENTED_MEMBERS = ("Transversal.W", "Transversal.R", "Transversal.C")


def _sources(*dirs: str) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(), str(p)) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def _exported() -> tuple[set[str], list[ast.ClassDef]]:
    """The names of the functions and the definitions of the classes that
    ``__init__.py`` re-exports."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported_functions, exported_classes = set(), []
    for node in init.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ast.parse((PACKAGE / f"{node.module}.py").read_text())
        functions = {n.name for n in module.body if isinstance(n, ast.FunctionDef)}
        # an alias such as ``audit_duality = audit_structures`` is a function too
        functions |= {
            t.id
            for n in module.body
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Name) and n.value.id in functions
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        names = {alias.name for alias in node.names}
        exported_functions |= functions & names
        exported_classes += [n for n in module.body if isinstance(n, ast.ClassDef) and n.name in names]
    return exported_functions, exported_classes


def _references(tree: ast.AST) -> set[str]:
    """Names that tree refers to: identifiers, attributes, and strings that
    are a bare name (``getattr`` names), but not a dotted ``module.function``
    span name, which calls nothing; not a function's or a class's name
    inside its own definition, nor the names in ``__all__``."""
    found: set[str] = set()

    def visit(node: ast.AST, own: frozenset[str]) -> None:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own |= {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            name = node.value
        if name is not None and name not in own:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def _referenced_outside_the_tests() -> set[str]:
    referenced: set[str] = set()
    for path, tree in _sources("src", "scripts", "bench").items():
        if path != PACKAGE / "__init__.py":
            referenced |= _references(tree)
    return referenced


def test_every_exported_function_has_a_caller_outside_the_tests():
    exported = _exported()[0]
    uncalled = sorted(exported - _referenced_outside_the_tests() - set(AWAITING_CALLERS))
    assert uncalled == [], f"exported but called only by the tests: {uncalled}"
    assert set(AWAITING_CALLERS) <= exported
    # a name that has found its caller leaves the list
    called = sorted(set(AWAITING_CALLERS) & _referenced_outside_the_tests())
    assert called == [], f"awaiting a caller, yet called outside the tests: {called}"


def test_every_exported_class_and_public_member_has_a_caller_outside_the_tests():
    classes = _exported()[1]
    referenced = _referenced_outside_the_tests()
    members = {
        f"{cls.name}.{node.name}": node.name
        for cls in classes
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    uncalled = [cls.name for cls in classes if cls.name not in referenced]
    uncalled += sorted(m for m, name in members.items() if name not in referenced and m not in DOCUMENTED_MEMBERS)
    assert uncalled == [], f"exported but called only by the tests: {uncalled}"
    assert set(DOCUMENTED_MEMBERS) <= set(members)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(((a.asname or a.name.split(".")[0]), node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(((a.asname or a.name), node.lineno) for a in node.names)
    return out


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path, tree in _sources("src", "scripts", "tests").items():
        if path.name == "__init__.py":  # a package's imports are its exports
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def test_no_assert_in_the_package():
    # python -O strips assert statements, so the package checks its inputs
    # and results with typed errors and states an invariant in a comment
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _sources("src/specmatch").items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
