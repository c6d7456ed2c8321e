"""The package's public surface, checked with ``ast`` in place of a linter.

Every function that ``specmatch/__init__.py`` re-exports has a caller
outside the tests, and no module imports a name that it never uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specmatch"
# exported ahead of their first caller: the quotient functions for exact
# certificate decisions, and the shape polynomials for the symbolic regime rules
AWAITING_CALLERS = (
    "adjacency_quotient",
    "quotient_spectral_radius",
    "charpoly_int",
    "exact_char_poly",
    "poly_divmod",
    "char_poly_f_coeffs",
    "char_poly_g_coeffs",
)


def _sources(*dirs: str) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(), str(p)) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def _exported_functions() -> dict[str, str]:
    """name -> defining module of each function ``__init__.py`` re-exports."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    out = {}
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
        out.update((alias.name, node.module) for alias in node.names if alias.name in functions)
    return out


def _references(tree: ast.AST) -> set[str]:
    """Names that tree refers to: identifiers, attributes, and strings that
    name a function (``getattr`` names, or ``module.function`` span names);
    not a function's name inside its own def, nor the names in ``__all__``."""
    found: set[str] = set()

    def visit(node: ast.AST, own: frozenset[str]) -> None:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own |= {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.rsplit(".", 1)[-1]
        if name is not None and name not in own:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def test_every_exported_function_has_a_caller_outside_the_tests():
    exported = _exported_functions()
    referenced: set[str] = set()
    for path, tree in _sources("src", "scripts", "bench").items():
        if path != PACKAGE / "__init__.py":
            referenced |= _references(tree)
    uncalled = sorted(set(exported) - referenced - set(AWAITING_CALLERS))
    assert uncalled == [], f"exported but called only by the tests: {uncalled}"
    assert set(AWAITING_CALLERS) <= set(exported)


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
