"""The migrated legacy lint rules: dead imports and stale ``__all__``.

The rules the repo's first linter ran, with its semantics
(``tests/test_staticcheck.py::TestImports`` pins them):

* ``unused-import`` — a module-level import nothing in the module uses.
  ``__init__.py`` imports are re-exports and are only flagged when the
  module declares an ``__all__`` missing the name; ``import x as x`` is
  the explicit re-export idiom and is never flagged; names referenced
  only inside quoted forward-reference annotations count as used.
* ``undefined-export`` — an ``__all__`` entry naming nothing defined in
  the module.
"""

from __future__ import annotations

import ast

from ..core import Check, FileContext, Finding, register

__all__ = [
    "UndefinedExportCheck",
    "UnusedImportCheck",
    "export_findings",
    "import_findings",
]


def _imported_names(tree: ast.AST):
    """Yield (local name, node, explicit_reexport) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                explicit = alias.asname is not None and alias.asname == alias.name
                yield local, node, explicit
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                explicit = alias.asname is not None and alias.asname == alias.name
                yield local, node, explicit


def _annotation_nodes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns


def _used_names(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
    # Quoted forward references ("ClassName", 'pkg.Cls | None') hide
    # their names in string constants; parse every string found in an
    # annotation position and count its names as used.
    for annotation in _annotation_nodes(tree):
        for node in ast.walk(annotation):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    used.add(name.id)
    return used


def _dunder_all(tree: ast.AST) -> list[tuple[str, int]] | None:
    """Every ``__all__`` entry with the assignment's line number.

    Returns None when the module declares no ``__all__`` or any part is
    not a literal (dynamic exports: don't guess).
    """
    names: list[tuple[str, int]] = []
    found = False
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                found = True
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return None
                names.extend((str(name), node.lineno) for name in value)
    return names if found else None


def _defined_names(tree: ast.Module) -> set[str]:
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                defined.add(node.target.id)
    defined.update(local for local, _, _ in _imported_names(tree))
    return defined


def import_findings(ctx: FileContext) -> list[Finding]:
    """Module-level imports nothing in the module uses."""
    tree = ctx.tree
    exported = _dunder_all(tree)
    exported_names = {name for name, _ in exported} if exported is not None else None
    used = _used_names(tree)
    is_package_init = ctx.path.name == "__init__.py"

    findings: list[Finding] = []
    for local, node, explicit_reexport in _imported_names(tree):
        if explicit_reexport:
            continue
        if local in used:
            continue
        if exported_names is not None and local in exported_names:
            continue
        if is_package_init and exported_names is None:
            continue  # bare re-export package with no declared surface
        findings.append(
            ctx.finding(node.lineno, "unused-import", f"unused import {local!r}")
        )
    return findings


def export_findings(ctx: FileContext) -> list[Finding]:
    """``__all__`` entries that name nothing defined in the module."""
    tree = ctx.tree
    exported = _dunder_all(tree)
    if exported is None:
        return []
    defined = _defined_names(tree)
    return [
        ctx.finding(
            lineno,
            "undefined-export",
            f"__all__ names {name!r} which is not defined",
        )
        for name, lineno in exported
        if name not in defined
    ]


@register
class UnusedImportCheck(Check):
    name = "unused-import"

    def run(self, ctx: FileContext) -> list[Finding]:
        return import_findings(ctx)


@register
class UndefinedExportCheck(Check):
    name = "undefined-export"

    def run(self, ctx: FileContext) -> list[Finding]:
        return export_findings(ctx)
