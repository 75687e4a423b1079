"""Hot-array hygiene for the SoA batch kernels.

``src/repro/service/kernels.py`` exists so batch prediction runs as
whole-array operations; its speedup over the scalar reference path is
regression-guarded by a hard benchmark floor (``soa_retained`` in
``benchmarks/bench_service_throughput.py``). The two easiest ways to
silently erode that floor are both scalarization creep inside the
kernel's loops:

* ``float(...)`` — each call boxes one array element back into a
  python float, usually to feed scalar math that should have stayed an
  array expression (array-wide conversion via ``.tolist()`` at the
  materialization boundary is the sanctioned pattern, and the scalar
  ``erfinv`` coefficients the interval math needs are computed in a
  comprehension outside the array pass);
* scalar accumulation (``acc += ...`` / ``acc = acc + ...`` on a bare
  name) — a python-level reduction where the array op belongs.

This check flags both patterns inside any ``for``/``while`` loop of the
registered hot-array modules. Assignments to *subscripts*
(``out[i] = ...``) stay legal: a loop writing array slots does not
accumulate into python scalars.
"""

from __future__ import annotations

import ast

from ..core import Check, FileContext, Finding, register

__all__ = ["HOT_ARRAY_MODULES", "VectorizationCheck"]

#: Repo-relative modules held to whole-array discipline.
HOT_ARRAY_MODULES = ("src/repro/service/kernels.py",)


def _loop_findings(ctx: FileContext, loop: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                findings.append(
                    ctx.finding(
                        node.lineno,
                        "vectorization",
                        "float() inside a hot kernel loop boxes array "
                        "elements one at a time; hoist it out of the loop "
                        "or convert whole arrays with .tolist()",
                    )
                )
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            findings.append(_accumulation(ctx, node, node.target.id))
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.BinOp)
            and any(
                isinstance(ref, ast.Name) and ref.id == node.targets[0].id
                for ref in ast.walk(node.value)
            )
        ):
            findings.append(_accumulation(ctx, node, node.targets[0].id))
    return findings


def _accumulation(ctx: FileContext, node: ast.AST, name: str) -> Finding:
    return ctx.finding(
        node.lineno,
        "vectorization",
        f"scalar accumulation into {name!r} inside a hot kernel loop; "
        "use a whole-array reduction "
        "(subscript writes like out[i] = ... stay legal)",
    )


@register
class VectorizationCheck(Check):
    """No scalarization creep inside the hot array kernels' loops."""

    name = "vectorization"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.rel in HOT_ARRAY_MODULES or any(
            ctx.rel.endswith(module) for module in HOT_ARRAY_MODULES
        )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            if id(node) in seen:
                continue
            # Mark nested loops as covered so each offending statement
            # is reported once, from its outermost enclosing loop.
            for inner in ast.walk(node):
                if isinstance(inner, (ast.For, ast.While)):
                    seen.add(id(inner))
            findings.extend(_loop_findings(ctx, node))
        return findings
