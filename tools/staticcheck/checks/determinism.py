"""Repo-wide determinism: no process-global RNG, no builtin ``hash()``.

The legacy benchmark-only unseeded-RNG rule, extended to every
subsystem whose outputs must be bitwise-reproducible across runs and
machines: ``benchmarks/`` (the regression-guarded scenarios),
``src/repro/replay/`` (byte-identical schedules per seed is the
subsystem's core contract), ``src/repro/datagen/`` (deterministic
database generation is what makes sessions reproducible),
``src/repro/experiments/`` (the paper's tables and figures),
``src/repro/service/`` (the batch kernels are bitwise-locked to the
scalar path and the routing ring keys on the interned CRC-32 plan
signature — a stray ``hash()`` or global RNG would silently break
both contracts), and the prepare path below it: ``src/repro/costfuncs/``,
``src/repro/sampling/``, ``src/repro/core/`` and
``src/repro/optimizer/`` (served predictions are bitwise-reproducible,
and the fit-solution memo and the sampling engine key on exact bytes
and signatures — a memo keyed on builtin ``hash()`` of its arrays would
hand one plan another's coefficients on a collision).

Flagged:

* calls into the module-level ``random`` / ``numpy.random`` state
  (``random.random()``, ``np.random.rand()``, ``random.seed()`` — the
  process-global generator is shared, order-dependent state);
* RNG constructors without an explicit seed (``random.Random()``,
  ``np.random.default_rng()``);
* builtin ``hash()`` — randomized per process for strings.

Use ``random.Random(seed)`` / ``np.random.default_rng(seed)`` /
``zlib.crc32`` instead.

Over all of ``src/repro/``, the rule also keeps served numbers a
function of the program rather than of the BLAS kernel numpy picks at
run time (OpenBLAS chooses one per CPU, and each rounds differently):

* BLAS and LAPACK entry points — the ``@`` operator, ``np.dot`` and
  ``.dot``, ``np.matmul``, ``np.inner``, ``np.vdot``, ``np.tensordot``
  and anything under ``np.linalg`` — appear only in
  ``src/repro/costfuncs/nnls.py``, whose least-squares solves still
  call LAPACK; elsewhere, sum elementwise products in a stated order
  (``repro.core.variance.sum_in_order``);
* no module imports scipy: the serving stack carries none (its one
  former use, ``erfinv``, is ``repro.mathstats.normal.erfinv``).
"""

from __future__ import annotations

import ast

from ..core import (
    Check,
    FileContext,
    Finding,
    import_aliases,
    register,
    resolve_dotted,
)

__all__ = ["DeterminismCheck", "numerics_findings", "rng_findings"]

#: RNG constructors that are fine *when given an explicit seed*.
SEEDED_RNG_CONSTRUCTORS = {
    "random.Random",
    "random.SystemRandom",  # never reproducible, but also never silent drift
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
}

_RNG_MODULES = ("random", "numpy.random")

#: ``src/repro/<dir>`` trees held to the same bar as ``benchmarks/``.
DETERMINISTIC_SUBSYSTEMS = (
    "replay",
    "datagen",
    "experiments",
    "service",
    "costfuncs",
    "sampling",
    "core",
    "optimizer",
)


#: The one module allowed BLAS/LAPACK calls, as trailing path parts.
BLAS_MODULE = ("repro", "costfuncs", "nnls.py")

#: numpy functions that call BLAS (``numpy.linalg.*`` is matched apart).
BLAS_FUNCTIONS = {
    "numpy.dot",
    "numpy.matmul",
    "numpy.inner",
    "numpy.vdot",
    "numpy.tensordot",
}


def _noun(ctx: FileContext) -> str:
    """Where the determinism requirement comes from, for messages."""
    if "benchmarks" in ctx.path.parts:
        return "a benchmark"
    return "replay/datagen/experiments/service or prepare-path code"


def rng_findings(ctx: FileContext) -> list[Finding]:
    """Flag process-global / unseeded randomness and builtin ``hash()``."""
    tree = ctx.tree
    noun = _noun(ctx)
    aliases = import_aliases(tree)
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            findings.append(
                ctx.finding(
                    node.lineno,
                    "determinism",
                    f"hash() in {noun} is randomized per process for "
                    "strings; use zlib.crc32 or a seeded RNG",
                )
            )
            continue
        dotted = resolve_dotted(node.func, aliases)
        if dotted is None or not any(
            dotted.startswith(module + ".") for module in _RNG_MODULES
        ):
            continue
        if dotted in SEEDED_RNG_CONSTRUCTORS:
            if node.args or node.keywords:
                continue
            findings.append(
                ctx.finding(
                    node.lineno,
                    "determinism",
                    f"{dotted}() without an explicit seed in {noun}; "
                    "pass one so runs are reproducible",
                )
            )
        else:
            findings.append(
                ctx.finding(
                    node.lineno,
                    "determinism",
                    f"{dotted}() uses process-global random state in "
                    f"{noun}; use random.Random(seed) / "
                    "np.random.default_rng(seed)",
                )
            )
    return findings


def numerics_findings(ctx: FileContext) -> list[Finding]:
    """Flag BLAS/LAPACK calls outside NNLS, and any scipy import."""
    aliases = import_aliases(ctx.tree)
    blas_allowed = ctx.path.parts[-len(BLAS_MODULE):] == BLAS_MODULE
    findings: list[Finding] = []

    def blas(node: ast.AST, what: str) -> None:
        findings.append(
            ctx.finding(
                node.lineno,
                "determinism",
                f"{what} calls BLAS/LAPACK, whose rounding depends on the "
                "kernel picked at run time; outside costfuncs/nnls.py, sum "
                "elementwise products in a stated order (sum_in_order)",
            )
        )

    for node in ast.walk(ctx.tree):
        modules: list[str] = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            findings.append(
                ctx.finding(
                    node.lineno,
                    "determinism",
                    "src/repro imports no scipy: serving carries none "
                    "(erfinv is repro.mathstats.normal.erfinv)",
                )
            )
        if blas_allowed:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            blas(node, "the @ operator")
        elif isinstance(node, ast.Call):
            dotted = resolve_dotted(node.func, aliases)
            if dotted in BLAS_FUNCTIONS or (
                dotted is not None and dotted.startswith("numpy.linalg.")
            ):
                blas(node, f"{dotted}()")
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
                blas(node, ".dot()")
    return findings


@register
class DeterminismCheck(Check):
    name = "determinism"

    def applies(self, ctx: FileContext) -> bool:
        parts = ctx.path.parts
        return "benchmarks" in parts or "repro" in parts

    def run(self, ctx: FileContext) -> list[Finding]:
        parts = ctx.path.parts
        findings = []
        if "benchmarks" in parts or any(
            subsystem in parts for subsystem in DETERMINISTIC_SUBSYSTEMS
        ):
            findings.extend(rng_findings(ctx))
        if "repro" in parts and "benchmarks" not in parts:
            findings.extend(numerics_findings(ctx))
        return findings
