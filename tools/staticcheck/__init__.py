"""Pluggable dependency-free static analysis for this repository.

``staticcheck`` grew out of the repo's first linter (dead imports,
stale exports, unseeded benchmark randomness), whose rules it keeps. It
is an AST-based framework:

* a **check registry** (:mod:`staticcheck.core`) — every rule is a
  small class with a stable name; ``--select`` narrows the run;
* a per-file **parsed-AST cache** — each file is read and parsed once
  (:class:`~staticcheck.core.FileContext`), then every applicable
  check walks the same tree;
* **process fan-out** (``--jobs N``) over the file list;
* **inline suppressions** (``# staticcheck: disable=<rule>``) with
  unused-suppression detection;
* a committed **JSON baseline** for grandfathered findings
  (:mod:`staticcheck.baseline`);
* ``text`` / ``json`` / ``github`` (``::error file=...``) output.

The checks target this codebase's actual failure modes — the
concurrency and determinism bugs PR 5's replay harness caught at
runtime (see ``docs/staticcheck.md`` for the rule catalogue):

* ``lock-discipline`` — attributes accessed under a class's lock must
  not be mutated without it; double-acquiring a non-reentrant lock;
* ``blocking-while-locked`` — no ``time.sleep`` / socket / HTTP /
  subprocess work while holding a lock;
* ``determinism`` — no process-global or unseeded RNG and no builtin
  ``hash()`` in benchmarks or the replay/datagen/experiments
  subsystems;
* ``error-taxonomy`` — wire-facing code raises only exceptions with
  registered error codes and serializes through the NaN-guarded
  ``repro.api.wire`` helpers;
* ``unused-import`` / ``undefined-export`` — dead imports and stale
  ``__all__`` entries.

Run it as ``python tools/staticcheck`` or ``repro staticcheck``.
"""

from .baseline import Baseline
from .core import (
    ALL_CHECKS,
    Check,
    FileContext,
    Finding,
    apply_suppressions,
    parse_suppressions,
    register,
)
from .runner import check_file, discover_files, main, run_checks

__all__ = [
    "ALL_CHECKS",
    "Baseline",
    "Check",
    "FileContext",
    "Finding",
    "apply_suppressions",
    "check_file",
    "discover_files",
    "main",
    "parse_suppressions",
    "register",
    "run_checks",
]
