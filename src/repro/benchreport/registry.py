"""The benchmark scenario registry.

Every ``benchmarks/bench_*.py`` file registers one (or more) named
scenarios with the module-level :data:`REGISTRY` at import time::

    from repro.benchreport import Metric, register

    @register("fig3_outliers", quick=True, tags=("figure", "fidelity"))
    def scenario(ctx):
        summary = artifacts.fig3_outliers(ctx).summary
        return [Metric("rs_trimmed", summary["rs_trimmed"], floor=0.3)]

A scenario receives a :class:`~repro.benchreport.context.BenchContext`
(tier, seed, shared lazily-built labs) and returns its metrics; the
runner times the call, stamps the environment fingerprint, and emits
the structured ``BenchResult``.

Bench files are not an importable package, so the registry discovers
them by importing each ``bench_*.py`` from disk under a private module
prefix. Registration is idempotent by name (re-importing a file
replaces its scenarios), so several loads can share one process.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "BenchScenario",
    "BenchRegistry",
    "REGISTRY",
    "register",
    "load_scenarios",
    "default_bench_dir",
]

TIERS = ("quick", "full")

#: sys.modules prefix for bench files imported from disk.
_MODULE_PREFIX = "repro_bench_scenario_files"


@dataclass(frozen=True)
class BenchScenario:
    """A named, registered benchmark."""

    name: str
    func: Callable
    #: Whether the scenario is part of the fast CI tier.
    quick: bool = True
    tags: tuple[str, ...] = ()
    description: str = ""

    def runs_in(self, tier: str) -> bool:
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
        return self.quick if tier == "quick" else True


@dataclass
class BenchRegistry:
    """An ordered collection of :class:`BenchScenario`."""

    _scenarios: dict[str, BenchScenario] = field(default_factory=dict)

    def add(self, scenario: BenchScenario) -> None:
        # Idempotent by name: a re-imported bench file replaces its own
        # earlier registration instead of erroring.
        self._scenarios[scenario.name] = scenario

    def register(self, name: str, *, quick: bool = True,
                 tags: tuple[str, ...] = ()) -> Callable:
        """Decorator form: ``@registry.register("lec", quick=True)``."""
        def decorate(func: Callable) -> Callable:
            doc_lines = (func.__doc__ or "").strip().splitlines()
            self.add(BenchScenario(
                name=name,
                func=func,
                quick=quick,
                tags=tuple(tags),
                description=doc_lines[0] if doc_lines else "",
            ))
            return func
        return decorate

    def __len__(self) -> int:
        return len(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def get(self, name: str) -> BenchScenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; known: {', '.join(self.names()) or '(none)'}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._scenarios)

    def scenarios(self) -> list[BenchScenario]:
        return [self._scenarios[name] for name in self.names()]

    def select(self, tier: str = "full", names: list[str] | None = None,
               pattern: str | None = None) -> list[BenchScenario]:
        """Scenarios for ``tier``, optionally restricted.

        ``names`` are exact scenario names (errors on unknowns, and
        overrides the tier gate — an explicitly requested scenario runs
        even in the quick tier). ``pattern`` is an ``fnmatch`` glob /
        substring filter on names and tags.
        """
        if names:
            return [self.get(name) for name in names]
        selected = [s for s in self.scenarios() if s.runs_in(tier)]
        if pattern:
            glob = pattern if any(c in pattern for c in "*?[") else f"*{pattern}*"
            selected = [
                s for s in selected
                if fnmatch.fnmatch(s.name, glob)
                or any(fnmatch.fnmatch(tag, glob) for tag in s.tags)
            ]
        return selected

    def clear(self) -> None:
        self._scenarios.clear()


#: The process-wide registry all bench files register into.
REGISTRY = BenchRegistry()

#: Where `register(...)` currently lands; `load_scenarios` rebinds it
#: temporarily when a caller (tests) supplies its own registry.
_active_registry = REGISTRY


def register(name: str, *, quick: bool = True,
             tags: tuple[str, ...] = ()) -> Callable:
    """Register a scenario with the active registry (normally REGISTRY)."""
    return _active_registry.register(name, quick=quick, tags=tags)


def default_bench_dir() -> Path:
    """Locate ``benchmarks/`` — cwd first, then relative to the package.

    The CLI normally runs from the repo root; the package-relative
    fallback covers invocations from elsewhere in the tree.
    """
    cwd_dir = Path.cwd() / "benchmarks"
    if cwd_dir.is_dir():
        return cwd_dir
    return Path(__file__).resolve().parents[3] / "benchmarks"


def load_scenarios(directory: Path | None = None,
                   registry: BenchRegistry | None = None) -> BenchRegistry:
    """Import every ``bench_*.py`` in ``directory`` so it registers.

    Returns the registry the files registered into (the module-level
    one unless tests inject their own via ``registry``).
    """
    global _active_registry
    directory = Path(directory) if directory is not None else default_bench_dir()
    if not directory.is_dir():
        raise FileNotFoundError(f"benchmark directory not found: {directory}")
    target = registry if registry is not None else REGISTRY

    previous = _active_registry
    _active_registry = target
    try:
        for path in sorted(directory.glob("bench_*.py")):
            module_name = f"{_MODULE_PREFIX}.{path.stem}"
            spec = importlib.util.spec_from_file_location(module_name, path)
            if spec is None or spec.loader is None:  # pragma: no cover
                raise ImportError(f"cannot load benchmark file {path}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[module_name] = module
            try:
                spec.loader.exec_module(module)
            finally:
                if registry is not None:
                    sys.modules.pop(module_name, None)
    finally:
        _active_registry = previous
    return target
