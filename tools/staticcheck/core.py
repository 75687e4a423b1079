"""Framework primitives: findings, file contexts, registry, suppressions.

A :class:`FileContext` owns one file's source and parsed AST — the
per-file AST cache: every check runs against the same tree instead of
re-reading and re-parsing per rule (what the first linter did).

A :class:`Finding` is one problem at one location. Its ``fingerprint``
deliberately excludes the line number, so a committed baseline survives
unrelated edits above the finding.

Suppressions are inline comments::

    self._closed = False  # staticcheck: disable=lock-discipline — why it is safe

    # staticcheck: disable=blocking-while-locked — justification
    time.sleep(delay)

A trailing comment suppresses matching findings on its own line; a
standalone comment line suppresses them on the next statement line.
``disable=all`` matches every rule. Suppressions that match nothing are
themselves reported (rule ``unused-suppression``) so stale opt-outs
cannot accumulate.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ALL_CHECKS",
    "Check",
    "FileContext",
    "Finding",
    "Suppression",
    "apply_suppressions",
    "import_aliases",
    "parse_suppressions",
    "register",
    "resolve_dotted",
    "self_root_attr",
]


@dataclass(frozen=True)
class Finding:
    """One problem at one location. ``line`` 0 means "the whole file"."""

    path: str
    line: int
    rule: str
    message: str

    @property
    def fingerprint(self) -> str:
        """A line-number-independent identity for baseline matching."""
        raw = f"{self.path}::{self.rule}::{self.message}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


class FileContext:
    """One file's lazily-read source and lazily-parsed AST.

    Checks share this object, so the file is read and parsed exactly
    once per run whatever the number of applicable rules. ``root``
    relativizes the reported path (portable baselines); a file outside
    ``root`` — or with no root given — reports the path as passed.
    """

    def __init__(self, path, root: Path | None = None, source: str | None = None):
        self.path = Path(path)
        self.root = Path(root) if root is not None else None
        rel = str(path)
        if root is not None:
            try:
                rel = self.path.resolve().relative_to(Path(root).resolve()).as_posix()
            except ValueError:
                rel = str(path)
        self.rel = rel
        self._source = source
        self._tree: ast.Module | None = None

    @property
    def source(self) -> str:
        if self._source is None:
            self._source = self.path.read_text()
        return self._source

    @property
    def tree(self) -> ast.Module:
        """The parsed module; raises :class:`SyntaxError` on bad source."""
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree

    def finding(self, line: int, rule: str, message: str) -> Finding:
        return Finding(path=self.rel, line=line, rule=rule, message=message)


class Check:
    """Base class for one registered rule.

    Subclasses set ``name`` (the stable rule id used by ``--select``,
    suppressions, and the baseline) and implement :meth:`run`.
    :meth:`applies` gates by path so irrelevant files are never walked.
    """

    name: str = ""

    def applies(self, ctx: FileContext) -> bool:
        return True

    def run(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError


#: rule name -> check instance; populated by :func:`register` at import
#: time of :mod:`staticcheck.checks`.
ALL_CHECKS: dict[str, Check] = {}


def register(cls: type[Check]) -> type[Check]:
    """Class decorator adding one check instance to :data:`ALL_CHECKS`."""
    check = cls()
    if not check.name:
        raise ValueError(f"{cls.__name__} must set a rule name")
    if check.name in ALL_CHECKS:
        raise ValueError(f"duplicate rule name {check.name!r}")
    ALL_CHECKS[check.name] = check
    return cls


# ---------------------------------------------------------------------------
# suppressions


_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


@dataclass(frozen=True)
class Suppression:
    """One inline opt-out: ``rules`` apply to findings on ``target``."""

    line: int  # the comment's own line
    target: int  # the line findings must sit on to be suppressed
    rules: frozenset[str]


def parse_suppressions(source: str) -> list[Suppression]:
    """Every ``# staticcheck: disable=...`` comment in ``source``.

    A comment-only line targets the next non-blank, non-comment line;
    a trailing comment targets its own line. Real COMMENT tokens only —
    matching text inside a docstring or string literal is ignored, so
    documentation can show the idiom without activating it.
    """
    comment_lines: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comment_lines[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    suppressions: list[Suppression] = []
    lines = source.splitlines()
    for index, text in enumerate(lines, start=1):
        comment = comment_lines.get(index)
        if comment is None:
            continue
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        rules = frozenset(
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        )
        target = index
        if text.lstrip().startswith("#"):
            for offset in range(index, len(lines)):
                candidate = lines[offset].strip()
                if candidate and not candidate.startswith("#"):
                    target = offset + 1
                    break
        suppressions.append(Suppression(line=index, target=target, rules=rules))
    return suppressions


def apply_suppressions(
    ctx: FileContext,
    findings: list[Finding],
    suppressions: list[Suppression],
    selected: set[str] | None = None,
) -> list[Finding]:
    """Drop suppressed findings; report suppressions that matched nothing.

    ``selected`` names the rules this run executed. Unused-suppression
    detection only happens on a full run (``selected is None``): under
    ``--select`` a suppression for an unselected rule would look unused
    without being so.
    """
    used: set[int] = set()
    kept: list[Finding] = []
    for finding in findings:
        matched = False
        for position, suppression in enumerate(suppressions):
            if suppression.target != finding.line:
                continue
            if finding.rule in suppression.rules or "all" in suppression.rules:
                used.add(position)
                matched = True
        if not matched:
            kept.append(finding)
    if selected is None:
        for position, suppression in enumerate(suppressions):
            if position in used:
                continue
            rules = ",".join(sorted(suppression.rules))
            kept.append(
                ctx.finding(
                    suppression.line,
                    "unused-suppression",
                    f"suppression for {rules} matched no finding on line "
                    f"{suppression.target}; remove it",
                )
            )
    return kept


# ---------------------------------------------------------------------------
# shared AST helpers


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted origin for every absolute import.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    sleep`` maps ``sleep -> time.sleep``; ``import urllib.request``
    binds the root: ``urllib -> urllib``. Relative imports are skipped —
    checks that care about intra-package names match bare class names
    instead.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """``np.random.default_rng`` -> ``numpy.random.default_rng``.

    Returns None when the chain's root is not an imported name — a
    local variable that merely shadows a module must not resolve.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return ".".join([aliases[node.id], *reversed(parts)])
    return None


def self_root_attr(node: ast.AST) -> str | None:
    """The attribute a ``self``-rooted expression ultimately lives on.

    ``self.stats.hits`` -> ``stats``; ``self._entries[key]`` ->
    ``_entries``; ``self._rng.random()`` -> ``_rng``; anything not
    rooted at a ``self`` name -> None.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            break
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return parts[-1]
    return None
