"""The served-bytes digest tool: a stable before/after check.

``tools/served_digest.py`` hashes a fixed corpus served over a live
server. Its digests are only useful if two builds of one tree agree, so
the corpus is built twice in one process, each time from a fresh
database and calibration of the tool's own ``CONFIG``, and every
category must hash the same. Expected digests are not pinned: through
the least-squares solves of cost-function fitting, they depend on the
BLAS kernel numpy picks at run time.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "repro_tools_served_digest", REPO_ROOT / "tools" / "served_digest.py"
)
served_digest = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = served_digest
_spec.loader.exec_module(served_digest)

CATEGORIES = {
    "predict-v1", "predict-v2", "batch-v1", "batch-v2", "cold", "feedback",
    "failure", "observe", "stats-v1", "stats-v2", "errors",
}


@pytest.fixture(scope="module")
def make_session():
    return served_digest.session_factory()


@pytest.fixture(scope="module")
def records(make_session):
    return served_digest.serve_corpus(make_session)


def test_two_builds_print_equal_digests(records, capsys):
    assert set(records) == CATEGORIES
    assert served_digest.main() == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert printed == served_digest.digests(records)


def _status(answer: bytes) -> int:
    return int(answer.split(b" ", 1)[0])


def test_categories_hold_what_they_name(records):
    ok = {
        category for category, answers in records.items()
        if all(_status(answer) == 200 for answer in answers)
    }
    assert ok == CATEGORIES - {"errors"}
    assert all(400 <= _status(answer) < 500 for answer in records["errors"])
    assert all(b'"feedback": {' in answer for answer in records["feedback"])
    assert b'"code": "sql-parse"' in records["failure"][0]
    assert all(
        b'"elapsed_seconds": null' in answer
        for category in ("batch-v1", "batch-v2", "failure")
        for answer in records[category]
    )


def test_corpus_plans_cover_every_fitted_kind(make_session):
    session = make_session()
    queries = served_digest.corpus_queries() + served_digest.cold_queries()
    kinds = {
        node.kind.name
        for sql in queries
        for node in session.service.plan(sql).root.walk()
    }
    assert served_digest.CORPUS_KINDS <= kinds
    cold = served_digest.cold_queries()
    assert len(set(cold)) == len(cold)
