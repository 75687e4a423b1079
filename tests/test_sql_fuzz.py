"""Word-level mutation fuzzing of SQL planning.

Every case is one of e2ebench's probe queries (TPC-H template
instantiations drawn from a fixed seed) with one to three words
deleted, duplicated, swapped or replaced by another word of the corpus
or by an adversarial token (wrong-type literals, malformed ``DATE``
literals, huge numbers, stray punctuation). Whatever the text, planning
returns a plan or raises a :class:`~repro.errors.ReproError` with a
specific code, which the HTTP layer answers as a 4xx; any other
exception would be a 500.
"""

import numpy as np
import pytest

from repro.errors import ReproError, error_code
from repro.workloads.tpch_templates import TPCH_TEMPLATES

SEED = 20140902
#: A tier-1 budget: the cases plan in about a second.
CASES = 2000
#: The probe's seed and size (e2ebench/workloads.py ``probe_queries``).
PROBE_SEED = 1409
PROBE_QUERIES = 128
#: Codes a refused statement may carry: the parse and plan layers'.
CODES = {"sql-lex", "sql-parse", "sql", "plan", "catalog", "schema", "optimizer"}
#: Adversarial words by class; a replacement mostly keeps a word's class,
#: so most mutated statements still parse and reach binding and planning.
ADVERSARIAL = {
    "literal": (
        "'abc'", "''", "'1995-03-06'", "DATE ''", "DATE '1995-13-01'",
        "DATE 'x-y-z'", "DATE '99999999999999999999-01-01'", "1e999", "-1",
        "0", "99999999999999999999999", "'%'", "'a%b%'", "NULL",
    ),
    "operator": ("=", "<", ">=", "<>", "LIKE", "IN", "BETWEEN"),
    "keyword": (
        "AND", "OR", "NOT", "GROUP", "BY", "ORDER", "LIMIT", "SELECT", "FROM",
        "WHERE", "DISTINCT", "AS", "DATE",
    ),
    "name": (
        "x.y", "lineitem", "l_shipmode", "o_totalprice", "l_shipdate",
        "COUNT(*)", "(", ")", ",", "*", ";", "'", '"',
    ),
}
#: Word-level edits; most cases get one, some two or three.
ACTIONS = ("delete", "duplicate", "swap", "replace", "replace-any")
ACTION_WEIGHTS = (0.1, 0.1, 0.1, 0.55, 0.15)


def word_class(word: str) -> str:
    if word[0] in "'-0123456789":
        return "literal"
    if word in ADVERSARIAL["operator"] or word in ("<=", ">"):
        return "operator"
    if word.isupper():
        return "keyword"
    return "name"


def probe_queries(count: int = PROBE_QUERIES) -> list[str]:
    rng = np.random.default_rng(PROBE_SEED)
    seen: set[str] = set()
    queries = []
    while len(queries) < count:
        template = TPCH_TEMPLATES[int(rng.integers(len(TPCH_TEMPLATES)))]
        sql = template.instantiate(rng)
        if sql not in seen:
            seen.add(sql)
            queries.append(sql)
    return queries


def mutations(cases: int, seed: int = SEED):
    """``cases`` seeded word-level mutations of the probe's SQL."""
    rng = np.random.default_rng(seed)
    probe = probe_queries()
    classes = {kind: list(words) for kind, words in ADVERSARIAL.items()}
    for word in sorted({word for sql in probe for word in sql.split()}):
        classes[word_class(word)].append(word)
    vocabulary = [word for words in classes.values() for word in words]
    for _ in range(cases):
        words = probe[int(rng.integers(len(probe)))].split()
        for _ in range(1 + int(rng.integers(3) == 0) + int(rng.integers(6) == 0)):
            at = int(rng.integers(len(words)))
            action = rng.choice(ACTIONS, p=ACTION_WEIGHTS)
            if action == "delete" and len(words) > 1:
                del words[at]
            elif action == "duplicate":
                words.insert(at, words[at])
            elif action == "swap":
                other = int(rng.integers(len(words)))
                words[at], words[other] = words[other], words[at]
            else:
                pool = vocabulary
                if action == "replace":
                    pool = classes[word_class(words[at])]
                words[at] = pool[int(rng.integers(len(pool)))]
        yield " ".join(words)


def _plan_or_refuse(optimizer, sql) -> str:
    try:
        optimizer.plan_sql(sql)
    except ReproError as error:
        code = error_code(error)
        assert code in CODES, (sql, code, error)
        return code
    return "planned"


def test_mutated_sql_plans_or_raises_a_coded_error(optimizer):
    outcomes = {}
    for sql in mutations(CASES):
        code = _plan_or_refuse(optimizer, sql)
        outcomes[code] = outcomes.get(code, 0) + 1
    # The mutations reach both sides: plans and refusals of each layer.
    assert outcomes.get("planned", 0) > CASES // 20
    assert {"sql-parse", "plan"} <= set(outcomes)


@pytest.mark.slow
def test_many_more_mutations(optimizer):
    for sql in mutations(40 * CASES, seed=SEED + 1):
        _plan_or_refuse(optimizer, sql)
