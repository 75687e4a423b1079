"""The GitHub Actions workflow stays valid and gates what it must.

CI definitions rot silently — a bad indent or a renamed Make target
only surfaces once a PR is already red. This parses the YAML and pins
the contract: staticcheck, tier-1 tests, the end-to-end
benchmark's self-test, the HTTP serving smoke, the quick bench smoke,
the regression guard, and the artifact uploads, on both push and
pull_request. The Makefile's `ci` target must mirror the same
e2ebench, HTTP smoke and staticcheck stages.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def steps(workflow):
    jobs = workflow["jobs"]
    assert len(jobs) == 1
    (job,) = jobs.values()
    return job["steps"]


def run_commands(workflow):
    return [step.get("run", "") for step in steps(workflow)]


def test_workflow_parses_and_has_one_job(workflow):
    assert workflow["name"] == "ci"
    assert len(workflow["jobs"]) == 1


def test_triggers_push_and_pull_request(workflow):
    # YAML 1.1 parses the bare key `on` as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert "push" in triggers


def test_gates_in_order(workflow):
    commands = run_commands(workflow)

    def index_of(fragment):
        matches = [i for i, cmd in enumerate(commands) if fragment in cmd]
        assert matches, f"no step runs {fragment!r}"
        return matches[0]

    staticcheck = index_of("tools/staticcheck")
    docs = index_of("check_docs.py")
    tests = index_of("pytest -x -q")
    e2ebench = index_of("unittest discover -s e2ebench")
    http_smoke = index_of("http_smoke.py")
    bench = index_of("repro bench --quick")
    guard = index_of("benchguard.py")
    assert (
        staticcheck < docs < tests < e2ebench < http_smoke < bench < guard
    )


def test_e2ebench_self_test_stage(workflow):
    """The benchmark's own self-test gates every push (and make ci).

    It builds from the checkout like the benchmark does, so a change
    that breaks a workload's run or its output checks fails here
    rather than only when the benchmark is next run.
    """
    (stage,) = [
        cmd for cmd in run_commands(workflow)
        if "discover -s e2ebench" in cmd
    ]
    assert "python3 -m unittest discover -s e2ebench" in stage
    makefile = (REPO_ROOT / "Makefile").read_text()
    ci_target = makefile.split("\nci:", 1)[1].split("\n\n", 1)[0]
    assert "-m unittest discover -s e2ebench" in ci_target
    assert ci_target.index("e2ebench") < ci_target.index("http_smoke.py")


def test_http_smoke_stage(workflow):
    """The serving front-end is exercised end-to-end on every push."""
    (smoke,) = [
        cmd for cmd in run_commands(workflow) if "http_smoke.py" in cmd
    ]
    assert "python tools/http_smoke.py" in smoke


def test_make_ci_mirrors_http_smoke():
    makefile = (REPO_ROOT / "Makefile").read_text()
    ci_target = makefile.split("\nci:", 1)[1]
    assert "tools/http_smoke.py" in ci_target


def test_check_docs_stage(workflow):
    """The doc link/example checker gates every push (and make ci)."""
    (check,) = [
        cmd for cmd in run_commands(workflow) if "check_docs.py" in cmd
    ]
    assert "python tools/check_docs.py" in check
    makefile = (REPO_ROOT / "Makefile").read_text()
    ci_target = makefile.split("\nci:", 1)[1].split("\n\n", 1)[0]
    assert "check-docs" in ci_target or "check_docs.py" in ci_target


def test_staticcheck_stage(workflow):
    """Concurrency/determinism analysis annotates the PR diff."""
    (check,) = [
        cmd for cmd in run_commands(workflow) if "tools/staticcheck" in cmd
    ]
    assert "--format github" in check
    assert "--json-output staticcheck-findings.json" in check


def test_make_ci_mirrors_staticcheck():
    makefile = (REPO_ROOT / "Makefile").read_text()
    assert "\nstaticcheck:" in makefile
    ci_line = [
        line for line in makefile.splitlines() if line.startswith("ci:")
    ]
    assert ci_line and "staticcheck" in ci_line[0]


def test_bench_artifacts_uploaded(workflow):
    uploads = [
        step for step in steps(workflow)
        if "upload-artifact" in step.get("uses", "")
    ]
    assert len(uploads) == 2
    by_name = {step["with"]["name"]: step for step in uploads}
    assert "BENCH_summary.json" in by_name["bench-results"]["with"]["path"]
    assert (
        "staticcheck-findings.json"
        in by_name["staticcheck-findings"]["with"]["path"]
    )
    # uploaded even when a gate fails — that's when you want them
    for step in uploads:
        assert step["if"] == "always()"


def test_pip_cache_enabled(workflow):
    setups = [
        step for step in steps(workflow)
        if "setup-python" in step.get("uses", "")
    ]
    assert len(setups) == 1
    assert setups[0]["with"]["cache"] == "pip"


def test_guard_runs_quick_tier_against_committed_baselines(workflow):
    (guard,) = [cmd for cmd in run_commands(workflow) if "benchguard" in cmd]
    assert "--tier quick" in guard
    assert (REPO_ROOT / "benchmarks" / "baselines" / "quick").is_dir()
