"""Repo hygiene gates run as part of tier-1, not only in CI."""

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def tracked_files():
    completed = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        pytest.skip("not a git checkout")
    return completed.stdout.splitlines()


def test_no_service_spool_state_is_committed():
    """Runtime spool state (job queue, caches, sockets) must stay out of git.

    The service writes everything under its spool directory; a stray
    `git add .` from a tree where `repro serve` ran must not be able to
    commit queue markers, cached envelopes or port files.
    """
    spool_parts = {".repro-spool", "queued", "running"}
    offenders = [
        path
        for path in tracked_files()
        if path.endswith(".sock")
        or spool_parts.intersection(Path(path).parts)
        or Path(path).name in ("port", "stop")
    ]
    assert offenders == [], f"service spool state committed to git: {offenders}"


@pytest.mark.parametrize(
    "module", ("repro.service.loadgen", "repro.backends.numba_tape", "repro.backends.shm")
)
def test_retired_modules_stay_deleted(module):
    import importlib.util

    assert importlib.util.find_spec(module) is None


def test_retired_bench_harness_stays_deleted():
    """`perfbench/` is the one benchmark; the old harness, its legacy
    import gate and its `BENCH_*.json` reports must not come back."""
    offenders = [
        path
        for path in tracked_files()
        if path in ("scripts/bench.py", "scripts/check_legacy_imports.py")
        or (path.startswith("BENCH_") and path.endswith(".json"))
    ]
    assert offenders == []


def test_no_bytecode_caches_are_committed():
    """No `__pycache__`/.pyc anywhere tracked — including scripts/.

    `scripts/` is importable by the tier-1 suite (some tests insert it
    on sys.path), so running the tests compiles bytecode right next to
    tracked files; a careless `git add scripts` must not pick it up.
    """
    offenders = [
        path
        for path in tracked_files()
        if path.endswith(".pyc") or "__pycache__" in Path(path).parts
    ]
    assert offenders == [], f"bytecode committed to git: {offenders}"


def test_no_artifact_store_state_is_committed():
    """The corpus artifact store must stay out of git.

    `repro corpus run` persists content-addressed cell results under
    `.repro-store/` relative to the cwd; like the service spool, that
    runtime state is machine-local and must never be tracked.
    """
    offenders = [
        path
        for path in tracked_files()
        if ".repro-store" in Path(path).parts
    ]
    assert offenders == [], f"artifact store state committed to git: {offenders}"
