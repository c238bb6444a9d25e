"""Smoke test: every demo script runs to completion.

The demos read `sample_project/` and `tests/data/` relative to their own
location and demo 04 writes its results into the sample project, so they
run from a copy of those directories, which keeps the checkout clean.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (REPO / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(REPO / "demos", root / "demos")
    shutil.copytree(
        REPO / "sample_project",
        root / "sample_project",
        ignore=shutil.ignore_patterns("results"),
    )
    shutil.copytree(REPO / "tests" / "data", root / "tests" / "data")
    return root


def test_all_four_demos_are_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_in_a_copy(demo_copy, demo):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(demo_copy / "demos" / demo)],
        cwd=demo_copy,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
