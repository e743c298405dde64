"""Every demo script runs to completion against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stockalloc

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# Lines a demo prints to show a property of the package, by demo file name.
EXPECTED_LINES = {
    "02_weighted_forest.py": [
        "sample mean equals the point forecast: True",
        "uniform*3 equals uniform: True",
    ],
}


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    package_dir = str(Path(stockalloc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_dir, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for expected in EXPECTED_LINES.get(demo.name, []):
        assert expected in lines
