"""Each demo script runs to completion in a fresh working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import consensuslab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(consensuslab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # demo 02 writes its envelope CSVs to the working directory; dev mode
    # and -W error turn any warning a demo raises into a failure
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_demos_are_found():
    assert DEMOS
