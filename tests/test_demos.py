"""Every demo script runs to the end without an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bddcheck

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# the demos import the same ``bddcheck`` as these tests
PACKAGE_ROOT = str(Path(bddcheck.__file__).resolve().parent.parent)


def test_every_demo_is_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
