"""Smoke tests: the scripts under scripts/ run as a user runs them.

Each script runs in a fresh interpreter with src/ on the path, so a renamed
or deleted API that a script imports fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_profile_catalog_runs():
    done = run_script("profile_catalog.py", "--samples", "1/2..1:2")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "== exampleE ==\nf_r = 1 on [1/2, 1]\n\n"
        "== trefoil ==\nf_r = r on [1/2, 1]\n\n"
        "== trefoil_left ==\nf_r = -1*r on [1/2, 1]\n\n"
        "== unknot ==\nf_r = 0 on [1/2, 1]\n\n"
    )


def test_gregion_report_runs():
    done = run_script("gregion_report.py", "--gmax", "1", "--dmax", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "== exampleE ==\ng\\d 0 1\n  0 . .\n  1 # #\n\n"
        "== k34_conjectural (conjectural) ==\ng\\d 0 1\n  0 . .\n  1 . .\n\n"
        "== trefoil ==\ng\\d 0 1\n  0 . #\n  1 # #\n\n"
        "== trefoil_left ==\ng\\d 0 1\n  0 # #\n  1 # #\n\n"
        "== unknot ==\ng\\d 0 1\n  0 # #\n  1 # #\n\n"
    )
