"""Every demo runs to completion as a script and leaves no temporary files."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script",
    [
        "01_candidate_pools_and_fusion.py",
        "02_labels_and_features.py",
        "03_train_and_ablate.py",
        "04_scoring_service.py",
    ],
)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not os.listdir(tmp_path), "the demo left files in the temp directory"
