"""The suite's pytest settings report a failing property test and run on."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_plain():
    pass
'''


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    # A failing @given test makes hypothesis import libcst, whose import
    # warns; the suite's warning filters must not turn that into an abort.
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(os.path.join(ROOT, "tests", "conftest.py"), tmp_path / "tests")
    (tmp_path / "tests" / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
