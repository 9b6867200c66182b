"""The repository's pytest settings: a failing property test is reported as
a failure, and the tests after it still run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_session(tmp_path):
    # Hypothesis's failure report imports libcst, whose mypy_extensions
    # TypedDict warns on import; under filterwarnings = error that warning
    # ended the session with INTERNALERROR and exit status 3.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_probe.py::test_fails" in run.stdout
    assert "1 passed" in run.stdout
