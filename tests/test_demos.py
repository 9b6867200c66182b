"""Every demo script runs to completion against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_readme_quick_start(capsys):
    # Each print of the Quick start block carries its value in a comment,
    # on its own line or the next, before any two-space aside; the census
    # line names its record count.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start (library)")[1].split("```python\n")[1].split("```")[0]
    lines = block.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[k + 1].partition("#")[2]
            expected.append(comment.strip().split("  ")[0])
    assert expected == ["(λ - 1)(λ - 1/3)^5(λ + 2/3)^4", "5.333333333333334", "7/3"]
    records = int(re.search(r"# all (\d+) cubic graphs", block).group(1))

    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == expected
    assert len(namespace["records"]) == records == 21
