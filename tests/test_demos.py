"""Smoke test: the demos, and README's library quickstart, run to completion
against the current API.

02_critical_values.py is left out: it estimates critical values at
reference resolution, which takes about 13 s on a 2-core machine against
about 2 s for the other three demos together. The estimate it runs is
covered by test_wiener.py and the critvals golden.
"""

import os
import re
import subprocess
import sys

import pytest

import pagecusum

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(pagecusum.__file__)))


@pytest.mark.parametrize("demo", ["01_monitoring_walkthrough.py",
                                  "03_delay_asymptotics.py",
                                  "04_replication_study.py"])
def test_demo_runs(demo, tmp_path):
    # cwd is tmp_path so files a demo writes land there
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    # the quickstart and the Monitor example after it, as one script, so a
    # name removed from the package cannot linger in the docs
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            flags=re.M | re.S)
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks[:2])],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "change detected at k=" in proc.stdout
