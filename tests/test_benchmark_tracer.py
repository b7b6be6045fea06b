"""The benchmark tracer must find every name it wraps in the package.

``benchmark/tracing.py`` wraps public functions, cached properties and
methods by name before it runs the CLI, so a rename or deletion in the
package breaks the benchmark.  Running the tracer on a cheap subcommand
catches that here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_wraps_every_name_and_runs_the_cli(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmark" / "tracing.py"),
            str(spans),
            "--",
            "verify-identity",
            "--dim",
            "2",
            "--out",
            str(tmp_path),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert "cli.main" in names
