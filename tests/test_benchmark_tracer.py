"""The benchmark tracer must find every name it wraps in the package.

``benchmark/tracing.py`` wraps public functions, cached properties and
methods by name before it runs the CLI, so a rename or deletion in the
package breaks the benchmark.  Running the tracer on a cheap subcommand
catches that here; running it on tiny numerical subcommands also checks
the argument contracts of its counter hooks, which only fire there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "geometry": {"dim": 2, "n": 8, "ny": 4, "profile": {"kind": "flat", "thickness": 1.0}},
    "material": {"kind": "linear", "lam": 2.0, "mu": 1.0},
    "anisotropy": {"kind": "isotropic"},
    "mismatch": {"e0": 0.05},
}


def trace(tmp_path, cli_argv) -> dict:
    """Run the CLI under the tracer; returns the spans file's contents."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "tracing.py"), str(spans), "--"]
        + cli_argv
        + ["--out", str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_tracer_wraps_every_name_and_runs_the_cli(tmp_path):
    names = {span[0] for span in trace(tmp_path, ["verify-identity", "--dim", "2"])["spans"]}
    assert "cli.main" in names


@pytest.mark.parametrize(
    "command, analysis, expected",
    [
        ("stability", {"max_mode": 2}, {"elasticity.coercivity_constant", "stability.pencil"}),
        (
            "flat-threshold",
            {"bracket": [100.0, 1600.0], "rel_tol": 0.1, "thicknesses": [200.0]},
            {"elasticity.coercivity_constant", "stability.pencil", "flat.flat_field"},
        ),
    ],
    ids=["stability", "flat-threshold"],
)
def test_tracer_counts_the_numerical_layers(tmp_path, command, analysis, expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, analysis=analysis)))
    run = trace(tmp_path, [command, "--config", str(config), "--threads", "1"])
    names = {span[0] for span in run["spans"]}
    assert expected <= names
    assert run["counters"]["elasticity.c0_matvecs"] > 0
