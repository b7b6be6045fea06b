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
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "geometry": {"dim": 2, "n": 8, "ny": 4, "profile": {"kind": "flat", "thickness": 1.0}},
    "material": {"kind": "linear", "lam": 2.0, "mu": 1.0},
    "anisotropy": {"kind": "isotropic"},
    "mismatch": {"e0": 0.05},
}
CLUSTERED_3D_MODES = [
    {"mode": [0, 0], "amplitude": 1.0},
    {"mode": [1, 0], "amplitude": 0.03},
    {"mode": [0, 1], "amplitude": 0.02, "phase": 0.5},
]


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
    "command, overrides, expected, limits, counter",
    [
        (
            "stability",
            {"analysis": {"max_mode": 2}},
            {"elasticity.coercivity_constant", "stability.pencil"},
            # the flat film's stiffness is factored in lateral-Fourier blocks,
            # one per wavenumber of the half spectrum (5 at n = 8), and c0 is
            # read off the blocks: nothing is assembled and no Lanczos runs
            {
                "elasticity.assemble_hessian": (0, 0),
                "elasticity.cholesky": (5, 5),
                "elasticity.h1_gram": (0, 0),
            },
            "linalg.cholesky_gflop",
        ),
        (
            # the nonlinear flat film's cold solve starts at its affine
            # equilibrium and takes no Newton step; the problem factors the
            # solution's 5 blocks, and nothing is assembled
            "stability",
            {"material": dict(TINY["material"], kind="nonlinear"), "analysis": {"max_mode": 2}},
            {"elasticity.coercivity_constant", "stability.pencil"},
            {"elasticity.assemble_hessian": (0, 0), "elasticity.cholesky": (5, 5)},
            "linalg.cholesky_gflop",
        ),
        (
            # the cube cell's bisection and sweep share one d = 1 problem,
            # factored in 5 blocks
            "flat-threshold",
            {"analysis": {"bracket": [100.0, 1600.0], "rel_tol": 0.1, "thicknesses": [200.0, 400.0]}},
            {"elasticity.coercivity_constant", "stability.pencil", "flat.flat_field"},
            {
                "stability.StabilityProblem": (1, 1),
                "elasticity.assemble_hessian": (0, 0),
                "elasticity.cholesky": (5, 5),
                "flat.lambda1_of_thickness": (0, 0),
                "flat.stability_of_thickness": (0, 0),
            },
            "linalg.cholesky_gflop",
        ),
        (
            # the unit cell solves one problem per thickness: 9 bisection
            # lambda1 evaluations and 2 sweep reports, one StabilityProblem and
            # 5 blocks each
            "flat-threshold",
            {
                "mismatch": {"e0": 1.2},
                "analysis": {
                    "bracket": [0.1, 1.0],
                    "rel_tol": 0.1,
                    "cell": "unit",
                    "thicknesses": [0.2, 1.0],
                },
            },
            {"flat.lambda1_of_thickness", "flat.stability_of_thickness", "flat.flat_field"},
            {
                "flat.lambda1_of_thickness": (9, 9),
                "flat.stability_of_thickness": (2, 2),
                "stability.StabilityProblem": (11, 11),
                "elasticity.assemble_hessian": (0, 0),
                "elasticity.cholesky": (55, 55),
            },
            "linalg.cholesky_gflop",
        ),
        (
            # one mode with Richardson is four re-solves, each preconditioned
            # by the base film's block factor (9 blocks at n = 16): no
            # stiffness is assembled
            "oracle-check",
            {
                "geometry": dict(TINY["geometry"], n=16, ny=8),
                "analysis": {"modes": [1], "rel_tol": 1e-3},
            },
            {"stability.fd_oracle_second_variation"},
            {
                "elasticity.continue_critical_point": (4, 4),
                "elasticity.cholesky": (9, 9),
                "elasticity.assemble_hessian": (0, 0),
            },
            "elasticity.newton_iters",
        ),
        (
            # a curved 3D film whose bottom c0 spectrum clusters: one assembly
            # and factor for the stiffness, one for the shifted c0 pass, and
            # the three Lanczos passes take 143 matvecs (161 in one unshifted
            # solve, 411 on the larger stability-3d film)
            "stability",
            {
                "geometry": {
                    "dim": 3,
                    "n": 8,
                    "ny": 8,
                    "profile": {"kind": "fourier", "modes": CLUSTERED_3D_MODES},
                },
                "analysis": {"max_mode": 2},
            },
            {"elasticity.coercivity_constant", "stability.pencil"},
            {
                "elasticity.assemble_hessian": (2, 2),
                "elasticity.cholesky": (2, 2),
                "elasticity.c0_matvecs": (1, 160),
            },
            "elasticity.c0_matvecs",
        ),
    ],
    ids=[
        "stability",
        "stability-nonlinear",
        "flat-threshold",
        "flat-threshold-unit",
        "oracle-check",
        "stability-clustered-3d",
    ],
)
def test_tracer_counts_the_numerical_layers(tmp_path, command, overrides, expected, limits, counter):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, **overrides)))
    run = trace(tmp_path, [command, "--config", str(config), "--threads", "1"])
    calls = Counter(span[0] for span in run["spans"])
    assert expected <= set(calls)
    counts = dict(calls, **run["counters"])
    for name, (low, high) in limits.items():
        assert low <= counts.get(name, 0) <= high, (name, counts.get(name, 0))
    assert run["counters"][counter] > 0
