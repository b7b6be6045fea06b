"""Golden config-error lines and help texts of the command line.

Each case runs one subcommand through ``cli.main`` on a small valid config
with one block replaced (or deleted, where the patch gives ``None``) and
pins the exit code 1 and the whole ``config error: ...`` line on stderr:
one invalid value per analysis rule, a missing required key, an unknown
analysis key, an unknown output key and an empty output name.  The help
texts are pinned at 80 columns.  A refactor of the command-line layer must
leave every line here unchanged.  README's reference table lists every
analysis key and default file name of ``config.COMMANDS``.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

from filmstab.cli import main

_FLAT = {
    "geometry": {"dim": 2, "n": 16, "ny": 8, "profile": {"kind": "flat", "thickness": 1.0}},
    "material": {"kind": "linear", "lam": 2.0, "mu": 1.0},
    "anisotropy": {"kind": "isotropic"},
    "mismatch": {"e0": 0.05},
}
BASES = {
    "critical-point": dict(_FLAT, analysis={}),
    "stability": dict(_FLAT, analysis={}),
    "flat-threshold": dict(_FLAT, analysis={"bracket": [100.0, 1600.0]}),
    "crystalline": dict(_FLAT, analysis={"a": 1.0, "b": 1.0}),
    "verify-identity": {"analysis": {"dim": 2}},
    "oracle-check": dict(_FLAT, analysis={}),
}
A = "analysis"

CASES = [
    ("critical-point", {A: {"tol": "x"}}, "analysis.tol: expected a number, got str"),
    ("critical-point", {A: {"tol": 0}}, "analysis.tol: must be positive, got 0.0"),
    ("critical-point", {A: {"max_iter": 0}}, "analysis.max_iter: must be at least 1, got 0"),
    ("critical-point", {A: {"max_iter": 2.5}}, "analysis.max_iter: expected an integer, got 2.5"),
    ("critical-point", {A: {"max_mode": 3}}, "analysis.max_mode: unknown key"),
    ("critical-point", {"material": None}, "config.material: missing required key"),
    ("critical-point", {"output": {"csv": "a.csv"}}, "output.csv: critical-point writes no such file; remove the key"),
    ("critical-point", {"output": {"field": ""}}, "output.field: expected a non-empty file name"),
    ("stability", {A: {"max_mode": "3"}}, "analysis.max_mode: expected a number, got str"),
    ("stability", {A: {"max_mode": 0}}, "analysis.max_mode: must be at least 1, got 0"),
    ("stability", {A: {"max_mode": 8}}, "analysis.max_mode: mode 8 is not resolved on n = 16 points; at most 7"),
    ("stability", {A: {"modes": [1]}}, "analysis.modes: unknown key"),
    ("stability", {"mismatch": None}, "config.mismatch: missing required key"),
    ("stability", {"output": {"field": "f.npz"}}, "output.field: stability writes no such file; remove the key"),
    ("stability", {"output": {"csv": ""}}, "output.csv: expected a non-empty file name"),
    ("flat-threshold", {A: {}}, "analysis.bracket: missing required key"),
    ("flat-threshold", {A: {"bracket": 100.0}}, "analysis.bracket: expected [low, high]"),
    ("flat-threshold", {A: {"bracket": [100.0, 200.0, 300.0]}}, "analysis.bracket: expected [low, high]"),
    ("flat-threshold", {A: {"bracket": [0, 200.0]}}, "analysis.bracket[0]: must be positive, got 0.0"),
    ("flat-threshold", {A: {"bracket": [100.0, "x"]}}, "analysis.bracket[1]: expected a number, got str"),
    ("flat-threshold", {A: {"bracket": [200.0, 100.0]}}, "analysis.bracket: low must be below high, got [200.0, 100.0]"),
    ("flat-threshold", {A: {"bracket": [100.0, 1600.0], "cell": "sphere"}}, "analysis.cell: must be 'unit' or 'cube', got 'sphere'"),
    ("flat-threshold", {A: {"bracket": [100.0, 1600.0], "rel_tol": -0.001}}, "analysis.rel_tol: must be positive, got -0.001"),
    ("flat-threshold", {A: {"bracket": [100.0, 1600.0], "thicknesses": []}}, "analysis.thicknesses: expected a non-empty list of positive numbers"),
    ("flat-threshold", {A: {"bracket": [100.0, 1600.0], "thicknesses": [200.0, 0]}}, "analysis.thicknesses[1]: must be positive, got 0.0"),
    ("flat-threshold", {A: {"bracket": [100.0, 1600.0], "tol": 0.001}}, "analysis.tol: unknown key"),
    ("flat-threshold", {"output": {"field": "f.npz"}}, "output.field: flat-threshold writes no such file; remove the key"),
    ("flat-threshold", {"output": {"report": ""}}, "output.report: expected a non-empty file name"),
    ("crystalline", {A: {"b": 1.0}}, "analysis.a: missing required key"),
    ("crystalline", {A: {"a": 1.0}}, "analysis.b: missing required key"),
    ("crystalline", {A: {"a": "x", "b": 1.0}}, "analysis.a: expected a number, got str"),
    ("crystalline", {A: {"a": 1.0, "b": 0}}, "analysis.b: must be positive, got 0.0"),
    ("crystalline", {A: {"a": 1.0, "b": 1.0, "d": -1.0}}, "analysis.d: must be positive, got -1.0"),
    ("crystalline", {A: {"a": 1.0, "b": 1.0, "max_steps": 0}}, "analysis.max_steps: must be at least 1, got 0"),
    ("crystalline", {A: {"a": 1.0, "b": 1.0, "max_steps": 1075}}, "analysis.max_steps: at most 1074, got 1075: the sweep halves the regularization at each step, and 0.5**k is zero past k = 1074"),
    ("crystalline", {A: {"a": 1.0, "b": 1.0, "max_thickness": 0}}, "analysis.max_thickness: must be positive, got 0.0"),
    ("crystalline", {A: {"a": 1.0, "b": 1.0, "suppression_thicknesses": "x"}}, "analysis.suppression_thicknesses: expected a non-empty list of positive numbers"),
    ("crystalline", {A: {"a": 1.0, "b": 1.0, "d": 2.0, "max_thickness": 2.0}}, "analysis.max_thickness: must exceed the sweep thickness d = 2, got 2"),
    ("crystalline", {A: {"a": 1.0, "b": 1.0, "eps": 0.1}}, "analysis.eps: unknown key"),
    ("crystalline", {"output": {"field": "f.npz"}}, "output.field: crystalline writes no such file; remove the key"),
    ("crystalline", {"output": {"csv": 3}}, "output.csv: expected a non-empty file name"),
    ("verify-identity", {A: {"dim": 4}}, "analysis.dim: must be 2 or 3, got 4"),
    ("verify-identity", {A: {"dim": "3"}}, "analysis.dim: expected a number, got str"),
    ("verify-identity", {A: {"dim": 2, "trials": 0}}, "analysis.trials: must be at least 1, got 0"),
    ("verify-identity", {A: {"trials": 5}}, "analysis.dim: missing required key (or pass --dim)"),
    ("verify-identity", {A: {"dim": 2, "seed": 1}}, "analysis.seed: unknown key"),
    ("verify-identity", {"geometry": {"dim": 2, "n": 16, "ny": 8, "profile": {"kind": "flat", "thickness": 1.0}}}, "config.geometry: unknown key"),
    ("verify-identity", {"output": {"csv": "a.csv"}}, "output.csv: verify-identity writes no such file; remove the key"),
    ("verify-identity", {"output": {"report": ""}}, "output.report: expected a non-empty file name"),
    ("oracle-check", {A: {"modes": []}}, "analysis.modes: expected a non-empty list of integers"),
    ("oracle-check", {A: {"modes": 1}}, "analysis.modes: expected a non-empty list of integers"),
    ("oracle-check", {A: {"modes": [1, 0]}}, "analysis.modes[1]: must be at least 1, got 0"),
    ("oracle-check", {A: {"modes": [1.5]}}, "analysis.modes[0]: expected an integer, got 1.5"),
    ("oracle-check", {A: {"modes": [8]}}, "analysis.modes[0]: mode 8 is not resolved on n = 16 points; at most 7"),
    ("oracle-check", {A: {"rel_tol": 0}}, "analysis.rel_tol: must be positive, got 0.0"),
    ("oracle-check", {A: {"fd_step": -0.0001}}, "analysis.fd_step: must be positive, got -0.0001"),
    ("oracle-check", {A: {"richardson": "yes"}}, "analysis.richardson: expected true or false"),
    ("oracle-check", {A: {"richardson": 1}}, "analysis.richardson: expected true or false"),
    ("oracle-check", {A: {"max_mode": 3}}, "analysis.max_mode: unknown key"),
    ("oracle-check", {"geometry": None}, "config.geometry: missing required key"),
    ("oracle-check", {"output": {"csv": "a.csv"}}, "output.csv: oracle-check writes no such file; remove the key"),
    ("oracle-check", {"output": {"report": ""}}, "output.report: expected a non-empty file name"),
    # several defects at once, keys listed against check order: the first defect in check order is named
    ("critical-point", {A: {"max_iter": 0, "tol": 0}}, "analysis.tol: must be positive, got 0.0"),
    ("stability", {A: {"max_mode": 0}, "output": {"csv": ""}}, "analysis.max_mode: must be at least 1, got 0"),
    ("flat-threshold", {A: {"thicknesses": [], "rel_tol": 0, "cell": "x", "bracket": [1.0, 2.0]}}, "analysis.cell: must be 'unit' or 'cube', got 'x'"),
    ("flat-threshold", {A: {"thicknesses": [], "rel_tol": 0, "bracket": [1.0, 2.0]}}, "analysis.rel_tol: must be positive, got 0.0"),
    ("crystalline", {A: {}}, "analysis.a: missing required key"),
    ("crystalline", {A: {"suppression_thicknesses": [], "max_thickness": 0, "max_steps": 0, "d": 0, "b": 1.0, "a": 1.0}}, "analysis.d: must be positive, got 0.0"),
    ("crystalline", {A: {"suppression_thicknesses": [], "max_thickness": 0, "max_steps": 0, "b": 1.0, "a": 1.0}}, "analysis.max_steps: must be at least 1, got 0"),
    ("crystalline", {A: {"suppression_thicknesses": [], "max_thickness": 0, "b": 1.0, "a": 1.0}}, "analysis.max_thickness: must be positive, got 0.0"),
    ("verify-identity", {A: {"trials": 0, "dim": 4}}, "analysis.dim: must be 2 or 3, got 4"),
    ("oracle-check", {A: {"richardson": 1, "fd_step": 0, "rel_tol": 0, "modes": []}}, "analysis.modes: expected a non-empty list of integers"),
    ("oracle-check", {A: {"richardson": 1, "fd_step": 0, "rel_tol": 0}}, "analysis.rel_tol: must be positive, got 0.0"),
    ("oracle-check", {A: {"richardson": 1, "fd_step": 0}}, "analysis.fd_step: must be positive, got 0.0"),
]

HELP = {
    "--help": """\
usage: filmstab [-h]
                {critical-point,stability,flat-threshold,crystalline,verify-identity,oracle-check}
                ...

Local-minimality analysis of periodic strained-film equilibria.

positional arguments:
  {critical-point,stability,flat-threshold,crystalline,verify-identity,oracle-check}
    critical-point      solve the elastic equilibrium over a fixed profile
    stability           strict-stability verdict and dispersion data at an
                        equilibrium
    flat-threshold      bisect the critical thickness of the flat
                        configuration
    crystalline         facet-regularization sweep and instability-suppression
                        check
    verify-identity     check the boundary-system determinant identity
    oracle-check        compare the assembled second variation with the energy
                        oracle

options:
  -h, --help            show this help message and exit
""",
    "critical-point --help": """\
usage: filmstab critical-point [-h] --config CONFIG [--out OUT] [--seed SEED]
                               [--threads THREADS]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON run configuration
  --out OUT          output directory
  --seed SEED        seed for randomized paths
  --threads THREADS  worker thread cap
""",
    "stability --help": """\
usage: filmstab stability [-h] --config CONFIG [--out OUT] [--seed SEED]
                          [--threads THREADS]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON run configuration
  --out OUT          output directory
  --seed SEED        seed for randomized paths
  --threads THREADS  worker thread cap
""",
    "flat-threshold --help": """\
usage: filmstab flat-threshold [-h] --config CONFIG [--out OUT] [--seed SEED]
                               [--threads THREADS]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON run configuration
  --out OUT          output directory
  --seed SEED        seed for randomized paths
  --threads THREADS  worker thread cap
""",
    "crystalline --help": """\
usage: filmstab crystalline [-h] --config CONFIG [--out OUT] [--seed SEED]
                            [--threads THREADS]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON run configuration
  --out OUT          output directory
  --seed SEED        seed for randomized paths
  --threads THREADS  worker thread cap
""",
    "verify-identity --help": """\
usage: filmstab verify-identity [-h] [--config CONFIG] [--out OUT]
                                [--seed SEED] [--threads THREADS]
                                [--dim {2,3}] [--trials TRIALS]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON run configuration
  --out OUT          output directory
  --seed SEED        seed for randomized paths
  --threads THREADS  worker thread cap
  --dim {2,3}        spatial dimension
  --trials TRIALS    random evaluation points
""",
    "oracle-check --help": """\
usage: filmstab oracle-check [-h] --config CONFIG [--out OUT] [--seed SEED]
                             [--threads THREADS]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON run configuration
  --out OUT          output directory
  --seed SEED        seed for randomized paths
  --threads THREADS  worker thread cap
""",
}


def _run(tmp_path, command, patch):
    cfg = copy.deepcopy(BASES[command])
    for key, block in patch.items():
        if block is None:
            del cfg[key]
        else:
            cfg[key] = block
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "1"])


@pytest.mark.parametrize("command, patch, message", CASES)
def test_config_error_line(tmp_path, capsys, command, patch, message):
    assert _run(tmp_path, command, patch) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_every_subcommand_has_golden_cases():
    assert {command for command, _, _ in CASES} == set(BASES)


@pytest.mark.parametrize("argv", list(HELP))
def test_help_text(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), pytest.raises(SystemExit) as stop:
        main(argv.split())
    assert stop.value.code == 0
    assert printed.getvalue() == HELP[argv]



def test_readme_table_lists_every_analysis_key_and_default_file():
    from filmstab.config import COMMANDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = []
    for command, row in COMMANDS.items():
        [line] = [i for i, text in enumerate(readme) if text.startswith(f"| `{command}` |")]
        rows.append(line)
        _, keys, files = readme[line].strip("| ").split(" | ")
        required, optional = row["analysis"]
        for key in required | optional:
            assert f"`{key}` (" in keys, (command, key)
        for key, name in row["output"].items():
            assert f"`{key}` (" in files, (command, key)
            assert name is None or f"(`{name}`" in files, (command, name)
    assert rows == sorted(rows) and rows[-1] - rows[0] == len(rows) - 1
