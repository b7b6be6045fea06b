"""Single-leaf mutations of small valid configurations, run through ``cli.main`` in this process.

There is one valid base configuration per command, on a grid no larger
than 16 x 8 where the command takes a film.  A mutation replaces one leaf
of it (a number, a string, a boolean or ``null``, inside any object or
list) by one of ``VALUES``; ``EXTRA`` adds mutations that leave
the curved nonlinear film compressed until its stiffness has no Cholesky
factor, so Newton steps through the block factor's Schur complement.
:func:`run_mutation` runs one with ``--threads 1`` and reports the exit
code, or ``None`` when ``cli.main`` raised, the wall time and the output.

``tests/test_config_fuzz.py`` runs the whole sweep in the tier-1 suite.  As
a script, the sweep prints a table per command and exit code, and exits 1
on any run outside the contract::

    PYTHONPATH=src:tests python tests/fuzz_configs.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from filmstab.cli import main

# the values every leaf takes in turn
VALUES = [0, -1, 0.5, 1e-300, 1e300, math.nan, math.inf, -math.inf, "x", None, True, [], {}, [1.0], 3]

_CURVED = {"kind": "fourier", "modes": [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.05}]}
_FLAT = {"kind": "flat", "thickness": 1.0}
_LINEAR = {"kind": "linear", "lam": 2.0, "mu": 1.0}
_NONLINEAR = {"kind": "nonlinear", "lam": 2.0, "mu": 1.0}


def _config(n, ny, profile, material, analysis, anisotropy=True):
    cfg = {
        "geometry": {"dim": 2, "n": n, "ny": ny, "profile": profile},
        "material": material,
        "mismatch": {"e0": 0.05},
        "analysis": analysis,
    }
    if anisotropy:
        cfg["anisotropy"] = {"kind": "isotropic"}
    return cfg


BASES = {
    "critical-point": _config(16, 8, _CURVED, _NONLINEAR, {"max_iter": 20}),
    "stability": _config(16, 8, _CURVED, _NONLINEAR, {"max_mode": 3}),
    "flat-threshold": _config(8, 4, _FLAT, _LINEAR, {"bracket": [100.0, 1600.0], "rel_tol": 0.1, "thicknesses": [200.0]}),
    "crystalline": _config(8, 4, _FLAT, _LINEAR, {"a": 1.0, "b": 1.0, "max_steps": 2}, anisotropy=False),
    "verify-identity": {"analysis": {"dim": 3, "trials": 3}},
    "oracle-check": _config(16, 8, _CURVED, _LINEAR, {"modes": [1]}),
}

# compressed by e0 = -0.3, the curved nonlinear film's Newton iterates have
# no Cholesky factor and stability ends with c0 < 0 (exit 0); by e0 = -0.5
# they step through the Schur complement to a non-descent step (exit 2)
EXTRA = [(command, ("mismatch", "e0"), e0) for command in ("critical-point", "stability") for e0 in (-0.3, -0.5)]


def leaves(node, path=()):
    """Paths to every leaf of a configuration: a value that is not an object or a list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path


def mutations():
    """Every mutation of the sweep as ``(command, path, value)``: each leaf of each base with each value, then ``EXTRA``."""
    out = [(command, path, value) for command, cfg in BASES.items() for path in leaves(cfg) for value in VALUES]
    return out + EXTRA


def mutate(command: str, path: tuple, value):
    cfg = copy.deepcopy(BASES[command])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return cfg


def label(path: tuple, value) -> str:
    """``geometry.profile.modes[1].amplitude = 0.2``, with the value as JSON writes it."""
    dotted = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]
    return f"{dotted} = {json.dumps(value)}"


def run_mutation(command: str, path: tuple, value, workdir: Path):
    """``(exit code or None when main raised, wall seconds, stdout + stderr)`` of one mutated run."""
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(mutate(command, path, value)))
    argv = [command, "--config", str(config), "--out", str(workdir / "out"), "--threads", "1"]
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except Exception:  # a raise out of main is what the sweep looks for
            traceback.print_exc()
            code = None
    return code, time.perf_counter() - start, printed.getvalue()


def _sweep() -> int:
    rows = {}
    worst = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, path, value) in enumerate(mutations()):
            code, wall, printed = run_mutation(command, path, value, Path(tmp) / str(i))
            row = rows.setdefault(command, {"runs": 0, 0: 0, 1: 0, 2: 0, 3: 0, None: 0, "slowest": (0.0, "")})
            row["runs"] += 1
            row[code if code in (0, 1, 2, 3) else None] += 1
            if wall > row["slowest"][0]:
                row["slowest"] = (wall, label(path, value))
            if code not in (0, 1, 2, 3) or "Traceback" in printed or wall > 5.0:
                worst.append((command, label(path, value), code, round(wall, 2), printed.strip()[-300:]))
    print("| command | runs | exit 0 | exit 1 | exit 2 | exit 3 | raised | slowest run |")
    print("|---|---|---|---|---|---|---|---|")
    for command, row in rows.items():
        wall, which = row["slowest"]
        print(f"| {command} | {row['runs']} | {row[0]} | {row[1]} | {row[2]} | {row[3]} | {row[None]} "
              f"| {wall:.2f} s (`{which}`) |")
    for entry in worst:
        print("outside the contract:", entry)
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(_sweep())
