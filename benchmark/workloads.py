"""The four filmstab CLI workloads: seeded configs and output checks.

Each workload is one ``filmstab`` subcommand on one config.  The seed sets
only the free parameters (mode phases of the curved profiles, interior sweep
thicknesses); grid sizes, mode counts, bracket and ``rel_tol`` are fixed, so
the work per run does not depend on the seed.  Seed 0 is the default: its
configs are the ones documented in README.md and its outputs are compared
with the frozen files under ``reference/``.  Every seed is also checked
against invariants that hold for any input.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

STABLE = "strictly_stable"
UNSTABLE = "not_strictly_stable"

# Relative tolerances against the frozen reference, taken from the test suite:
# 1e-10 is what tests/test_flat.py and tests/test_stability.py require of
# assembled and dense-eigensolver quantities (bracket eigenvalues, quadratic
# form values, Rayleigh quotients); 1e-6 is what tests/test_stability.py
# requires of the ARPACK-derived mu1 (mu1 ~ 1/lambda1), applied here to both
# Lanczos results (mu1, c0) and to the finite-difference oracle.
REL_TOL_DENSE = 1e-10
REL_TOL_ITERATIVE = 1e-6
ITERATIVE = {"mu1", "c0", "oracle"}
# rounding-level quantities that carry no reproducible digits
NOT_COMPARED = {"solver_residual", "rel_error", "worst_rel_error"}

LINEAR = {"kind": "linear", "lam": 2.0, "mu": 1.0}
ISOTROPIC = {"kind": "isotropic", "scale": 1.0}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _phases(workload: str, seed: int, default: tuple) -> tuple:
    if seed == DEFAULT_SEED:
        return default
    rng = _rng(workload, seed)
    return tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in default)


# -- configs ------------------------------------------------------------------------


def stability_2d_config(seed: int) -> dict:
    p1, p2 = _phases("stability-2d", seed, (0.0, 0.5))
    modes = [
        {"mode": 0, "amplitude": 1.0},
        {"mode": 1, "amplitude": 0.03, "phase": p1},
        {"mode": 2, "amplitude": 0.01, "phase": p2},
    ]
    return {
        "geometry": {"dim": 2, "n": 48, "ny": 32, "profile": {"kind": "fourier", "modes": modes}},
        "material": {"kind": "nonlinear", "lam": 2.0, "mu": 1.0},
        "anisotropy": ISOTROPIC,
        "mismatch": {"e0": 0.05},
        "analysis": {"max_mode": 8},
    }


FLAT_THICKNESSES = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)


def flat_threshold_2d_config(seed: int) -> dict:
    ds = list(FLAT_THICKNESSES)
    if seed != DEFAULT_SEED:
        rng = _rng("flat-threshold-2d", seed)
        # a factor within 2**(+-1/4) keeps the interior thicknesses ordered and
        # inside the bracket; the end points stay fixed
        ds[1:-1] = [d * 2.0 ** rng.uniform(-0.25, 0.25) for d in ds[1:-1]]
    return {
        "geometry": {"dim": 2, "n": 32, "ny": 20, "profile": {"kind": "flat", "thickness": 1.0}},
        "material": LINEAR,
        "anisotropy": ISOTROPIC,
        "mismatch": {"e0": 0.05},
        "analysis": {"bracket": [100.0, 1600.0], "rel_tol": 1e-3, "cell": "cube", "thicknesses": ds},
    }


def oracle_2d_config(seed: int) -> dict:
    # criterion 1's film has no free parameter, so every seed gives this config
    return {
        "geometry": {"dim": 2, "n": 48, "ny": 32, "profile": {"kind": "flat", "thickness": 1.0}},
        "material": LINEAR,
        "anisotropy": ISOTROPIC,
        "mismatch": {"e0": 0.05},
        "analysis": {"modes": [1, 2, 3], "rel_tol": 1e-3, "richardson": True},
    }


def stability_3d_config(seed: int) -> dict:
    p1, p2 = _phases("stability-3d", seed, (0.0, 0.5))
    modes = [
        {"mode": [0, 0], "amplitude": 1.0},
        {"mode": [1, 0], "amplitude": 0.03, "phase": p1},
        {"mode": [0, 1], "amplitude": 0.02, "phase": p2},
    ]
    return {
        # n=12 (3,024 dofs) puts the c0 Lanczos working set, two 73 MB
        # matrices, past the 105 MB shared last-level cache of the reference
        # box, and its wall time then swung by 20-30% with other load on the
        # host; at n=10 (2,100 dofs) it fits, swings by about 7%, and c0 is
        # still 58% of the run
        "geometry": {"dim": 3, "n": 10, "ny": 8, "profile": {"kind": "fourier", "modes": modes}},
        "material": LINEAR,
        "anisotropy": ISOTROPIC,
        "mismatch": {"e0": 0.05},
        "analysis": {"max_mode": 4},
    }


# -- output readers -------------------------------------------------------------------


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _stability_values(out: Path) -> dict:
    report = json.loads((out / "stability.json").read_text())
    values = {"config_sha256": report["config_sha256"], **report["results"]}
    for k, value in _read_csv(out / "dispersion.csv"):
        values[f"dispersion[{k}]"] = float(value)
    return values


def _flat_values(out: Path) -> dict:
    report = json.loads((out / "flat_threshold.json").read_text())
    results = dict(report["results"])
    sweep = results.pop("sweep")
    values = {"config_sha256": report["config_sha256"], **results}
    for i, (d, lam, mu, verdict) in enumerate(sweep):
        values.update({f"sweep[{i}].d": d, f"sweep[{i}].lambda1": lam,
                       f"sweep[{i}].mu1": mu, f"sweep[{i}].verdict": verdict})
    for i, (d, lam, mu, verdict) in enumerate(_read_csv(out / "threshold.csv")):
        values.update({f"csv[{i}].d": float(d), f"csv[{i}].lambda1": float(lam),
                       f"csv[{i}].mu1": float(mu), f"csv[{i}].verdict": verdict})
    return values


def _oracle_values(out: Path) -> dict:
    report = json.loads((out / "oracle_check.json").read_text())
    values = {"config_sha256": report["config_sha256"],
              "worst_rel_error": report["results"]["worst_rel_error"]}
    for i, check in enumerate(report["results"]["checks"]):
        for key, value in check.items():
            values[f"checks[{i}].{key}"] = value
    return values


# -- invariants -------------------------------------------------------------------------


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _stability_pair(lam, mu, verdict, where: str) -> list:
    problems = []
    if verdict not in (STABLE, UNSTABLE):  # includes indefinite_sim_product
        problems.append(f"{where}: verdict {verdict!r}")
        return problems
    if not lam >= 0.0:
        problems.append(f"{where}: lambda1 = {lam!r} < 0")
    if _sign(lam - 1.0) != -_sign(mu - 1.0):
        problems.append(f"{where}: sign(lambda1 - 1) != -sign(mu1 - 1) ({lam!r}, {mu!r})")
    if verdict == STABLE and not lam < 1.0:
        problems.append(f"{where}: verdict {verdict} with lambda1 = {lam!r}")
    return problems


def _stability_invariants(cfg: dict, v: dict) -> list:
    problems = _stability_pair(v["lambda1"], v["mu1"], v["verdict"], "stability")
    max_mode = cfg["analysis"]["max_mode"]
    ks = sorted(int(key[11:-1]) for key in v if key.startswith("dispersion["))
    if ks != list(range(1, max_mode + 1)):
        problems.append(f"dispersion modes {ks}, expected 1..{max_mode}")
    if not all(math.isfinite(v[f"dispersion[{k}]"]) for k in ks):
        problems.append("dispersion has non-finite values")
    if not v["solver_residual"] < 1e-9:
        problems.append(f"equilibrium residual {v['solver_residual']!r} not converged")
    return problems


def _flat_invariants(cfg: dict, v: dict) -> list:
    analysis = cfg["analysis"]
    lo, hi = analysis["bracket"]
    problems = []
    if not lo <= v["d_low"] < v["d_crit"] < v["d_high"] <= hi:
        problems.append(f"d_crit {v['d_crit']!r} not inside [{v['d_low']!r}, {v['d_high']!r}] within {lo, hi}")
    if not v["d_high"] - v["d_low"] < analysis["rel_tol"] * v["d_crit"]:
        problems.append("bisection bracket wider than rel_tol")
    if not v["lambda_low"] < 1.0 < v["lambda_high"]:
        problems.append(f"bracket eigenvalues {v['lambda_low']!r}, {v['lambda_high']!r} do not straddle 1")
    for i, d in enumerate(analysis["thicknesses"]):
        if v.get(f"sweep[{i}].d") != d:
            problems.append(f"sweep row {i} has d = {v.get(f'sweep[{i}].d')!r}, expected {d!r}")
            continue
        problems += _stability_pair(v[f"sweep[{i}].lambda1"], v[f"sweep[{i}].mu1"],
                                    v[f"sweep[{i}].verdict"], f"sweep d={d:g}")
        for col in ("d", "lambda1", "mu1", "verdict"):
            if v.get(f"csv[{i}].{col}") != v[f"sweep[{i}].{col}"]:
                problems.append(f"threshold.csv row {i} column {col} differs from the report")
    if f"sweep[{len(analysis['thicknesses'])}].d" in v:
        problems.append("sweep has extra rows")
    return problems


def _oracle_invariants(cfg: dict, v: dict) -> list:
    analysis = cfg["analysis"]
    problems = []
    for i, k in enumerate(analysis["modes"]):
        if v.get(f"checks[{i}].mode") != k:
            problems.append(f"oracle check {i} is for mode {v.get(f'checks[{i}].mode')!r}, expected {k}")
        elif not v[f"checks[{i}].rel_error"] <= analysis["rel_tol"]:
            problems.append(f"mode {k}: oracle error {v[f'checks[{i}].rel_error']!r} > rel_tol")
    if not v["worst_rel_error"] <= analysis["rel_tol"]:
        problems.append(f"worst oracle error {v['worst_rel_error']!r} > rel_tol")
    return problems


# -- the workloads ------------------------------------------------------------------------


# One BLAS thread for every workload: on the 2-core box the measurements were
# taken on, a second thread cut at most 11% of wall time (stability-3d, n=12),
# slowed flat-threshold-2d by 20%, and made every run more sensitive to other
# load on the machine.
THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], dict]
    outputs: tuple
    values: Callable[[Path], dict]
    invariants: Callable[[dict, dict], list]

    def check(self, out: Path, seed: int) -> list:
        """Problems with one run's outputs in ``out``; empty when they are correct."""
        missing = [name for name in self.outputs if not (out / name).is_file()]
        if missing:
            return [f"missing output {name}" for name in missing]
        try:
            values = self.values(out)
            problems = self.invariants(self.config(seed), values)
        except (KeyError, ValueError, TypeError) as err:
            return [f"malformed output: {err!r}"]
        if seed == DEFAULT_SEED:
            problems += compare(values, self.values(REFERENCE_DIR / self.name))
        return problems


def _close(key: str, got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        quantity = key.rsplit(".", 1)[-1].split("[", 1)[0]
        tol = REL_TOL_ITERATIVE if quantity in ITERATIVE else REL_TOL_DENSE
        return abs(got - want) <= tol * abs(want)
    return got == want


def compare(values: dict, reference: dict) -> list:
    """Differences from the frozen reference beyond the tolerances above."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key.rsplit(".", 1)[-1] in NOT_COMPARED:
            continue
        if key not in values or key not in reference:
            problems.append(f"{key}: present in only one of output and reference")
        elif not _close(key, values[key], reference[key]):
            problems.append(f"{key}: {values[key]!r} differs from reference {reference[key]!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stability-2d", "stability", stability_2d_config,
                 ("stability.json", "dispersion.csv"), _stability_values, _stability_invariants),
        Workload("flat-threshold-2d", "flat-threshold", flat_threshold_2d_config,
                 ("flat_threshold.json", "threshold.csv"), _flat_values, _flat_invariants),
        Workload("oracle-2d", "oracle-check", oracle_2d_config,
                 ("oracle_check.json",), _oracle_values, _oracle_invariants),
        Workload("stability-3d", "stability", stability_3d_config,
                 ("stability.json", "dispersion.csv"), _stability_values, _stability_invariants),
    )
}
