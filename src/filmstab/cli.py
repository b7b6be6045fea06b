"""Command line front end: subcommand dispatch, reports, and plot data.

The subcommands are the rows of ``config.COMMANDS``, and ``_HANDLERS``
maps each to its handler.  Each run reads one JSON configuration, writes a
JSON report embedding the configuration hash, resolution and tolerances
(plus CSV series where a plot makes sense), and prints a one-line summary;
a handler holds only its numerical work, its CSV body and its summary.
Exit codes: 0 success, 1 configuration error, 2 numerical failure, 3
property violation (oracle mismatch, identity counterexample, failed
suppression check).

Reports carry no timestamps and all randomized paths run from a recorded
seed, so repeat runs of the same configuration at the same ``--threads``
produce byte-identical output.  numpy is imported inside the handlers,
after ``--threads`` has seeded the threading environment variables, and it
is the only numerical module a command loads: no command loads scipy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    COMMANDS,
    ConfigError,
    build_problem_inputs,
    config_sha256,
    jsonable,
    max_resolved_mode,
    validate_config,
)

__all__ = ["main", "PropertyViolation"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PropertyViolation(RuntimeError):
    """A checked mathematical property failed on this run's data."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filmstab",
        description="Local-minimality analysis of periodic strained-film equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        cmd = sub.add_parser(name, help=row["help"])
        # a command without a film may run without a config
        cmd.add_argument("--config", type=Path, required="film" in row["uses"], help="JSON run configuration")
        cmd.add_argument("--out", type=Path, default=Path("."), help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="seed for randomized paths")
        cmd.add_argument("--threads", type=int, default=None, help="worker thread cap")
        if name == "verify-identity":
            cmd.add_argument("--dim", type=int, choices=(2, 3), default=None, help="spatial dimension")
            cmd.add_argument("--trials", type=int, default=None, help="random evaluation points")
    return parser


def _apply_threads(threads) -> None:
    import os

    if threads is not None:
        if threads < 1:
            raise ConfigError("--threads", f"must be at least 1, got {threads}")
        for var in _THREAD_VARS:
            os.environ.setdefault(var, str(threads))


def _load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(str(path), f"cannot read configuration: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(str(path), f"invalid JSON: {err}") from err


def _output(cfg: dict, args, key: str) -> Path:
    """The command's ``key`` file in ``--out``, made if missing: ``output.<key>`` or the default name."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / cfg.get("output", {}).get(key, COMMANDS[args.command]["output"][key])


def _write_report(cfg: dict, args, tolerances: dict, results: dict, hashed=None, seed=None) -> Path:
    """Write the JSON report; ``hashed`` and ``seed`` replace the config and ``--seed`` it records."""
    report = {
        "command": args.command,
        "config_sha256": config_sha256(cfg if hashed is None else hashed),
        "seed": args.seed if seed is None else seed,
        "tolerances": tolerances,
        "results": results,
    }
    if "geometry" in cfg:
        report["resolution"] = {key: int(cfg["geometry"][key]) for key in ("dim", "n", "ny")}
    path = _output(cfg, args, "report")
    path.write_text(json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n")
    return path


# -- subcommand handlers ------------------------------------------------------------


def _cmd_critical_point(cfg: dict, args) -> int:
    import numpy as np

    from .elasticity import NEWTON_MAX_ITER, NEWTON_TOL, solve_critical_point
    from .stability import total_energy

    profile, datum, density, psi, _, ny = build_problem_inputs(cfg)
    analysis = cfg.get("analysis", {})
    tol = float(analysis.get("tol", NEWTON_TOL))
    max_iter = int(analysis.get("max_iter", NEWTON_MAX_ITER))

    field, info = solve_critical_point(profile, datum, density, ny, tol=tol, max_iter=max_iter)
    total = total_energy(field, psi)
    results = {
        "elastic_energy": info["energy"],
        "surface_energy": total - info["energy"],
        "total_energy": total,
        "iterations": info["iterations"],
        "residual_norm": info["residual_norm"],
        "max_correction": float(np.abs(field.p).max()),
    }

    path = _write_report(cfg, args, {"tol": tol, "max_iter": max_iter}, results)
    if "field" in cfg.get("output", {}):
        np.savez(
            _output(cfg, args, "field"),
            p=field.p,
            samples=profile.samples,
            width=np.asarray(profile.width),
        )
    print(
        f"critical point: {info['iterations']} Newton iterations, "
        f"elastic energy {info['energy']:.12g}, residual {info['residual_norm']:.3e} "
        f"-> {path}"
    )
    return 0


def _cmd_stability(cfg: dict, args) -> int:
    from .elasticity import NEWTON_TOL, solve_critical_point
    from .stability import StabilityProblem

    profile, datum, density, psi, n, ny = build_problem_inputs(cfg)
    analysis = cfg.get("analysis", {})
    max_mode = int(analysis.get("max_mode", min(8, max_resolved_mode(n))))

    field, info = solve_critical_point(profile, datum, density, ny)
    problem = StabilityProblem(field, psi)
    verdict = problem.report()

    csv = _output(cfg, args, "csv")
    curve = problem.dispersion_curve(max_mode)
    with open(csv, "w", newline="") as fh:
        fh.write("k,second_variation\n")
        for k, value in curve:
            fh.write(f"{int(k)},{float(value)!r}\n")

    results = dict(
        verdict.to_dict(),
        solver_iterations=info["iterations"],
        solver_residual=info["residual_norm"],
        elastic_energy=info["energy"],
    )
    tolerances = {"solver_tol": NEWTON_TOL, "max_mode": max_mode}
    path = _write_report(cfg, args, tolerances, results)
    print(
        f"stability: verdict {verdict.verdict}, lambda1 {verdict.lambda1:.6g}, "
        f"mu1 {verdict.mu1:.6g}, c0 {verdict.c0:.6g} -> {path}"
    )
    return 0


def _cmd_flat_threshold(cfg: dict, args) -> int:
    from .flat import (
        BISECTION_REL_TOL,
        FlatFilm,
        critical_thickness,
        threshold_rows,
        write_threshold_csv,
    )

    _, datum, density, psi, n, ny = build_problem_inputs(cfg)
    analysis = cfg["analysis"]
    bracket = tuple(float(v) for v in analysis["bracket"])
    cell = analysis.get("cell", "cube")
    rel_tol = float(analysis.get("rel_tol", BISECTION_REL_TOL))

    film = FlatFilm(density, psi, datum, cell=cell, n=n, ny=ny)
    result = critical_thickness(film.lambda1, bracket, rel_tol=rel_tol)
    results = dict(result.to_dict(), cell=cell)
    if "thicknesses" in analysis:
        rows = threshold_rows(film, analysis["thicknesses"])
        write_threshold_csv(_output(cfg, args, "csv"), rows)
        results["sweep"] = [list(row) for row in rows]

    path = _write_report(cfg, args, {"rel_tol": rel_tol}, results)
    print(
        f"flat threshold: d_crit ~= {result.d_crit:.6g} on the {cell} cell "
        f"(bracket {bracket}) -> {path}"
    )
    return 0


def _cmd_crystalline(cfg: dict, args) -> int:
    from .anisotropy import ShiftedFacetDensity
    from .flat import (
        SWEEP_MAX_STEPS,
        BracketError,
        FlatFilm,
        critical_thickness,
        crystalline_epsilon0,
        crystalline_sweep,
        write_crystalline_csv,
    )

    profile, datum, density, _, n, ny = build_problem_inputs(cfg)
    analysis = cfg["analysis"]
    a_facet = float(analysis["a"])
    b_facet = float(analysis["b"])
    d = float(analysis.get("d", profile.max()))
    max_steps = int(analysis.get("max_steps", SWEEP_MAX_STEPS))
    max_thickness = float(analysis.get("max_thickness", 1000.0))
    if not d < max_thickness:
        raise ConfigError(
            "analysis.max_thickness",
            f"must exceed the sweep thickness d = {d:g}, got {max_thickness:g}",
        )
    suppression_ds = [float(v) for v in analysis.get("suppression_thicknesses", [1.0, 10.0, 100.0])]

    rows = crystalline_sweep(density, datum, d, a_facet, b_facet, n=n, ny=ny, max_steps=max_steps)
    eps0 = crystalline_epsilon0(rows)

    write_crystalline_csv(_output(cfg, args, "csv"), rows)

    eps_star = 0.5 * eps0
    psi_star = ShiftedFacetDensity(a_facet, b_facet, eps_star, datum.dim)
    film = FlatFilm(density, psi_star, datum, cell="unit", n=n, ny=ny)
    suppression = []
    for d_s in suppression_ds:
        lam, _, verdict = film.row(d_s)
        suppression.append({"d": d_s, "lambda1": lam, "verdict": verdict})
    all_stable = all(row["verdict"] == "strictly_stable" for row in suppression)

    results = {
        "eps0": eps0,
        "eps_checked": eps_star,
        "sweep": [list(row) for row in rows],
        "suppression": suppression,
        "max_thickness": max_thickness,
    }
    try:
        found = critical_thickness(film.lambda1, (d, max_thickness))
        results.update(critical_thickness=found.to_dict(), suppressed=False)
    except BracketError as err:
        found = None
        results["bracket_lambda1"] = [err.lambda_low, err.lambda_high]
        results["suppressed"] = all_stable and err.lambda_low < 1.0 and err.lambda_high < 1.0
    path = _write_report(cfg, args, {"max_steps": max_steps}, results)

    if found is not None:
        raise PropertyViolation(
            f"critical thickness found at d ~= {found.d_crit:.6g} <= {max_thickness:g} "
            f"with eps = {eps_star:.6g}; suppression fails (report: {path})"
        )
    if not all_stable:
        bad = next(row for row in suppression if row["verdict"] != "strictly_stable")
        raise PropertyViolation(
            f"verdict {bad['verdict']} at d = {bad['d']:g} with eps = {eps_star:.6g}; "
            f"suppression fails (report: {path})"
        )
    if not results["suppressed"]:
        raise PropertyViolation(
            f"flat film already unstable at d = {d:g} with eps = {eps_star:.6g} "
            f"(lambda1 = {results['bracket_lambda1'][0]:.6g}); suppression fails (report: {path})"
        )
    print(f"no critical thickness found up to d={max_thickness:g}")
    print(f"crystalline: eps0 = {eps0:.6g}, checked eps0/2 = {eps_star:.6g} -> {path}")
    return 0


def _cmd_verify_identity(cfg: dict, args) -> int:
    from .polyident import verify_identity

    analysis = cfg.get("analysis", {})
    dim = args.dim if args.dim is not None else analysis.get("dim")
    if dim is None:
        raise ConfigError("analysis.dim", "missing required key (or pass --dim)")
    trials = args.trials if args.trials is not None else int(analysis.get("trials", 40))
    if trials < 1:
        raise ConfigError("--trials", f"must be at least 1, got {trials}")
    seed = args.seed if args.seed is not None else 0

    result = verify_identity(int(dim), trials, seed=seed)

    effective = {"analysis": {"dim": int(dim), "trials": trials}}
    path = _write_report(cfg, args, {"trials": trials}, result.to_dict(), hashed=effective, seed=seed)

    if not result.verified:
        raise PropertyViolation(
            f"determinant identity failed in dimension {dim}: counterexample recorded in {path}"
        )
    if result.exact:
        print("verified (exact)")
    else:
        bound = result.failure_bound
        shown = f"{bound:.3e}" if bound >= 1e-300 else "< 1e-300 (underflows)"
        print(
            f"verified (randomized, {result.trials} trials, "
            f"failure bound {shown}, sign {result.sign:+d})"
        )
    print(f"identity check -> {path}")
    return 0


def _cmd_oracle_check(cfg: dict, args) -> int:
    from .elasticity import solve_critical_point
    from .stability import StabilityProblem, cosine_mode, fd_oracle_second_variation

    profile, datum, density, psi, _, ny = build_problem_inputs(cfg)
    analysis = cfg.get("analysis", {})
    modes = [int(k) for k in analysis.get("modes", [1])]
    rel_tol = float(analysis.get("rel_tol", 1e-3))
    fd_step = analysis.get("fd_step")
    richardson = bool(analysis.get("richardson", True))

    field, _ = solve_critical_point(profile, datum, density, ny)
    problem = StabilityProblem(field, psi)

    checks = []
    for k in modes:
        phi = cosine_mode(profile, k)
        assembled = problem.full_second_variation(phi)
        oracle = fd_oracle_second_variation(
            field, psi, phi, t=None if fd_step is None else float(fd_step), richardson=richardson
        )
        rel = abs(assembled - oracle) / max(abs(oracle), 1e-300)
        checks.append({"mode": k, "assembled": assembled, "oracle": oracle, "rel_error": rel})
        print(f"mode {k}: assembled {assembled:.9g}, oracle {oracle:.9g}, relative error {rel:.3e}")
    worst = max(checks, key=lambda check: check["rel_error"])

    results = {"checks": checks, "worst_rel_error": worst["rel_error"]}
    path = _write_report(cfg, args, {"rel_tol": rel_tol, "richardson": richardson}, results)

    if worst["rel_error"] > rel_tol:
        raise PropertyViolation(
            f"oracle mismatch at mode {worst['mode']}: relative error "
            f"{worst['rel_error']:.3e} exceeds {rel_tol:g} (report: {path})"
        )
    print(f"oracle check: worst relative error {worst['rel_error']:.3e} <= {rel_tol:g} -> {path}")
    return 0


_HANDLERS = {
    "critical-point": _cmd_critical_point,
    "stability": _cmd_stability,
    "flat-threshold": _cmd_flat_threshold,
    "crystalline": _cmd_crystalline,
    "verify-identity": _cmd_verify_identity,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_threads(args.threads)
        if args.config is not None:
            cfg = validate_config(_load_config(args.config), args.command)
        else:
            cfg = {}
        return _HANDLERS[args.command](cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except PropertyViolation as err:
        print(f"property violation: {err}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"numerical failure: out of memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
