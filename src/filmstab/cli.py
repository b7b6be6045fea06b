"""Command line front end: subcommand dispatch, reports, and plot data.

Subcommands: critical-point, stability, flat-threshold, crystalline,
verify-identity, oracle-check.  Each run reads one JSON configuration,
writes a JSON report embedding the configuration hash, resolution and
tolerances (plus CSV series where a plot makes sense), and prints a
one-line summary.  Exit codes: 0 success, 1 configuration error, 2
numerical failure, 3 property violation (oracle mismatch, identity
counterexample, failed suppression check).

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

    def add(name: str, help_text: str, needs_config: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, required=needs_config, help="JSON run configuration")
        cmd.add_argument("--out", type=Path, default=Path("."), help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="seed for randomized paths")
        cmd.add_argument("--threads", type=int, default=None, help="worker thread cap")
        return cmd

    add("critical-point", "solve the elastic equilibrium over a fixed profile")
    add("stability", "strict-stability verdict and dispersion data at an equilibrium")
    add("flat-threshold", "bisect the critical thickness of the flat configuration")
    add("crystalline", "facet-regularization sweep and instability-suppression check")
    ident = add("verify-identity", "check the boundary-system determinant identity", needs_config=False)
    ident.add_argument("--dim", type=int, choices=(2, 3), default=None, help="spatial dimension")
    ident.add_argument("--trials", type=int, default=None, help="random evaluation points")
    add("oracle-check", "compare the assembled second variation with the energy oracle")
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
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(str(path), f"invalid JSON: {err}") from err
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _skeleton(command: str, cfg: dict, args, tolerances: dict) -> dict:
    report = {
        "command": command,
        "config_sha256": config_sha256(cfg),
        "seed": args.seed,
        "tolerances": tolerances,
    }
    if "geometry" in cfg:
        report["resolution"] = {key: int(cfg["geometry"][key]) for key in ("dim", "n", "ny")}
    return report


def _write_report(out: Path, name: str, report: dict) -> Path:
    path = out / name
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

    out = _out_dir(args)
    report = _skeleton("critical-point", cfg, args, {"tol": tol, "max_iter": max_iter})
    report["results"] = results
    path = _write_report(out, cfg.get("output", {}).get("report", "critical_point.json"), report)

    if "output" in cfg and "field" in cfg["output"]:
        np.savez(
            out / cfg["output"]["field"],
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

    out = _out_dir(args)
    curve = problem.dispersion_curve(max_mode)
    csv_name = cfg.get("output", {}).get("csv", "dispersion.csv")
    with open(out / csv_name, "w", newline="") as fh:
        fh.write("k,second_variation\n")
        for k, value in curve:
            fh.write(f"{int(k)},{float(value)!r}\n")

    report = _skeleton("stability", cfg, args, {"solver_tol": NEWTON_TOL, "max_mode": max_mode})
    report["results"] = dict(
        verdict.to_dict(),
        solver_iterations=info["iterations"],
        solver_residual=info["residual_norm"],
        elastic_energy=info["energy"],
    )
    path = _write_report(out, cfg.get("output", {}).get("report", "stability.json"), report)
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
    out = _out_dir(args)
    results = dict(result.to_dict(), cell=cell)
    if "thicknesses" in analysis:
        rows = threshold_rows(film, analysis["thicknesses"])
        csv_name = cfg.get("output", {}).get("csv", "threshold.csv")
        write_threshold_csv(out / csv_name, rows)
        results["sweep"] = [list(row) for row in rows]

    report = _skeleton("flat-threshold", cfg, args, {"rel_tol": rel_tol})
    report["results"] = results
    path = _write_report(out, cfg.get("output", {}).get("report", "flat_threshold.json"), report)
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

    out = _out_dir(args)
    write_crystalline_csv(out / cfg.get("output", {}).get("csv", "crystalline.csv"), rows)

    eps_star = 0.5 * eps0
    psi_star = ShiftedFacetDensity(a_facet, b_facet, eps_star, datum.dim)
    film = FlatFilm(density, psi_star, datum, cell="unit", n=n, ny=ny)
    suppression = []
    for d_s in suppression_ds:
        lam, _, verdict = film.row(d_s)
        suppression.append({"d": d_s, "lambda1": lam, "verdict": verdict})
    all_stable = all(row["verdict"] == "strictly_stable" for row in suppression)

    found = None
    bracket_lambdas = None
    try:
        found = critical_thickness(film.lambda1, (d, max_thickness))
        suppressed = False
    except BracketError as err:
        bracket_lambdas = (err.lambda_low, err.lambda_high)
        suppressed = err.lambda_low < 1.0 and err.lambda_high < 1.0

    results = {
        "eps0": eps0,
        "eps_checked": eps_star,
        "sweep": [list(row) for row in rows],
        "suppression": suppression,
        "max_thickness": max_thickness,
        "suppressed": suppressed and all_stable,
    }
    if found is not None:
        results["critical_thickness"] = found.to_dict()
    if bracket_lambdas is not None:
        results["bracket_lambda1"] = list(bracket_lambdas)

    report = _skeleton("crystalline", cfg, args, {"max_steps": max_steps})
    report["results"] = results
    path = _write_report(out, cfg.get("output", {}).get("report", "crystalline.json"), report)

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
    if not suppressed:
        raise PropertyViolation(
            f"flat film already unstable at d = {d:g} with eps = {eps_star:.6g} "
            f"(lambda1 = {bracket_lambdas[0]:.6g}); suppression fails (report: {path})"
        )
    print(f"no critical thickness found up to d={max_thickness:g}")
    print(f"crystalline: eps0 = {eps0:.6g}, checked eps0/2 = {eps_star:.6g} -> {path}")
    return 0


def _cmd_verify_identity(cfg: dict, args) -> int:
    from .polyident import verify_identity

    analysis = cfg.get("analysis", {}) if cfg else {}
    dim = args.dim if args.dim is not None else analysis.get("dim")
    if dim is None:
        raise ConfigError("analysis.dim", "missing required key (or pass --dim)")
    trials = args.trials if args.trials is not None else int(analysis.get("trials", 40))
    if trials < 1:
        raise ConfigError("--trials", f"must be at least 1, got {trials}")
    seed = args.seed if args.seed is not None else 0

    result = verify_identity(int(dim), trials, seed=seed)

    effective = {"analysis": {"dim": int(dim), "trials": trials}}
    report = {
        "command": "verify-identity",
        "config_sha256": config_sha256(effective),
        "seed": seed,
        "tolerances": {"trials": trials},
        "results": result.to_dict(),
    }
    out = _out_dir(args)
    path = _write_report(
        out, (cfg or {}).get("output", {}).get("report", "verify_identity.json"), report
    )

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
    worst = None
    for k in modes:
        phi = cosine_mode(profile, k)
        assembled = problem.full_second_variation(phi)
        oracle = fd_oracle_second_variation(
            field, psi, phi, t=None if fd_step is None else float(fd_step), richardson=richardson
        )
        rel = abs(assembled - oracle) / max(abs(oracle), 1e-300)
        checks.append({"mode": k, "assembled": assembled, "oracle": oracle, "rel_error": rel})
        print(f"mode {k}: assembled {assembled:.9g}, oracle {oracle:.9g}, relative error {rel:.3e}")
        if worst is None or rel > worst["rel_error"]:
            worst = checks[-1]

    report = _skeleton(
        "oracle-check", cfg, args, {"rel_tol": rel_tol, "richardson": richardson}
    )
    report["results"] = {"checks": checks, "worst_rel_error": worst["rel_error"]}
    out = _out_dir(args)
    path = _write_report(out, cfg.get("output", {}).get("report", "oracle_check.json"), report)

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
