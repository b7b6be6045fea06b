"""End-to-end tests of the command line: exit codes, reports, determinism."""

import json

import numpy as np
import pytest

from filmstab.cli import main
from filmstab.config import ConfigError, validate_config
from filmstab.elasticity import isotropic_tensor

LINEAR = {"kind": "linear", "lam": 2.0, "mu": 1.0}
ISO = {"kind": "isotropic"}


def flat_config(
    *,
    n=16,
    ny=10,
    thickness=1.0,
    e0=None,
    A=None,
    analysis=None,
    output=None,
    anisotropy=ISO,
):
    cfg = {
        "geometry": {
            "dim": 2,
            "n": n,
            "ny": ny,
            "profile": {"kind": "flat", "thickness": thickness},
        },
        "material": dict(LINEAR),
        "mismatch": {"e0": e0} if e0 is not None else {"A": A},
    }
    if anisotropy is not None:
        cfg["anisotropy"] = dict(anisotropy)
    if analysis is not None:
        cfg["analysis"] = analysis
    if output is not None:
        cfg["output"] = output
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(tmp_path, command, cfg=None, extra=(), name="run.json"):
    argv = [command, "--out", str(tmp_path / "out")]
    if cfg is not None:
        argv += ["--config", str(write_config(tmp_path, cfg, name))]
    argv += list(extra)
    return main(argv), tmp_path / "out"


def load_report(out, name):
    return json.loads((out / name).read_text())


# -- configuration errors (exit 1) ---------------------------------------------------


def test_negative_ny_rejected_with_field_path(tmp_path, capsys):
    cfg = flat_config(e0=0.05)
    cfg["geometry"]["ny"] = -4
    code, _ = run(tmp_path, "stability", cfg)
    assert code == 1
    assert "geometry.ny" in capsys.readouterr().err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = flat_config(e0=0.05)
    cfg["surprise"] = {}
    code, _ = run(tmp_path, "stability", cfg)
    assert code == 1
    assert "config.surprise" in capsys.readouterr().err


def test_unknown_analysis_key_rejected(tmp_path, capsys):
    cfg = flat_config(e0=0.05, analysis={"max_mode": 4})
    code, _ = run(tmp_path, "flat-threshold", cfg)
    assert code == 1
    assert "analysis.max_mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, command, analysis, key",
    [
        (16, "stability", {"max_mode": 8}, "analysis.max_mode"),
        (9, "stability", {"max_mode": 5}, "analysis.max_mode"),
        (16, "oracle-check", {"modes": [1, 8]}, "analysis.modes[1]"),
        (9, "oracle-check", {"modes": [5]}, "analysis.modes[0]"),
    ],
)
def test_unresolved_lateral_mode_rejected(tmp_path, capsys, n, command, analysis, key):
    cfg = flat_config(n=n, ny=4, e0=0.05, analysis=analysis)
    code, _ = run(tmp_path, command, cfg)
    assert code == 1
    assert key in capsys.readouterr().err
    # one mode lower is the highest the grid resolves, and passes validation
    lower = {k: v - 1 if k == "max_mode" else v[:-1] + [v[-1] - 1] for k, v in analysis.items()}
    validate_config(flat_config(n=n, ny=4, e0=0.05, analysis=lower), command)


_CURVED_16 = {"kind": "fourier", "modes": [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.05}]}


@pytest.mark.parametrize(
    "mode, shown",
    [(1e300, "1.000e+300"), (9, "9"), (-8, "-8"), (-(10**400), "-1.000e+400")],
    ids=["1e300", "9", "-8", "-1e400"],
)
def test_profile_mode_the_grid_does_not_resolve_exits_one(tmp_path, capsys, mode, shown):
    # mode 1e300 sampled the cosine of a meaningless argument and failed the
    # oracle; mode 9 on 16 points has the samples of mode 7
    cfg = flat_config(n=16, ny=8, e0=0.05, analysis={"modes": [1]})
    cfg["geometry"]["profile"] = json.loads(json.dumps(_CURVED_16))
    cfg["geometry"]["profile"]["modes"][1]["mode"] = mode
    code, out = run(tmp_path, "oracle-check", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: geometry.profile.modes[1].mode: mode {shown} is not resolved on n = 16 points; "
        "at most 7\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("block", ["profile", "mismatch"])
def test_three_dimensional_mode_pair_past_the_bound_exits_one(tmp_path, capsys, block):
    cfg = flat_config(n=8, ny=4, e0=0.05)
    cfg["geometry"]["dim"] = 3
    pair = [{"mode": [1, 4], "amplitude": 0.01}]
    if block == "profile":
        cfg["geometry"]["profile"] = {"kind": "fourier", "modes": pair, "thickness": 1.0}
    else:
        cfg["mismatch"]["modes"] = pair
    path = "geometry.profile" if block == "profile" else "mismatch"
    code, _ = run(tmp_path, "stability", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: {path}.modes[0].mode[1]: mode 4 is not resolved on n = 8 points; at most 3\n"
    )


def test_substrate_mode_the_grid_does_not_resolve_exits_one(tmp_path, capsys):
    cfg = flat_config(n=16, ny=8, e0=0.05)
    cfg["mismatch"]["modes"] = [{"mode": 1, "amplitude": 0.01}, {"mode": 8, "amplitude": 0.01, "component": 0}]
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: mismatch.modes[1].mode: mode 8 is not resolved on n = 16 points; at most 7\n"
    )


def test_modes_up_to_the_bound_are_accepted():
    # the highest resolved mode, its negative and mode 0 pass, in 2D and 3D,
    # in the profile and in the substrate datum
    terms = [{"mode": k, "amplitude": 0.01} for k in (0, 7, -7)]
    cfg = flat_config(n=16, ny=8, e0=0.05)
    cfg["geometry"]["profile"] = {"kind": "fourier", "modes": terms, "thickness": 1.0}
    cfg["mismatch"]["modes"] = terms
    validate_config(cfg, "critical-point")
    pairs = [{"mode": pair, "amplitude": 0.01} for pair in ([0, 0], [3, -3], [-3, 3])]
    cfg = flat_config(n=8, ny=4, e0=0.05)
    cfg["geometry"]["dim"] = 3
    cfg["geometry"]["profile"] = {"kind": "fourier", "modes": pairs, "thickness": 1.0}
    cfg["mismatch"]["modes"] = pairs
    validate_config(cfg, "critical-point")


def test_default_max_mode_is_the_highest_resolved_mode(tmp_path):
    # on odd n the highest resolved mode is (n - 1) // 2, as validation reads it
    code, out = run(tmp_path, "stability", flat_config(n=9, ny=4, e0=0.05))
    assert code == 0
    assert load_report(out, "stability.json")["tolerances"]["max_mode"] == 4
    rows = (out / "dispersion.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2", "3", "4"]


def test_both_mismatch_forms_rejected(tmp_path, capsys):
    cfg = flat_config(e0=0.05)
    cfg["mismatch"]["A"] = [[0.05]]
    code, _ = run(tmp_path, "stability", cfg)
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    code = main(["stability", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["stability", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_fourier_profile_thickness_is_the_constant_offset(tmp_path, capsys):
    from filmstab.config import build_problem_inputs, validate_config

    # the example profile of the top-level README
    example = {"kind": "fourier", "modes": [{"mode": 1, "amplitude": 0.1}], "thickness": 1.0}
    cfg = flat_config(e0=0.05)
    cfg["geometry"]["profile"] = example
    validate_config(cfg, "critical-point")
    profile = build_problem_inputs(cfg)[0]
    assert profile.samples.min() == pytest.approx(0.9, abs=1e-14)
    assert profile.samples.max() == pytest.approx(1.1, abs=1e-14)
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 0
    cfg["geometry"]["profile"] = dict(example, thickness="thick")
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 1
    assert "geometry.profile.thickness" in capsys.readouterr().err


def test_geometry_width_is_the_only_width_knob(tmp_path, capsys):
    cfg = flat_config(e0=0.05, output={"field": "field.npz"})
    cfg["geometry"]["width"] = 2.0
    code, out = run(tmp_path, "critical-point", cfg)
    assert code == 0
    assert float(np.load(out / "field.npz")["width"]) == 2.0
    cfg["geometry"]["profile"]["width"] = 3.0
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 1
    assert "geometry.profile.width: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, value, key",
    [
        ("geometry.profile", {"kind": "flat", "thickness": 1.0, "modes": [{"mode": 1, "amplitude": 0.5}]},
         "modes"),
        ("geometry.profile", {"kind": "fourier", "modes": [{"mode": 0, "amplitude": 1.0}], "samples": [1.0] * 8},
         "samples"),
        ("anisotropy", {"kind": "isotropic", "M": [[1.0, 0.0], [0.0, 1.0]]}, "M"),
        ("anisotropy", {"kind": "isotropic", "a": 1.0, "b": 1.0, "eps": 0.1}, "a"),
        ("material", {"kind": "linear", "tensor": isotropic_tensor(2, 2.0, 1.0).tolist(), "lam": 5.0}, "lam"),
    ],
    ids=["flat-modes", "fourier-samples", "isotropic-M", "isotropic-facets", "tensor-lam"],
)
def test_keys_the_block_kind_does_not_read_are_refused(tmp_path, capsys, block, value, key):
    cfg = flat_config(n=8, ny=4, e0=0.05)
    if block == "geometry.profile":
        cfg["geometry"]["profile"] = value
    else:
        cfg[block] = value
    code, out = run(tmp_path, "critical-point", cfg)
    assert code == 1
    assert f"config error: {block}.{key}: unknown key" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, analysis",
    [
        ("flat-threshold", {"bracket": [100.0, 1600.0], "rel_tol": 0.1}),
        ("crystalline", {"a": 1.0, "b": 1.0, "max_steps": 2}),
    ],
    ids=["flat-threshold", "crystalline"],
)
def test_geometry_width_rejected_where_the_command_sets_its_cell(tmp_path, capsys, command, analysis):
    cfg = flat_config(n=8, ny=4, e0=0.05, analysis=analysis)
    cfg["geometry"]["width"] = 5.0
    code, out = run(tmp_path, command, cfg)
    assert code == 1
    assert "config error: geometry.width" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _samples_config(dim, n, samples):
    cfg = flat_config(e0=0.05)
    cfg["geometry"].update(dim=dim, n=n, ny=6)
    cfg["geometry"]["profile"] = {"kind": "samples", "samples": samples}
    return cfg


@pytest.mark.parametrize(
    "dim, n, samples",
    [(2, 32, [1.0] * 16), (3, 8, [1.0] * 10), (2, 8, [1.0] * 3 + ["1.0"] + [1.0] * 4)],
    ids=["2d-fewer-than-n", "3d-not-n-squared", "2d-string-height"],
)
def test_bad_samples_profile_rejected(tmp_path, capsys, dim, n, samples):
    code, _ = run(tmp_path, "critical-point", _samples_config(dim, n, samples))
    assert code == 1
    assert "geometry.profile.samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dim, block, mode, path",
    [
        (2, "profile", 1.5, "geometry.profile.modes[1].mode"),
        (2, "profile", float("nan"), "geometry.profile.modes[1].mode"),
        (3, "profile", [1, 0.5], "geometry.profile.modes[1].mode[1]"),
        (2, "mismatch", 0.5, "mismatch.modes[0].mode"),
        (3, "mismatch", [1, "a"], "mismatch.modes[0].mode[1]"),
    ],
    ids=[
        "2d-profile-fraction",
        "2d-profile-nan",
        "3d-profile-fraction",
        "2d-mismatch-fraction",
        "3d-mismatch-string",
    ],
)
def test_fourier_mode_must_be_integer(tmp_path, capsys, dim, block, mode, path):
    cfg = flat_config(n=8, ny=4, e0=0.05)
    cfg["geometry"]["dim"] = dim
    zero = 0 if dim == 2 else [0, 0]
    if block == "profile":
        cfg["geometry"]["profile"] = {
            "kind": "fourier",
            "modes": [{"mode": zero, "amplitude": 1.0}, {"mode": mode, "amplitude": 0.05}],
        }
    else:
        cfg["mismatch"]["modes"] = [{"mode": mode, "amplitude": 0.01}]
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 1
    assert f"config error: {path}:" in capsys.readouterr().err


def test_resolution_below_the_surface_minimum_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "critical-point", flat_config(n=6, e0=0.05))
    assert code == 1
    assert "geometry.n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "blocks, path",
    [
        ({"material": {"kind": "linear", "lam": -5.0, "mu": 1.0}}, "material"),
        ({"material": {"kind": "nonlinear", "lam": -1.0, "mu": 1.0}}, "material"),
        ({"anisotropy": {"kind": "crystalline", "a": 1.0, "b": 1.0, "eps": 1.0}}, "anisotropy"),
        ({"anisotropy": {"kind": "quadratic", "M": np.eye(3).tolist()}}, "anisotropy"),
        ({"anisotropy": {"kind": "quadratic", "M": [[1.0, 0.0], [0.0, -1.0]]}}, "anisotropy"),
        ({"material": {"kind": "linear", "tensor": np.eye(2).tolist()}}, "material"),
        ({"material": {"kind": "nonlinear", "lam": 2.0, "mu": 1.0}, "mismatch": {"e0": -1.5}},
         "mismatch"),
        ({"geometry.profile": {"kind": "fourier", "modes": [{"mode": 1, "amplitude": 2.0}],
                               "thickness": 1.0}}, "geometry.profile"),
    ],
    ids=[
        "linear-negative-lam",
        "nonlinear-negative-lam",
        "crystalline-eps-above-b-over-a",
        "quadratic-3x3-in-2d",
        "quadratic-indefinite",
        "tensor-2x2",
        "nonlinear-reversed-stretch",
        "negative-fourier-profile",
    ],
)
def test_block_rejected_by_its_domain_object_is_a_config_error(tmp_path, capsys, blocks, path):
    cfg = flat_config(e0=0.05)
    for dotted, value in blocks.items():
        *parents, key = dotted.split(".")
        target = cfg
        for parent in parents:
            target = target[parent]
        target[key] = value
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 1
    assert f"config error: {path}:" in capsys.readouterr().err


def test_samples_profile_runs_at_the_configured_resolution(tmp_path):
    from filmstab.config import build_problem_inputs, validate_config

    heights = [1.0 + 0.001 * k for k in range(64)]
    cfg = validate_config(_samples_config(3, 8, heights), "critical-point")
    profile = build_problem_inputs(cfg)[0]
    assert profile.samples.shape == (8, 8)
    assert profile.samples[1, 2] == heights[10]
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 0


# -- critical-point -------------------------------------------------------------------


def test_no_mismatch_energy_zero(tmp_path):
    code, out = run(tmp_path, "critical-point", flat_config(A=[[0.0]]))
    assert code == 0
    report = load_report(out, "critical_point.json")
    assert report["results"]["elastic_energy"] == 0.0
    assert report["results"]["max_correction"] == 0.0
    assert report["command"] == "critical-point"
    assert len(report["config_sha256"]) == 64


def test_flat_benchmark_matches_affine_solution(tmp_path):
    cfg = flat_config(n=16, ny=12, e0=0.05, output={"field": "field.npz"})
    code, out = run(tmp_path, "critical-point", cfg)
    assert code == 0

    from filmstab.elasticity import MismatchDatum, elastic_density_from_config
    from filmstab.flat import flat_field

    density = elastic_density_from_config(LINEAR, 2)
    datum = MismatchDatum.from_misfit(0.05, 2, "linear")
    affine = flat_field(density, datum, 1.0, 16, 12)
    dumped = np.load(out / "field.npz")
    assert np.abs(dumped["p"] - affine.p).max() < 1e-9


def test_flat_critical_point_starts_at_its_equilibrium(tmp_path):
    # e0 = 2 is the nonlinear stretch A = 3; at moduli 1e9 the traction's
    # rounding floor is far above an absolute 1e-11
    cases = [("linear", 0.05, 2.0, 1.0), ("nonlinear", 0.05, 2.0, 1.0), ("nonlinear", 2.0, 2.0, 1.0),
             ("linear", 0.05, 1e9, 1e9), ("nonlinear", 0.05, 1e9, 1e9)]
    for kind, e0, lam, mu in cases:
        cfg = flat_config(n=8, ny=6, e0=e0)
        cfg["material"] = {"kind": kind, "lam": lam, "mu": mu}
        (tmp_path / f"{kind}-{e0}-{mu}").mkdir()
        code, out = run(tmp_path / f"{kind}-{e0}-{mu}", "critical-point", cfg)
        assert code == 0
        results = load_report(out, "critical_point.json")["results"]
        assert results["iterations"] == 0
        assert results["residual_norm"] < 1e-11 * mu


def test_report_echoes_the_grid_the_run_used(tmp_path):
    # validation accepts a whole float as an integer; the report names the ints
    cfg = flat_config(n=16.0, ny=10.0, e0=0.05)
    cfg["geometry"]["dim"] = 2.0
    code, out = run(tmp_path, "critical-point", cfg)
    assert code == 0
    resolution = load_report(out, "critical_point.json")["resolution"]
    assert resolution == {"dim": 2, "n": 16, "ny": 10}
    assert all(type(v) is int for v in resolution.values())


# -- stability ------------------------------------------------------------------------


def test_stability_without_mismatch_reports_zero_lambda1(tmp_path):
    with pytest.warns(UserWarning, match="elastic correction vanishes"):
        code, out = run(tmp_path, "stability", flat_config(A=[[0.0]]))
    assert code == 0
    report = load_report(out, "stability.json")
    assert report["results"]["verdict"] == "strictly_stable"
    assert report["results"]["lambda1"] == 0.0
    assert report["results"]["mu1"] == "inf"


def test_subthreshold_flat_film_is_strictly_stable(tmp_path):
    code, out = run(tmp_path, "stability", flat_config(e0=0.05, analysis={"max_mode": 3}))
    assert code == 0
    report = load_report(out, "stability.json")
    assert report["results"]["verdict"] == "strictly_stable"
    assert 0.0 < report["results"]["lambda1"] < 1.0
    assert report["resolution"] == {"dim": 2, "n": 16, "ny": 10}


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = flat_config(e0=0.05, analysis={"max_mode": 4})
    path = write_config(tmp_path, cfg)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "stability.json").read_bytes() == (outs[1] / "stability.json").read_bytes()
    assert (outs[0] / "dispersion.csv").read_bytes() == (outs[1] / "dispersion.csv").read_bytes()


def clustered_3d_config():
    """A curved 3D film with a clustered bottom c0 spectrum.

    Its ``c0`` Lanczos recurrence on the stiffness's factor takes over a hundred steps.
    """
    modes = [
        {"mode": [0, 0], "amplitude": 1.0},
        {"mode": [1, 0], "amplitude": 0.03},
        {"mode": [0, 1], "amplitude": 0.02, "phase": 0.5},
    ]
    cfg = flat_config(n=8, ny=8, e0=0.05, analysis={"max_mode": 2})
    cfg["geometry"].update(dim=3, profile={"kind": "fourier", "modes": modes})
    return cfg


def curved_nonlinear_config(**kwargs):
    cfg = flat_config(n=16, ny=8, e0=0.05, **kwargs)
    modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.05}]
    cfg["geometry"]["profile"] = {"kind": "fourier", "modes": modes}
    cfg["material"]["kind"] = "nonlinear"
    return cfg


def record_c0_assemblies(monkeypatch) -> list:
    """The matrices ``c0`` assembles from here on, besides the stiffness's own factor."""
    import filmstab.elasticity as elasticity
    import filmstab.stability as stability

    assembled, inside = [], []
    assemble, c0 = elasticity.assemble_hessian, stability.coercivity_constant

    def recording(*args):
        if inside:
            assembled.append(args[0])
        return assemble(*args)

    def within(field):
        field.stiffness_cho  # the factor's own assembly, not counted
        inside.append(True)
        try:
            return c0(field)
        finally:
            inside.pop()

    monkeypatch.setattr(elasticity, "assemble_hessian", recording)
    monkeypatch.setattr(stability, "coercivity_constant", within)
    return assembled


def indefinite_config(**kwargs):
    """A compressed curved nonlinear film whose equilibrium stiffness has no Cholesky factor."""
    cfg = flat_config(n=8, ny=6, e0=-0.2, **kwargs)
    modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.2}]
    cfg["geometry"]["profile"] = {"kind": "fourier", "modes": modes}
    cfg["material"]["kind"] = "nonlinear"
    return cfg


def test_stability_of_an_equilibrium_with_an_indefinite_stiffness(tmp_path):
    # c0 < 0 decides the verdict; lambda1 and the dispersion form are not posed
    code, out = run(tmp_path, "stability", indefinite_config())
    assert code == 0
    results = load_report(out, "stability.json")["results"]
    assert results["c0"] < 0.0
    assert results["verdict"] == "not_strictly_stable"
    assert results["lambda1"] == "nan"
    rows = (out / "dispersion.csv").read_text().splitlines()
    assert rows == ["k,second_variation", "1,nan", "2,nan", "3,nan"]


def test_stability_without_a_certified_shift_exits_2(tmp_path, capsys, monkeypatch):
    # no factor at any shift: c0 cannot be certified, which is named, not a
    # crash.  The factor at the shift is the unshifted one, which ends in a
    # Schur complement
    from filmstab.elasticity import ElasticField

    factor = ElasticField.factor
    monkeypatch.setattr(ElasticField, "factor", lambda field, sigma=0.0: factor(field))
    code, _ = run(tmp_path, "stability", indefinite_config())
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure: c0 has no certified shift" in err
    assert "no Cholesky factor at the tangent's pointwise bound sigma = -" in err


def test_critical_point_without_convergence_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "critical-point", indefinite_config(analysis={"max_iter": 1}))
    assert code == 2
    assert "no convergence in 1 iterations" in capsys.readouterr().err


def test_critical_point_iterations_stay_within_max_iter(tmp_path, capsys):
    # this flat film's cold continuation fails its attempt at t = 1 against
    # the full substrate wiggle and halves; max_iter bounds the whole solve,
    # failed attempts included, so one iteration fewer than it takes is refused
    cfg = flat_config(n=16, ny=8, e0=-0.2)
    cfg["material"] = {"kind": "nonlinear", "lam": 2.0, "mu": 1.0}
    cfg["mismatch"]["modes"] = [{"mode": 1, "amplitude": 0.05}]
    (tmp_path / "default").mkdir()
    code, out = run(tmp_path / "default", "critical-point", cfg)
    assert code == 0
    report = load_report(out, "critical_point.json")
    iterations = report["results"]["iterations"]
    assert 0 < iterations <= report["tolerances"]["max_iter"]
    cfg["analysis"] = {"max_iter": iterations}
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 2
    assert f"no convergence in {iterations} iterations" in capsys.readouterr().err


FLAT_THRESHOLD = {"bracket": [100.0, 1600.0], "rel_tol": 0.1, "thicknesses": [200.0, 400.0]}
CRYSTALLINE = {"a": 1.0, "b": 1.0, "max_steps": 2}


@pytest.mark.parametrize("command, key", [("flat-threshold", "analysis.bracket"), ("crystalline", "analysis.a")])
def test_missing_analysis_block_names_its_required_key(tmp_path, capsys, command, key):
    code, out = run(tmp_path, command, flat_config(n=8, ny=4, e0=0.05))
    assert code == 1
    assert f"config error: {key}: missing required key" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


WRITES = {
    "critical-point": ("report", "field"),
    "stability": ("report", "csv"),
    "flat-threshold": ("report", "csv"),
    "crystalline": ("report", "csv"),
    "verify-identity": ("report",),
    "oracle-check": ("report",),
}


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c, keys in WRITES.items() for k in ("report", "csv", "field") if k not in keys],
)
def test_output_key_the_command_never_writes_is_refused(tmp_path, capsys, command, key):
    analysis = {"flat-threshold": FLAT_THRESHOLD, "crystalline": CRYSTALLINE}.get(command)
    cfg = flat_config(n=8, ny=4, e0=0.05, analysis=analysis, output={key: "unwritten"})
    if command == "verify-identity":
        cfg = {"analysis": {"dim": 2}, "output": cfg["output"]}
    code, out = run(tmp_path, command, cfg)
    assert code == 1
    assert f"config error: output.{key}: {command} writes no such file" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("stability", curved_nonlinear_config(analysis={"max_mode": 2})),
        ("stability", clustered_3d_config()),
        ("flat-threshold", flat_config(n=8, ny=4, e0=0.05, analysis=FLAT_THRESHOLD)),
        ("oracle-check", flat_config(n=16, ny=8, e0=0.05, analysis={"modes": [1]})),
        ("critical-point", curved_nonlinear_config()),
        ("crystalline", flat_config(n=8, ny=4, e0=0.05, analysis=CRYSTALLINE, anisotropy=None)),
    ],
    ids=["stability-curved-2d", "stability-clustered-3d", "flat-threshold", "oracle-check",
         "critical-point", "crystalline"],
)
def test_positive_definite_runs_never_read_the_dense_stiffness(tmp_path, monkeypatch, command, cfg):
    """Every solve and ``c0`` goes through the factor; the dense stiffness is for the rest."""
    import filmstab.elasticity as elasticity

    def refuse(*args):
        raise AssertionError("a run with a positive definite stiffness read the dense matrix")

    monkeypatch.setattr(elasticity.ElasticField, "stiffness", property(refuse))
    monkeypatch.setattr(elasticity.BlockColumns, "full", refuse)
    c0_assemblies = record_c0_assemblies(monkeypatch)
    code, _ = run(tmp_path, command, cfg)
    assert code == 0
    assert c0_assemblies == []


def curved_nonlinear_3d_config():
    cfg = clustered_3d_config()
    cfg["material"]["kind"] = "nonlinear"
    del cfg["analysis"]
    return cfg


@pytest.mark.parametrize(
    "cfg", [curved_nonlinear_config(), curved_nonlinear_3d_config()], ids=["2d", "3d"]
)
def test_cold_curved_nonlinear_critical_point_assembles_nothing(tmp_path, monkeypatch, cfg):
    """Newton on a curved nonlinear film is preconditioned by the flat film's block factor."""
    import filmstab.elasticity as elasticity

    def refuse(*args):
        raise AssertionError("a cold nonlinear Newton solve assembled a stiffness")

    monkeypatch.setattr(elasticity, "assemble_hessian", refuse)
    code, _ = run(tmp_path, "critical-point", cfg)
    assert code == 0


def test_curved_nonlinear_stability_assembles_once(tmp_path, monkeypatch):
    """Only the solution's stiffness is assembled, for its factor."""
    import filmstab.elasticity as elasticity

    calls = []
    original = elasticity.assemble_hessian

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(elasticity, "assemble_hessian", counting)
    code, _ = run(tmp_path, "stability", curved_nonlinear_config(analysis={"max_mode": 2}))
    assert code == 0
    assert len(calls) == 1


def test_repeat_runs_through_the_c0_lanczos_are_byte_identical(tmp_path):
    path = write_config(tmp_path, clustered_3d_config())
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "stability.json").read_bytes() == (outs[1] / "stability.json").read_bytes()
    assert (outs[0] / "dispersion.csv").read_bytes() == (outs[1] / "dispersion.csv").read_bytes()


def test_dispersion_csv_matches_direct_evaluation(tmp_path):
    code, out = run(tmp_path, "stability", flat_config(n=16, ny=12, e0=0.05, analysis={"max_mode": 3}))
    assert code == 0
    lines = (out / "dispersion.csv").read_text().strip().splitlines()
    assert lines[0] == "k,second_variation"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3]

    from filmstab.elasticity import MismatchDatum, elastic_density_from_config, solve_critical_point
    from filmstab.anisotropy import anisotropy_from_config
    from filmstab.geometry import Profile
    from filmstab.stability import StabilityProblem
    from filmstab.spectral import fourier_nodes

    density = elastic_density_from_config(LINEAR, 2)
    datum = MismatchDatum.from_misfit(0.05, 2, "linear")
    field, _ = solve_critical_point(Profile.flat(2, 16, 1.0), datum, density, 12)
    psi = anisotropy_from_config(ISO, 2)
    phi = np.cos(2.0 * np.pi * fourier_nodes(16, 1.0))
    expected = StabilityProblem(field, psi).full_second_variation(phi)
    assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)


# -- flat-threshold -------------------------------------------------------------------


def test_flat_threshold_bisection_and_sweep(tmp_path):
    analysis = {"bracket": [100.0, 1600.0], "rel_tol": 0.01, "thicknesses": [200.0, 800.0]}
    code, out = run(tmp_path, "flat-threshold", flat_config(n=16, ny=12, e0=0.05, analysis=analysis))
    assert code == 0
    report = load_report(out, "flat_threshold.json")
    res = report["results"]
    assert res["lambda_low"] < 1.0 < res["lambda_high"]
    assert 350.0 < res["d_crit"] < 480.0
    assert res["cell"] == "cube"
    lines = (out / "threshold.csv").read_text().strip().splitlines()
    assert lines[0] == "d,lambda1,mu1,verdict"
    verdicts = [line.split(",")[3] for line in lines[1:]]
    assert verdicts == ["strictly_stable", "not_strictly_stable"]


def test_flat_threshold_without_crossing_is_numerical_failure(tmp_path, capsys):
    analysis = {"bracket": [1.0, 2.0]}
    code, _ = run(tmp_path, "flat-threshold", flat_config(n=16, ny=12, e0=0.05, analysis=analysis))
    assert code == 2
    assert "no threshold inside" in capsys.readouterr().err


# -- crystalline ----------------------------------------------------------------------


def test_crystalline_sweep_past_the_last_halving_is_a_config_error(tmp_path, capsys):
    # 1e300 steps built a list of 1e300 rows until memory ran out; past 1074
    # halvings the regularization is zero
    for steps in (1075, 1e300):
        cfg = flat_config(n=8, ny=4, e0=0.05, analysis=dict(CRYSTALLINE, max_steps=steps), anisotropy=None)
        code, _ = run(tmp_path, "crystalline", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: analysis.max_steps: at most 1074" in err
        assert "0.5**k is zero past k = 1074" in err
    cfg = flat_config(n=8, ny=4, e0=0.05, analysis=dict(CRYSTALLINE, max_steps=1074), anisotropy=None)
    assert validate_config(cfg, "crystalline") is cfg


def test_crystalline_suppression_success(tmp_path, capsys):
    analysis = {
        "a": 1.0,
        "b": 1.0,
        "max_steps": 4,
        "max_thickness": 1000.0,
        "suppression_thicknesses": [1.0, 10.0],
    }
    cfg = flat_config(n=16, ny=16, e0=1.2, analysis=analysis, anisotropy=None)
    code, out = run(tmp_path, "crystalline", cfg)
    assert code == 0
    assert "no critical thickness found up to d=1000" in capsys.readouterr().out
    report = load_report(out, "crystalline.json")
    res = report["results"]
    assert res["suppressed"] is True
    assert res["eps0"] == 0.5
    assert res["eps_checked"] == 0.25
    assert all(row["verdict"] == "strictly_stable" for row in res["suppression"])
    assert all(lam < 1.0 for lam in res["bracket_lambda1"])
    lines = (out / "crystalline.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,lambda1"
    assert len(lines) == 5


@pytest.mark.parametrize("thicknesses", [5, [], [1.0, -2.0], [1.0, "10"]],
                         ids=["scalar", "empty", "negative", "string"])
def test_bad_suppression_thicknesses_rejected(tmp_path, capsys, thicknesses):
    analysis = {"a": 1.0, "b": 1.0, "suppression_thicknesses": thicknesses}
    cfg = flat_config(n=16, ny=12, e0=1.2, analysis=analysis, anisotropy=None)
    code, _ = run(tmp_path, "crystalline", cfg)
    assert code == 1
    assert "config error: analysis.suppression_thicknesses" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds", [{"d": 2000.0}, {"max_thickness": 0.5}], ids=["d-above-default", "max-below-profile"]
)
def test_crystalline_max_thickness_below_d_rejected(tmp_path, capsys, bounds):
    analysis = dict({"a": 1.0, "b": 1.0, "max_steps": 2}, **bounds)
    cfg = flat_config(n=16, ny=12, e0=1.2, analysis=analysis, anisotropy=None)
    code, out = run(tmp_path, "crystalline", cfg)
    assert code == 1
    assert "config error: analysis.max_thickness" in capsys.readouterr().err
    assert not (out / "crystalline.csv").exists()


def test_crystalline_sweep_exhaustion_is_numerical_failure(tmp_path, capsys):
    analysis = {"a": 1e-4, "b": 1e-4, "max_steps": 2}
    cfg = flat_config(n=16, ny=12, e0=1.2, analysis=analysis, anisotropy=None)
    code, _ = run(tmp_path, "crystalline", cfg)
    assert code == 2
    assert "no stable regularization" in capsys.readouterr().err


# -- verify-identity ------------------------------------------------------------------


def test_verify_identity_planar_prints_exact(tmp_path, capsys):
    code = main(["verify-identity", "--dim", "2", "--out", str(tmp_path)])
    assert code == 0
    assert "verified (exact)" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_identity.json").read_text())
    assert report["results"]["exact"] is True
    assert report["results"]["verified"] is True


def test_verify_identity_spatial_randomized(tmp_path, capsys):
    code = main(["verify-identity", "--dim", "3", "--trials", "12", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    assert "verified (randomized, 12 trials" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_identity.json").read_text())
    assert report["seed"] == 5
    assert report["results"]["sign"] in (-1, 1)
    assert report["results"]["failure_bound"] < 1e-15


def test_verify_identity_requires_dimension(tmp_path, capsys):
    code = main(["verify-identity", "--out", str(tmp_path)])
    assert code == 1
    assert "analysis.dim" in capsys.readouterr().err


def test_verify_identity_config_without_analysis_takes_the_dim_flag(tmp_path, capsys):
    cfg = {"output": {"report": "identity.json"}}
    code, out = run(tmp_path, "verify-identity", cfg, extra=["--dim", "2"])
    assert code == 0
    assert load_report(out, "identity.json")["results"]["verified"] is True
    # without the flag the handler names the missing key
    code, _ = run(tmp_path, "verify-identity", cfg)
    assert code == 1
    assert "config error: analysis.dim: missing required key (or pass --dim)" in capsys.readouterr().err


def test_verify_identity_names_the_trials_flag(tmp_path, capsys):
    code = main(["verify-identity", "--dim", "2", "--trials", "0", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--trials: must be at least 1, got 0" in err
    assert "analysis.trials" not in err


def test_c0_non_convergence_exits_two(tmp_path, capsys, monkeypatch):
    import filmstab.elasticity as elasticity

    ritz = elasticity.eigh_tridiagonal

    def stalled(alphas, betas, **kwargs):
        # the true top Ritz value, with a Ritz vector that never converges
        theta, _ = ritz(alphas, betas, **kwargs)
        return theta, np.ones((len(alphas), 1))

    monkeypatch.setattr(elasticity, "eigh_tridiagonal", stalled)
    # a curved film: c0 of a flat one is read off its lateral blocks, with no
    # Lanczos; its 48 dofs bound the recurrence at 48 steps
    cfg = flat_config(n=8, ny=4, e0=0.05)
    modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.05}]
    cfg["geometry"]["profile"] = {"kind": "fourier", "modes": modes}
    rc, _ = run(tmp_path, "stability", cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure: the Lanczos solve for c0 did not converge after 48 matvecs" in err
    assert "tolerance 1e-10" in err


@pytest.mark.parametrize("lam, mu", [(1e-300, 1.0), (2.0, 1e300)], ids=["lam-1e-300", "mu-1e300"])
def test_flat_nonlinear_stability_at_extreme_moduli_ends(tmp_path, lam, mu):
    # both ran forever in the affine slope's Newton loop; a fresh process
    # bounds the run, which must end with a report or a named failure: a
    # numerical one, or the config error of a modulus whose square overflows
    import os
    import subprocess
    import sys
    from pathlib import Path

    cfg = flat_config(n=8, ny=6, e0=0.05)
    cfg["material"] = {"kind": "nonlinear", "lam": lam, "mu": mu}
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "filmstab.cli", "stability", "--config", str(write_config(tmp_path, cfg)),
            "--out", str(tmp_path / "out"), "--threads", "1"]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
    if mu == 1e300:
        assert proc.returncode == 1, proc.stderr
        assert "config error: material.mu: the square of 1e+300 overflows a float" in proc.stderr
        return
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        assert "numerical failure: " in proc.stderr
    else:
        assert (tmp_path / "out" / "stability.json").is_file()


@pytest.mark.parametrize(
    "material, path",
    [
        ({"kind": "nonlinear", "lam": 2.0, "mu": 1e160}, "material.mu"),
        ({"kind": "nonlinear", "lam": -1e160, "mu": 1.0}, "material.lam"),
        ({"kind": "linear", "lam": 1e300, "mu": 1.0}, "material.lam"),
        ({"kind": "linear", "tensor": (isotropic_tensor(2, 2.0, 1.0) * [[[[1.0, 1.0], [1.0, 1e160]]]]).tolist()},
         "material.tensor[0][0][1][1]"),
    ],
    ids=["mu-1e160", "lam-minus-1e160", "linear-lam-1e300", "tensor-entry-1e160"],
)
def test_modulus_whose_square_overflows_is_a_config_error(tmp_path, capsys, material, path):
    cfg = flat_config(n=8, ny=6, e0=0.05)
    cfg["material"] = material
    code, _ = run(tmp_path, "stability", cfg)
    assert code == 1
    assert f"config error: {path}: the square of " in capsys.readouterr().err


def test_integer_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # JSON reads the digits as an int, which float() refuses
    cfg = flat_config(n=8, ny=6, e0=0.05)
    cfg["material"] = {"kind": "nonlinear", "lam": 2.0, "mu": 10**400}
    code, _ = run(tmp_path, "stability", cfg)
    assert code == 1
    assert "config error: material.mu: must be finite" in capsys.readouterr().err


def test_modulus_whose_square_is_finite_still_runs(tmp_path):
    # 1e150 squared is 1e300: the float range holds it, and the run reports
    cfg = flat_config(n=8, ny=6, e0=0.05)
    cfg["material"] = {"kind": "nonlinear", "lam": 2.0, "mu": 1e150}
    code, out = run(tmp_path, "stability", cfg)
    assert code == 0
    assert load_report(out, "stability.json")["results"]["c0"] > 0.0


_CURVED_3D_32x20 = {
    "geometry": {"dim": 3, "n": 32, "ny": 20, "profile": {"kind": "fourier", "modes": [
        {"mode": [0, 0], "amplitude": 1.0}, {"mode": [1, 0], "amplitude": 0.05}]}},
    "material": dict(LINEAR),
    "anisotropy": dict(ISO),
    "mismatch": {"e0": 0.05},
}


def test_curved_film_past_the_memory_limit_exits_one_before_allocating(tmp_path, capsys, monkeypatch):
    import tracemalloc

    import filmstab.config as config

    # 58,368 dofs, 13.7 GB of block columns, against a limit of 8 GiB
    monkeypatch.setattr(config, "_memory_limit", lambda: 8 * 2**30)
    tracemalloc.start()
    try:
        code, out = run(tmp_path, "stability", _CURVED_3D_32x20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: geometry.n: with geometry.ny = 20" in err
    assert "58,368 dofs" in err and "13,687,062,528 bytes" in err and f"{8 * 2**30:,} bytes" in err
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.parametrize("command", ["critical-point", "stability", "oracle-check"])
def test_memory_preflight_refuses_dense_films_only(monkeypatch, command):
    import filmstab.config as config

    monkeypatch.setattr(config, "_memory_limit", lambda: config._dense_factor_bytes(2, 16, 10) - 1)
    curved = flat_config(e0=0.05)
    curved["geometry"]["profile"] = {"kind": "fourier", "modes": [{"mode": 0, "amplitude": 1.0},
                                                                  {"mode": 1, "amplitude": 0.05}]}
    substrate_modes = flat_config(e0=0.05)
    substrate_modes["mismatch"]["modes"] = [{"mode": 1, "amplitude": 0.01}]
    for cfg in (curved, substrate_modes):
        with pytest.raises(ConfigError, match="geometry.n: with geometry.ny = 10") as err:
            validate_config(cfg, command)
        assert err.value.path == "geometry.n"
    # laterally uniform films are factored per wavenumber, whatever their size
    uniform = [flat_config(e0=0.05), dict(curved, geometry=dict(curved["geometry"], profile={
        "kind": "fourier", "modes": [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.0}]}))]
    for cfg in uniform:
        assert validate_config(cfg, command) is cfg
    # one vertical row fewer fits
    curved["geometry"]["ny"] = 9
    assert validate_config(curved, command) is curved


@pytest.mark.parametrize(
    "command, analysis, anisotropy",
    [
        ("stability", None, ISO),
        ("flat-threshold", FLAT_THRESHOLD, ISO),
        ("crystalline", CRYSTALLINE, None),
        ("oracle-check", None, ISO),
    ],
    ids=["stability", "flat-threshold", "crystalline", "oracle-check"],
)
def test_flat_film_past_the_coupling_bytes_exits_one_before_allocating(tmp_path, capsys, monkeypatch,
                                                                       command, analysis, anisotropy):
    import tracemalloc

    import filmstab.config as config

    # a flat film's stability problem builds an nd x nx surface coupling:
    # 8 * 288 * 16 = 36,864 bytes on the 16 x 10 film
    need = config._coupling_bytes(2, 16, 10)
    assert need == 36_864
    monkeypatch.setattr(config, "_memory_limit", lambda: need - 1)
    cfg = flat_config(e0=0.05, analysis=analysis, anisotropy=anisotropy)
    tracemalloc.start()
    try:
        code, out = run(tmp_path, command, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: geometry.n: with geometry.ny = 10, this film has 288 dofs" in err
    assert f"surface coupling needs 36,864 bytes, more than the {need - 1:,} bytes" in err
    assert peak < 2**20
    assert not out.exists()
    # at the limit it fits, and critical-point builds no stability problem
    monkeypatch.setattr(config, "_memory_limit", lambda: need)
    assert validate_config(cfg, command) is cfg
    monkeypatch.setattr(config, "_memory_limit", lambda: need - 1)
    assert validate_config(flat_config(e0=0.05), "critical-point")


def test_memory_limit_is_the_smaller_of_physical_memory_and_rlimit_as(monkeypatch):
    import os
    import resource

    import filmstab.config as config

    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert 0 < config._memory_limit() <= physical
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**30, resource.RLIM_INFINITY))
    assert config._memory_limit() == min(2**30, physical)
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
    assert config._memory_limit() == physical


def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    import filmstab.cli as cli

    def exhausted(cfg, args):
        # raised, not provoked: the test allocates nothing large
        raise MemoryError("Unable to allocate 27.2 GiB for an array")

    monkeypatch.setitem(cli._HANDLERS, "verify-identity", exhausted)
    code = main(["verify-identity", "--dim", "2", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure: out of memory: Unable to allocate 27.2 GiB for an array" in err


def test_verify_identity_counterexample_exits_three(tmp_path, capsys, monkeypatch):
    import filmstab.polyident as polyident

    failed = polyident.IdentityReport(
        dim=3,
        verified=False,
        trials=1,
        sign=0,
        degree_bound=21,
        failure_bound=1.0,
        exact=False,
        counterexample={"n1": 1},
    )
    monkeypatch.setattr(polyident, "verify_identity", lambda *a, **k: failed)
    code = main(["verify-identity", "--dim", "3", "--out", str(tmp_path)])
    assert code == 3
    assert "counterexample" in capsys.readouterr().err


# -- oracle-check ---------------------------------------------------------------------


def test_oracle_check_pure_surface_case(tmp_path, capsys):
    cfg = flat_config(n=16, ny=12, A=[[0.0]], analysis={"modes": [1], "rel_tol": 1e-6})
    code, out = run(tmp_path, "oracle-check", cfg)
    assert code == 0
    assert "relative error" in capsys.readouterr().out
    report = load_report(out, "oracle_check.json")
    assert report["results"]["worst_rel_error"] < 1e-6


def test_oracle_check_mismatch_exits_three(tmp_path, capsys):
    cfg = flat_config(n=16, ny=12, e0=0.05, analysis={"modes": [1], "rel_tol": 1e-15})
    code, _ = run(tmp_path, "oracle-check", cfg)
    assert code == 3
    assert "oracle mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("fd_step", [None, 0.01])
def test_oracle_check_nonlinear_curved_film(tmp_path, capsys, fd_step):
    # the re-solves on this film end where the energy test only sees rounding
    modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.01}]
    analysis = {"modes": [1]} if fd_step is None else {"modes": [1], "fd_step": fd_step}
    cfg = flat_config(n=32, ny=24, e0=0.05, analysis=analysis)
    cfg["geometry"]["profile"] = {"kind": "fourier", "modes": modes}
    cfg["material"] = {"kind": "nonlinear", "lam": 2.0, "mu": 1.0}
    code, out = run(tmp_path, "oracle-check", cfg)
    assert code == 0, capsys.readouterr().err
    assert load_report(out, "oracle_check.json")["results"]["worst_rel_error"] <= 1e-3


# -- global flags ---------------------------------------------------------------------


def test_threads_flag_seeds_environment(tmp_path, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code, _ = run(tmp_path, "critical-point", flat_config(A=[[0.0]]), extra=["--threads", "2"])
    assert code == 0
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_environment_overrides_threads_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    code, _ = run(tmp_path, "critical-point", flat_config(A=[[0.0]]), extra=["--threads", "2"])
    assert code == 0
    import os

    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_seed_recorded_in_report(tmp_path):
    code, out = run(tmp_path, "stability", flat_config(e0=0.05), extra=["--seed", "11"])
    assert code == 0
    assert load_report(out, "stability.json")["seed"] == 11
