"""End-to-end checks of the command line interface.

Everything runs in-process through main(argv) so exit codes and the
files left on disk are observed exactly as a shell user would see them.
"""

import json
import math
import os

import numpy as np
import pytest

from dorder import cli
from dorder.cli import main
from dorder.dosys import system_from_dict
from dorder.oracles import steady_state_variance_frequency, variance_double_integrator


INTEGRATOR = {
    "schema_version": 1,
    "horizon": 2.0,
    "terms": [
        {"side": "lhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 1.0},
        {"side": "rhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 0.0},
    ],
    "input": {"form": "constant", "value": 1.0},
}

WHITE_RELAX = {
    "schema_version": 1,
    "horizon": 2.0,
    "terms": [
        {"side": "lhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 1.0},
        {"side": "lhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 0.0},
        {"side": "rhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 0.0},
    ],
    "forcing": {
        "mean": {"form": "constant", "value": 0.0},
        "covariance": {"form": "white", "intensity": 1.0},
    },
}

RANDOM_GAIN = {
    "schema_version": 1,
    "horizon": 1.0,
    "terms": [
        {"side": "lhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 1.0},
        {"side": "rhs", "sense": "derivative", "param": "k", "kind": "point", "order": 0.0},
    ],
    "random_params": [
        {"name": "k", "distribution": "uniform", "lo": 0.5, "hi": 1.5, "quad_order": 4},
    ],
    "forcing": {
        "mean": {"form": "constant", "value": 1.0},
        "covariance": {"form": "white", "intensity": 0.0},
    },
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(workdir, cfg, name="case.json"):
    path = workdir / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(c) if c else None for c in ln.split(",")] for ln in lines[1:]]
    cols = {h: [r[i] for r in rows] for i, h in enumerate(header)}
    return header, cols


# ---------------------------------------------------------------------------
# solve

def test_solve_integrator_desk_check(workdir):
    cfg = write_config(workdir, INTEGRATOR)
    assert main(["solve", cfg, "--n-basis", "4", "--output", "out.csv"]) == 0
    header, cols = read_csv(workdir / "out.csv")
    assert header == ["t", "y"]
    assert cols["t"] == [0.25, 0.75, 1.25, 1.75]
    # integrating a unit step reproduces the midpoints exactly
    assert cols["y"] == [0.25, 0.75, 1.25, 1.75]
    manifest = json.loads((workdir / "out.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["schema_version"] == 1
    assert manifest["flags"]["n_basis"] == 4
    assert manifest["flags"]["horizon"] == 2.0


def test_solve_output_uses_lf_endings(workdir):
    cfg = write_config(workdir, INTEGRATOR)
    assert main(["solve", cfg, "--n-basis", "4", "--output", "out.csv"]) == 0
    raw = (workdir / "out.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_solve_default_output_naming(workdir):
    cfg = write_config(workdir, INTEGRATOR, "ramp.json")
    assert main(["solve", cfg, "--n-basis", "8"]) == 0
    assert (workdir / "ramp.solve.csv").exists()
    assert (workdir / "ramp.solve.manifest.json").exists()


def test_solve_table_input(workdir):
    cfg = dict(INTEGRATOR)
    cfg["input"] = {"form": "table", "t": [0.0, 2.0], "u": [0.0, 2.0]}
    path = write_config(workdir, cfg)
    assert main(["solve", path, "--n-basis", "64", "--output", "out.csv"]) == 0
    _, cols = read_csv(workdir / "out.csv")
    t = np.array(cols["t"])
    assert np.allclose(cols["y"], t * t / 2.0, atol=2e-3)


def test_solve_horizon_flag_overrides_config(workdir):
    cfg = write_config(workdir, INTEGRATOR)
    assert main(["solve", cfg, "--n-basis", "4", "--horizon", "1.0",
                 "--output", "out.csv"]) == 0
    _, cols = read_csv(workdir / "out.csv")
    assert cols["t"] == [0.125, 0.375, 0.625, 0.875]
    manifest = json.loads((workdir / "out.manifest.json").read_text())
    assert manifest["flags"]["horizon"] == 1.0


def test_solve_missing_horizon(workdir, capsys):
    cfg = {k: v for k, v in INTEGRATOR.items() if k != "horizon"}
    path = write_config(workdir, cfg)
    assert main(["solve", path, "--output", "out.csv"]) == 1
    assert "horizon" in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


def test_solve_reruns_are_byte_identical(workdir):
    cfg = write_config(workdir, INTEGRATOR)
    assert main(["solve", cfg, "--n-basis", "16", "--output", "a.csv"]) == 0
    assert main(["solve", cfg, "--n-basis", "16", "--output", "b.csv"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
    ma = (workdir / "a.manifest.json").read_text().replace('"a.csv"', '"b.csv"')
    assert ma == (workdir / "b.manifest.json").read_text()


# ---------------------------------------------------------------------------
# config failures

def test_malformed_json_leaves_no_output(workdir, capsys):
    path = workdir / "broken.json"
    path.write_text('{"schema_version": 1,', encoding="utf-8")
    assert main(["solve", str(path), "--output", "out.csv"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


def test_wrong_schema_version(workdir, capsys):
    cfg = dict(INTEGRATOR)
    cfg["schema_version"] = 2
    path = write_config(workdir, cfg)
    assert main(["solve", path]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_unknown_term_field(workdir, capsys):
    cfg = json.loads(json.dumps(INTEGRATOR))
    cfg["terms"][0]["colour"] = "red"
    path = write_config(workdir, cfg)
    assert main(["solve", path]) == 1
    assert "colour" in capsys.readouterr().err


def test_missing_config_file(workdir, capsys):
    assert main(["solve", str(workdir / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def _example(n):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "configs", f"example{n}.json")) as fh:
        return json.load(fh)


def _set(*path):
    """Config edit that sets the value at `path` (last item is the value)."""
    *keys, last, value = path

    def edit(cfg):
        for k in keys:
            cfg = cfg[k]
        cfg[last] = value
    return edit


def _gaussian_a(**kw):
    """Config edit making ex5's parameter 'a' gaussian with the given fields."""
    return _set("random_params", 0, dict(
        {"name": "a", "distribution": "gaussian", "mean": 10.0, "stddev": 0.3}, **kw))


def _poly(coeffs):
    return {"form": "poly", "coeffs": coeffs}


MC_SMALL = ["--n-grid", "8", "--samples", "4"]

# (command, example config, edit, extra flags)
MALFORMED = {
    "horizon": ("stoch", 4, _set("horizon", "abc"), []),
    "covariance_table_without_k": (
        "stoch", 4, _set("forcing", "covariance", {"form": "table", "t": [0, 1]}), []),
    "mean_table_without_u": (
        "stoch", 4, _set("forcing", "mean", {"form": "table", "t": [0, 1]}), []),
    "mean_value_stoch": ("stoch", 4, _set("forcing", "mean", "value", "x"), []),
    "mean_value_mc": ("mc", 4, _set("forcing", "mean", "value", "x"), MC_SMALL),
    "covariance_string": ("stoch", 4, _set("forcing", "covariance", "white"), []),
    "verify_tol_rel": ("stoch", 4, _set("verify", "tol_rel", "abc"), ["--verify"]),
    "verify_t_min": ("stoch", 4, _set("verify", "t_min", "abc"), ["--verify"]),
    "input_table_without_u": ("solve", 1, _set("input", {"form": "table", "t": [0, 1]}), []),
    "verify_window": ("stoch", 3, _set("verify", "window", [1]), ["--verify"]),
    "input_string": ("solve", 1, _set("input", "delta"), []),
    "initial": ("solve", 2, _set("initial", "abc"), []),
    "initial_infinite": ("solve", 2, _set("initial", math.inf), []),
    # the shifted solve's shape: an LHS identity term and one identity RHS term
    "initial_without_lhs_identity": ("solve", 2, lambda cfg: cfg["terms"].pop(1), []),
    "initial_two_rhs_terms": ("solve", 2, lambda cfg: cfg["terms"].append(
        {"side": "rhs", "sense": "integral", "coeff": 1.0, "kind": "point", "order": 0.5}),
        []),
    "initial_two_rhs_terms_verify": ("solve", 2, lambda cfg: cfg["terms"].append(
        {"side": "rhs", "sense": "integral", "coeff": 1.0, "kind": "point", "order": 0.5}),
        ["--verify"]),
    "verify_n_grid": ("solve", 2, _set("verify", "n_grid", -4), ["--verify"]),
    "quad_points_zero": ("solve", 2, lambda cfg: None, ["--quad-points", "0"]),
    "n_basis_zero": ("solve", 1, lambda cfg: None, ["--n-basis", "0"]),
    "solve_random_params": ("solve", 5, lambda cfg: None, []),
    "impulse_integral_empty_window": (
        "solve", 1, _set("verify", "window", [6, 7]), ["--verify"]),
    "ml_variance_empty_window": ("stoch", 3, _set("verify", "window", [6, 7]), ["--verify"]),
    # the white-noise references scale by the intensity q and cannot check
    # other forcings, q = 0 or a system with random parameters
    "ml_variance_sinc": ("stoch", 3, _set("forcing", "covariance", {"form": "sinc"}),
                         ["--verify"]),
    "ml_variance_zero_intensity": (
        "stoch", 3, _set("forcing", "covariance", "intensity", 0.0), ["--verify"]),
    "h2_plateau_sinc": ("stoch", 4, _set("forcing", "covariance", {"form": "sinc"}),
                        ["--verify"]),
    "h2_plateau_zero_intensity": (
        "stoch", 4, _set("forcing", "covariance", "intensity", 0.0), ["--verify"]),
    "h2_plateau_random_params": ("stoch", 5, lambda cfg: cfg.update(
        forcing=_example(4)["forcing"], verify=_example(4)["verify"]), ["--verify"]),
    # NaN and Infinity, which JSON readers accept, are config errors
    "white_intensity_nan_stoch": (
        "stoch", 4, _set("forcing", "covariance", "intensity", math.nan), []),
    "white_intensity_infinite_stoch": (
        "stoch", 4, _set("forcing", "covariance", "intensity", math.inf), []),
    "white_intensity_nan_mc": (
        "mc", 4, _set("forcing", "covariance", "intensity", math.nan), MC_SMALL),
    "white_intensity_infinite_mc": (
        "mc", 4, _set("forcing", "covariance", "intensity", math.inf), MC_SMALL),
    "sinc_variance_nan": ("stoch", 5, _set("forcing", "covariance", "variance", math.nan), []),
    "sinc_variance_infinite_mc": (
        "mc", 5, _set("forcing", "covariance", "variance", math.inf), MC_SMALL),
    "sinc_width_nan": ("stoch", 5, _set("forcing", "covariance", "width", math.nan), []),
    "sinc_width_infinite": ("stoch", 5, _set("forcing", "covariance", "width", math.inf), []),
    "mean_value_nan": ("stoch", 4, _set("forcing", "mean", "value", math.nan), []),
    "mean_value_infinite_mc": ("mc", 4, _set("forcing", "mean", "value", -math.inf), MC_SMALL),
    "input_value_nan": ("solve", 2, _set("input", "value", math.nan), []),
    "input_value_infinite": ("solve", 2, _set("input", "value", math.inf), []),
    "initial_nan": ("solve", 2, _set("initial", math.nan), []),
    "input_table_t_nan": ("solve", 2, _set(
        "input", {"form": "table", "t": [0, math.nan, 2], "u": [1, 1, 1]}), ["--verify"]),
    "input_table_u_nan": ("solve", 2, _set(
        "input", {"form": "table", "t": [0, 1, 2], "u": [1, math.nan, 1]}), ["--verify"]),
    "covariance_table_k_nan": ("stoch", 4, _set("forcing", "covariance", {
        "form": "table", "t": [0, 5], "k": [[1, 0], [0, math.nan]]}), []),
    # every number of the verify block
    "verify_tol_abs_nan": ("solve", 2, _set("verify", "tol_abs", math.nan), ["--verify"]),
    "verify_n_grid_nan": ("solve", 2, _set("verify", "n_grid", math.nan), ["--verify"]),
    "verify_window_nan": ("solve", 1, _set("verify", "window", [math.nan, 5]), ["--verify"]),
    "verify_window_infinite": (
        "stoch", 3, _set("verify", "window", [0.5, math.inf]), ["--verify"]),
    "verify_tol_rel_nan_window": ("stoch", 3, _set("verify", "tol_rel", math.nan), ["--verify"]),
    "verify_ml_shape_nan": ("stoch", 3, _set("verify", "alpha1", math.nan), ["--verify"]),
    "verify_t_min_nan": ("stoch", 4, _set("verify", "t_min", math.nan), ["--verify"]),
    "verify_tol_rel_infinite_h2": (
        "stoch", 4, _set("verify", "tol_rel", math.inf), ["--verify"]),
    "verify_tol_rel_nan_refinement": (
        "stoch", 5, _set("verify", "tol_rel", math.nan), ["--verify"]),
    # refining the cubature of a system with no random parameters checks nothing
    "colloc_refinement_no_random_params": (
        "stoch", 4, _set("verify", {"kind": "colloc_refinement"}), ["--verify"]),
    # the system description, before any numeric work
    "gaussian_mean_nan": ("stoch", 5, _gaussian_a(mean=math.nan), []),
    "gaussian_mean_infinite_mc": ("mc", 5, _gaussian_a(mean=math.inf), MC_SMALL),
    "gaussian_stddev_infinite": ("stoch", 5, _gaussian_a(stddev=math.inf), []),
    "uniform_hi_infinite": ("stoch", 5, _set("random_params", 0, "hi", math.inf), []),
    "uniform_hi_infinite_mc": ("mc", 5, _set("random_params", 0, "hi", math.inf), MC_SMALL),
    "quad_order_fractional": ("stoch", 5, _set("random_params", 0, "quad_order", 2.5), []),
    "term_lower_infinite": ("stoch", 5, _set("terms", 1, "lower", -math.inf), []),
    "term_upper_infinite_mc": ("mc", 5, _set("terms", 1, "upper", math.inf), MC_SMALL),
    "quad_points_fractional": ("stoch", 5, _set("terms", 1, "quad_points", 2.5), []),
    "density_unknown_form": ("stoch", 5, _set("terms", 1, "density", {"form": "weird"}), []),
    "density_unknown_form_mc": (
        "mc", 5, _set("terms", 1, "density", {"form": "weird"}), MC_SMALL),
    "density_poly_empty": ("stoch", 5, _set("terms", 1, "density", _poly([])), []),
    "density_poly_string": ("stoch", 5, _set("terms", 1, "density", _poly("ab")), []),
    "density_poly_missing": ("stoch", 5, _set("terms", 1, "density", {"form": "poly"}), []),
    "density_poly_infinite": (
        "stoch", 5, _set("terms", 1, "density", _poly([1, math.inf])), []),
    # a field of the other term kind would have no effect
    "point_term_distributed_fields": ("solve", 2, lambda cfg: cfg["terms"][1].update(
        quad_points=2.5, lower="abc", density={"form": "weird"}), []),
    "point_term_quad_points": ("solve", 2, _set("terms", 1, "quad_points", 2.5), []),
    "point_term_lower": ("solve", 2, _set("terms", 1, "lower", "abc"), []),
    "point_term_upper": ("solve", 2, _set("terms", 1, "upper", 1.0), []),
    "point_term_density": ("solve", 2, _set("terms", 1, "density", {"form": "weird"}), []),
    "point_term_density_mc": (
        "mc", 5, _set("terms", 0, "density", {"form": "constant"}), MC_SMALL),
    "distributed_term_order": ("stoch", 5, _set("terms", 1, "order", 0.85), []),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_one_before_writing(workdir, capsys, case):
    command, example, edit, extra = MALFORMED[case]
    cfg = _example(example)
    edit(cfg)
    path = write_config(workdir, cfg)
    argv = [command, path, "--output", "out.csv"]
    if command != "mc" and "--n-basis" not in extra:
        argv += ["--n-basis", "16"]
    assert main(argv + extra) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(os.listdir(workdir)) == ["case.json"]


def test_h2_plateau_reference_scales_with_intensity(workdir):
    cfg = _example(4)
    cfg["forcing"]["covariance"]["intensity"] = 2.0
    path = write_config(workdir, cfg)
    assert main(["stoch", path, "--n-basis", "128", "--verify", "--output", "out.csv"]) == 0
    report = json.loads((workdir / "out.manifest.json").read_text())["verify"]
    unit = steady_state_variance_frequency(system_from_dict(cfg))
    assert report["reference"] == 2.0 * unit
    assert report["plateau"] > unit


def test_ml_variance_reference_scales_with_intensity(workdir):
    cfg = _example(3)
    cfg["forcing"]["covariance"]["intensity"] = 2.0
    cfg["verify"]["tol_rel"] = 0.05  # N=128 reads 3.0% at any intensity
    path = write_config(workdir, cfg)
    assert main(["stoch", path, "--n-basis", "128", "--verify", "--output", "out.csv"]) == 0
    _, cols = read_csv(workdir / "out.csv")
    assert cols["oracle_variance"][-1] == 2.0 * variance_double_integrator(cols["t"][-1])


def test_relaxation_with_zero_rhs_coefficient_verifies(workdir):
    # b = 0 leaves y(0) = y0 relaxing from rest; the GL reference marches
    # the unit-RHS system under b u - c y0, so it never divides by b
    cfg = _example(2)
    paths = {}
    for b in (1.0, 0.0):
        cfg["terms"][2]["coeff"] = b
        paths[b] = write_config(workdir, cfg, f"b{b:g}.json")
        assert main(["solve", paths[b], "--n-basis", "64", "--verify",
                     "--output", f"b{b:g}.csv"]) == 0
    # the input is 0, so b multiplies nothing: both runs give the same y
    assert read_csv(workdir / "b0.csv")[1]["y"] == read_csv(workdir / "b1.csv")[1]["y"]


def test_non_finite_result_is_exit_two(workdir, capsys):
    # integrating a finite input of 1e308 up to t = 2 overflows: no inf
    # or NaN cell is ever written
    cfg = json.loads(json.dumps(INTEGRATOR))
    cfg["input"]["value"] = 1e308
    path = write_config(workdir, cfg)
    assert main(["solve", path, "--n-basis", "16", "--output", "out.csv"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert sorted(os.listdir(workdir)) == ["case.json"]


def old_csv_text(header, columns):
    # the formatter the CSV output must stay byte-identical to
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join("" if col[i] is None else repr(float(col[i]))
                              for col in columns))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("example, command", [
    (1, "solve"), (2, "solve"), (3, "stoch"), (4, "stoch"), (5, "stoch")])
def test_csv_bytes_match_the_elementwise_formatter(workdir, monkeypatch, example, command):
    seen = []
    new = cli._csv_text

    def record(header, columns):
        seen.append(old_csv_text(header, columns))
        return new(header, columns)

    monkeypatch.setattr(cli, "_csv_text", record)
    path = write_config(workdir, _example(example))
    assert main([command, path, "--n-basis", "16", "--verify", "--output", "out.csv"]) in (0, 3)
    assert (workdir / "out.csv").read_text(encoding="utf-8") == seen[0]
    if example == 1:  # the impulse window leaves blank cells before 0.2
        assert ",," in seen[0] or ",\n" in seen[0]


def test_solver_failure_is_exit_two(workdir, capsys):
    cfg = json.loads(json.dumps(INTEGRATOR))
    cfg["terms"].insert(1, {"side": "lhs", "sense": "derivative",
                            "coeff": -1.0, "kind": "point", "order": 1.0})
    path = write_config(workdir, cfg)
    assert main(["solve", path, "--n-basis", "8", "--output", "out.csv"]) == 2
    assert "singular" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verification plumbing

def test_verify_without_block(workdir, capsys):
    cfg = write_config(workdir, INTEGRATOR)
    assert main(["solve", cfg, "--verify"]) == 1
    assert "verify" in capsys.readouterr().err


def test_verify_kind_command_mismatch(workdir, capsys):
    cfg = json.loads(json.dumps(WHITE_RELAX))
    cfg["verify"] = {"kind": "ml_variance", "window": [0.5, 2.0], "tol_rel": 0.02}
    cfg["input"] = {"form": "constant", "value": 1.0}
    path = write_config(workdir, cfg)
    assert main(["solve", path, "--verify"]) == 1
    assert "not usable here" in capsys.readouterr().err


def test_verify_failure_still_writes_outputs(workdir, capsys):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "configs", "example1.json")) as fh:
        cfg = json.load(fh)
    cfg["verify"]["tol_abs"] = 1e-9
    path = write_config(workdir, cfg)
    assert main(["solve", path, "--n-basis", "64", "--verify",
                 "--output", "out.csv"]) == 3
    assert "verification FAILED" in capsys.readouterr().err
    assert (workdir / "out.csv").exists()
    manifest = json.loads((workdir / "out.manifest.json").read_text())
    assert manifest["verify"]["pass"] is False
    assert manifest["verify"]["max_abs_error"] > 1e-9


def test_verify_pass_recorded_in_manifest(workdir):
    cfg = json.loads(json.dumps(WHITE_RELAX))
    cfg["horizon"] = 5.0
    cfg["terms"] = [
        {"side": "lhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 0.75},
        {"side": "lhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 1.0},
        {"side": "rhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 0.0},
    ]
    cfg["verify"] = {"kind": "ml_variance", "window": [0.5, 5.0], "tol_rel": 0.05,
                     "a1": 1.0, "a2": 1.0, "alpha1": 0.75, "alpha2": 1.0}
    path = write_config(workdir, cfg)
    assert main(["stoch", path, "--n-basis", "128", "--verify",
                 "--output", "out.csv"]) == 0
    manifest = json.loads((workdir / "out.manifest.json").read_text())
    assert manifest["verify"]["pass"] is True
    header, cols = read_csv(workdir / "out.csv")
    assert "oracle_variance" in header
    # oracle column is blank outside the comparison window
    assert cols["oracle_variance"][0] is None
    assert cols["oracle_variance"][-1] is not None


# ---------------------------------------------------------------------------
# stoch

def test_stoch_zero_mean_input_gives_zero_mean_output(workdir):
    cfg = write_config(workdir, WHITE_RELAX)
    assert main(["stoch", cfg, "--n-basis", "64", "--output", "out.csv"]) == 0
    header, cols = read_csv(workdir / "out.csv")
    assert header == ["t", "mean", "variance"]
    assert np.max(np.abs(cols["mean"])) <= 1e-12
    v = np.array(cols["variance"])
    assert np.all(v >= 0.0)
    assert v[-1] > 0.1


def test_stoch_requires_forcing_block(workdir, capsys):
    cfg = write_config(workdir, INTEGRATOR)
    assert main(["stoch", cfg]) == 1
    assert "forcing" in capsys.readouterr().err


def test_stoch_random_gain_moments(workdir):
    cfg = write_config(workdir, RANDOM_GAIN)
    assert main(["stoch", cfg, "--n-basis", "32", "--output", "out.csv"]) == 0
    _, cols = read_csv(workdir / "out.csv")
    t = np.array(cols["t"])
    assert np.allclose(cols["mean"], t, atol=1e-10)
    assert np.allclose(cols["variance"], t * t / 12.0, rtol=1e-8, atol=1e-12)


def test_stoch_quad_points_flag_in_manifest(workdir):
    cfg = write_config(workdir, WHITE_RELAX)
    assert main(["stoch", cfg, "--n-basis", "32", "--quad-points", "7",
                 "--output", "out.csv"]) == 0
    manifest = json.loads((workdir / "out.manifest.json").read_text())
    assert manifest["flags"]["quad_points"] == 7


@pytest.mark.parametrize("example,n,rank,nodes", [(4, 64, 64, 1), (5, 64, 8, 25),
                                                  (5, 512, 7, 25)])
def test_stoch_manifest_diagnostics(workdir, example, n, rank, nodes):
    # ex4 is white noise, ex5 a sinc kernel
    factor = "diagonal" if example == 4 else "pivoted_cholesky"
    cfg = _example(example)
    del cfg["verify"]
    path = write_config(workdir, cfg)
    assert main(["stoch", path, "--n-basis", str(n), "--output", "out.csv"]) == 0
    diagnostics = json.loads((workdir / "out.manifest.json").read_text())["diagnostics"]
    margin = diagnostics.pop("psd_margin")
    assert diagnostics == {"covariance_rank": rank, "covariance_factor": factor,
                           "rank_rtol": n * np.finfo(float).eps,
                           "cubature_nodes": nodes}
    # white noise is its own factor; a pivoted factor's N max|C - F F^T| / max|C|
    # certifies C only up to _PSD_RTOL
    assert margin == 0.0 if factor == "diagonal" else 0.0 < margin <= 1e-8


def test_stoch_reruns_are_byte_identical(workdir):
    cfg = write_config(workdir, _example(5))
    for name in ("a", "b"):
        assert main(["stoch", cfg, "--n-basis", "64", "--verify", "--output",
                     f"{name}.csv"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
    ma = (workdir / "a.manifest.json").read_text().replace('"a.csv"', '"b.csv"')
    assert ma == (workdir / "b.manifest.json").read_text()


def test_solve_and_mc_manifests_have_no_diagnostics(workdir):
    assert main(["solve", write_config(workdir, INTEGRATOR), "--n-basis", "8",
                 "--output", "s.csv"]) == 0
    assert main(["mc", write_config(workdir, WHITE_RELAX), *MC_SMALL,
                 "--output", "m.csv"]) == 0
    for stem in ("s", "m"):
        assert "diagnostics" not in json.loads((workdir / f"{stem}.manifest.json").read_text())


# ---------------------------------------------------------------------------
# mc

def test_mc_seeded_rerun_byte_identical(workdir):
    cfg = write_config(workdir, WHITE_RELAX)
    args = ["mc", cfg, "--n-grid", "32", "--samples", "200", "--seed", "99"]
    assert main(args + ["--output", "a.csv"]) == 0
    assert main(args + ["--output", "b.csv"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_mc_columns_and_seed_sensitivity(workdir):
    cfg = write_config(workdir, WHITE_RELAX)
    assert main(["mc", cfg, "--n-grid", "32", "--samples", "100",
                 "--seed", "1", "--output", "a.csv"]) == 0
    assert main(["mc", cfg, "--n-grid", "32", "--samples", "100",
                 "--seed", "2", "--output", "b.csv"]) == 0
    header, ca = read_csv(workdir / "a.csv")
    _, cb = read_csv(workdir / "b.csv")
    assert header == ["t", "mean", "variance", "mean_stderr", "variance_stderr"]
    assert ca["t"] == cb["t"]
    assert ca["variance"] != cb["variance"]
    manifest = json.loads((workdir / "a.manifest.json").read_text())
    assert manifest["flags"]["seed"] == 1
    assert manifest["flags"]["samples"] == 100


def test_mc_halton_smoke(workdir):
    cfg = write_config(workdir, RANDOM_GAIN)
    assert main(["mc", cfg, "--n-grid", "16", "--samples", "64",
                 "--halton", "--output", "h.csv"]) == 0
    manifest = json.loads((workdir / "h.manifest.json").read_text())
    assert manifest["flags"]["halton"] is True
    _, cols = read_csv(workdir / "h.csv")
    assert abs(cols["mean"][-1] - 1.0) < 0.05


def test_mc_rejects_bad_sample_count(workdir, capsys):
    cfg = write_config(workdir, WHITE_RELAX)
    assert main(["mc", cfg, "--samples", "1"]) == 1
    assert "--samples" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle

def test_oracle_ml_prints_value(workdir, capsys):
    assert main(["oracle", "ml", "1.0", "1.0", "0.7"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.exp(0.7)) <= 1e-12


def test_oracle_impulse_multiple_times(workdir, capsys):
    assert main(["oracle", "impulse1", "0.2", "1.0"]) == 0
    vals = [float(v) for v in capsys.readouterr().out.split()]
    assert abs(vals[0] - 0.3760252715672614) <= 1e-9
    assert abs(vals[1] - 0.2155776840766989) <= 1e-9


def test_oracle_variance_default_parameters(workdir, capsys):
    assert main(["oracle", "variance3", "1.0"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.281180137124294) <= 1e-9


@pytest.mark.parametrize("argv", [["ml", "1", "1", "nan"], ["ml", "1", "nan", "1"],
                                  ["impulse1", "nan"],
                                  ["impulse1", "inf"], ["variance3", "nan"],
                                  ["variance3", "inf"]])
def test_oracle_non_finite_argument_exits_one(workdir, capsys, argv):
    assert main(["oracle"] + argv) == 1
    assert "must be finite" in capsys.readouterr().err


def test_oracle_unknown_name(workdir, capsys):
    assert main(["oracle", "nope"]) == 1
    err = capsys.readouterr().err
    assert "impulse1" in err and "h2norm4" in err


def test_oracle_wrong_arity(workdir, capsys):
    assert main(["oracle", "ml", "1.0"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_nonzero(workdir, capsys):
    assert main(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err
