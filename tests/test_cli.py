"""Tests for run configuration, table/SVG emission, and the CLI commands."""

import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from condmc.bench import _conditional_setup, _loss_slope_closed_form
from condmc.cli import main
from condmc.errors import ConfigError
from condmc.optimizer import counterfactual_gradient
from condmc.runconfig import RunConfig, parse_config_file, resolve_config
from condmc.sde import ou_conditional_second_moment
from condmc.svgplot import render_line_plot
from condmc.tableio import ResultTable, format_cell


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def read_manifest(path):
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# configuration


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment line\n"
        "paths = 1234   # trailing comment\n"
        "theta = 2.5\n"
        "\n"
        "t_values = 1,2,4\n"
        "estimators = sf,wd\n",
        encoding="utf-8")
    values = parse_config_file(str(cfg))
    assert values == {"paths": 1234, "theta": 2.5,
                      "t_values": (1.0, 2.0, 4.0), "estimators": ("sf", "wd")}


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_config_file_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_config_file_rejects_bad_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("paths = many\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_flags_override_file_which_overrides_defaults():
    config = resolve_config("estimate-loss", {"paths": 50, "theta": 2.0},
                            {"paths": 700, "seed": None})
    assert config.paths == 700     # flag wins
    assert config.theta == 2.0     # file wins over the 1.0 default
    assert config.steps == 200     # untouched default


def test_per_command_defaults():
    loss = resolve_config("estimate-loss", {}, {})
    variance = resolve_config("bench-variance", {}, {})
    assert loss.mode == "random-k" and loss.steps == 200
    assert variance.mode == "sum-over-k" and variance.steps == 50


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        resolve_config("estimate-loss", {"paths": 0}, {})
    with pytest.raises(ConfigError):
        resolve_config("estimate-loss", {"mode": "sideways"}, {})
    with pytest.raises(ConfigError):
        resolve_config("optimize", {"theta_min": 3.0, "theta_max": 0.2}, {})
    with pytest.raises(ConfigError):
        resolve_config("bench-variance", {"t_values": (0.0, 2.0)}, {})
    with pytest.raises(ConfigError):
        resolve_config("bench-variance", {"estimators": ("wd", "mystery")}, {})
    # a repeated sweep value once ended in a polyfit traceback or a
    # meaningless fitted slope
    for key, value in (("t_values", (1.0, 1.0)), ("n_values", (200, 200)),
                       ("estimators", ("wd", "wd"))):
        with pytest.raises(ConfigError, match="must not repeat an entry"):
            resolve_config("bench-variance", {key: value}, {})


@pytest.mark.parametrize("command, line", [
    ("bench-variance", "estimators = wd,wd"), ("bench-variance", "t_values = 1,1"),
    ("bench-convergence", "n_values = 200,200")])
def test_repeated_sweep_value_is_config_error(tmp_path, capsys, command, line):
    config = tmp_path / "c.txt"
    config.write_text(line + "\n", encoding="utf-8")
    code = main([command, "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_echo_covers_every_field():
    config = resolve_config("bench-variance", {}, {})
    echo = config.echo()
    assert echo["command"] == "bench-variance"
    assert echo["t_values"] == "2.0,4.0,8.0,16.0"
    assert set(echo) == {f.name for f in
                         __import__("dataclasses").fields(RunConfig)}


# ---------------------------------------------------------------------------
# tables and plots


def test_table_csv_round_trips_floats():
    values = (0.1 + 0.2, 1.0 / 3.0, -1.2345678901234567e-13)
    table = ResultTable(schema=("a", "b", "c"), rows=[values])
    text = table.to_csv()
    assert "\r" not in text
    header, cells = text.strip().split("\n")
    assert header == "a,b,c"
    for cell, original in zip(cells.split(","), values):
        assert float(cell) == original


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ResultTable(schema=("a", "b"), rows=[(1.0,)])


def test_format_cell_types():
    assert format_cell(3) == "3"
    assert format_cell(np.int64(3)) == "3"
    assert format_cell(0.5) == "0.5"
    assert format_cell(np.float64(0.5)) == "0.5"
    assert format_cell("tag") == "tag"


def test_svg_renders_parseable_xml():
    text = render_line_plot(
        [("one", [1, 10, 100], [3.0, 2.0, 1.0]),
         ("two", [1, 10, 100], [1.0, 2.0, 3.0])],
        title="demo", x_label="x", y_label="y", log_x=True)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert text.count("<polyline") == 2
    assert text.count("<circle") == 6
    assert "demo" in text and "one" in text and "two" in text


def test_svg_single_point_series():
    text = render_line_plot([("lonely", [2.0], [5.0])])
    ET.fromstring(text)
    assert text.count("<circle") == 1


def test_svg_rejects_bad_series():
    with pytest.raises(ValueError):
        render_line_plot([("bad", [1, 2], [1.0])])
    with pytest.raises(ValueError):
        render_line_plot([("bad", [0.0, 1.0], [1.0, 2.0])], log_x=True)


# ---------------------------------------------------------------------------
# commands end to end


def test_estimate_loss_command(tmp_path):
    out = tmp_path / "run"
    code = main(["estimate-loss", "--paths", "4000", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "estimate_loss.csv")
    assert header == ["estimate", "std_error", "acceptance_fraction",
                      "closed_form_reference", "n_paths", "seed"]
    (row,) = rows
    estimate, std_error = float(row[0]), float(row[1])
    reference = float(row[3])
    assert abs(estimate - reference) <= 3 * std_error + 0.01
    assert 0.0 < float(row[2]) < 1.0
    assert row[4] == "4000" and row[5] == "3"
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["command"] == "estimate-loss"
    assert "wall_time_s" in manifest and "git_describe" in manifest
    # the denominator's z-score goes to the manifest only, never to the CSV
    assert float(manifest["denominator_z"]) >= 5.0


@pytest.mark.parametrize("seed", ["-3", "18446744073709551616", "18446744073709551621"])
def test_estimate_loss_rejects_seeds_outside_64_bits(tmp_path, capsys, seed):
    # 2**64 + 5 used to give the estimate of --seed 5, and -3 used to run
    code = main(["estimate-loss", "--paths", "200", "--seed", seed, "--out", str(tmp_path)])
    assert code == 2
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "estimate_loss.csv").exists()


def test_config_accepts_the_largest_64_bit_seed():
    assert resolve_config("estimate-loss", {}, {"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1
    with pytest.raises(ConfigError):
        resolve_config("optimize", {"seed": -1}, {})


# a config built in Python once passed 2.5 steps or 1000.5 paths; the CLI
# parses these fields with int() and is not affected
@pytest.mark.parametrize("key, value", [
    ("steps", 2.5), ("paths", 1000.5), ("seed", 1.0), ("replications", 3.5),
    ("iterations", np.float64(50.0)), ("n_values", (100, 1000.5)), ("paths", "1000"),
])
def test_run_config_rejects_integer_fields_that_are_not_integers(key, value):
    with pytest.raises(ConfigError, match="must be an integer|must be integers"):
        RunConfig("estimate-loss", **{key: value}).validate()


def test_run_config_takes_numpy_integers():
    config = RunConfig("estimate-loss", steps=np.int64(200), paths=np.int32(1000),
                       n_values=(np.int64(100), 1_000)).validate()
    assert config.echo() == RunConfig("estimate-loss", steps=200, paths=1000,
                                      n_values=(100, 1_000)).echo()


def test_estimate_loss_at_theta_zero(tmp_path):
    # theta = 0 leaves sigma W, so the reference is sigma^2 (T - t*) = 0.5
    out = tmp_path / "run"
    code = main(["estimate-loss", "--theta", "0", "--paths", "5000",
                 "--out", str(out)])
    assert code == 0
    _, (row,) = read_csv(out / "estimate_loss.csv")
    assert float(row[3]) == 0.5
    assert abs(float(row[0]) - 0.5) <= 3 * float(row[1]) + 0.01


def test_estimate_loss_zero_paths_is_config_error(tmp_path, capsys):
    code = main(["estimate-loss", "--paths", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    args = ["estimate-loss", "--paths", "2000", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "estimate_loss.csv").read_bytes()
    second = (tmp_path / "b" / "estimate_loss.csv").read_bytes()
    assert first == second


def test_estimate_grad_command(tmp_path):
    out = tmp_path / "run"
    code = main(["estimate-grad", "--paths", "4000", "--steps", "100",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "estimate_grad.csv")
    assert header == ["gradient", "std_error", "loss", "loss_std_error",
                      "closed_form_reference", "n_paths", "seed", "mode"]
    (row,) = rows
    gradient, std_error, reference = (float(row[0]), float(row[1]),
                                      float(row[4]))
    assert abs(gradient - reference) <= 3 * std_error + 0.01
    assert row[7] == "random-k"


def test_estimate_grad_manifest_reports_estimate_health(tmp_path):
    out = tmp_path / "run"
    args = ["--paths", "600", "--steps", "40", "--seed", "4"]
    assert main(["estimate-grad", *args, "--out", str(out)]) == 0
    config = resolve_config("estimate-grad", {}, {"paths": 600, "steps": 40, "seed": 4})
    model, grid, ell, g, _ = _conditional_setup(config)
    _, _, diag = counterfactual_gradient(model, config.theta, ell, g, "canonical", grid,
                                         np.array([config.x0]), 600, config.mode, 4)
    manifest = read_manifest(out / "manifest.txt")
    assert float(manifest["acceptance_fraction"]) == diag["acceptance_fraction"]
    assert float(manifest["denominator_z"]) == diag["denominator_z"]
    assert float(manifest["branch_stats"]) == diag["branch_stats"] > 0.0
    # the health figures go to the manifest only, never to the CSV
    header, _ = read_csv(out / "estimate_grad.csv")
    assert header == ["gradient", "std_error", "loss", "loss_std_error",
                      "closed_form_reference", "n_paths", "seed", "mode"]


# sha256 of the CSV and SVG outputs of small estimate-grad and optimize runs
# (600 x 40 and 3 iterations of 300 x 20, seed 4); the manifest, which carries
# the health figures and the wall time, is not part of this contract
OUTPUT_DIGESTS = {
    ("estimate-grad", "random-k", "estimate_grad.csv"):
        "8f1ecb275f84775c0f20178fd25daaca34b409e1bdb32e3656492fbf69561de2",
    ("estimate-grad", "sum-over-k", "estimate_grad.csv"):
        "e2dc4977ee2bb802a7654b72e0c5b8015e3afe37681982b1114f26c210f12b2c",
    ("optimize", "random-k", "optimize.csv"):
        "aabf4dab7ad781772d11dc71b1f89d47a838727f34d56520cd09a31882479bf0",
    ("optimize", "random-k", "optimize.svg"):
        "78b0407e8274776bfa227c26e3ded62ef881691315c8e84513c20672ec443ca1",
    ("optimize", "sum-over-k", "optimize.csv"):
        "9bfad90125667ade11fe6467dbfc967efcd114cff3996a8ce9e7b091e8993962",
    ("optimize", "sum-over-k", "optimize.svg"):
        "1d751066aa2266758335f9b572c70b7149ac97e64e8f6c5e3399a8cab2322be0",
}


@pytest.mark.parametrize("command, mode", sorted({key[:2] for key in OUTPUT_DIGESTS}))
def test_gradient_command_outputs_keep_their_bytes(tmp_path, command, mode):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations = 3\n", encoding="utf-8")
    size = ["--paths", "600", "--steps", "40"] if command == "estimate-grad" else [
        "--config", str(cfg), "--paths", "300", "--steps", "20"]
    out = tmp_path / "run"
    assert main([command, *size, "--seed", "4", "--mode", mode, "--out", str(out)]) == 0
    for (cmd, mod, name), digest in OUTPUT_DIGESTS.items():
        if (cmd, mod) == (command, mode):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
def test_loss_slope_matches_central_difference(theta):
    h = 1e-5
    up = ou_conditional_second_moment(theta + h, 1.3, 0.25, 1.5)
    dn = ou_conditional_second_moment(theta - h, 1.3, 0.25, 1.5)
    assert _loss_slope_closed_form(theta, 1.3, 1.5, 0.25) == pytest.approx(
        (up - dn) / (2.0 * h), rel=1e-7)


def test_loss_slope_at_theta_zero_is_the_limit():
    # -sigma^2 s^2 with s = horizon - condition_time = 1.5; every product is exact
    assert _loss_slope_closed_form(0.0, 1.5, 2.0, 0.5) == -5.0625
    assert _loss_slope_closed_form(1e-6, 1.5, 2.0, 0.5) == pytest.approx(-5.0625, rel=1e-5)


@pytest.mark.parametrize("theta", [1e-12, 1e-10, 3e-6, 1e-5])
def test_loss_slope_near_theta_zero_matches_series(theta):
    # x = 2 theta s spans both sides of the series cut-off at |x| = 1e-5;
    # the four-term series is exact to O(x^4) here
    sigma, s = 1.5, 1.5
    x = 2.0 * theta * s
    series = -sigma * sigma * s * s * (1.0 - 2.0 * x / 3.0 + x * x / 4.0 - x ** 3 / 15.0)
    assert _loss_slope_closed_form(theta, sigma, 2.0, 0.5) == pytest.approx(series, rel=1e-10)


def test_bench_convergence_command(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_values = 100,400\nreplications = 4\n", encoding="utf-8")
    code = main(["bench-convergence", "--config", str(cfg), "--seed", "6",
                 "--out", str(out)])
    assert code == 0
    assert "fitted log-log slope" in capsys.readouterr().out
    header, rows = read_csv(out / "bench_convergence.csv")
    assert header == ["n_paths", "rmse_vs_reference", "mean_std_error",
                      "closed_form_reference"]
    assert [row[0] for row in rows] == ["100", "400"]
    references = {row[3] for row in rows}
    assert len(references) == 1  # reference column constant
    manifest = read_manifest(out / "manifest.txt")
    assert "fitted_slope" in manifest
    ET.parse(out / "bench_convergence.svg")


def test_bench_convergence_at_theta_zero(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_values = 100,400\nreplications = 2\n", encoding="utf-8")
    code = main(["bench-convergence", "--config", str(cfg), "--theta", "0",
                 "--steps", "40", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "bench_convergence.csv")
    assert {float(row[3]) for row in rows} == {0.5}


def test_bench_convergence_single_replication_flagged(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_values = 100,400\nreplications = 1\n", encoding="utf-8")
    code = main(["bench-convergence", "--config", str(cfg), "--seed", "6",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "fitted log-log slope" in captured
    assert "low-confidence" in captured
    manifest = read_manifest(out / "manifest.txt")
    assert "fitted_slope" in manifest
    assert "low_confidence" in manifest


def test_bench_convergence_leaves_out_degenerate_replicates(tmp_path, capsys):
    # at seed 0 and n = 100, replicate 21 fails the 5-standard-error denominator
    # gate; the sweep goes on without it
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_values = 100\nreplications = 22\n", encoding="utf-8")
    code = main(["bench-convergence", "--config", str(cfg), "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    assert "degenerate denominator left out (n:count) 100:1" in capsys.readouterr().out
    assert read_manifest(out / "manifest.txt")["degenerate_replicates"] == "100:1"
    _, rows = read_csv(out / "bench_convergence.csv")
    assert [row[0] for row in rows] == ["100"]


def test_bench_convergence_fails_when_a_row_is_all_degenerate(tmp_path, capsys):
    # seed 91's first replicate at n = 100 has a degenerate denominator
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_values = 100\nreplications = 1\n", encoding="utf-8")
    code = main(["bench-convergence", "--config", str(cfg), "--seed", "91",
                 "--out", str(tmp_path / "run")])
    assert code == 3
    assert "DegenerateDenominator: every replicate at n = 100" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("horizon", "inf"), ("horizon", "nan"),
                                        ("theta", "nan"), ("sigma", "-inf")])
def test_non_finite_flags_are_config_errors(tmp_path, capsys, key, value):
    code = main(["estimate-loss", "--paths", "200", f"--{key}={value}", "--out", str(tmp_path)])
    assert code == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "estimate_loss.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("x0", math.inf), ("step_size", math.nan), ("theta_min", -math.inf),
    ("theta_max", math.inf), ("target", math.nan), ("t_values", (2.0, math.inf)),
    ("t_values", (math.nan,)),
])
def test_config_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match="finite"):
        resolve_config("optimize", {key: value}, {})


def test_bench_variance_command_and_swapped_selectors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_values = 1,2\npaths = 300\nreplications = 2\n"
                   "steps = 25\n", encoding="utf-8")
    out_a = tmp_path / "a"
    assert main(["bench-variance", "--config", str(cfg), "--seed", "5",
                 "--out", str(out_a)]) == 0
    captured = capsys.readouterr().out
    assert "var_wd log-log slope" in captured
    assert "var_sf log-log slope" in captured
    header_a, rows_a = read_csv(out_a / "bench_variance.csv")
    assert header_a == ["T", "var_wd", "var_sf"]
    ET.parse(out_a / "bench_variance.svg")

    swapped = tmp_path / "swapped.cfg"
    swapped.write_text(cfg.read_text(encoding="utf-8")
                       + "estimators = sf,wd\n", encoding="utf-8")
    out_b = tmp_path / "b"
    assert main(["bench-variance", "--config", str(swapped), "--seed", "5",
                 "--out", str(out_b)]) == 0
    header_b, rows_b = read_csv(out_b / "bench_variance.csv")
    assert header_b == ["T", "var_sf", "var_wd"]
    for row_a, row_b in zip(rows_a, rows_b):
        assert row_a[0] == row_b[0]
        assert row_a[1] == row_b[2]  # identical values, swapped columns
        assert row_a[2] == row_b[1]


def test_bench_variance_single_horizon_omits_slope(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_values = 2\npaths = 300\nreplications = 2\nsteps = 25\n",
                   encoding="utf-8")
    out = tmp_path / "run"
    assert main(["bench-variance", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "slope omitted" in captured
    header, rows = read_csv(out / "bench_variance.csv")
    assert len(rows) == 1
    manifest = read_manifest(out / "manifest.txt")
    assert "slope_var_wd" not in manifest


def test_optimize_command(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations = 3\npaths = 300\nsteps = 20\n",
                   encoding="utf-8")
    code = main(["optimize", "--config", str(cfg), "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "optimize.csv")
    assert header == ["iter", "theta", "loss", "gradient", "se_loss",
                      "se_gradient"]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    manifest = read_manifest(out / "manifest.txt")
    assert "final_theta" in manifest
    ET.parse(out / "optimize.svg")


def test_optimize_estimator_failure_exits_3(tmp_path, capsys):
    # zero diffusion collapses the constraint derivative, so the first
    # iteration fails; the partial (empty) trace is still written
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations = 2\npaths = 300\nsteps = 20\nsigma = 0\n",
                   encoding="utf-8")
    code = main(["optimize", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert "DegenerateConstraint" in capsys.readouterr().err
    header, rows = read_csv(out / "optimize.csv")
    assert rows == []
    manifest = read_manifest(out / "manifest.txt")
    assert "DegenerateConstraint" in manifest["error"]


def test_numerical_failure_exits_3(tmp_path, capsys):
    code = main(["estimate-loss", "--sigma", "0", "--paths", "500",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "DegenerateConstraint" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["estimate-loss", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_requires_a_command():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
