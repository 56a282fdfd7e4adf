import configparser
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from halfstokes.core import BoundaryField, make_grid
from halfstokes import cli, datagen, io


def test_field_roundtrip(tmp_path):
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=5)
    rng = np.random.default_rng(0)
    f = datagen.random_halfspace_field(g, rng)
    io.save_field(f, tmp_path / "snap")
    back = io.load_field(tmp_path / "snap")
    assert type(back) is type(f)
    assert np.array_equal(back.data, f.data)
    assert back.grid.key() == g.key()
    sidecar = json.loads((tmp_path / "snap.json").read_text())
    assert sidecar["endianness"] == "little"
    assert sidecar["dtype"] == "float64"


def test_boundary_field_roundtrip_and_csv(tmp_path):
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=5)
    gb = datagen.gaussian_boundary_pulse(g)
    io.save_field(gb, tmp_path / "bnd")
    back = io.load_field(tmp_path / "bnd")
    assert isinstance(back, BoundaryField)
    assert np.array_equal(back.data, gb.data)
    io.export_csv_slice(gb, tmp_path / "slice.csv")
    lines = (tmp_path / "slice.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + g.N_tan


def test_report_determinism(tmp_path):
    rep = {"b": 1.5, "a": [1, 2, {"z": float("nan")}]}
    io.write_report(rep, tmp_path / "r1.json")
    io.write_report(rep, tmp_path / "r2.json")
    assert (tmp_path / "r1.json").read_bytes() == \
        (tmp_path / "r2.json").read_bytes()



def test_report_nonfinite_values_are_valid_json(tmp_path):
    rep = {"inf": float("inf"), "ninf": -float("inf"),
           "np_inf": np.float64(np.inf), "nan": np.float64(np.nan),
           "arr": np.array([1.0, np.inf, -np.inf]), "ok": np.float64(0.5)}
    io.write_report(rep, tmp_path / "r.json")

    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    back = json.loads((tmp_path / "r.json").read_text(),
                      parse_constant=reject)
    assert back == {"inf": None, "ninf": None, "np_inf": None, "nan": None,
                    "arr": [1.0, None, None], "ok": 0.5}


CONFIG = """
[grid]
n = 2
l = 6.283185307179586
n_tan = 16
x = 6.283185307179586
n_vert = 17
t = 1.0
n_time = 16

[index]
alpha = 1.0
critical = true

[data]
family = stream_compatible
amplitude = {amplitude}

[picard]
max_iter = {max_iter}
tol = 1e-8

[verify]
samples = 2
refinements = 1
targets = poisson_spatial

[scaling]
lambdas = 0.5,2.0
"""


def write_config(tmp_path, amplitude=0.2, max_iter=20):
    p = tmp_path / "cfg.ini"
    p.write_text(CONFIG.format(amplitude=amplitude, max_iter=max_iter))
    return str(p)


def test_cli_solve_stokes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = cli.main(["solve-stokes", "--config", cfg, "--out", str(out),
                     "--seed", "1"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"config", "version", "diagnostics", "norms",
                           "trace", "ratio_studies"}
    assert (out / "velocity.bin").exists()
    assert (out / "velocity_wall.csv").exists()


def test_cli_solve_ns_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve-ns", "--config", cfg, "--out", str(out1),
                     "--seed", "4"]) == 0
    assert cli.main(["solve-ns", "--config", cfg, "--out", str(out2),
                     "--seed", "4"]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["trace"]["converged"]


def test_cli_divergence_exit_code(tmp_path):
    cfg = write_config(tmp_path, amplitude=60.0, max_iter=20)
    out = tmp_path / "div"
    code = cli.main(["solve-ns", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_DIVERGED
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["code"] == cli.EXIT_DIVERGED


def test_cli_overflowing_picard_exits_diverged(tmp_path):
    # a fresh interpreter, so numpy warnings reach stderr as a user sees them
    cfg = write_config(tmp_path, amplitude=1e60, max_iter=20)
    out = tmp_path / "blowup"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "halfstokes.cli", "solve-ns",
                          "--config", cfg, "--out", str(out)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == cli.EXIT_DIVERGED
    assert run.stderr.splitlines() == [run.stderr.strip()]
    assert "diverged: overflow" in run.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["code"] == cli.EXIT_DIVERGED
    steps = report["trace"]["steps"]
    assert steps and all(s["solution_norm"] is not None for s in steps)


def test_cli_nonfinite_amplitude_is_config_error(tmp_path):
    cfg = write_config(tmp_path, amplitude="nan")
    code = cli.main(["solve-stokes", "--config", cfg,
                     "--out", str(tmp_path / "nan")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, section, key, value", [
    ("solve-stokes", "data", "amplitude", "abc"),
    ("solve-stokes", "data", "k1", "1.5"),
    ("solve-stokes", "index", "alpha", "one"),
    ("solve-stokes", "grid", "n_tan", "many"),
    ("solve-ns", "picard", "max_iter", "many"),
    ("solve-ns", "picard", "tol", "small"),
    ("verify-ops", "verify", "samples", "two"),
    ("norms", "norms", "q", "abc"),
    ("scaling", "scaling", "lambdas", "0.5,x"),
])
def test_cli_non_numeric_value_is_config_error(tmp_path, capsys, command,
                                               section, key, value):
    err = config_error(tmp_path, capsys, command, {(section, key): value})
    assert f"[{section}] {key}" in err


def config_error(tmp_path, capsys, command, settings, steady=False,
                 flags=(), damage=None):
    """Run ``command`` with ``flags`` on the test config with ``settings``
    ({(section, key): value}) applied; assert it exits 2 with one line on
    stderr, and return that line.  ``norms`` reads a small random snapshot
    (with ``steady``, its first time slice), passed to ``damage`` first."""
    cp = configparser.ConfigParser()
    cp.read_string(CONFIG.format(amplitude=0.2, max_iter=20))
    for (section, key), value in settings.items():
        if section not in cp:
            cp.add_section(section)
        cp[section][key] = value
    cfg = tmp_path / "cfg.ini"
    with cfg.open("w") as fh:
        cp.write(fh)
    extra = []
    if command == "norms":
        f = datagen.random_halfspace_field(
            make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                      N_time=5), np.random.default_rng(0))
        if steady:
            f = type(f)(f.grid, f.data[..., 0], domain=f.domain,
                        time_dependent=False)
        io.save_field(f, tmp_path / "snap")
        if damage:
            damage(tmp_path / "snap")
        extra = ["--field", str(tmp_path / "snap")]
    code = cli.main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")] + extra + list(flags))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


@pytest.mark.parametrize("kind, key, value",
                         [(kind, "q", q) for kind in ("aniso", "lp", "lq",
                                                      "lq_time_lp_space")
                          for q in ("-1", "0.5", "inf", "nan")]
                         + [(kind, "s", "nan") for kind in
                            ("aniso", "lp", "lq_time_lp_space")])
def test_cli_norms_bad_exponent_is_config_error(tmp_path, capsys, kind, key,
                                                value):
    err = config_error(tmp_path, capsys, "norms",
                       {("norms", "kind"): kind, ("norms", key): value},
                       steady=kind == "lp")
    assert f"norm kind {kind!r}" in err and value in err


@pytest.mark.parametrize("command, section, key, value", [
    ("verify-ops", "verify", "samples", "0"),
    ("verify-ops", "verify", "refinements", "-1"),
    ("verify-ops", "verify", "targets", "nope"),
    ("verify-ops", "verify", "targets", ","),
    ("scaling", "scaling", "lambdas", "0"),
    ("scaling", "scaling", "lambdas", "0.5,-1"),
    ("scaling", "scaling", "lambdas", "nan"),
])
def test_cli_out_of_range_value_is_config_error(tmp_path, capsys, command,
                                                section, key, value):
    err = config_error(tmp_path, capsys, command, {(section, key): value})
    assert f"[{section}] {key}" in err


@pytest.mark.parametrize("command, settings, seed", [
    ("verify-ops", {}, "-5"),
    ("solve-stokes", {("data", "family"): "random_band"}, "-1"),
    ("solve-stokes", {("data", "family"): "random_band"}, str(2 ** 64)),
])
def test_cli_seed_outside_u64_is_config_error(tmp_path, capsys, command,
                                              settings, seed):
    err = config_error(tmp_path, capsys, command, settings,
                       flags=["--seed", seed])
    assert "--seed" in err and seed in err


def test_cli_verify_ops_time_seminorm_report_is_deterministic(tmp_path):
    # heat_semigroup measures its output with a Gagliardo time seminorm,
    # whose q = 2 pair distances run through a BLAS Gram product
    cp = configparser.ConfigParser()
    cp.read_string(CONFIG.format(amplitude=0.2, max_iter=20))
    cp["verify"]["targets"] = "heat_semigroup"
    cp["verify"]["samples"] = "1"
    cfg = tmp_path / "cfg.ini"
    with cfg.open("w") as fh:
        cp.write(fh)
    reports = []
    for run in ("a", "b"):
        assert cli.main(["verify-ops", "--config", str(cfg), "--out",
                         str(tmp_path / run), "--seed", "3"]) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1]
    study = json.loads(reports[0])["ratio_studies"][0]
    assert study["target"] == "heat_semigroup"


@pytest.mark.parametrize("command", ["scaling", "verify-ops"])
@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_cli_bad_tolerance_scale_is_config_error(tmp_path, capsys, command,
                                                 value):
    err = config_error(tmp_path, capsys, command, {},
                       flags=["--tolerance-scale", value])
    assert "--tolerance-scale" in err and "finite and positive" in err


def _truncate_bin(prefix):
    path = prefix.with_suffix(".bin")
    path.write_bytes(path.read_bytes()[:-8])


def _edit_sidecar(**changes):
    def damage(prefix):
        path = prefix.with_suffix(".json")
        sidecar = json.loads(path.read_text())
        sidecar.update(changes)
        path.write_text(json.dumps({k: v for k, v in sidecar.items()
                                    if v is not None}))
    return damage


def _nan_value(prefix):
    path = prefix.with_suffix(".bin")
    data = np.fromfile(path, dtype="<f8")
    data[3] = np.nan
    data.tofile(path)


@pytest.mark.parametrize("damage, what", [
    (_truncate_bin, "cannot reshape"),
    (lambda prefix: prefix.with_suffix(".json").write_text("{shape: ["),
     "JSONDecodeError"),
    (_edit_sidecar(kind=None), "KeyError"),
    (_edit_sidecar(kind="MatrixField"), "KeyError"),
    (_nan_value, "non-finite"),
], ids=["truncated_bin", "unparsable_sidecar", "missing_key", "unknown_kind",
        "nan_value"])
def test_cli_norms_bad_snapshot_is_config_error(tmp_path, capsys, damage,
                                                what):
    err = config_error(tmp_path, capsys, "norms", {}, damage=damage)
    assert str(tmp_path / "snap") in err and what in err


@pytest.mark.parametrize("command", ["solve-ns", "scaling"])
def test_cli_non_critical_index_is_config_error(tmp_path, capsys, command):
    err = config_error(tmp_path, capsys, command,
                       {("index", "critical"): "false", ("index", "q"): "2.5"})
    assert command in err and "critical index" in err


# q = 2.5 in 2-D admits no default force pair (beta, p); only the
# gradient_duhamel target needs one
NON_CRITICAL = {("index", "critical"): "false", ("index", "q"): "2.5"}


def test_cli_verify_ops_non_critical_index_runs_other_targets(tmp_path):
    cp = configparser.ConfigParser()
    cp.read_string(CONFIG.format(amplitude=0.2, max_iter=20))
    for (section, key), value in NON_CRITICAL.items():
        cp[section][key] = value
    cfg = tmp_path / "cfg.ini"
    with cfg.open("w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert cli.main(["verify-ops", "--config", str(cfg),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ratio_studies"][0]["target"] == "poisson_spatial"


def test_cli_verify_ops_without_force_pair_is_config_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, "verify-ops",
                       {**NON_CRITICAL,
                        ("verify", "targets"): "gradient_duhamel"})
    assert "gradient_duhamel" in err and "force pair" in err


@pytest.mark.parametrize("family", ["stream_compatible", "random_band",
                                    "forced_mms", "harmonic_gradient"])
def test_cli_two_dimensional_family_on_3d_grid_is_config_error(
        tmp_path, capsys, family):
    err = config_error(tmp_path, capsys, "solve-stokes",
                       {("grid", "n"): "3", ("data", "family"): family})
    assert f"[data] family = {family}" in err and "[grid] n = 3" in err


@pytest.mark.parametrize("command", ["solve-stokes", "solve-ns",
                                     "verify-ops", "scaling"])
def test_cli_graded_grid_is_config_error(tmp_path, capsys, command):
    err = config_error(tmp_path, capsys, command, {("grid", "grading"): "2.0"})
    assert "[grid] grading = 2" in err and "uniform vertical" in err


@pytest.mark.parametrize("k1", ["0", "-1"])
def test_cli_forced_mms_non_positive_k1_is_config_error(tmp_path, capsys, k1):
    err = config_error(tmp_path, capsys, "solve-stokes",
                       {("data", "family"): "forced_mms", ("data", "k1"): k1})
    assert f"[data] k1 = {k1}" in err and "forced_mms" in err


def test_cli_negative_picard_tol_is_config_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, "solve-ns", {("picard", "tol"): "-1"})
    assert "[picard] tol = -1" in err and "positive" in err


@pytest.mark.parametrize("key, value", [("t", "nan"), ("l", "inf")])
def test_cli_non_finite_grid_is_config_error(tmp_path, capsys, key, value):
    err = config_error(tmp_path, capsys, "solve-stokes", {("grid", key): value})
    assert err.startswith("config error: bad grid:") and "finite" in err


def test_readme_config_example_loads(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = cli._parse_config(str(path))
    assert cfg["grid"]["grading"] == "1.0"
    assert cfg["data"]["family"] == "stream_compatible"
    assert cfg["index"]["critical"] == "true"
    assert cli._build_grid(cfg).N_tan == 32


def test_cli_config_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.ini")
    assert cli.main(["solve-stokes", "--config", missing,
                     "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    badcfg = tmp_path / "bad.ini"
    badcfg.write_text("[grid]\nn = 7\n")
    assert cli.main(["solve-stokes", "--config", str(badcfg),
                     "--out", str(tmp_path / "y")]) == cli.EXIT_CONFIG


def test_cli_verify_ops_and_scaling(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "v"
    assert cli.main(["verify-ops", "--config", cfg, "--out", str(out),
                     "--seed", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ratio_studies"][0]["target"] == "poisson_spatial"
    out2 = tmp_path / "s"
    assert cli.main(["scaling", "--config", cfg, "--out", str(out2)]) == 0


def test_cli_norms_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "r"
    assert cli.main(["solve-stokes", "--config", cfg, "--out", str(out)]) == 0
    out2 = tmp_path / "n"
    assert cli.main(["norms", "--config", cfg, "--out", str(out2),
                     "--field", str(out / "velocity")]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert report["norms"]["aniso"] > 0


def test_cli_norms_missing_field_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    code = cli.main(["norms", "--config", cfg, "--out", str(tmp_path / "n"),
                     "--field", str(tmp_path / "absent")])
    assert code == cli.EXIT_CONFIG


def test_cli_norms_lp_on_time_dependent_field_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "r"
    assert cli.main(["solve-stokes", "--config", cfg, "--out", str(out)]) == 0
    lp_cfg = tmp_path / "lp.ini"
    lp_cfg.write_text(Path(cfg).read_text() + "\n[norms]\nkind = lp\n")
    code = cli.main(["norms", "--config", str(lp_cfg), "--out",
                     str(tmp_path / "n"), "--field", str(out / "velocity")])
    assert code == cli.EXIT_CONFIG


def test_cli_verification_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "vf"
    code = cli.main(["verify-ops", "--config", cfg, "--out", str(out),
                     "--seed", "2", "--tolerance-scale", "1e-9"])
    assert code == cli.EXIT_VERIFY
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["code"] == cli.EXIT_VERIFY
