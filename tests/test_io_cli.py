import configparser
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from halfstokes.core import BesovIndex, BoundaryField, make_grid
from halfstokes import cli, datagen, io
from halfstokes.errors import InvalidDataError

import references


def test_field_roundtrip(tmp_path):
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=5)
    rng = np.random.default_rng(0)
    for f in (references.random_halfspace_field(g, rng),
              datagen.random_whole_field(g, rng)):
        io.save_field(f, tmp_path / "snap")
        back = io.load_field(tmp_path / "snap")
        assert type(back) is type(f) and back.domain == f.domain
        assert np.array_equal(back.data, f.data)
        assert back.grid.key() == g.key()
        sidecar = json.loads((tmp_path / "snap.json").read_text())
        assert sidecar["endianness"] == "little"
        assert sidecar["dtype"] == "float64"
        assert sidecar["shape"] == list(f.data.shape)


def test_boundary_field_roundtrip_and_csv(tmp_path):
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=5)
    gb = references.gaussian_boundary_pulse(g)
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


def _run_overflowing(tmp_path, command, amplitude):
    """``command`` in a fresh interpreter, so that numpy warnings reach
    stderr as a user sees them, on data of ``amplitude``."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG.format(amplitude=amplitude, max_iter=20)
                   .replace("n_time = 16", "n_time = 8"))
    out = tmp_path / "blowup"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "halfstokes.cli", command,
                          "--config", str(cfg), "--out", str(out)],
                         capture_output=True, text=True, env=env)
    return run, out


def test_cli_solve_ns_overflowing_first_solve_prints_one_line(tmp_path):
    run, out = _run_overflowing(tmp_path, "solve-ns", "1e306")
    assert run.returncode == cli.EXIT_DIVERGED
    assert run.stderr.splitlines() == ["diverged: overflow after 0 steps"]
    assert json.loads((out / "report.json").read_text())["error"]["code"] \
        == cli.EXIT_DIVERGED


@pytest.mark.parametrize("amplitude, first", [("1e306", "velocity"),
                                               ("1e200", "div_residual")])
def test_cli_overflowing_solve_stokes_is_verification_failure(
        tmp_path, amplitude, first):
    # 1e306 overflows the velocity, 1e200 only the squares of its residual
    # and part norms; neither may print "ok" over null diagnostics
    run, out = _run_overflowing(tmp_path, "solve-stokes", amplitude)
    assert run.returncode == cli.EXIT_VERIFY
    assert run.stdout == ""
    assert run.stderr.splitlines() == [run.stderr.strip()]
    assert run.stderr.startswith(f"verification failure: overflow: {first}")
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["code"] == cli.EXIT_VERIFY
    assert report["diagnostics"]["div_residual"] is None
    assert not (out / "velocity.bin").exists()


@pytest.mark.parametrize("amplitude", ["1e306", "1e155"])
def test_cli_scaling_of_overflowing_data_is_verification_failure(
        tmp_path, amplitude):
    # 1e306 overflows M0 itself, 1e155 only its powers; the line names the
    # overflow, not the sign of the data
    run, out = _run_overflowing(tmp_path, "scaling", amplitude)
    assert run.returncode == cli.EXIT_VERIFY
    assert run.stderr.splitlines() == [
        "verification failure: overflow: M0 is not finite; the data are too "
        "large"]
    assert json.loads((out / "report.json").read_text())["error"]["code"] \
        == cli.EXIT_VERIFY


def test_cli_failed_run_replaces_the_previous_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve-ns", "--config", cfg, "--out", str(out)]) == 0
    velocity = (out / "velocity.bin").read_bytes()
    bad = tmp_path / "bad.ini"
    bad.write_text(Path(cfg).read_text().replace("max_iter = 20",
                                                 "max_iter = 0"))
    for config in (str(bad), str(tmp_path / "absent.ini")):
        capsys.readouterr()
        assert cli.main(["solve-ns", "--config", config,
                         "--out", str(out)]) == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.splitlines()
        report = json.loads((out / "report.json").read_text())
        assert report["error"] == {"code": cli.EXIT_CONFIG, "message": err}
        assert report["trace"] == [] and report["seed"] == 0
    # the config that did not load is recorded as empty
    assert report["config"] == {} and "absent.ini" in err
    # other files of the output directory are left alone
    assert (out / "velocity.bin").read_bytes() == velocity


@pytest.mark.parametrize("below", [False, True])
def test_cli_out_naming_a_file_is_config_error(tmp_path, capsys, below):
    cfg = write_config(tmp_path)
    path = tmp_path / "taken"
    path.write_text("not a directory\n")
    out = path / "sub" if below else path
    assert cli.main(["solve-stokes", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith(f"config error: --out {out}: ")
    assert path.read_text() == "not a directory\n"


@pytest.mark.parametrize("taken", ["velocity.bin", "report.json"])
def test_cli_output_file_that_cannot_be_written_is_config_error(
        tmp_path, capsys, taken):
    # a directory where solve-stokes writes a file
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    (out / taken).mkdir(parents=True)
    assert cli.main(["solve-stokes", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith(f"config error: --out {out}: ") and taken in err
    if taken != "report.json":
        report = json.loads((out / "report.json").read_text())
        assert report["error"] == {"code": cli.EXIT_CONFIG, "message": err}


@pytest.mark.parametrize("kind", ["aniso", "lq"])
def test_cli_norms_of_overflowing_snapshot_is_verification_failure(
        tmp_path, capsys, kind):
    # the snapshot is finite, but the squares of its values are not
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0, N_time=5)
    f = references.random_halfspace_field(g, np.random.default_rng(0))
    io.save_field(1e160 * f, tmp_path / "snap")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG.format(amplitude=0.2, max_iter=20)
                   + f"\n[norms]\nkind = {kind}\n")
    out = tmp_path / "run"
    assert cli.main(["norms", "--config", str(cfg), "--out", str(out),
                     "--field", str(tmp_path / "snap")]) == cli.EXIT_VERIFY
    err, = capsys.readouterr().err.splitlines()
    assert err == (f"verification failure: overflow: the {kind} norm is not "
                   "finite; the snapshot is too large")
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == {"code": cli.EXIT_VERIFY, "message": err}
    assert report["norms"][kind] is None


@pytest.mark.parametrize("argv, err", [
    (["solve-stokes", "--config", "cfg.ini", "--seed", "abc"],
     "config error: argument --seed: invalid int value: 'abc'"),
    ([], "config error: the following arguments are required: command"),
], ids=["bad_seed", "no_command"])
def test_cli_rejected_flag_is_one_config_error_line(tmp_path, capsys,
                                                   monkeypatch, argv, err):
    # no report: --out may be the flag that did not parse
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [err]
    assert not list(tmp_path.iterdir())
    for flag in ("--help", "--version"):
        with pytest.raises(SystemExit) as stop:
            cli.main([flag])
        assert stop.value.code == 0


def test_cli_norms_unknown_kind_is_config_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, "norms", {("norms", "kind"): "l2"})
    assert err.startswith("config error: [norms] kind = 'l2' is unknown")
    assert all(f"'{kind}'" in err for kind in
               ("aniso", "lp", "lq", "lq_time_lp_space"))


def test_cli_solve_stokes_below_boundary_order_leaves_compat_norm_null(
        tmp_path):
    # at alpha = 0.3, q = 4/1.3: alpha - 1/q < 0, so the compatibility norm
    # is undefined (NaN) by design and is not an overflow
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG.format(amplitude=0.2, max_iter=20)
                   .replace("alpha = 1.0", "alpha = 0.3"))
    out = tmp_path / "run"
    assert cli.main(["solve-stokes", "--config", str(cfg),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["compat_norm"] is None
    assert "error" not in report
    assert (out / "velocity.bin").exists()


def test_cli_verify_ops_on_3d_grid_is_config_error(tmp_path, capsys):
    # every ratio target draws two-dimensional samples
    err = config_error(tmp_path, capsys, "verify-ops", {("grid", "n"): "3"})
    assert err.startswith("config error: verify-ops") and "[grid] n = 3" in err


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
    stderr, which its report records with code 2, and return that line.
    ``norms`` reads a small random snapshot (with ``steady``, its first time
    slice), passed to ``damage`` first."""
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
        f = references.random_halfspace_field(
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
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"] == {"code": cli.EXIT_CONFIG, "message": err[0]}
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


@pytest.mark.parametrize("command", ["verify-ops", "solve-stokes", "solve-ns"])
def test_cli_report_does_not_depend_on_blas_threads(tmp_path, command):
    # heat_volume measures its input with the q = 2 space-time norm, whose
    # mode sum once ran through a BLAS product; on the README grid its
    # summation order followed the BLAS thread count.  heat_single_layer
    # measures a half field, whose q = 2 norm applies the DCT-I matrix by a
    # BLAS product.  The solves reach the BLAS products of the boundary
    # layer's vertical derivative, of vertical_derivative_array and of the
    # DCT-I.  On a one-core host the two-thread run may not split a
    # product, so it can pass there without showing anything.
    cp = configparser.ConfigParser()
    cp.read_string(CONFIG.format(amplitude=0.2, max_iter=20))
    cp["grid"].update({"n_tan": "32", "n_vert": "33", "n_time": "32"})
    cp["verify"].update({"targets": "heat_volume, heat_single_layer",
                         "samples": "1", "refinements": "1"})
    cfg = tmp_path / "cfg.ini"
    with cfg.open("w") as fh:
        cp.write(fh)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "halfstokes.cli",
                              command, "--config", str(cfg), "--out",
                              str(out), "--seed", "7"],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


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


def _unparsable_sidecar(prefix):
    prefix.with_suffix(".json").write_text("{shape: [")


def _edit_sidecar(**changes):
    def damage(prefix):
        path = prefix.with_suffix(".json")
        sidecar = json.loads(path.read_text())
        sidecar.update(changes)
        path.write_text(json.dumps({k: v for k, v in sidecar.items()
                                    if v is not None}))
    return damage


def _graded_sidecar(grading):
    """A sidecar whose grid records ``grading``, as versions that had
    graded vertical nodes wrote it."""
    def damage(prefix):
        path = prefix.with_suffix(".json")
        sidecar = json.loads(path.read_text())
        sidecar["grid"]["grading"] = grading
        path.write_text(json.dumps(sidecar))
    return damage


def _nan_value(prefix):
    path = prefix.with_suffix(".bin")
    data = np.fromfile(path, dtype="<f8")
    data[3] = np.nan
    data.tofile(path)


def _boundary_without_components(prefix):
    """A boundary snapshot of one value, whose sidecar records no axes."""
    np.zeros(1).astype("<f8").tofile(prefix.with_suffix(".bin"))
    _edit_sidecar(kind="BoundaryField", shape=[])(prefix)


def _whole_with_top_slot(prefix):
    """A whole-space snapshot in the layout of [-X, X] with both ends
    stored, 2 N_vert - 1 vertical nodes, which fields no longer use."""
    snap = io.load_field(prefix)
    grid = snap.grid
    f = datagen.random_whole_field(grid, np.random.default_rng(1))
    io.save_field(f, prefix)
    n = grid.N_vert
    old = np.concatenate([f.data[:, :, n - 1:], f.data[:, :, :n]], axis=2)
    old.astype("<f8").tofile(prefix.with_suffix(".bin"))
    _edit_sidecar(shape=list(old.shape))(prefix)


@pytest.mark.parametrize("damage, what", [
    (_truncate_bin, "InvalidDataError: ValueError: cannot reshape"),
    (_unparsable_sidecar, "InvalidDataError: JSONDecodeError"),
    (_edit_sidecar(kind=None), "InvalidDataError: KeyError"),
    (_edit_sidecar(kind="MatrixField"), "InvalidDataError: KeyError"),
    (_nan_value, "non-finite"),
    (_whole_with_top_slot, "ShapeMismatchError"),
    (_graded_sidecar(2.0), "InvalidDataError: grid grading = 2"),
    (_boundary_without_components,
     "InvalidDataError: ShapeMismatchError: boundary field needs 1..2 "
     "components"),
], ids=["truncated_bin", "unparsable_sidecar", "missing_key", "unknown_kind",
        "nan_value", "whole_with_top_slot", "graded_sidecar",
        "boundary_without_components"])
def test_cli_norms_bad_snapshot_is_config_error(tmp_path, capsys, damage,
                                                what):
    err = config_error(tmp_path, capsys, "norms", {}, damage=damage)
    assert str(tmp_path / "snap") in err and what in err


@pytest.mark.parametrize("damage, cause", [
    (_truncate_bin, "ValueError"), (_unparsable_sidecar, "JSONDecodeError"),
    (_edit_sidecar(kind=None), "KeyError"),
    (_edit_sidecar(kind="MatrixField"), "KeyError"),
    (_graded_sidecar(2.0), "uniform vertical nodes"),
    (_boundary_without_components, "ShapeMismatchError"),
], ids=["truncated_bin", "unparsable_sidecar", "missing_key", "unknown_kind",
        "graded_sidecar", "boundary_without_components"])
def test_load_field_raises_invalid_data_error(tmp_path, damage, cause):
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0, N_time=5)
    io.save_field(datagen.random_boundary_field(g, np.random.default_rng(0)),
                  tmp_path / "snap")
    damage(tmp_path / "snap")
    with pytest.raises(InvalidDataError, match=cause):
        io.load_field(tmp_path / "snap")


def test_load_field_reads_sidecar_with_unit_grading(tmp_path):
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0, N_time=5)
    f = datagen.random_boundary_field(g, np.random.default_rng(0))
    io.save_field(f, tmp_path / "snap")
    _graded_sidecar(1.0)(tmp_path / "snap")
    back = io.load_field(tmp_path / "snap")
    assert back.grid == g and np.array_equal(back.data, f.data)


@pytest.mark.parametrize("alpha", ["-1", "0", "2.5", "nan"])
def test_cli_bad_alpha_is_config_error(tmp_path, capsys, alpha):
    err = config_error(tmp_path, capsys, "solve-stokes",
                       {("index", "alpha"): alpha})
    assert err.startswith("config error: bad index: alpha must lie in (0, 2)")


@pytest.mark.parametrize("key, value", [("beta", "0.3"), ("p", "1.5")],
                         ids=["beta_only", "p_only"])
def test_cli_lone_force_pair_key_is_config_error(tmp_path, capsys, key,
                                                 value):
    err = config_error(tmp_path, capsys, "solve-ns", {("index", key): value})
    assert err == ("config error: bad index: beta and p must be given "
                   "together")


@pytest.mark.parametrize("command", ["solve-ns", "scaling"])
def test_cli_non_critical_index_is_config_error(tmp_path, capsys, command):
    err = config_error(tmp_path, capsys, command,
                       {("index", "critical"): "false", ("index", "q"): "2.5"})
    assert command in err and "critical index" in err


# critical indices that solve-ns and scaling cannot use: the M0 boundary
# order alpha - 1/q is not positive
@pytest.mark.parametrize("command, alpha",
                         [(c, a) for c in ("solve-ns", "scaling")
                          for a in ("0.2", "0.3")])
def test_cli_index_the_command_cannot_use_is_config_error(tmp_path, capsys,
                                                          command, alpha):
    err = config_error(tmp_path, capsys, command, {("index", "alpha"): alpha})
    assert err.startswith("config error: ")


# critical indices where the old default force pair was inadmissible, so
# that solve-ns exited 2 naming a beta the config never set
@pytest.mark.parametrize("alpha", ["0.4", "0.5", "1.5", "1.9"])
def test_cli_solve_ns_runs_where_the_old_default_force_pair_failed(
        tmp_path, alpha):
    cfg = Path(write_config(tmp_path))
    cfg.write_text(cfg.read_text().replace("alpha = 1.0",
                                           f"alpha = {alpha}"))
    out = tmp_path / "out"
    assert cli.main(["solve-ns", "--config", str(cfg), "--out",
                     str(out)]) == 0
    trace = json.loads((out / "report.json").read_text())["trace"]
    index = BesovIndex.critical_index(float(alpha), 2)
    index.validate_force_pair(trace["beta"], trace["p"])
    assert trace["converged"]


# a non-critical index: only the gradient_duhamel target needs a force pair
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
    # at alpha = 0.2, q = 1.2 in 2-D no force pair (beta, p) is admissible
    err = config_error(tmp_path, capsys, "verify-ops",
                       {("index", "critical"): "false", ("index", "q"): "1.2",
                        ("index", "alpha"): "0.2",
                        ("verify", "targets"): "gradient_duhamel"})
    assert "gradient_duhamel" in err and "force pair" in err
    assert "beta=" not in err


@pytest.mark.parametrize("family", ["stream_compatible", "random_band",
                                    "forced_mms", "harmonic_gradient"])
def test_cli_two_dimensional_family_on_3d_grid_is_config_error(
        tmp_path, capsys, family):
    err = config_error(tmp_path, capsys, "solve-stokes",
                       {("grid", "n"): "3", ("data", "family"): family})
    assert f"[data] family = {family}" in err and "[grid] n = 3" in err


@pytest.mark.parametrize("k1", ["0", "-1"])
def test_cli_forced_mms_non_positive_k1_is_config_error(tmp_path, capsys, k1):
    err = config_error(tmp_path, capsys, "solve-stokes",
                       {("data", "family"): "forced_mms", ("data", "k1"): k1})
    assert f"[data] k1 = {k1}" in err and "forced_mms" in err


def test_cli_negative_picard_tol_is_config_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, "solve-ns", {("picard", "tol"): "-1"})
    assert "[picard] tol = -1" in err and "positive" in err


@pytest.mark.parametrize("key, value, message", [
    ("max_iter", "-3", "[picard] max_iter = -3 must be at least 1"),
    ("max_iter", "0", "[picard] max_iter = 0 must be at least 1"),
    ("tol", "inf", "[picard] tol = inf must be finite and positive")])
def test_cli_picard_setting_out_of_range_is_config_error(tmp_path, capsys,
                                                         key, value, message):
    # max_iter < 1 ran only the first solve, exited 0 and reported
    # "max_iter=-3 reached"; tol = inf passed the positivity check
    err = config_error(tmp_path, capsys, "solve-ns", {("picard", key): value})
    assert message in err


@pytest.mark.parametrize("settings", [{("data", "amplitude"): "0"},
                                      {("data", "family"): "zero"}])
def test_cli_scaling_of_zero_data_is_config_error(tmp_path, capsys,
                                                  settings):
    # the relative M0 deviation divided by a zero base norm
    err = config_error(tmp_path, capsys, "scaling", settings)
    assert "positive M0 norm" in err


# The config fuzz: the test config at toy size, with a [data] k1 and a
# [norms] section so that every key a subcommand reads is present.
FUZZ_SETTINGS = {("grid", "n_tan"): "8", ("grid", "n_vert"): "9",
                 ("grid", "n_time"): "8", ("data", "k1"): "1",
                 ("picard", "max_iter"): "3", ("verify", "samples"): "1",
                 ("norms", "kind"): "aniso", ("norms", "s"): "1.0",
                 ("norms", "q"): "2.0"}
# missing (None), empty, non-numeric, non-finite, out of range and, for
# [grid] n, a wrong dimension
FUZZ_VALUES = (None, "", "abc", "nan", "inf", "-1", "0", "3")
# values that do not parse or are not finite: each is accepted or is a
# config error
UNREADABLE = ("", "abc", "nan", "inf")
COMMANDS = ("solve-stokes", "solve-ns", "verify-ops", "norms", "scaling")


def _fuzz_config():
    cp = configparser.ConfigParser()
    cp.read_string(CONFIG.format(amplitude=0.2, max_iter=20))
    cp.add_section("norms")
    for (section, key), value in FUZZ_SETTINGS.items():
        cp[section][key] = value
    return cp


def _fuzz_cases():
    keys = [(s, k) for s, sec in _fuzz_config().items() for k in sec]
    cases = [{key: value} for key in keys for value in FUZZ_VALUES]
    return cases + [{("index", "critical"): "false", ("index", "q"): "2.5"}]


def test_cli_config_fuzz_exits_with_a_code_and_one_line(tmp_path, capsys):
    base = _fuzz_config()
    snap = tmp_path / "snap"
    path = tmp_path / "cfg.ini"
    with path.open("w") as fh:
        base.write(fh)
    assert cli.main(["solve-stokes", "--config", str(path), "--out",
                     str(snap)]) == 0
    failures = []
    for settings in _fuzz_cases():
        cp = _fuzz_config()
        for (section, key), value in settings.items():
            if value is None:
                del cp[section][key]
            else:
                cp[section][key] = value
        with path.open("w") as fh:
            cp.write(fh)
        capsys.readouterr()
        for command in COMMANDS:
            extra = ["--field", str(snap / "velocity")] \
                if command == "norms" else []
            code = cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / "out")] + extra)
            err = capsys.readouterr().err.splitlines()
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            recorded = report["error"]["code"] if "error" in report else 0
            codes = (0, 2) if set(settings.values()) & set(UNREADABLE) \
                else (0, 2, 3, 4)
            if code not in codes or len(err) != (code != 0) \
                    or recorded != code:
                failures.append((command, settings, code, recorded, err))
    assert not failures, failures


@pytest.mark.parametrize("key, value", [("t", "nan"), ("l", "inf")])
def test_cli_non_finite_grid_is_config_error(tmp_path, capsys, key, value):
    err = config_error(tmp_path, capsys, "solve-stokes", {("grid", key): value})
    assert err.startswith("config error: bad grid:") and "finite" in err


# grading = 1.0 and 2.0 name the removed graded-grid option; ntan misspells
# n_tan
@pytest.mark.parametrize("key, value", [("grading", "2.0"),
                                        ("grading", "1.0"), ("ntan", "64")])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_unknown_grid_key_is_config_error(tmp_path, capsys, command, key,
                                              value):
    err = config_error(tmp_path, capsys, command, {("grid", key): value})
    assert f"[grid] unknown keys ['{key}']" in err
    assert all(f"'{known}'" in err for known in
               ("n", "l", "n_tan", "x", "n_vert", "t", "n_time"))


# one misspelled key per section that has no grid key: each was read as
# absent, so that, say, [index] alpah = 0.5 ran at alpha = 1 and exited 0
@pytest.mark.parametrize("section, key", [
    ("index", "alpah"), ("data", "amplitde"), ("picard", "maxiter"),
    ("verify", "sample"), ("scaling", "lambda"), ("norms", "knd")])
def test_cli_unknown_key_is_config_error(tmp_path, capsys, section, key):
    err = config_error(tmp_path, capsys, "solve-ns", {(section, key): "0.5"})
    assert f"[{section}] unknown keys ['{key}']" in err
    assert all(f"'{known}'" in err for known in cli._SECTION_KEYS[section])


def test_cli_unknown_section_is_config_error(tmp_path, capsys):
    err = config_error(tmp_path, capsys, "solve-ns", {("pircard", "tol"): "1"})
    assert "unknown section [pircard]" in err and "'picard'" in err


def test_cli_unknown_default_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[DEFAULT]\nampltude = 0.1\n\n[grid]\nn = 2\n")
    assert cli.main(["solve-stokes", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "[DEFAULT] unknown keys ['ampltude']" in err[0]


@pytest.mark.parametrize("value", ["maybe", "", "2"])
def test_cli_critical_that_is_no_boolean_word_is_config_error(
        tmp_path, capsys, value):
    # any word but 1, true and yes used to read as false
    err = config_error(tmp_path, capsys, "solve-ns",
                       {("index", "critical"): value})
    assert f"[index] critical = '{value}' is not a boolean word" in err


@pytest.mark.parametrize("value, critical", [("On", True), ("no", False),
                                             ("0", False), ("YES", True)])
def test_critical_reads_every_boolean_word(value, critical):
    cfg = {"index": {"critical": value, "q": "2.5"}}
    assert cli._build_index(cfg, 2).critical == critical


def test_default_section_keys_are_not_grid_keys(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[DEFAULT]\namplitude = 0.1\n\n[grid]\nn = 2\n\n"
                    "[data]\nfamily = zero\n")
    assert cli._parse_config(str(path))["data"]["amplitude"] == "0.1"


def test_cli_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    def build_grid(cfg):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "_build_grid", build_grid)
    err = config_error(tmp_path, capsys, "solve-stokes", {})
    assert err.startswith("config error: out of memory") and "[grid]" in err


def test_readme_config_example_loads(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = cli._parse_config(str(path))
    assert sorted(cfg["grid"]) == sorted(cli._SECTION_KEYS["grid"])
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


@pytest.mark.parametrize("target", ["riesz", "normal_trace"])
@pytest.mark.parametrize("refinements, code, drift",
                         [(1, cli.EXIT_VERIFY, None), (0, cli.EXIT_OK, 0.0)])
def test_cli_verify_ops_zero_level_ratio_has_defined_drift(
        tmp_path, capsys, target, refinements, code, drift):
    # two tangential nodes carry only the zero and the Nyquist mode, where
    # both symbols vanish: the level-0 maximum ratio is 0
    cp = configparser.ConfigParser()
    cp.read_string(CONFIG.format(amplitude=0.2, max_iter=20))
    for key, value in (("n_tan", "2"), ("n_vert", "3"), ("n_time", "3")):
        cp["grid"][key] = value
    cp["verify"]["targets"] = target
    cp["verify"]["refinements"] = str(refinements)
    cfg = tmp_path / "cfg.ini"
    with cfg.open("w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert cli.main(["verify-ops", "--config", str(cfg),
                     "--out", str(out)]) == code
    row, = json.loads((out / "report.json").read_text())["ratio_studies"]
    assert row["max_ratios"][0] == 0.0 and row["drift"] == drift
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].endswith(
        "drift=inf" if drift is None else "drift=0.000")
