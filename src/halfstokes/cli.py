"""Command-line entry point.

Subcommands: ``solve-stokes``, ``solve-ns``, ``verify-ops``, ``norms``,
``scaling``.  Runs are configured by an INI file (key-value with nested
sections), emit a deterministic JSON report plus CSV tables, and use the
exit codes 0 (ok), 2 (config error), 3 (solver divergence), 4 (verification
failure).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__, besov, datagen, io, verify
from . import navier_stokes as nsmod
from . import stokes as stk
from .core import (BesovIndex, BoundaryField, HalfSpaceGrid, VectorField,
                   make_grid)
from .errors import (ConfigError, HalfStokesError, InvalidDataError,
                     NormOrderError, PicardDivergenceError,
                     ShapeMismatchError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


# the words configparser reads as booleans
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES

# the keys each section reads; [grid]'s are the grid's constructor fields
_SECTION_KEYS = {
    "grid": [f.name.lower() for f in dataclasses.fields(HalfSpaceGrid)
             if f.init],
    "index": ["alpha", "critical", "q", "beta", "p"],
    "data": ["family", "amplitude", "k1", "m"],
    "picard": ["max_iter", "tol"],
    "verify": ["samples", "refinements", "targets"],
    "scaling": ["lambdas"],
    "norms": ["kind", "s", "q"],
}


def _parse_config(path: str) -> dict:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    cfg = {section: dict(cp[section]) for section in cp.sections()}
    if "grid" not in cfg:
        raise ConfigError("config needs a [grid] section")
    # a [DEFAULT] key shows in every section: some section has to read it,
    # and a section's check counts only its own lines
    defaults = set(cp.defaults())
    tables = [("DEFAULT", defaults,
               sorted(set().union(*_SECTION_KEYS.values())))]
    for section, keys in cfg.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]: the known "
                              f"sections are {list(_SECTION_KEYS)}")
        tables.append((section, set(keys) - defaults, _SECTION_KEYS[section]))
    for section, keys, known in tables:
        unknown = sorted(keys - set(known))
        if unknown:
            raise ConfigError(f"[{section}] unknown keys {unknown}: drop "
                              f"those lines; the known keys are {known}")
    return cfg


def _number(cfg: dict, section: str, key: str, default=None, kind=float):
    """``kind`` of the value of ``key`` under ``[section]`` (``default`` when
    it is absent); a missing required value, or one that does not parse, is
    a :class:`ConfigError` naming the section and key."""
    raw = cfg.get(section, {}).get(key, default)
    if raw is None:
        raise ConfigError(f"[{section}] {key} is required")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} does not parse: "
                          f"{exc}") from exc


def _build_grid(cfg: dict):
    try:
        return make_grid(n=_number(cfg, "grid", "n", 2, int),
                         L=_number(cfg, "grid", "l", 2 * np.pi),
                         N_tan=_number(cfg, "grid", "n_tan", 32, int),
                         X=_number(cfg, "grid", "x", 2 * np.pi),
                         N_vert=_number(cfg, "grid", "n_vert", 33, int),
                         T=_number(cfg, "grid", "t", 1.0),
                         N_time=_number(cfg, "grid", "n_time", 32, int))
    except HalfStokesError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def _build_index(cfg: dict, n: int) -> BesovIndex:
    sec = cfg.get("index", {})
    try:
        alpha = _number(cfg, "index", "alpha", 1.0)
        critical = sec.get("critical", "true")
        if critical.lower() not in _BOOLEANS:
            raise ConfigError(f"[index] critical = {critical!r} is not a "
                              f"boolean word, one of {list(_BOOLEANS)}")
        if _BOOLEANS[critical.lower()]:
            idx = BesovIndex.critical_index(alpha, n)
        else:
            idx = BesovIndex(alpha=alpha, q=_number(cfg, "index", "q"), n=n)
        # either key alone fails BesovIndex's pair rule
        pair = {k: _number(cfg, "index", k) for k in ("beta", "p") if k in sec}
        return dataclasses.replace(idx, **pair)
    except NormOrderError as exc:
        raise ConfigError(f"bad index: {exc}") from exc


def _require_critical(index: BesovIndex, command: str):
    if not index.critical:
        raise ConfigError(
            f"{command} needs the critical index q = (n + 2)/(alpha + 1) = "
            f"{(index.n + 2) / (index.alpha + 1):g}, got [index] q = "
            f"{index.q:g}")


_FAMILIES_2D = ("stream_compatible", "random_band", "forced_mms",
                "harmonic_gradient")


def _build_data(cfg: dict, grid, seed: int):
    sec = cfg.get("data", {})
    family = sec.get("family", "stream_compatible")
    if family in _FAMILIES_2D and grid.n != 2:
        raise ConfigError(f"[data] family = {family} is two-dimensional, "
                          f"got [grid] n = {grid.n}")
    amp = _number(cfg, "data", "amplitude", 1.0)
    if not np.isfinite(amp):
        raise ConfigError(f"amplitude must be finite, got {amp}")
    if family == "zero":
        h = VectorField(grid, np.zeros((grid.n,) + grid.tan_shape
                                       + (grid.N_vert,)),
                        domain="half", time_dependent=False)
        g = BoundaryField(grid, np.zeros((grid.n,) + grid.tan_shape
                                         + (grid.N_time,)))
        return h, g, None
    if family in ("stream_compatible", "random_band"):
        if family == "stream_compatible":
            h0 = datagen.stream_mode_initial_data(
                grid, k1=_number(cfg, "data", "k1", 1, int),
                m=_number(cfg, "data", "m", 2, int))
        else:
            h0 = datagen.random_divfree_initial(grid,
                                                np.random.default_rng(seed))
        return amp * h0, amp * datagen.compatible_boundary_data(grid, h0), None
    if family == "forced_mms":
        k1 = _number(cfg, "data", "k1", 2, int)
        if k1 < 1:
            raise ConfigError(f"[data] k1 = {k1} must be at least 1 for "
                              "family = forced_mms")
        mms = datagen.ForcedManufactured(k1=k1, amplitude=amp)
        return mms.initial_data(grid), mms.boundary_data(grid), mms.stress(grid)
    if family == "harmonic_gradient":
        _, h, g = datagen.harmonic_gradient_solution(
            grid, k1=_number(cfg, "data", "k1", 2, int), amplitude=amp)
        return h, g, None
    raise ConfigError(f"unknown data family {family!r}")


def _common_setup(args, report):
    if not 0.0 < args.tolerance_scale < np.inf:
        raise ConfigError(f"--tolerance-scale = {args.tolerance_scale:g} "
                          "must be finite and positive")
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"--seed = {args.seed} must be an unsigned 64-bit "
                          "integer")
    report["config"] = cfg = _parse_config(args.config)
    grid = _build_grid(cfg)
    return cfg, grid, _build_index(cfg, grid.n)


def cmd_solve_stokes(args, report) -> int:
    cfg, grid, index = _common_setup(args, report)
    h, g, F = _build_data(cfg, grid, args.seed)
    # an overflow is reported below, as one line
    with np.errstate(over="ignore", invalid="ignore"):
        sol = stk.solve_stokes(h, g, F, index=index, with_norms=True)
    report["diagnostics"] = {k: v for k, v in sol.diagnostics.items()
                             if k != "norms"}
    report["norms"] = sol.diagnostics.get("norms", {})
    # compat_norm is NaN by design when alpha <= 1/q, so it is not checked
    checked = {k: report["diagnostics"][k] for k in
               ("div_residual", "boundary_residual", "initial_residual")}
    bad = [k for k, v in {**checked, **report["norms"]}.items()
           if not np.isfinite(v)]
    if not np.all(np.isfinite(sol.u.data)):
        bad.insert(0, "velocity")
    if bad:
        raise InvalidDataError(f"overflow: {', '.join(bad)} not finite; "
                               "reduce [data] amplitude")
    io.save_field(sol.u, Path(args.out) / "velocity")
    io.export_csv_slice(sol.u, Path(args.out) / "velocity_wall.csv")
    print(f"solve-stokes ok: residuals div={report['diagnostics']['div_residual']:.3e} "
          f"boundary={report['diagnostics']['boundary_residual']:.3e}")
    return EXIT_OK


def cmd_solve_ns(args, report) -> int:
    cfg, grid, index = _common_setup(args, report)
    _require_critical(index, "solve-ns")
    h, g, _ = _build_data(cfg, grid, args.seed)
    max_iter = _number(cfg, "picard", "max_iter", 50, int)
    if max_iter < 1:
        raise ConfigError(f"[picard] max_iter = {max_iter} must be at least 1")
    tol = _number(cfg, "picard", "tol", 1e-8)
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"[picard] tol = {tol:g} must be finite and "
                          "positive")
    try:
        # picard_solve stops on an overflow, which is reported as one line
        with np.errstate(over="ignore", invalid="ignore"):
            u, trace = nsmod.picard_solve(h, g, index, max_iter=max_iter,
                                          tol=tol * args.tolerance_scale)
    except PicardDivergenceError as exc:
        report["trace"] = dataclasses.asdict(exc.trace) if exc.trace else []
        raise
    report["trace"] = dataclasses.asdict(trace)
    io.save_field(u, Path(args.out) / "velocity")
    ratios = trace.ratios()
    print(f"solve-ns ok: steps={len(trace.steps)} "
          f"last_ratio={ratios[-1] if ratios else float('nan'):.4f}")
    return EXIT_OK


def cmd_verify_ops(args, report) -> int:
    cfg, grid, index = _common_setup(args, report)
    if grid.n != 2:
        raise ConfigError(f"verify-ops draws two-dimensional samples for "
                          f"every ratio target, got [grid] n = {grid.n}")
    samples = _number(cfg, "verify", "samples", 20, int)
    if samples < 1:
        raise ConfigError(f"[verify] samples = {samples} must be at least 1")
    refinements = _number(cfg, "verify", "refinements", 1, int)
    if refinements < 0:
        raise ConfigError(f"[verify] refinements = {refinements} must not "
                          "be negative")
    known = verify.ratio_targets(index)
    names = [s.strip() for s in cfg.get("verify", {}).get(
        "targets", ",".join(known)).split(",") if s.strip()]
    if not names:
        raise ConfigError("[verify] targets lists no target, known are "
                          f"{sorted(known)}")
    unknown = [s for s in names if s not in known]
    if unknown:
        raise ConfigError(f"[verify] targets: unknown {unknown}, "
                          f"known are {sorted(known)}")
    if "gradient_duhamel" in names and index.beta is None:
        try:
            index.with_default_force_pair()
        except NormOrderError as exc:
            raise ConfigError(f"[verify] targets: gradient_duhamel has no "
                              f"force pair for this [index]: {exc}") from exc
    study = verify.operator_ratio_study(names, index, grid, samples=samples,
                                        refinements=refinements,
                                        seed=args.seed)
    report["ratio_studies"] = [
        {"target": k, "max_ratios": [lv["max_ratio"] for lv in v["levels"]],
         "drift": v["drift"]}
        for k, v in study.items()]
    limit = 0.25 * args.tolerance_scale
    bad = [k for k, v in study.items() if not v["drift"] < limit]
    for row in report["ratio_studies"]:
        print(f"{row['target']:24s} max={row['max_ratios']} "
              f"drift={row['drift']:.3f}")
    if bad:
        raise HalfStokesError(f"ratio drift beyond {limit:.2f}: {bad}")
    return EXIT_OK


def cmd_norms(args, report) -> int:
    cfg, grid, index = _common_setup(args, report)
    try:
        field = io.load_field(args.field)
    except (OSError, HalfStokesError) as exc:
        # a missing file, or one that load_field rejects
        raise ConfigError(f"field snapshot {args.field} does not load: "
                          f"{type(exc).__name__}: {exc}") from exc
    if not np.all(np.isfinite(field.data)):
        raise ConfigError(f"field snapshot {args.field} holds non-finite "
                          "values")
    norms = {"aniso": besov.aniso_norm, "lp": besov.lp_norm,
             "lq": lambda f, s, q: besov.field_lq(f, q),
             "lq_time_lp_space": besov.lq_time_lp_space}
    kind = cfg.get("norms", {}).get("kind", "aniso")
    if kind not in norms:
        raise ConfigError(f"[norms] kind = {kind!r} is unknown: the known "
                          f"kinds are {list(norms)}")
    s = _number(cfg, "norms", "s", index.alpha)
    q = _number(cfg, "norms", "q", index.q)
    try:
        # an overflow is reported below, as one line
        with np.errstate(over="ignore", invalid="ignore"):
            value = norms[kind](field, s, q)
    except (ShapeMismatchError, NormOrderError) as exc:
        raise ConfigError(f"norm kind {kind!r} does not fit the field: {exc}") \
            from exc
    report["norms"] = {kind: value, "s": s, "q": q}
    if not np.isfinite(value):
        raise InvalidDataError(f"overflow: the {kind} norm is not finite; the "
                               "snapshot is too large")
    print(f"{kind} norm = {value!r}")
    return EXIT_OK


def cmd_scaling(args, report) -> int:
    cfg, grid, index = _common_setup(args, report)
    _require_critical(index, "scaling")
    h, g, _ = _build_data(cfg, grid, args.seed)
    lambdas = _number(cfg, "scaling", "lambdas", "0.5,2.0",
                      lambda text: [float(s) for s in text.split(",")])
    bad = [lam for lam in lambdas if not 0.0 < lam < np.inf]
    if bad:
        raise ConfigError(f"[scaling] lambdas must be finite and positive, "
                          f"got {bad}")
    # the study stops on an overflow, which is reported as one line
    with np.errstate(over="ignore", invalid="ignore"):
        study = verify.scaling_invariance_check(h, g, index, lambdas)
    report["ratio_studies"] = [study]
    limit = 0.03 * args.tolerance_scale
    worst = max(row["M0_deviation"] for row in study["rows"])
    for row in study["rows"]:
        print(f"lambda={row['lambda']}: M0 deviation {row['M0_deviation']:.4f}")
    if not worst <= limit:
        raise HalfStokesError(f"M0 deviation {worst:.4f} beyond {limit:.3f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigError on a flag it rejects."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halfstokes",
        description="Half-space Stokes / Navier-Stokes solves and estimate "
                    "verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "solve-stokes": cmd_solve_stokes,
        "solve-ns": cmd_solve_ns,
        "verify-ops": cmd_verify_ops,
        "norms": cmd_norms,
        "scaling": cmd_scaling,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance-scale", type=float, default=1.0,
                       dest="tolerance_scale")
        if name == "norms":
            p.add_argument("--field", required=True,
                           help="snapshot prefix (without .bin/.json)")
        p.set_defaults(func=func)
    return parser


def _run(args, report) -> tuple[int, str]:
    """Run the command of ``args`` on ``report``: (exit code, failure line)."""
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args, report), ""
    except OSError as exc:
        return EXIT_CONFIG, f"config error: --out {args.out}: {exc}"
    except (ConfigError, NormOrderError) as exc:
        # a NormOrderError here is an [index] the command cannot use
        return EXIT_CONFIG, f"config error: {exc}"
    except MemoryError as exc:
        return EXIT_CONFIG, ("config error: out of memory "
                             f"({type(exc).__name__}: {exc}); reduce the "
                             "[grid] sizes")
    except PicardDivergenceError as exc:
        return EXIT_DIVERGED, f"diverged: {exc}"
    except HalfStokesError as exc:
        return EXIT_VERIFY, f"verification failure: {exc}"


def main(argv=None) -> int:
    """Every run ends here: its ``report.json`` is written, carrying the exit
    code and the one stderr line of a failure."""
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:  # no --out to write a report into
        code, line = EXIT_CONFIG, f"config error: {exc}"
    else:
        report = io.base_report({})
        report.update(seed=args.seed, tolerance_scale=args.tolerance_scale)
        code, line = _run(args, report)
        if code:
            report["error"] = {"code": code, "message": line}
        try:
            io.write_report(report, Path(args.out) / "report.json")
        except OSError as exc:  # a failed run keeps its own line
            code = code or EXIT_CONFIG
            line = line or f"config error: --out {args.out}: {exc}"
    if code:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
