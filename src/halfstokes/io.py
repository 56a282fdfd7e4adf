"""Field snapshots (flat float64 binary + JSON sidecar), CSV slice export
and deterministic JSON reports."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import (BoundaryField, HalfSpaceGrid, ScalarField, TensorField,
                   VectorField)
from .errors import InvalidDataError

_FIELD_KINDS = {
    "ScalarField": ScalarField,
    "VectorField": VectorField,
    "TensorField": TensorField,
    "BoundaryField": BoundaryField,
}


def _grid_dict(grid: HalfSpaceGrid) -> dict:
    return {f.name: getattr(grid, f.name) for f in fields(grid) if f.init}


def grid_from_dict(d: dict) -> HalfSpaceGrid:
    """The grid of a sidecar.  Older versions record ``"grading": 1.0``,
    which loads; any other grading is an :class:`InvalidDataError`, since
    the vertical nodes are uniform."""
    grading = float(d.get("grading", 1.0))
    if grading != 1.0:
        raise InvalidDataError(f"grid grading = {grading:g}: only uniform "
                               "vertical nodes (grading = 1) are supported")
    return HalfSpaceGrid(n=int(d["n"]), L=float(d["L"]), N_tan=int(d["N_tan"]),
                         X=float(d["X"]), N_vert=int(d["N_vert"]),
                         T=float(d["T"]), N_time=int(d["N_time"]))


def save_field(field, prefix) -> None:
    """Write ``prefix.bin`` (little-endian float64, C order) and the JSON
    sidecar ``prefix.json`` describing shape, axes and grid."""
    prefix = Path(prefix)
    data = np.ascontiguousarray(field.data, dtype="<f8")
    data.tofile(prefix.with_suffix(".bin"))
    axes = ["component"] * field.ncomp_axes
    axes += [f"tangential_{i}" for i in range(field.grid.n_tan_axes)]
    if field.domain != "boundary":
        axes.append("vertical")
    if field.time_dependent:
        axes.append("time")
    sidecar = {
        "kind": type(field).__name__,
        "domain": field.domain,
        "time_dependent": field.time_dependent,
        "shape": list(data.shape),
        "axes": axes,
        "dtype": "float64",
        "endianness": "little",
        "component_order": "leading axes are components",
        "grid": _grid_dict(field.grid),
    }
    prefix.with_suffix(".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_field(prefix):
    """Read a snapshot of :func:`save_field`.  A missing file raises OSError;
    a sidecar that does not parse, lacks a key, names an unknown kind or
    records a grading other than 1, or a ``.bin`` that does not fill its
    recorded shape, raises InvalidDataError."""
    prefix = Path(prefix)
    try:
        sidecar = json.loads(prefix.with_suffix(".json").read_text())
        grid = grid_from_dict(sidecar["grid"])
        data = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8")
        data = data.reshape(sidecar["shape"])
        cls = _FIELD_KINDS[sidecar["kind"]]
        kw = {} if cls is BoundaryField else {"domain": sidecar["domain"]}
        return cls(grid, data, time_dependent=sidecar["time_dependent"], **kw)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InvalidDataError(f"{type(exc).__name__}: {exc}") from exc


def export_csv_slice(field, path) -> None:
    """CSV of a 1-D/2-D slice of the first component at the first node of
    every tangential axis but the first: tangential axis (rows) by time
    (columns) at the wall node, or by vertical node for steady fields."""
    grid = field.grid
    data = field.data
    for _ in range(field.ncomp_axes + grid.n_tan_axes - 1):
        data = data[0]
    if field.domain != "boundary" and field.time_dependent:
        data = data[:, 0]
    lines = []
    if data.ndim == 1:
        lines.append("tangential,value")
        for xv, val in zip(grid.tan_nodes, data):
            lines.append(f"{xv!r},{val!r}")
    else:
        header = ",".join(["tangential"] + [repr(t) for t in
                          (grid.time_nodes if field.time_dependent
                           else grid.vert_nodes)])
        lines.append(header)
        for xv, row in zip(grid.tan_nodes, data):
            lines.append(",".join([repr(xv)] + [repr(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(report: dict, path) -> None:
    """Deterministic JSON: sorted keys, no timestamps; non-finite numbers
    are written as null."""
    Path(path).write_text(json.dumps(_sanitize(report), sort_keys=True,
                                     indent=2, allow_nan=False) + "\n")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):  # NaN, +-inf
        return None
    return obj


def base_report(config: dict) -> dict:
    return {"config": config, "version": __version__,
            "diagnostics": {}, "norms": {}, "trace": [],
            "ratio_studies": []}
