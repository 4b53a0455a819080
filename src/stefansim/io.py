"""Deterministic file output: energy time series, snapshots/checkpoints,
spectrum tables.

Bodies are byte-stable for identical configs and seeds: floats are
written with repr-faithful %.17g, and wall-clock timestamps live only in
sidecar ``.meta`` files.  Every writer goes through write-to-temp plus
atomic rename so a failed run never leaves partial files behind.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import time

import numpy as np

from .functionals import EnergyReport
from .stepper import State


def _fmt(x):
    return format(float(x), ".17g")


def config_hash(cfg):
    """Stable short hash of a SolverConfig: a name = value line per field and constant."""
    items = sorted((k, getattr(cfg, k)) for k in type(cfg).__annotations__)
    text = "\n".join(f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in items)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` through a temporary file beside it and an
    atomic rename; on any failure the temporary file is removed and the
    error raised again."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_artifact(path, text):
    """Write a deterministic artifact body and, beside it, its wall-clock
    ``<path>.meta`` sidecar."""
    atomic_write_text(path, text)
    atomic_write_text(f"{path}.meta", f"written_unix={time.time():.3f}\n")


def _energy_row(report):
    """One energy.csv row: %.17g cells, an integer ``inner_iters``, and an
    empty cell for a missing (None) value."""
    cells = []
    for name in EnergyReport.CSV_COLUMNS:
        val = getattr(report, name)
        if val is None:
            cells.append("")
        elif name == "inner_iters":
            cells.append(str(int(val)))
        else:
            cells.append(_fmt(val))
    return ",".join(cells)


def energy_csv_text(reports, cfg, seed=None):
    head = [f"# config_hash={config_hash(cfg)}"]
    if seed is not None:
        head.append(f"# seed={seed}")
    head.append(",".join(EnergyReport.CSV_COLUMNS))
    rows = [_energy_row(r) for r in reports]
    return "\n".join(head + rows) + "\n"


def write_energy_csv(path, reports, cfg, seed=None):
    write_artifact(path, energy_csv_text(reports, cfg, seed=seed))


def read_energy_csv(path):
    """Parse an energy time-series CSV back into column arrays."""
    cols = None
    data = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if cols is None:
                cols = line.split(",")
                continue
            vals = [float(v) if v else np.nan for v in line.split(",")]
            data.append(vals)
    arr = np.asarray(data, dtype=float)
    return {c: arr[:, j] for j, c in enumerate(cols)}


def snapshot_text(state, cfg):
    lines = [
        "# stefansim snapshot",
        f"# config_hash={config_hash(cfg)}",
        f"# t={_fmt(state.t)}",
        f"# epsilon={_fmt(cfg.epsilon)}",
        f"# dt={_fmt(cfg.dt)}",
        f"# n_x={cfg.n_x}",
        f"# n_z={cfg.n_z}",
        f"# alpha={_fmt(cfg.alpha)}",
        "# rho: one row; u: one row per tangential node",
        ",".join(_fmt(v) for v in state.rho),
    ]
    for row in state.u:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_snapshot(path, state, cfg):
    write_artifact(path, snapshot_text(state, cfg))


def read_snapshot(path):
    """Returns (state, meta dict).  Inverse of write_snapshot; resumable."""
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    k, _, v = line[1:].strip().partition("=")
                    meta[k.strip()] = v.strip()
                continue
            rows.append(np.array([float(v) for v in line.split(",")]))
    if not rows:
        raise ValueError(f"snapshot {path} contains no data rows")
    rho = rows[0]
    u = np.vstack(rows[1:]) if len(rows) > 1 else np.zeros((rho.size, 0))
    state = State(t=float(meta.get("t", 0.0)), u=u, rho=rho)
    return state, meta


SPECTRUM_EIGENVALUES = 6  # eigenvalues per row of spectrum.csv


def spectrum_csv_text(modes, eps_values):
    """Rows (k, eps, Re/Im of the SPECTRUM_EIGENVALUES leading eigenvalues).

    ``modes`` is a list of LinearizedMode aligned with eps_values
    (cartesian rows are flattened by the caller).
    """
    cols = ["k", "eps"]
    for j in range(1, SPECTRUM_EIGENVALUES + 1):
        cols += [f"re_lambda_{j}", f"im_lambda_{j}"]
    lines = [",".join(cols)]
    for mode, eps in zip(modes, eps_values):
        vals = mode.eigenvalues[:SPECTRUM_EIGENVALUES]
        row = [str(mode.k), _fmt(eps)]
        for j in range(SPECTRUM_EIGENVALUES):
            if j < vals.size:
                row += [_fmt(vals[j].real), _fmt(vals[j].imag)]
            else:
                row += ["", ""]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
