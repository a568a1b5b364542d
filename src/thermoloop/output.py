"""File output: error-series CSV and grayscale field snapshots (binary PGM)."""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .fem import NodalField
from .mesh import Mesh
from .metrics import ErrorSeries


def write_series_csv(series: ErrorSeries, path) -> None:
    """One row per time node: t, e_y, e_grad, mass, kappa_1..kappa_J.

    Values are written with 13 significant digits so a re-read reproduces
    the series to better than 1e-12 relative.  Each row is formatted and
    written on its own, the bytes ``np.savetxt`` writes, without a stacked
    copy of the series.
    """
    J = series.kappa_traces.shape[0]
    header = "t,e_y,e_grad,mass" + "".join(f",kappa_{j + 1}" for j in range(J))
    row = ",".join(["%.12e"] * (4 + J)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, e_y, e_grad, mass, kappa in zip(series.times, series.e_y, series.e_grad,
                                               series.mass_trace, series.kappa_traces.T):
            fh.write(row % (t, e_y, e_grad, mass, *kappa.tolist()))


def read_series_csv(path) -> ErrorSeries:
    """Inverse of write_series_csv.

    Raises ValueError for a header that does not start t,e_y,e_grad,mass,
    and for rows whose column count differs from the header's, a file
    without rows included.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:4] != ["t", "e_y", "e_grad", "mass"]:
            raise ValueError(f"{path}: unexpected series header {header[:4]}")
        with warnings.catch_warnings():
            # loadtxt warns on a file without rows, which is rejected below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    width = data.shape[1] if len(data) else 0
    if width != len(header):
        raise ValueError(f"{path}: the header names {len(header)} columns, "
                         f"the rows hold {width}")
    return ErrorSeries(times=data[:, 0], e_y=data[:, 1], e_grad=data[:, 2],
                       mass_trace=data[:, 3], kappa_traces=data[:, 4:].T)


def write_snapshot_image(field: NodalField, mesh: Mesh, vmin: float = -1.0,
                         vmax: float = 1.0, path=None) -> bytes:
    """Render a nodal field, one value per vertex of ``mesh``, as a binary
    graymap (P5, maxval 255).

    The pixel grid equals the vertex grid: (n_div+1) x (n_div+1) pixels, the
    top image row holding the top of the domain (largest second coordinate).
    Values map linearly from vmin (black) to vmax (white); values outside
    [vmin, vmax] are truncated.  vmax - vmin must be positive and finite.  Pixel law: floor(255 * t + 0.5) for
    t = clamp((v - vmin) / (vmax - vmin), 0, 1), i.e. round-half-up.

    Returns the encoded bytes; writes them to ``path`` when given.
    """
    if not 0 < vmax - vmin < math.inf:
        raise ValueError(f"need vmin < vmax a finite distance apart, got [{vmin}, {vmax}]")
    if len(field) != mesh.n_vertices:
        raise ValueError(f"field of {len(field)} values does not fit a mesh of "
                         f"{mesh.n_vertices} vertices")
    n = mesh.n_div + 1
    grid = field.values.reshape(n, n)          # row i holds vertices with x2 = -1 + i*h
    t = np.clip((grid - vmin) / (vmax - vmin), 0.0, 1.0)
    pixels = np.floor(255.0 * t + 0.5).astype(np.uint8)
    pixels = pixels[::-1]                      # image top = domain top
    payload = f"P5\n{n} {n}\n255\n".encode("ascii") + pixels.tobytes()
    if path is not None:
        Path(path).write_bytes(payload)
    return payload


def read_snapshot_image(path) -> np.ndarray:
    """Decode a P5 graymap written by write_snapshot_image into a pixel array."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path}: not a maxval-255 binary graymap")
    width, height = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3][:width * height], dtype=np.uint8)
    return pixels.reshape(height, width)
