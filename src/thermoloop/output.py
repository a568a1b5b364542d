"""File output: error-series CSV and grayscale field snapshots (binary PGM)."""

from __future__ import annotations

import re
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


def write_snapshot_image(field: NodalField, mesh: Mesh, path) -> None:
    """Write a nodal field, one value per vertex of ``mesh``, to ``path`` as a
    binary graymap (P5, maxval 255).

    The pixel grid equals the vertex grid: (n_div+1) x (n_div+1) pixels, the
    top image row holding the top of the domain (largest second coordinate).
    Values map linearly from -1 (black) to +1 (white); values outside
    [-1, 1] are truncated.  Pixel law: floor(255 * clip((v + 1) / 2, 0, 1) + 0.5),
    i.e. round-half-up.
    """
    if len(field) != mesh.n_vertices:
        raise ValueError(f"field of {len(field)} values does not fit a mesh of "
                         f"{mesh.n_vertices} vertices")
    n = mesh.n_div + 1
    grid = field.values.reshape(n, n)          # row i holds vertices with x2 = -1 + i*h
    t = np.clip((grid + 1.0) / 2.0, 0.0, 1.0)
    pixels = np.floor(255.0 * t + 0.5).astype(np.uint8)
    pixels = pixels[::-1]                      # image top = domain top
    Path(path).write_bytes(f"P5\n{n} {n}\n255\n".encode("ascii") + pixels.tobytes())


def read_snapshot_image(path) -> np.ndarray:
    """Decode a P5 graymap written by write_snapshot_image into a pixel array.

    Raises ValueError, naming the path, for a header that is not the three
    lines write_snapshot_image writes and for pixels that are not exactly
    width x height bytes.
    """
    raw = Path(path).read_bytes()
    header = re.match(rb"P5\n(\d+) (\d+)\n255\n", raw)
    if header is None:
        raise ValueError(f"{path}: not a maxval-255 binary graymap")
    width, height = int(header[1]), int(header[2])
    pixels = raw[header.end():]
    if len(pixels) != width * height:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for a {width} x {height} image")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
