import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermoloop.experiments import ExplicitLayout, make_experiment, run_experiment
from thermoloop.fem import NodalField, assemble_mass, assemble_stiffness, field_from_values
from thermoloop.mesh import build_mesh
from thermoloop.metrics import ErrorRecorder, ErrorSeries
from thermoloop.output import (read_series_csv, read_snapshot_image,
                               write_series_csv, write_snapshot_image)
from thermoloop.stepper import SimState


def sample_series(n_steps=400, J=2):
    rng = np.random.default_rng(5)
    m = n_steps + 1
    return ErrorSeries(times=0.01 * np.arange(m),
                       e_y=np.abs(rng.standard_normal(m)),
                       e_grad=np.abs(rng.standard_normal(m)),
                       kappa_traces=rng.standard_normal((J, m)),
                       mass_trace=rng.standard_normal(m))


class TestSeriesCsv:
    def test_row_count_and_header(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(sample_series(400, J=3), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 402  # header + 401 nodes
        assert lines[0] == "t,e_y,e_grad,mass,kappa_1,kappa_2,kappa_3"

    def test_first_row_is_initial_time(self, tmp_path):
        series = sample_series(10)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        first = path.read_text().split("\n")[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(series.e_y[0], rel=1e-12)

    def test_round_trip_precision(self, tmp_path):
        series = sample_series(50)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        for a, b in ((series.times, back.times), (series.e_y, back.e_y),
                     (series.e_grad, back.e_grad),
                     (series.kappa_traces, back.kappa_traces),
                     (series.mass_trace, back.mass_trace)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_rows_in_time_order(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(sample_series(20), path)
        times = [float(line.split(",")[0])
                 for line in path.read_text().strip().split("\n")[1:]]
        assert times == sorted(times)

    def test_byte_determinism(self, tmp_path):
        series = sample_series(30)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(series, p1)
        write_series_csv(series, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("rows", ["1,2,3,4\n", "1,2,3,4,5,6\n", "", "\n"],
                             ids=["narrower", "wider", "header-only", "blank-row"])
    def test_read_rejects_rows_that_do_not_fit_the_header(self, tmp_path, rows):
        # kappa columns are neither dropped nor invented, and a file without
        # rows is no series
        path = tmp_path / "series.csv"
        path.write_text("t,e_y,e_grad,mass,kappa_1\n" + rows)
        width = len(rows.strip().split(",")) if rows.strip() else 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the header names 5 "
                                                 f"columns, the rows hold {width}$"):
                read_series_csv(path)


def test_series_and_csv_hold_no_second_copy(tmp_path):
    # a run of 1200 steps on 64 devices: series() returns views of the
    # recorder's arrays, and the writer streams rows instead of stacking them
    n_nodes, J = 1201, 64
    mesh = build_mesh(4)
    rec = ErrorRecorder(assemble_mass(mesh), assemble_stiffness(mesh),
                        np.zeros(mesh.n_vertices), n_nodes, 0.01)
    rng = np.random.default_rng(2)
    y = field_from_values(mesh, rng.standard_normal(mesh.n_vertices))
    for m in range(n_nodes):
        rec(SimState(step_index=m, y=y, kappa=rng.uniform(-1.0, 1.0, J)))
    recorded = n_nodes * (4 + J) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series = rec.series()
        series_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_series_csv(series, tmp_path / "series.csv")
        csv_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert series.n_nodes == n_nodes and series.kappa_traces.shape == (J, n_nodes)
    assert series_peak < recorded / 4, (series_peak, recorded)
    assert csv_peak < 64 * 1024, csv_peak


def line_by_line_series_csv(series, path):
    """The series writer before np.savetxt, kept as the byte-level reference."""
    J = series.kappa_traces.shape[0]
    lines = ["t,e_y,e_grad,mass" + "".join(f",kappa_{j + 1}" for j in range(J))]
    for i in range(series.n_nodes):
        cells = [series.times[i], series.e_y[i], series.e_grad[i], series.mass_trace[i]]
        cells.extend(series.kappa_traces[:, i])
        lines.append(",".join(f"{v:.12e}" for v in cells))
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("devices", [True, False], ids=["devices", "device-free"])
def test_series_csv_bytes_match_line_by_line_writer(tmp_path, devices):
    cfg = make_experiment(2)
    # at n_div=16 each of the 64 discs holds its centre vertex
    cfg = replace(cfg, T=0.1, scheme=replace(cfg.scheme, n_div=16, n_steps=10))
    if not devices:
        cfg = replace(cfg, layout=ExplicitLayout((), cfg.r_sigma), beta=(), kappa0=())
    series = run_experiment(cfg).series
    assert series.kappa_traces.shape[0] == (64 if devices else 0)
    write_series_csv(series, tmp_path / "new.csv")
    line_by_line_series_csv(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestSnapshotImage:
    mesh = build_mesh(4)

    def constant_field(self, c):
        return field_from_values(self.mesh, np.full(self.mesh.n_vertices, c))

    def test_all_black_at_min(self, tmp_path):
        path = tmp_path / "snap.pgm"
        write_snapshot_image(self.constant_field(-1.0), self.mesh, path=path)
        assert np.all(read_snapshot_image(path) == 0)

    def test_all_white_at_max(self, tmp_path):
        path = tmp_path / "snap.pgm"
        write_snapshot_image(self.constant_field(1.0), self.mesh, path=path)
        assert np.all(read_snapshot_image(path) == 255)

    def test_midpoint_rounds_half_up(self, tmp_path):
        path = tmp_path / "snap.pgm"
        write_snapshot_image(self.constant_field(0.0), self.mesh, path=path)
        assert np.all(read_snapshot_image(path) == 128)

    def test_truncation_outside_range(self):
        payload = write_snapshot_image(self.constant_field(7.5), self.mesh)
        pixels = np.frombuffer(payload.split(b"\n", 3)[3], dtype=np.uint8)
        assert np.all(pixels == 255)

    def test_header_and_size(self):
        payload = write_snapshot_image(self.constant_field(0.0), self.mesh)
        head = payload.split(b"\n", 3)
        assert head[0] == b"P5"
        assert head[1] == b"5 5"
        assert head[2] == b"255"
        assert len(head[3]) == 25

    def test_row_order_top_is_domain_top(self, tmp_path):
        # field = x2: top of the domain (x2 = +1) must be the brightest row
        values = self.mesh.vertices[:, 1]
        fld = field_from_values(self.mesh, values)
        path = tmp_path / "grad.pgm"
        write_snapshot_image(fld, self.mesh, path=path)
        img = read_snapshot_image(path)
        assert np.all(img[0] == 255)
        assert np.all(img[-1] == 0)
        assert np.all(np.diff(img[:, 0].astype(int)) < 0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            write_snapshot_image(self.constant_field(0.0), self.mesh,
                                 vmin=1.0, vmax=-1.0)

    @pytest.mark.parametrize("vmin, vmax", [(-1.0, np.inf), (-1e308, 1e308), (-np.inf, 1.0)])
    def test_rejects_range_of_infinite_width(self, vmin, vmax):
        # vmax - vmin overflows or is infinite: every pixel would be black or garbage
        with pytest.raises(ValueError, match="finite distance apart"):
            write_snapshot_image(self.constant_field(0.0), self.mesh, vmin=vmin, vmax=vmax)

    def test_rejects_foreign_field(self):
        # a field fits the mesh when it has one value per vertex
        other = build_mesh(5)
        n = self.mesh.n_vertices
        for fld in (field_from_values(other, np.zeros(other.n_vertices)),
                    NodalField(np.zeros(n - 1)), NodalField(np.zeros(n + 1))):
            with pytest.raises(ValueError, match=f"^field of {len(fld)} values does not fit "
                                                 f"a mesh of {n} vertices$"):
                write_snapshot_image(fld, self.mesh)

    def test_byte_determinism(self):
        rng = np.random.default_rng(9)
        fld = field_from_values(self.mesh, rng.uniform(-1, 1, self.mesh.n_vertices))
        assert write_snapshot_image(fld, self.mesh) == write_snapshot_image(fld, self.mesh)
