import json
import re
import sys

import pytest

import thermoloop.cli as cli_mod
from thermoloop.cli import main, parse_config
from thermoloop.config_io import ConfigError, dump_config
from thermoloop.experiments import (ConstantField, ExperimentConfig, GaussianBlobs,
                                    Blob, SchemeSpec, grid_layout, list_presets,
                                    make_experiment)


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = ExperimentConfig(
        T=0.3, D=0.05, beta=(1.0,) * 4, kappa0=(0.0,) * 4,
        C_g=2.0, C_switch=0.2, L_w=-10.0, H_w=10.0,
        r_sigma=0.5, layout=grid_layout(2, 0.5),
        y0=GaussianBlobs((Blob((0.2, -0.1), 0.3, 0.6),)),
        ystar=ConstantField(0.0),
        scheme=SchemeSpec(n_div=10, n_steps=6))
    path = tmp_path / "tiny.json"
    dump_config(cfg, path)
    return path


def test_parse_config_preset():
    cfg = parse_config("exp2-ic1")
    assert cfg == make_experiment(2, variant=1)


def test_parse_config_unknown_source():
    with pytest.raises(ConfigError):
        parse_config("no-such-thing")


def test_list_presets_output(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert len(out) == 7
    assert set(out) == set(list_presets())


def test_run_writes_expected_files(tmp_path, tiny_config_path, capsys):
    out_dir = tmp_path / "results"
    code = main(["run", str(tiny_config_path), "--out", str(out_dir),
                 "--snap-every", "3"])
    assert code == 0
    assert (out_dir / "series.csv").exists()
    assert (out_dir / "config_echo").exists()
    # snapshots at 0, 3, 6 (cadence) and the final step
    snaps = sorted(p.name for p in out_dir.glob("snap_*.pgm"))
    assert snaps == ["snap_0.pgm", "snap_3.pgm", "snap_6.pgm"]
    rows = (out_dir / "series.csv").read_text().strip().split("\n")
    assert len(rows) == 8  # header + 7 time nodes


def test_run_outputs_byte_identical_on_repeat(tmp_path, tiny_config_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(tiny_config_path), "--out", str(d1), "--snap-every", "2"]) == 0
    assert main(["run", str(tiny_config_path), "--out", str(d2), "--snap-every", "2"]) == 0
    for name in ["series.csv", "config_echo", "snap_0.pgm", "snap_2.pgm",
                 "snap_4.pgm", "snap_6.pgm"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_snapshots_kept_only_for_out(tmp_path, tiny_config_path, monkeypatch):
    seen = []
    real_run = cli_mod.run_experiment

    def recording_run(config, **kwargs):
        seen.append(set(kwargs.get("snap_steps", ())))
        return real_run(config, **kwargs)

    monkeypatch.setattr(cli_mod, "run_experiment", recording_run)
    assert main(["run", str(tiny_config_path), "--snap-every", "1"]) == 0
    assert main(["run", str(tiny_config_path)]) == 0
    assert main(["run", str(tiny_config_path), "--out", str(tmp_path / "a"),
                 "--snap-every", "4"]) == 0
    assert main(["run", str(tiny_config_path), "--out", str(tmp_path / "b")]) == 0
    assert seen == [set(), set(), {0, 4, 6}, {0, 6}]


@pytest.mark.parametrize("every", ["0", "-3"])
@pytest.mark.parametrize("with_out", [False, True])
def test_bad_snap_every_rejected_before_the_run(tmp_path, tiny_config_path, capsys,
                                                monkeypatch, with_out, every):
    calls = []
    monkeypatch.setattr(cli_mod, "run_experiment", lambda *a, **k: calls.append(a))
    out_dir = tmp_path / "snaps"
    argv = ["run", str(tiny_config_path), "--snap-every", every]
    assert main(argv + (["--out", str(out_dir)] if with_out else [])) == 1
    assert capsys.readouterr().err.startswith("error: --snap-every must be >= 1")
    assert calls == []
    assert not out_dir.exists()


def test_run_config_echo_reproduces_run(tmp_path, tiny_config_path):
    # the echo holds every input that shapes the files, --explicit-measure included;
    # --snap-every only chooses which snapshots are written, so it is passed again
    series = {}
    for flags in ([], ["--explicit-measure"]):
        d1, d2 = (tmp_path / "-".join([name, *flags]) for name in ("first", "second"))
        assert main(["run", str(tiny_config_path), "--out", str(d1),
                     "--snap-every", "2", *flags]) == 0
        assert main(["run", str(d1 / "config_echo"), "--out", str(d2),
                     "--snap-every", "2"]) == 0
        written = sorted(p.name for p in d1.iterdir())
        assert written == ["config_echo", "series.csv", "snap_0.pgm", "snap_2.pgm",
                           "snap_4.pgm", "snap_6.pgm"]
        assert sorted(p.name for p in d2.iterdir()) == written
        for name in written:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (flags, name)
        series[bool(flags)] = (d1 / "series.csv").read_bytes()
    # so the rerun without the flag reproduced the explicit variant from its echo
    assert series[True] != series[False]


def test_run_cg_tol_override_lands_in_echo(tmp_path, tiny_config_path):
    # the solver tolerance is overridden by editing a copy of config_echo
    d1 = tmp_path / "first"
    assert main(["run", str(tiny_config_path), "--out", str(d1)]) == 0
    edited = json.loads((d1 / "config_echo").read_text())
    edited["scheme"]["cg_tol"] = 1e-12
    edited_path = tmp_path / "edited.json"
    edited_path.write_text(json.dumps(edited))
    d2 = tmp_path / "second"
    assert main(["run", str(edited_path), "--out", str(d2)]) == 0
    echoed = json.loads((d2 / "config_echo").read_text())
    assert echoed["scheme"]["cg_tol"] == 1e-12


@pytest.mark.parametrize("tol", ["inf", "nan", "1"])
def test_run_unusable_cg_tol_fails(tmp_path, tiny_config_path, capsys, tol):
    d = json.loads(tiny_config_path.read_text())
    d["scheme"]["cg_tol"] = float(tol)   # written as Infinity, NaN and 1.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(d))
    out_dir = tmp_path / "results"
    assert main(["run", str(bad_path), "--out", str(out_dir)]) == 1
    assert "scheme.cg_tol" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_takes_only_options_the_echo_reproduces(capsys):
    # every other input that shapes an output file comes from the config
    with pytest.raises(SystemExit):
        cli_mod.build_parser().parse_args(["run", "--help"])
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {"--help", "--out", "--snap-every", "--explicit-measure"}


def test_run_unknown_preset_fails(capsys):
    assert main(["run", "exp7-11"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_returns_nonzero(capsys):
    assert main(["frobnicate"]) != 0


@pytest.mark.parametrize("argv, code", [(["list-presets"], 0), (["run", "exp7-11"], 1),
                                        (["frobnicate"], 2)])
def test_console_main_exits_with_the_status_of_main(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["thermoloop", *argv])
    with pytest.raises(SystemExit) as info:
        cli_mod.console_main()
    assert info.value.code == code


def test_verify_convergence_passes(capsys):
    assert main(["verify", "convergence"]) == 0
    out = capsys.readouterr().out
    assert "order" in out


@pytest.mark.parametrize("check, options", [
    ("stability", {"--help", "--control", "--out"}),
    ("convergence", {"--help"}),
])
def test_verify_takes_no_setting_of_its_check(check, options, capsys):
    # each check runs at its one documented setting: deltas 1e-1, 1e-2, 1e-3,
    # and meshes N = 10, 20, 40
    with pytest.raises(SystemExit):
        cli_mod.build_parser().parse_args(["verify", check, "--help"])
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == options


@pytest.mark.parametrize("argv", [
    ["verify", "stability", "exp2-ic1", "--deltas", "1e-1,1e-2,1e-3"],
    ["verify", "stability", "exp2-ic1", "--control", "--deltas=1,0.1,0.01"],
    ["verify", "convergence", "--base-n", "8"],
    ["verify", "convergence", "--levels", "2"],
    ["verify", "convergence", "--levels=1"],
])
def test_removed_verify_setting_rejected_before_any_run(argv, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")
    for name in ("probe_data_stability", "probe_control_stability", "convergence_study"):
        monkeypatch.setattr(cli_mod, name, no_run)
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_stability_writes_report(tmp_path, tiny_config_path, capsys):
    out_dir = tmp_path / "verify"
    code = main(["verify", "stability", str(tiny_config_path), "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "report.csv").read_text().strip().split("\n")
    assert report[0] == "delta,response,ratio"
    assert [float(r.split(",")[0]) for r in report[1:]] == [1e-1, 1e-2, 1e-3]


def test_verify_stability_without_response_is_inconclusive(tiny_config_path, capsys,
                                                           monkeypatch):
    # a direction that perturbs nothing gives responses (0, 0, 0) and spread inf
    monkeypatch.setattr(cli_mod, "PROBE_DIRECTION", ConstantField(0.0))
    code = main(["verify", "stability", str(tiny_config_path)])
    assert code == 1
    assert "ratio spread factor: inf (inconclusive)" in capsys.readouterr().out


def test_verify_stability_control_mode(tmp_path, tiny_config_path):
    out_dir = tmp_path / "verify-ctrl"
    code = main(["verify", "stability", str(tiny_config_path), "--control",
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.csv").exists()


def test_verify_stability_control_mode_rejects_a_zero_control_height(
        tmp_path, tiny_config_path, capsys):
    # C_g * (1 + delta) is 0 at every delta: no response, and no Lipschitz verdict
    data = json.loads(tiny_config_path.read_text())
    data["C_g"] = 0.0
    path = tmp_path / "no-control.json"
    path.write_text(json.dumps(data))
    out_dir = tmp_path / "verify-no-control"
    code = main(["verify", "stability", str(path), "--control", "--out", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: C_g = 0.0 on 4 devices: ")
    assert not out_dir.exists()


def test_explicit_measure_flag_changes_scheme(tmp_path, tiny_config_path):
    out_dir = tmp_path / "explicit"
    assert main(["run", str(tiny_config_path), "--out", str(out_dir),
                 "--explicit-measure"]) == 0
    echoed = json.loads((out_dir / "config_echo").read_text())
    assert echoed["scheme"]["explicit_measure"] is True


@pytest.mark.parametrize("vmin, vmax", [("1", "0"), ("0.5", "0.5"), ("nan", "1"),
                                        ("-1", "inf"), ("-1e308", "1e308"), ("-inf", "1")])
def test_bad_snapshot_levels_rejected_before_the_run(tmp_path, tiny_config_path, capsys,
                                                     monkeypatch, vmin, vmax):
    # snapshots are written at the fixed levels -1 and +1: a level given on the
    # command line is refused as an unknown option, before any run or file
    calls = []
    monkeypatch.setattr(cli_mod, "run_experiment", lambda *a, **k: calls.append(a))
    out_dir = tmp_path / "levels"
    # each level given joined by "=" and as a separate argument
    for levels in ([f"--vmin={vmin}", f"--vmax={vmax}"], ["--vmin", vmin, "--vmax", vmax]):
        assert main(["run", str(tiny_config_path), "--out", str(out_dir)] + levels) == 2
        assert "unrecognized arguments: --vmin" in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()
