import json

import pytest

from thermoloop.cli import main
from thermoloop.config_io import (ConfigError, config_from_dict, config_to_dict,
                                  dump_config, load_config)
from thermoloop.experiments import list_presets, make_experiment, preset


def test_round_trip_equality_all_presets():
    for name in list_presets():
        cfg = preset(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_file_round_trip(tmp_path):
    cfg = make_experiment(2, variant=1)
    path = tmp_path / "exp2.json"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_echo_of_parsed_file_reparses_equal(tmp_path):
    cfg = make_experiment(3, devices=20)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_config(cfg, p1)
    parsed = load_config(p1)
    dump_config(parsed, p2)
    assert load_config(p2) == parsed
    assert p1.read_text() == p2.read_text()


def test_unknown_key_named():
    d = config_to_dict(make_experiment(2))
    d["diffusivity"] = 1.0
    with pytest.raises(ConfigError, match="diffusivity"):
        config_from_dict(d)


def test_missing_key_named():
    d = config_to_dict(make_experiment(2))
    del d["C_switch"]
    with pytest.raises(ConfigError, match="C_switch"):
        config_from_dict(d)


def test_zero_beta_rejected_citing_constraint():
    d = config_to_dict(make_experiment(2))
    d["beta"] = 0.0
    with pytest.raises(ConfigError, match="beta_j > 0"):
        config_from_dict(d)


def test_scalar_broadcast_for_beta_and_kappa0():
    d = config_to_dict(make_experiment(2))
    d["beta"] = 2.0
    d["kappa0"] = 0.5
    cfg = config_from_dict(d)
    assert cfg.beta == (2.0,) * 64
    assert cfg.kappa0 == (0.5,) * 64


def test_wrong_beta_length_named():
    d = config_to_dict(make_experiment(2))
    d["beta"] = [1.0, 1.0]
    with pytest.raises(ConfigError, match="config.beta"):
        config_from_dict(d)


def test_unknown_field_kind():
    d = config_to_dict(make_experiment(2))
    d["y0"] = {"kind": "checkerboard"}
    with pytest.raises(ConfigError, match="checkerboard"):
        config_from_dict(d)


def test_unknown_scheme_key():
    d = config_to_dict(make_experiment(2))
    d["scheme"]["dt"] = 0.1
    with pytest.raises(ConfigError, match="dt"):
        config_from_dict(d)


def test_json_syntax_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "T": 4.0,\n  "D":\n}\n')
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_floats_round_trip_exactly(tmp_path):
    cfg = make_experiment(1, devices=36)  # r_sigma = 1/6 is not dyadic
    path = tmp_path / "c.json"
    dump_config(cfg, path)
    again = load_config(path)
    assert again.r_sigma == cfg.r_sigma
    assert again.C_g == cfg.C_g
    data = json.loads(path.read_text())
    assert data["r_sigma"] == cfg.r_sigma


@pytest.mark.parametrize("key, value", [("cg_tol", -1.0), ("cg_tol", 0.0),
                                        ("cg_max_iters", 0), ("cg_max_iters", -3)])
def test_bad_solver_setting_in_file_rejected(tmp_path, key, value):
    d = config_to_dict(make_experiment(2))
    d["scheme"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def _set(d, path, value):
    """Set d[path[0]][path[1]]... = value; integers index lists."""
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


@pytest.mark.parametrize("path, value, named", [
    (("scheme",), 5, "config.scheme"),
    (("T",), None, "config.T"),
    (("layout", "n_per_side"), None, "config.layout.n_per_side"),
    (("beta",), None, "config.beta"),
    (("y0", "blobs", 0, "center"), 5, r"config.y0.blobs\[0\].center"),
    (("scheme", "n_div"), 2.7, "config.scheme.n_div"),
    (("scheme", "n_steps"), "400", "config.scheme.n_steps"),
    (("beta",), [1.0] * 63 + ["1"], r"config.beta\[63\]"),
    (("layout",), [], "config.layout"),
    (("scheme", "explicit_measure"), "false", "config.scheme.explicit_measure"),
])
def test_wrong_json_type_is_named_without_traceback(tmp_path, capsys, path, value, named):
    d = config_to_dict(make_experiment(2))
    _set(d, path, value)
    with pytest.raises(ConfigError, match=named):
        config_from_dict(d)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(d))
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named.replace("\\", "") in err
    assert "Traceback" not in err


def test_integral_float_count_accepted():
    d = config_to_dict(make_experiment(2))
    d["scheme"]["n_div"] = 100.0
    assert config_from_dict(d) == make_experiment(2)
