import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from thermoloop.cli import main
from thermoloop.config_io import (KINDS, ConfigError, config_from_dict, config_to_dict,
                                  config_to_json, dump_config, load_config)
from thermoloop.experiments import (Blob, ConstantField, ExperimentConfig, ExplicitLayout,
                                    FieldSum, GaussianBlobs, GridSubsetLayout, SchemeSpec,
                                    assemble, list_presets, make_experiment, preset,
                                    run_experiment)
from thermoloop.fem import interpolate
from thermoloop.mesh import build_mesh
from thermoloop.model import ReactionTerm

# sha256 of config_to_json(preset(name)): the file format, frozen byte for byte
PRESET_JSON_SHA256 = {
    "exp1-16": "96cae52f51767bbf76d26bf4eadef96c2b18f5f9bf175ff5527923db9e087537",
    "exp1-36": "a5cc526a0de90df84bff1717684985f4639bddf22b061aed72e0899888e17eb1",
    "exp1-64": "467b42e3a76aca95ce6b89cf715612785ccf3b6ada4174f4487b5da08954b66b",
    "exp2-ic1": "72984bbbbb8e9873d69245487caa6fd432f5b91c758a9a5bffc456c0e11c667c",
    "exp2-ic2": "ed8724c99a59b7c451e127e0c9f8b1ec1246b736ea61b85039af1fa414e49b21",
    "exp3-20": "fb210f99cfe0c8e87cc964709a19157b2fe57530546bcf9fe6ffd13acbb0af46",
    "exp3-64": "72984bbbbb8e9873d69245487caa6fd432f5b91c758a9a5bffc456c0e11c667c",
}


@pytest.mark.parametrize("name", sorted(PRESET_JSON_SHA256))
def test_preset_json_is_frozen(name):
    assert set(PRESET_JSON_SHA256) == set(list_presets())
    digest = hashlib.sha256(config_to_json(preset(name)).encode()).hexdigest()
    assert digest == PRESET_JSON_SHA256[name]


def test_round_trip_equality_all_presets():
    for name in list_presets():
        cfg = preset(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def _with_layout(cfg, layout):
    return replace(cfg, layout=layout, beta=(1.0,) * len(layout.centers),
                   kappa0=(0.0,) * len(layout.centers))


@pytest.mark.parametrize("change", [
    lambda c: _with_layout(c, ExplicitLayout((), 0.125)),
    lambda c: replace(_with_layout(c, ExplicitLayout(((0.0, 0.5), (-0.25, 0.0)), 0.125)),
                      beta=(0.5, 2.0), kappa0=(0.25, -1.0)),
    lambda c: replace(c, y0=FieldSum((ConstantField(0.1),
                                      GaussianBlobs((Blob((0.0, 0.5), 0.2, -0.3),)),
                                      FieldSum((ConstantField(-0.2),))))),
    # a list of blobs or terms is stored as the tuple its dump re-parses to
    lambda c: replace(c, y0=GaussianBlobs([Blob((0, 0), 0.3, 1.0)])),
    lambda c: replace(c, ystar=FieldSum([ConstantField(0.1),
                                         GaussianBlobs([Blob((0.0, 0.5), 0.2, -0.3)])])),
    lambda c: replace(c, reaction=ReactionTerm.zero()),
    lambda c: replace(c, layout=GridSubsetLayout(4, 0.125, (0, 5, 15)),
                      beta=(1.0, 0.5, 3.0), kappa0=(0.0, 0.1, -0.2)),
    lambda c: replace(c, scheme=SchemeSpec(n_div=10, n_steps=5, n_picard=2, cg_tol=1e-8,
                                           cg_max_iters=50, explicit_measure=True)),
])
def test_round_trip_equality_other_kinds(change):
    cfg = change(make_experiment(2))
    assert config_from_dict(json.loads(config_to_json(cfg))) == cfg
    hash(cfg)


@pytest.mark.parametrize("key, section, named", [
    ("y0", {"kind": "tanh_stripe", "axis": 0, "position": 0.0, "width": 0.3, "amplitude": 1.0},
     "config.y0"),
    ("reaction", {"kind": "polynomial", "coefficients": [0.0, 1.0]}, "config.reaction"),
    ("reaction", {"kind": "polynomial"}, "config.reaction"),
])
def test_removed_kinds_rejected(key, section, named):
    d = config_to_dict(make_experiment(2))
    d[key] = section
    with pytest.raises(ConfigError, match=named):
        config_from_dict(d)


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


@pytest.mark.parametrize("key, value, message", [
    ("r_sigma", math.nextafter(0.125, 1.0),
     "r_sigma 0.12500000000000003 must equal the layout's device radius 0.125"),
    ("H_w", 0.0, "H_w must be positive, got 0.0"),
    ("H_w", -10.0, "H_w must be positive, got -10.0"),
    ("L_w", 0.0, "L_w must be nonzero"),
    ("C_switch", 0.0, "C_switch must be positive, got 0.0"),
    ("C_switch", -0.2, "C_switch must be positive, got -0.2"),
], ids=["r_sigma-ulp", "H_w-zero", "H_w-negative", "L_w-zero", "C_switch-zero",
        "C_switch-negative"])
def test_parameter_rule_named(key, value, message):
    d = config_to_dict(make_experiment(2))
    d[key] = value
    with pytest.raises(ConfigError, match="^" + re.escape("config: " + message)):
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


@pytest.mark.parametrize("cls", [*KINDS.values(), Blob, ExperimentConfig, SchemeSpec,
                                 ReactionTerm])
def test_annotations_have_no_nested_quotes(cls):
    # Python 3.10's get_type_hints leaves a quoted name inside tuple[...] a plain str,
    # which the mapper would then read as a number.
    for name, annotation in cls.__annotations__.items():
        assert not set("'\"") & set(str(annotation)), f"{cls.__name__}.{name}: {annotation}"


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


@pytest.mark.parametrize("literal", ["1e999", "1.0", "-1e999", "2"])
def test_unusable_cg_tol_in_file_rejected(tmp_path, literal):
    # 1e999 parses as inf: every solve would stop at its warm start
    d = config_to_dict(make_experiment(2))
    d["scheme"]["cg_tol"] = "CG_TOL"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d).replace('"CG_TOL"', literal))
    with pytest.raises(ConfigError, match=r"config\.scheme: scheme\.cg_tol must lie in \(0, 1\)"):
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
    (("T",), 10 ** 400, "config.T: int too large to convert to float"),
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


EXPLICIT = _with_layout(make_experiment(2), ExplicitLayout(((0.0, 0.5), (-0.25, 0.0)), 0.125))
NAN = float("nan")


@pytest.mark.parametrize("config, path, value, named", [
    (make_experiment(2), ("layout", "radius"), NAN, "config.layout: radius"),
    (make_experiment(3, devices=20), ("layout", "radius"), NAN, "config.layout: radius"),
    (EXPLICIT, ("layout", "radius"), NAN, "config.layout: radius"),
    (EXPLICIT, ("layout", "centers", 1, 0), NAN, "config.layout: centers"),
    (make_experiment(2), ("y0", "blobs", 0, "amplitude"), 1e999,
     r"config.y0.blobs\[0\]: amplitude"),
    (make_experiment(2), ("y0", "blobs", 2, "width"), 1e999, r"config.y0.blobs\[2\]: width"),
    (make_experiment(2), ("ystar", "blobs", 1, "center", 0), -1e999,
     r"config.ystar.blobs\[1\]: center"),
    (make_experiment(1), ("ystar", "value"), 1e999, "config.ystar: value"),
])
def test_non_finite_layout_or_field_named(config, path, value, named):
    # unchecked, each would load or fail without its key: a NaN radius fails only
    # the r_sigma comparison, a NaN center makes a device that covers no vertex, an
    # infinite amplitude fails only at assembly, and an infinite width flattens the blob
    d = config_to_dict(config)
    _set(d, path, value)
    with pytest.raises(ConfigError, match=named + " must be finite"):
        config_from_dict(d)


def test_integral_float_count_accepted():
    d = config_to_dict(make_experiment(2))
    d["scheme"]["n_div"] = 100.0
    assert config_from_dict(d) == make_experiment(2)


SMALL = replace(make_experiment(2), scheme=SchemeSpec(n_div=16, n_steps=400))


@pytest.mark.parametrize("make", [
    lambda: replace(SMALL, T=np.float32(4.0)),
    lambda: _with_layout(SMALL, ExplicitLayout(np.array([[0.0, 0.5], [-0.25, 0.0]]), 0.125)),
    lambda: _with_layout(SMALL, ExplicitLayout(((np.float32(0.1), 0.5),), 0.125)),
], ids=["float32-T", "ndarray-centers", "float32-center"])
def test_config_holding_numpy_numbers_dumps_and_reuses_its_assembly(make):
    a, b = make(), make()
    # an ndarray made == raise, and a numpy scalar made the dump raise TypeError
    assert a == b
    again = config_from_dict(json.loads(config_to_json(a)))
    assert again == a
    assert config_to_json(again) == config_to_json(a)
    for config in (b, again):
        run_experiment(config, assembled=assemble(a))


def test_config_holding_a_float32_T_runs_the_bits_of_its_reparse():
    # a float32 T made a float32 tau: reusing its assembly ended 1.1e-10 from a
    # fresh run of the equal re-parsed config
    a = replace(SMALL, T=np.float32(4.0))
    b = config_from_dict(json.loads(config_to_json(a)))
    assert a == b and type(a.T) is float
    assert type(a.tau) is float and a.tau.hex() == b.tau.hex()
    fresh = run_experiment(b).final_state
    reused = run_experiment(b, assembled=assemble(a)).final_state
    assert reused.y.values.tobytes() == fresh.y.values.tobytes()
    assert reused.kappa.tobytes() == fresh.kappa.tobytes()


@pytest.mark.parametrize("layout", ["grid", "grid-subset", "explicit"])
def test_real_parameters_stored_as_floats(layout):
    cfg = make_experiment(2)
    radius = np.float32(cfg.layout.radius)   # 0.125, exact in float32
    layouts = {"grid": replace(cfg.layout, radius=radius),
               "grid-subset": GridSubsetLayout(cfg.layout.n_per_side, radius, (0, 9)),
               "explicit": ExplicitLayout(((0.0, 0.5),), radius)}
    names = ("T", "D", "C_g", "C_switch", "L_w", "H_w")
    built = _with_layout(replace(cfg, **{name: np.float32(getattr(cfg, name)) for name in names},
                                 r_sigma=radius), layouts[layout])
    built = replace(built, scheme=replace(built.scheme, cg_tol=np.float32(1e-10)))
    for value in [getattr(built, name) for name in names + ("r_sigma",)] + [
            built.layout.radius, built.scheme.cg_tol]:
        assert type(value) is float


def test_field_parameters_stored_as_floats():
    # a float32 blob equal to its float twin interpolated 1.2e-8 off it
    blobs = [(tuple(np.float32(c) for c in b.center), np.float32(b.width),
              np.float32(b.amplitude)) for b in make_experiment(2).y0.blobs]
    single = GaussianBlobs(tuple(Blob(*b) for b in blobs))
    twin = GaussianBlobs(tuple(Blob(tuple(map(float, c)), float(w), float(a))
                               for c, w, a in blobs))
    assert single == twin
    assert all(type(v) is float for b in single.blobs
               for v in b.center + (b.width, b.amplitude))
    mesh = build_mesh(16)
    assert interpolate(mesh, single).values.tobytes() == interpolate(mesh, twin).values.tobytes()
    assert type(ConstantField(np.float32(0.5)).value) is float


def test_explicit_centers_stored_as_float_pairs():
    layout = ExplicitLayout(np.array([[0.0, 0.5], [-0.25, 0.0]]), 0.125)
    assert layout.centers == ((0.0, 0.5), (-0.25, 0.0))
    assert all(type(v) is float for c in layout.centers for v in c)
