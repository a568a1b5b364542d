"""Dict/JSON serialization of experiment configurations.

The dict layout mirrors the ExperimentConfig field names exactly, so a
dumped configuration is human-diffable and re-parses to an equal config.
Unknown keys, missing required keys and invariant violations are each
reported by name.
"""

from __future__ import annotations

import json
from pathlib import Path

from .experiments import (Blob, ConstantField, ExperimentConfig, ExplicitLayout,
                          FieldSpec, FieldSum, GaussianBlobs, GridLayout,
                          GridSubsetLayout, LayoutSpec, SchemeSpec, TanhStripe,
                          device_count)
from .model import ReactionTerm


class ConfigError(ValueError):
    """A configuration file failed validation."""


def _check_keys(d: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    unknown = set(d) - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _number(value, where: str, integral: bool = False):
    """A JSON number as a float, or as an int when ``integral``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not integral:
        return float(value)
    if not (isinstance(value, int) or value.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _list(value, where: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{where}: expected {length} entries, got {len(value)}")
    return value


def _numbers(value, where: str, integral: bool = False, length: int | None = None) -> tuple:
    return tuple(_number(v, f"{where}[{i}]", integral)
                 for i, v in enumerate(_list(value, where, length)))


# ---- field specs ----------------------------------------------------------

def field_to_dict(spec: FieldSpec) -> dict:
    if isinstance(spec, ConstantField):
        return {"kind": "constant", "value": spec.value}
    if isinstance(spec, GaussianBlobs):
        return {"kind": "gaussian_blobs",
                "blobs": [{"center": list(b.center), "width": b.width,
                           "amplitude": b.amplitude} for b in spec.blobs]}
    if isinstance(spec, TanhStripe):
        return {"kind": "tanh_stripe", "axis": spec.axis, "position": spec.position,
                "width": spec.width, "amplitude": spec.amplitude}
    if isinstance(spec, FieldSum):
        return {"kind": "sum", "terms": [field_to_dict(t) for t in spec.terms]}
    raise TypeError(f"not a field spec: {spec!r}")


def field_from_dict(d: dict, where: str = "field") -> FieldSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = d["kind"]
    if kind == "constant":
        _check_keys(d, {"kind", "value"}, set(), where)
        return ConstantField(_number(d["value"], f"{where}.value"))
    if kind == "gaussian_blobs":
        _check_keys(d, {"kind", "blobs"}, set(), where)
        blobs = []
        for i, b in enumerate(_list(d["blobs"], f"{where}.blobs")):
            at = f"{where}.blobs[{i}]"
            _check_keys(b, {"center", "width", "amplitude"}, set(), at)
            blobs.append(Blob(_numbers(b["center"], f"{at}.center", length=2),
                              _number(b["width"], f"{at}.width"),
                              _number(b["amplitude"], f"{at}.amplitude")))
        return GaussianBlobs(tuple(blobs))
    if kind == "tanh_stripe":
        _check_keys(d, {"kind", "axis", "position", "width", "amplitude"}, set(), where)
        return TanhStripe(_number(d["axis"], f"{where}.axis", integral=True),
                          _number(d["position"], f"{where}.position"),
                          _number(d["width"], f"{where}.width"),
                          _number(d["amplitude"], f"{where}.amplitude"))
    if kind == "sum":
        _check_keys(d, {"kind", "terms"}, set(), where)
        return FieldSum(tuple(field_from_dict(t, f"{where}.terms[{i}]")
                              for i, t in enumerate(_list(d["terms"], f"{where}.terms"))))
    raise ConfigError(f"{where}: unknown field kind {kind!r}")


# ---- layouts --------------------------------------------------------------

def layout_to_dict(layout: LayoutSpec) -> dict:
    if isinstance(layout, GridLayout):
        return {"kind": "grid", "n_per_side": layout.n_per_side, "radius": layout.radius}
    if isinstance(layout, GridSubsetLayout):
        return {"kind": "grid_subset", "n_per_side": layout.n_per_side,
                "radius": layout.radius, "kept_indices": list(layout.kept_indices)}
    if isinstance(layout, ExplicitLayout):
        return {"kind": "explicit", "centers": [list(c) for c in layout.centers],
                "radius": layout.radius}
    raise TypeError(f"not a layout spec: {layout!r}")


def layout_from_dict(d: dict, where: str = "layout") -> LayoutSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = d["kind"]
    if kind == "grid":
        _check_keys(d, {"kind", "n_per_side", "radius"}, set(), where)
        return GridLayout(_number(d["n_per_side"], f"{where}.n_per_side", integral=True),
                          _number(d["radius"], f"{where}.radius"))
    if kind == "grid_subset":
        _check_keys(d, {"kind", "n_per_side", "radius", "kept_indices"}, set(), where)
        return GridSubsetLayout(_number(d["n_per_side"], f"{where}.n_per_side", integral=True),
                                _number(d["radius"], f"{where}.radius"),
                                _numbers(d["kept_indices"], f"{where}.kept_indices",
                                         integral=True))
    if kind == "explicit":
        _check_keys(d, {"kind", "centers", "radius"}, set(), where)
        centers = _list(d["centers"], f"{where}.centers")
        return ExplicitLayout(tuple(_numbers(c, f"{where}.centers[{i}]", length=2)
                                    for i, c in enumerate(centers)),
                              _number(d["radius"], f"{where}.radius"))
    raise ConfigError(f"{where}: unknown layout kind {kind!r}")


# ---- reaction -------------------------------------------------------------

def reaction_to_dict(r: ReactionTerm) -> dict:
    d: dict = {"kind": r.kind}
    if r.kind == "linear":
        d["slope"] = r.slope
    elif r.kind == "polynomial":
        d["coefficients"] = list(r.coefficients)
    return d


def reaction_from_dict(d: dict, where: str = "reaction") -> ReactionTerm:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = d["kind"]
    if kind == "linear":
        _check_keys(d, {"kind", "slope"}, set(), where)
        return ReactionTerm.linear(_number(d["slope"], f"{where}.slope"))
    if kind == "polynomial":
        _check_keys(d, {"kind", "coefficients"}, set(), where)
        return ReactionTerm.polynomial(_numbers(d["coefficients"], f"{where}.coefficients"))
    if kind in ("zero", "cubic_bistable"):
        _check_keys(d, {"kind"}, set(), where)
        return ReactionTerm(kind=kind)
    raise ConfigError(f"{where}: unknown reaction kind {kind!r}")


# ---- full config ----------------------------------------------------------

_SCHEME_REQUIRED = {"n_div", "n_steps"}
_SCHEME_OPTIONAL = {"n_picard", "cg_tol", "cg_max_iters", "explicit_measure"}
_CONFIG_REQUIRED = {"T", "D", "beta", "kappa0", "C_g", "C_switch", "L_w", "H_w",
                    "r_sigma", "layout", "y0", "ystar", "scheme"}
_CONFIG_OPTIONAL = {"reaction"}


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "T": config.T,
        "D": config.D,
        "beta": list(config.beta),
        "kappa0": list(config.kappa0),
        "C_g": config.C_g,
        "C_switch": config.C_switch,
        "L_w": config.L_w,
        "H_w": config.H_w,
        "r_sigma": config.r_sigma,
        "layout": layout_to_dict(config.layout),
        "y0": field_to_dict(config.y0),
        "ystar": field_to_dict(config.ystar),
        "scheme": {
            "n_div": config.scheme.n_div,
            "n_steps": config.scheme.n_steps,
            "n_picard": config.scheme.n_picard,
            "cg_tol": config.scheme.cg_tol,
            "cg_max_iters": config.scheme.cg_max_iters,
            "explicit_measure": config.scheme.explicit_measure,
        },
        "reaction": reaction_to_dict(config.reaction),
    }


def _per_device(value, count: int, name: str) -> tuple[float, ...]:
    """Accept a number (broadcast over devices) or a list of one per device."""
    if isinstance(value, list):
        return _numbers(value, name, length=count)
    return (_number(value, name),) * count


def config_from_dict(d: dict) -> ExperimentConfig:
    _check_keys(d, _CONFIG_REQUIRED, _CONFIG_OPTIONAL, "config")
    scheme_d = d["scheme"]
    _check_keys(scheme_d, _SCHEME_REQUIRED, _SCHEME_OPTIONAL, "config.scheme")
    max_iters = scheme_d.get("cg_max_iters")
    explicit = scheme_d.get("explicit_measure", False)
    if not isinstance(explicit, bool):
        raise ConfigError(f"config.scheme.explicit_measure: expected true or false, "
                          f"got {explicit!r}")
    try:
        layout = layout_from_dict(d["layout"], "config.layout")
        n_devices = device_count(layout)
        scheme = SchemeSpec(
            n_div=_number(scheme_d["n_div"], "config.scheme.n_div", integral=True),
            n_steps=_number(scheme_d["n_steps"], "config.scheme.n_steps", integral=True),
            n_picard=_number(scheme_d.get("n_picard", 3), "config.scheme.n_picard", integral=True),
            cg_tol=_number(scheme_d.get("cg_tol", 1e-10), "config.scheme.cg_tol"),
            cg_max_iters=None if max_iters is None else _number(
                max_iters, "config.scheme.cg_max_iters", integral=True),
            explicit_measure=explicit)
        return ExperimentConfig(
            **{k: _number(d[k], f"config.{k}")
               for k in ("T", "D", "C_g", "C_switch", "L_w", "H_w", "r_sigma")},
            beta=_per_device(d["beta"], n_devices, "config.beta"),
            kappa0=_per_device(d["kappa0"], n_devices, "config.kappa0"),
            layout=layout,
            y0=field_from_dict(d["y0"], "config.y0"),
            ystar=field_from_dict(d["ystar"], "config.ystar"),
            scheme=scheme,
            reaction=reaction_from_dict(d.get("reaction", {"kind": "cubic_bistable"}),
                                        "config.reaction"))
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def dump_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(config_to_json(config))


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2) + "\n"


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
    return config_from_dict(data)
