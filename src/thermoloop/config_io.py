"""Dict/JSON serialization of experiment configurations.

One mapper, driven by the dataclasses' fields and type hints, writes and
reads every part of an ExperimentConfig: the dict keys are the field names,
and a dumped configuration re-parses to an equal config.  Unknown keys,
missing keys, wrong JSON types and invariant violations each raise a
ConfigError that names the dotted path of the key, e.g. ``config.beta[63]``.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from pathlib import Path

from .experiments import (ConstantField, ExperimentConfig, ExplicitLayout, FieldSum,
                          GaussianBlobs, GridLayout, GridSubsetLayout, LayoutSpec,
                          device_count)
from .model import ReactionTerm


class ConfigError(ValueError):
    """A configuration file failed validation."""


# The "kind" tag that selects a member of a field or layout union.
KINDS = {"constant": ConstantField, "gaussian_blobs": GaussianBlobs, "sum": FieldSum,
         "grid": GridLayout, "grid_subset": GridSubsetLayout, "explicit": ExplicitLayout}
_KIND_OF = {cls: kind for kind, cls in KINDS.items()}


def _keys(cls, kind) -> list[str]:
    """The keys a dataclass writes and reads: its init fields, in declaration order."""
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    if cls is ReactionTerm and kind != "linear":
        names.remove("slope")  # only a linear reaction has a slope, and must state it
    return names


def _dump(value):
    if dataclasses.is_dataclass(value):
        cls = type(value)
        out = {"kind": _KIND_OF[cls]} if cls in _KIND_OF else {}
        for key in _keys(cls, getattr(value, "kind", None)):
            out[key] = _dump(getattr(value, key))
        return out
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return value


def _load_object(cls, d, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    keys = _keys(cls, d.get("kind"))
    unknown = set(d) - set(keys) - ({"kind"} if cls in _KIND_OF else set())
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = {f.name for f in dataclasses.fields(cls) if f.name in keys and f.name not in d
               and (cls is ReactionTerm or f.default is f.default_factory is dataclasses.MISSING)}
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    hints = typing.get_type_hints(cls)
    kwargs = {k: _load(hints[k], d[k], f"{where}.{k}") for k in keys if k in d}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _load(hint, value, where: str):
    """Build a value of type ``hint`` from its JSON form, checking every JSON type."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if type(None) in args:  # X | None
            return None if value is None else _load(args[0], value, where)
        if not isinstance(value, dict) or "kind" not in value:
            raise ConfigError(f"{where}: expected an object with a 'kind' key")
        kinds = [_KIND_OF[cls] for cls in args]
        if value["kind"] not in kinds:
            raise ConfigError(f"{where}: unknown kind {value['kind']!r}; expected one of {kinds}")
        return _load_object(KINDS[value["kind"]], value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(_load(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(args, value)))
    if dataclasses.is_dataclass(hint):
        return _load_object(hint, value, where)
    if hint in (bool, str):
        if not isinstance(value, hint):
            expected = "true or false" if hint is bool else "a string"
            raise ConfigError(f"{where}: expected {expected}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if hint is float:
        return float(value)
    if not (isinstance(value, int) or value.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def config_to_dict(config: ExperimentConfig) -> dict:
    return _dump(config)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Parse a config dict; ``beta`` and ``kappa0`` may each be one number for all devices."""
    if isinstance(d, dict) and "layout" in d:
        n_devices = device_count(_load(LayoutSpec, d["layout"], "config.layout"))
        d = dict(d)
        for key in ("beta", "kappa0"):
            value = d.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                d[key] = [value] * n_devices
            elif isinstance(value, list) and len(value) != n_devices:
                raise ConfigError(f"config.{key}: expected {n_devices} entries, got {len(value)}")
    return _load(ExperimentConfig, d, "config")


def dump_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(config_to_json(config))


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2) + "\n"


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
    return config_from_dict(data)
