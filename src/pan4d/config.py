"""Run/evaluation configuration: YAML files with flag overrides.

One human-editable file carries the class map and any pipeline settings;
command-line flags override file values. Example:

    classes: [10, 30, 40]
    things: [10, 30]
    ignore: [0]
    names: {10: car, 30: person, 40: road}
    strategy: importance
    tau: 4
    fraction: 0.10

Run parameters are the dataclass fields with help text (RUN_PARAMS). Each
is a YAML key and a `pan4d run` flag (underscores as dashes). Values from
both go through coerce(); the config records they build are frozen and
check their values when they are built: each parameter's default and rule
are written once, on its record, and run_online_pipeline takes the RunConfig.
`pan4d run` and `pan4d evaluate` read the same files, and both fail on a key
that is neither a run parameter nor in FILE_KEYS.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .clustering import ClusterParams
from .errors import ValidationError
from .metrics import EvalConfig
from .volume import VolumeConfig

FILE_KEYS = frozenset({
    "classes", "things", "ignore", "names", "pq_match_threshold", "per_sequence",
    "data_dir", "out_dir", "sequences",
})


def load_yaml(path) -> dict:
    with open(path) as f:
        data = yaml.safe_load(f) or {}
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be a mapping")
    return data


def coerce(key, value, type_name: str):
    """value as the field type named by type_name (a string annotation: int,
    float, str, bool or "int | None"), or ValidationError naming key. Strings
    are parsed, so a flag and a YAML value of the same text agree."""
    if value is None and type_name.endswith("| None"):
        return None
    base = type_name.split(" |")[0]
    if base == "str" and isinstance(value, str) or base == "bool" and isinstance(value, bool):
        return value
    if base in ("int", "float") and not isinstance(value, bool):
        try:
            out = int(str(value)) if base == "int" else float(value)
            if math.isfinite(out):
                return out
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{key}: expected {type_name}, got {value!r}")


def path_component(key, name: str) -> str:
    """name, or a ValidationError naming key unless name is one plain path
    component, so that the directory it names stays inside its root."""
    if name in ("", ".", "..") or any(sep and sep in name for sep in (os.sep, os.altsep)):
        raise ValidationError(f"{key}: expected one plain path component, got {name!r}")
    return name


def sequence_names(key, value) -> list:
    """The sequence names of value (None, a comma-separated string or a list):
    each one plain path component, and none named twice."""
    if isinstance(value, str):
        value = [s for s in value.split(",") if s]
    elif not isinstance(value, (list, tuple, type(None))):
        raise ValidationError(f"{key}: expected sequence names, got {value!r}")
    names = [path_component(key, coerce(key, v, "str")) for v in value or ()]
    repeated = [n for k, n in enumerate(names) if n in names[:k]]
    if repeated:
        raise ValidationError(f"{key}: sequence {repeated[0]!r} named twice")
    return names


def _class_ids(key, values, kind=(list, tuple)):
    """Each class id of values (a list; for names, a mapping's keys) through
    coerce(); a scalar where a list belongs fails too."""
    if not isinstance(values, kind):
        raise ValidationError(f"{key}: expected class ids, got {values!r}")
    return [coerce(key, c, "int") for c in values]


def _check_keys(data: dict):
    """ValidationError naming the first key of data that is neither a run
    parameter nor in FILE_KEYS."""
    unknown = sorted(set(data) - set(RUN_PARAMS) - FILE_KEYS, key=str)
    if unknown:
        raise ValidationError(f"unknown config key {unknown[0]!r}")


def eval_config_from_dict(data: dict) -> EvalConfig:
    _check_keys(data)
    try:
        kwargs = {"classes": tuple(_class_ids("classes", data["classes"])),
                  "things": frozenset(_class_ids("things", data["things"]))}
    except KeyError as exc:
        raise ValidationError(f"config is missing required key {exc}") from exc
    if "ignore" in data:
        kwargs["ignore"] = frozenset(_class_ids("ignore", data["ignore"]))
    if data.get("names"):  # display names: checked, but no report prints them
        _class_ids("names", data["names"], dict)
    for f in fields(EvalConfig):
        if f.name in ("pq_match_threshold", "per_sequence") and f.name in data:
            kwargs[f.name] = coerce(f.name, data[f.name], f.type)
    return EvalConfig(**kwargs)


def _params(cls):
    """The run-parameter fields of cls: those that carry help text."""
    return [f for f in fields(cls) if "help" in f.metadata]


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, checked at construction before any work
    starts; `run_online_pipeline` takes one per sequence. A library run
    leaves data_dir and out_dir empty."""

    data_dir: str = ""
    out_dir: str = ""
    sequences: list = field(default_factory=list)  # empty = data_dir is one sequence
    volume: VolumeConfig = field(default_factory=VolumeConfig)
    cluster: ClusterParams = field(default_factory=ClusterParams)
    eval_config: EvalConfig | None = None  # class map (things/stuff/ignore)
    assoc_iou: float = field(default=0.5, metadata={"help": "cross-window IoU threshold"})
    window_stride: int = field(default=1, metadata={"help": "scans between consecutive windows"})
    seed: int = field(default=0, metadata={"help": "sampling seed"})  # or a list of ints
    threads: int = field(default=1, metadata={"help": "per-sequence parallelism cap"})

    def __post_init__(self):
        if self.eval_config is None:
            raise ValidationError("run config needs a class map (classes/things)")
        if not 1 <= self.window_stride <= self.volume.tau:
            raise ValidationError(f"window_stride must lie in [1, tau={self.volume.tau}] "
                                  "so every scan is covered by some window")
        if not 0.0 < self.assoc_iou < 1.0:
            raise ValidationError("assoc_iou must lie in (0, 1)")
        if np.min(self.seed) < 0:
            raise ValidationError("seed must be >= 0")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")


# every run parameter by name: its YAML key, and its flag with dashes
RUN_PARAMS = {f.name: f for cls in (VolumeConfig, ClusterParams, RunConfig) for f in _params(cls)}


def run_config_from_sources(file_data: dict, overrides: dict) -> RunConfig:
    """Merge config-file values with CLI overrides (overrides that are not
    None win) into the RunConfig of `pan4d run`; unknown file keys, values
    of the wrong type and a missing data or output root fail."""
    _check_keys(file_data)
    merged = dict(file_data)
    merged.update({k: v for k, v in overrides.items() if v is not None})

    def values(cls):
        return {f.name: coerce(f.name, merged[f.name], f.type)
                for f in _params(cls) if f.name in merged}

    roots = {k: str(merged.get(k, "")) for k in ("data_dir", "out_dir")}
    if not all(roots.values()):
        raise ValidationError("run needs a data_dir and an out_dir (--data, --out)")
    return RunConfig(
        **roots,
        sequences=sequence_names("sequences", merged.get("sequences")),
        volume=VolumeConfig(**values(VolumeConfig)),
        cluster=ClusterParams(**values(ClusterParams)),
        eval_config=eval_config_from_dict(merged) if "classes" in merged else None,
        **values(RunConfig),
    )
