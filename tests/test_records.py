"""Every record checks its values once, when it is built.

A config record (a dataclass named *Config, *Params or *Spec) is frozen and
has no `validate()` to re-run: a value it accepted stays accepted, and a
caller varies one with `dataclasses.replace`, which checks the new record.
A run parameter's default is written once, on its record's field: no
function of the pipeline modules gives a parameter named after one a default.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from pan4d.config import RUN_PARAMS, run_config_from_sources
from pan4d.errors import ValidationError
from pan4d.kitti_io import PanopticLabels, Pose, Scan
from pan4d.metrics import EvalConfig
from pan4d.synth import ObjectSpec, SceneSpec

from conftest import CAR

SRC = Path(__file__).resolve().parent.parent / "src" / "pan4d"
CONFIG_SUFFIXES = ("Config", "Params", "Spec")
PIPELINE_MODULES = ("tracking.py", "volume.py", "clustering.py")

CLASS_MAP_FILE = {"classes": [CAR], "things": [CAR]}
ONE_OBJECT = (ObjectSpec(class_id=CAR, n_points=10, sigma=0.3, start=(0.0, 0.0, 5.0)),)


def _shear():
    m = np.eye(4)
    m[0, 1] = 0.5
    return m


def _bad_bottom_row():
    m = np.eye(4)
    m[3, 0] = 1.0
    return m


# case -> (build, message)
BAD_RECORDS = {
    # a library RunConfig has no roots: `pan4d run` checks them as it reads its sources
    "run-config-no-data-dir": (
        lambda: run_config_from_sources(CLASS_MAP_FILE, {"out_dir": "out"}), "data_dir"),
    "run-config-no-out-dir": (
        lambda: run_config_from_sources(CLASS_MAP_FILE, {"data_dir": "data"}), "out_dir"),
    "scene-spec-no-scans": (
        lambda: SceneSpec(n_scans=0, objects=ONE_OBJECT), "sequence length"),
    "scene-spec-no-objects": (lambda: SceneSpec(), "at least one object"),
    "eval-config-pq-match-threshold-one": (
        lambda: EvalConfig(classes=(CAR,), things=frozenset(), pq_match_threshold=1.0),
        "pq_match_threshold"),
    "scan-points-not-n-by-3": (
        lambda: Scan(points=np.zeros((4, 2)), remission=np.zeros(4)), "(N, 3)"),
    "scan-remission-length": (
        lambda: Scan(points=np.zeros((4, 3)), remission=np.zeros(3)), "remission length"),
    "scan-non-finite-point": (
        lambda: Scan(points=np.full((4, 3), np.inf), remission=np.zeros(4)), "finite"),
    "labels-lengths-differ": (
        lambda: PanopticLabels(semantic=np.zeros(4), instance=np.zeros(3)), "equal-length"),
    "pose-not-4x4": (lambda: Pose(matrix=np.eye(3)), "4x4"),
    "pose-not-orthonormal": (lambda: Pose(matrix=_shear()), "orthonormal"),
    "pose-bottom-row": (lambda: Pose(matrix=_bad_bottom_row()), "bottom row"),
}


@pytest.mark.parametrize("case", BAD_RECORDS)
def test_bad_record_fails_at_construction(case):
    build, message = BAD_RECORDS[case]
    with pytest.raises(ValidationError, match=message):
        build()


def convention_breaks(tree, run_params=()):
    """The names of the classes in tree that define `validate`, of the
    config dataclasses (named *Config, *Params or *Spec) not frozen, and of
    the function parameters named in run_params that have a default."""
    breaks = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            breaks += [f"{node.name}({arg.arg}) has a default"
                       for arg in defaulted if arg.arg in run_params]
        if not isinstance(node, ast.ClassDef):
            continue
        if any(isinstance(f, ast.FunctionDef) and f.name == "validate" for f in node.body):
            breaks.append(f"{node.name}.validate")
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            name = call.func if call else dec
            if not (isinstance(name, ast.Name) and name.id == "dataclass"):
                continue
            frozen = call is not None and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in call.keywords)
            if node.name.endswith(CONFIG_SUFFIXES) and not frozen:
                breaks.append(f"{node.name} not frozen")
    return breaks


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_source_keeps_the_record_convention(path):
    run_params = RUN_PARAMS if path.name in PIPELINE_MODULES else ()
    assert convention_breaks(ast.parse(path.read_text(encoding="utf-8")), run_params) == []


@pytest.mark.parametrize("source, found", [
    ("class A:\n    def validate(self):\n        pass\n", ["A.validate"]),
    ("@dataclass\nclass RunConfig:\n    x: int = 0\n", ["RunConfig not frozen"]),
    ("@dataclass(frozen=False)\nclass ClusterParams:\n    pass\n", ["ClusterParams not frozen"]),
    ("@dataclass(frozen=True)\nclass SceneSpec:\n    pass\n", []),
    ("@dataclass\nclass WindowResult:\n    pass\n", []),
    ("def run(seq, tau, seed=0, k=1, *, window_stride=1, assoc_iou, emit=None):\n    pass\n",
     ["run(seed) has a default", "run(window_stride) has a default"]),
])
def test_convention_check_finds_each_break(source, found):
    assert convention_breaks(ast.parse(source), RUN_PARAMS) == found
