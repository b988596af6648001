"""Every record checks its values once, when it is built.

A config record (a dataclass named *Config, *Params or *Spec) is frozen and
has no `validate()` to re-run: a value it accepted stays accepted, and a
caller varies one with `dataclasses.replace`, which checks the new record.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from pan4d.config import RunConfig
from pan4d.errors import ValidationError
from pan4d.kitti_io import PanopticLabels, Pose, Scan
from pan4d.metrics import EvalConfig
from pan4d.synth import ObjectSpec, SceneSpec

from conftest import CAR

SRC = Path(__file__).resolve().parent.parent / "src" / "pan4d"
CONFIG_SUFFIXES = ("Config", "Params", "Spec")

CLASS_MAP = EvalConfig(classes=(CAR,), things=frozenset({CAR}))
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
    "run-config-no-data-dir": (
        lambda: RunConfig(out_dir="out", eval_config=CLASS_MAP), "data_dir"),
    "run-config-no-out-dir": (
        lambda: RunConfig(data_dir="data", eval_config=CLASS_MAP), "out_dir"),
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


def convention_breaks(tree):
    """The names of the classes in tree that define `validate`, and of the
    config dataclasses (named *Config, *Params or *Spec) not frozen."""
    breaks = []
    for node in ast.walk(tree):
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
    assert convention_breaks(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, found", [
    ("class A:\n    def validate(self):\n        pass\n", ["A.validate"]),
    ("@dataclass\nclass RunConfig:\n    x: int = 0\n", ["RunConfig not frozen"]),
    ("@dataclass(frozen=False)\nclass ClusterParams:\n    pass\n", ["ClusterParams not frozen"]),
    ("@dataclass(frozen=True)\nclass SceneSpec:\n    pass\n", []),
    ("@dataclass\nclass WindowResult:\n    pass\n", []),
])
def test_convention_check_finds_each_break(source, found):
    assert convention_breaks(ast.parse(source)) == found
