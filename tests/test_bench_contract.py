"""The names and parameters that perfbench's outside tracer reaches by name.

`perfbench/tracer.py` wraps pan4d functions and methods given as (module,
attribute) pairs, and its count hooks read some call arguments by name or
position. Renaming or reordering one of them would break the per-layer
numbers of the benchmark, so these tests pin them. They read perfbench/ and
change nothing there.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import pan4d.cli  # noqa: F401  (loads every module that the tracer patches)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


def _resolve(module, attr):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in TARGETS])
def test_every_target_resolves_after_importing_the_cli(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, attr, position, name", [
    ("pan4d.volume", "backfill_skipped", 4, "query_coords"),
    ("pan4d.clustering", "gaussian_affinity", 1, "e_j"),
    ("pan4d.clustering", "majority_vote_classes", 0, "assignment"),
    ("pan4d.tracking", "associate_windows", 0, "prev"),
    ("pan4d.metrics", "PanopticEvaluator.add_scan", 1, "gt"),  # after self
    ("pan4d.kitti_io", "read_point_scan", 0, "path"),
    ("pan4d.kitti_io", "read_labels", 0, "path"),
])
def test_counted_parameters_keep_name_and_position(module, attr, position, name):
    params = list(inspect.signature(_resolve(module, attr)).parameters)
    assert params[position] == name
