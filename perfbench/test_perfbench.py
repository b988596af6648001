"""Tests of the benchmark itself: every output check must be able to fail, and
every workload must pass a small-size smoke run.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.check_checkout()  # puts the checkout's src/ on sys.path

import bench as bench_mod  # noqa: E402
import checks  # noqa: E402
import scenes  # noqa: E402

HERE = Path(__file__).resolve().parent

SMALL = {
    "kitti-importance": dict(n_objects=6, object_points=40, background_points=1000),
    "noisy-objectness": dict(n_objects=6, object_points=40, background_points=600),
    "stride-backfill": dict(n_objects=6, object_points=40, background_points=800),
    "long-sequence": dict(n_scans=20, background_points=300),
}


def small(name):
    return dataclasses.replace(scenes.WORKLOADS[name], eval_passes=1, **SMALL[name])


def test_small_variants_cover_every_workload():
    assert set(SMALL) == set(scenes.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_each_workload(name, trace, tmp_path):
    result = bench_mod.run_workload(small(name), seed=3, seconds=0, trace=trace, work_root=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench_mod.metric_units(trace))
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        # a misspelt name in BENCHMARK.json would read 0 on every workload
        idle = {"volume.backfill_s", "volume.backfill_queries", "clustering.instances_dissolved",
                "trace.run_overhead", "trace.evaluate_overhead"}
        zero = {k for k, m in result["metrics"].items() if m["value"] == 0}
        assert zero <= idle, zero
        queries = result["metrics"]["volume.backfill_queries"]["value"]
        assert (queries > 0) == (name == "stride-backfill")
    assert not tmp_path.exists(), "the run must remove its work directory"


# -- every check can fail ------------------------------------------------------


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A small kitti-importance scene after one checked round."""
    d = tmp_path_factory.mktemp("pristine")
    bench = bench_mod.Bench(small("kitti-importance"), 4, d)
    bench.setup()
    bench.round(False, "r1")
    assert bench.failures == [] and bench.failed == 0
    assert bench.check_outputs() == []
    return bench


@pytest.fixture
def bench(pristine, tmp_path):
    """A copy of the pristine round that a test may damage."""
    d = tmp_path / "copy"
    shutil.copytree(pristine.work_dir, d)
    b = bench_mod.Bench(pristine.w, pristine.seed, d)
    b.first = pristine.first
    return b


def _label_path(bench, set_name, t):
    return Path(scenes.pred_dir(bench.pred, set_name)) / f"{t:06d}.label"


def _report_path(bench, set_name):
    return bench.reports / f"{set_name}.json"


def _edit_report(bench, set_name, key, delta):
    path = _report_path(bench, set_name)
    report = json.loads(path.read_text())
    report[key] += delta
    path.write_text(json.dumps(report))


def _failures(bench, needle):
    found = bench.check_outputs()
    assert any(needle in msg for msg in found), found
    return found


def test_undamaged_copy_passes(bench):
    assert bench.check_outputs() == []


def test_truncated_label_file_fails(bench):
    path = _label_path(bench, "own", 1)
    path.write_bytes(path.read_bytes()[:-4])
    _failures(bench, "labels per file")


def test_one_changed_predicted_id_fails_the_recomputation(bench):
    path = _label_path(bench, "split", 0)
    words = np.fromfile(path, dtype="<u4")
    k = int(np.flatnonzero(words >> 16)[0])  # a thing point
    words[k] = (words[k] & 0xFFFF) | (777 << 16)
    words.tofile(path)
    _failures(bench, "split: report s_assoc")


def test_report_off_by_1e7_fails(bench):
    _edit_report(bench, "flip", "s_cls", 1e-7)
    _failures(bench, "flip: report s_cls")


def test_wrong_tube_count_fails(bench):
    _edit_report(bench, "drop", "n_gt_tubes", 1)
    _failures(bench, "drop: report n_gt_tubes")


def test_tube_covered_by_two_ids_fails(bench):
    gt = checks.read_label_file(bench.data / scenes.SEQ / "labels" / "000002.label")
    path = _label_path(bench, "own", 2)
    words = np.fromfile(path, dtype="<u4")
    k = int(np.flatnonzero(gt[1] == 1)[0])  # a point of gt tube 1
    words[k] = (words[k] & 0xFFFF) | (999 << 16)
    words.tofile(path)
    _failures(bench, "gt tube 1 is covered by predicted ids")


def test_two_tubes_sharing_an_id_fail():
    gt = (np.array([10, 10, 10, 10]), np.array([1, 1, 2, 2]))
    pred = (np.array([10, 10, 10, 10]), np.array([5, 5, 5, 5]))
    found = checks.check_oracle_tubes(gt, pred, 2, {"n_gt_tubes": 2})
    assert any("share predicted id" in msg for msg in found)


def test_permutation_sensitive_report_fails(bench):
    _edit_report(bench, "permuted", "pq", 1e-6)
    _failures(bench, "permuted ids change report.pq")


def test_wrong_closed_form_merge_fails(bench):
    _edit_report(bench, "merge", "s_assoc", 0.01)
    _failures(bench, "merge: s_assoc =")


def test_class_change_after_split_fails(bench):
    _edit_report(bench, "idswitch", "s_cls", -0.01)
    _failures(bench, "idswitch: s_cls =")


def test_unequal_tubes_are_refused():
    found = checks.check_corruptions({}, {}, 2, 0.5, 0.25, np.array([10, 12]))
    assert found and "equal size" in found[0]


def test_closed_forms():
    assert checks.split_score(4, 0.5) == pytest.approx(1 - 1 / 8)
    assert checks.split_score(4, 0.0) == 1.0


def test_changed_predictions_in_a_later_round_fail(bench):
    bench.first = ("0" * 64, bench.first[1])
    bench.round(False, "r2")
    assert any("differ from the first round" in msg for msg in bench.failures)


# -- volume point count ----------------------------------------------------------


def _bench_with(tmp_path, **kw):
    w = dataclasses.replace(scenes.WORKLOADS["kitti-importance"], **kw)
    return bench_mod.Bench(w, 0, tmp_path)


def test_expected_volume_points_importance(tmp_path):
    b = _bench_with(tmp_path, n_scans=4, n_objects=1, object_points=100, background_points=0)
    assert b.expected_volume_points() == 100 + 110 + 120 + 130


def test_expected_volume_points_stride(tmp_path):
    b = _bench_with(tmp_path, n_scans=6, n_objects=1, object_points=100, background_points=0,
                    strategy="stride", window_stride=2)
    # windows 0, 2, 4, 5 sample past scans [], [0], [1], [2, 4]
    assert b.expected_volume_points() == 100 + 110 + 110 + 120


def test_volume_point_mismatch_fails(tmp_path):
    b = _bench_with(tmp_path, n_scans=4, n_objects=1, object_points=100, background_points=0)
    trace = {"seconds": {}, "self_seconds": {}, "calls": {}, "top_level_seconds": 0.5,
             "counts": {"volume.points": 459}}
    child = {"seconds": [1.0], "trace": trace}
    empty = {"seconds": [1.0], "trace": dict(trace, counts={})}
    bench_mod.layer_metrics(b, [(child, empty)], (child, empty))
    assert any("volume.points = 459" in msg for msg in b.failures)


# -- the benchmark refuses to run without the program ------------------------------


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-sequence", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
