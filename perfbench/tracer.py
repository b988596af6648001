"""Per-layer timing and counting by wrapping pan4d's public functions.

Nothing in ``src/`` knows about the tracer. ``install()`` replaces each
target function with a timing wrapper in every loaded ``pan4d`` module that
refers to it (modules import names directly, so patching the defining module
alone would miss callers), and patches methods on their classes. Spans nest:
each wrapper records its inclusive time and the time its wrapped children
took, so self time is inclusive minus children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)  # span name -> inclusive seconds
        self.self_seconds = defaultdict(float)  # span name -> seconds outside child spans
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # named counters
        self.top_level_seconds = 0.0  # time inside spans entered with no open span
        self._children = []  # per open span: seconds spent in its child spans

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(tracer, args, kwargs, result) records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.seconds[name] += dt
                self.self_seconds[name] += dt - child
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += dt
                else:
                    self.top_level_seconds += dt
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def summary(self):
        return {
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_level_seconds": self.top_level_seconds,
        }


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_file(key, pos, name):
    def after(tr, args, kwargs, result):
        tr.counts[key] += os.path.getsize(_arg(args, kwargs, pos, name))
    return after


def _count_volume(tr, args, kwargs, result):
    tr.counts["volume.points"] += len(result)


def _count_backfill(tr, args, kwargs, result):
    tr.counts["volume.backfill_queries"] += len(_arg(args, kwargs, 4, "query_coords"))


def _count_affinity(tr, args, kwargs, result):
    e_j = np.asarray(_arg(args, kwargs, 1, "e_j"))
    tr.counts["clustering.affinity_rows"] += e_j.shape[0] if e_j.ndim == 2 else 1


def _count_kept(tr, args, kwargs, result):
    tr.counts["clustering.instances_kept"] += result.n_instances


def _count_dissolved(tr, args, kwargs, result):
    before = _arg(args, kwargs, 0, "assignment").n_instances
    tr.counts["clustering.instances_dissolved"] += before - result.n_instances


def _count_matched(tr, args, kwargs, result):
    prev_ids = set(np.unique(_arg(args, kwargs, 0, "prev").instance).tolist())
    tr.counts["tracking.matched"] += sum(1 for g in result.values() if g in prev_ids)


def _count_scan_points(tr, args, kwargs, result):
    # method: args[0] is the evaluator, args[1] the ground-truth scan
    gt = _arg(args, kwargs, 1, "gt")
    tr.counts["metrics.points"] += len(gt.semantic if hasattr(gt, "semantic") else gt[0])


# (module, attribute, span name, count hook); "Class.method" patches the class
TARGETS = (
    ("pan4d.kitti_io", "read_point_scan", "kitti_io.read_scan",
     _count_file("kitti_io.bytes_read", 0, "path")),
    ("pan4d.kitti_io", "read_labels", "kitti_io.read_labels",
     _count_file("kitti_io.bytes_read", 0, "path")),
    ("pan4d.kitti_io", "write_labels", "kitti_io.write_labels", None),
    ("pan4d.volume", "align_scan", "volume.align", None),
    ("pan4d.volume", "build_volume", "volume.build", _count_volume),
    ("pan4d.volume", "backfill_skipped", "volume.backfill", _count_backfill),
    ("pan4d.clustering", "read_cluster_fields", "clustering.read_fields", None),
    ("pan4d.clustering", "build_point_features", "clustering.features", None),
    ("pan4d.clustering", "cluster_volume", "clustering.cluster", _count_kept),
    ("pan4d.clustering", "gaussian_affinity", "clustering.affinity", _count_affinity),
    ("pan4d.clustering", "majority_vote_classes", "clustering.vote", _count_dissolved),
    ("pan4d.tracking", "WindowResult.__post_init__", "tracking.window_result", None),
    ("pan4d.tracking", "associate_windows", "tracking.associate", _count_matched),
    ("pan4d.tracking", "TrackLedger.fresh", "tracking.fresh", None),
    ("pan4d.tracking", "run_online_pipeline", "tracking.pipeline", None),
    ("pan4d.metrics", "PanopticEvaluator.add_scan", "metrics.add_scan", _count_scan_points),
    ("pan4d.metrics", "PanopticEvaluator.result", "metrics.result", None),
)


def install() -> Tracer:
    """Wrap every target in the loaded pan4d modules; returns the tracer."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "pan4d" or name.startswith("pan4d."))]
    for module_name, attr, span_name, after in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.span(span_name, getattr(cls, meth), after))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.span(span_name, original, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return tracer
