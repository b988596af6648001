"""Set-up, rounds, output checks and metrics of one benchmark run.

One run makes the workload's scene on disk from the seed (timed as
``setup_s``), then repeats whole rounds until the run's seconds have passed.
A round is one fresh `pan4d run` process followed by one fresh process that
runs `pan4d evaluate` on every prediction set of the workload. Metrics are
medians over the rounds. Every round, traced or not, must reproduce the first
round's prediction and report bytes, and those bytes get the full output
checks of ``checks.py`` once the rounds are done.

The checkout's ``src/`` must be on ``sys.path`` before this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import scenes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
CHILD_TIMEOUT_S = 150
WARM_MB = 256  # above the largest peak RSS of a timed process (kitti-importance run)


class BenchError(Exception):
    """The benchmark cannot go on (a child process crashed or hung)."""


def metric_units(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def warm_memory():
    """Touch and free WARM_MB of memory.

    On a VM that hands idle guest memory back to the host (virtio-balloon free
    page reporting), the first touch of such memory costs about four times
    more than touching memory freed a moment ago (300 MB: 350 ms against
    85 ms). How much of it a process meets depends on how long the machine
    sat idle, so it is taken out of every timed phase: the next process
    reuses the pages freed here.
    """
    buf = np.ones(WARM_MB * 2**20 // 8)
    del buf


def _digest(label_dir, n_scans):
    h = hashlib.sha256()
    for t in range(n_scans):
        name = f"{t:06d}.label"
        h.update(name.encode())
        h.update((Path(label_dir) / name).read_bytes())
    return h.hexdigest()


def _child(commands, trace, tag, work_dir):
    """Run commands through child.py in a fresh interpreter; returns its result."""
    spec_path, out_path = work_dir / f"{tag}.spec.json", work_dir / f"{tag}.out.json"
    spec_path.write_text(json.dumps({"commands": commands, "trace": trace, "out": str(out_path)}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    warm_memory()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{tag}: child process ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag}: child process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(out_path.read_text())
    if not Path(result["pan4d_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"pan4d was imported from {result['pan4d_file']}, not {SRC}")
    return result


class Bench:
    """One workload, one seed: its scene on disk and the rounds run on it."""

    def __init__(self, workload, seed, work_dir):
        self.w = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.data = self.work_dir / "data"
        self.pred = self.work_dir / "pred"
        self.reports = self.work_dir / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)
        self.sets = ["own", "permuted", *scenes.corruptions(workload)]
        self.spec = scenes.scene_spec(workload, seed)
        self.scan_sizes = [workload.points_per_scan] * workload.n_scans
        self.first = None  # (prediction digest, report bytes) of the first round
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def setup(self):
        """Write the scene and corrupted sets; returns the synth timings."""
        timings = {}
        scenes.make_inputs(self.w, self.seed, self.spec, str(self.data), str(self.pred), timings)
        return timings

    def _eval_args(self, name):
        return ["evaluate", "--gt", str(self.data), "--pred", str(self.pred / name),
                "--sequences", scenes.SEQ, "--config", str(self.data / "classes.yaml"),
                "--report", str(self.reports / f"{name}.txt")]

    def round(self, trace, tag):
        """One run process and one evaluate process; returns their results."""
        run = _child([self.w.run_args(str(self.data), str(self.pred / "own"), self.seed)],
                     trace, f"{tag}-run", self.work_dir)
        own_dir = scenes.pred_dir(self.pred, "own")
        if self.first is None and run["codes"] == [0]:
            checks.permute_ids(own_dir, scenes.pred_dir(self.pred, "permuted"),
                               self.w.n_scans, self.seed)
        evals = [self._eval_args(name) for _ in range(self.w.eval_passes) for name in self.sets]
        ev = _child(evals, trace, f"{tag}-eval", self.work_dir)
        codes = run["codes"] + ev["codes"]
        self.attempted += len(codes)
        self.failed += sum(1 for c in codes if c != 0)
        if any(codes):  # counted as failed operations; their outputs are not checked
            return run, ev

        digest = _digest(own_dir, self.w.n_scans)
        reports = b"".join((self.reports / f"{name}.json").read_bytes() for name in self.sets)
        if self.first is None:
            self.first = (digest, reports)
        elif (digest, reports) != self.first:
            self.failures.append(f"{tag}: predictions or reports differ from the first round")
        return run, ev

    def check_outputs(self):
        """Every output check of checks.py on the current prediction sets."""
        class_map = {k: list(v) for k, v in scenes.class_map_for(self.spec).items()}
        gs, gi, gt_counts = checks.read_stream(self.data / scenes.SEQ / "labels", self.w.n_scans)
        bad = checks.check_label_counts(gt_counts, self.scan_sizes, "ground truth")
        perfect = checks.scores((gs, gi), (gs, gi), class_map)
        reports = {}
        for name in self.sets:
            ps, pi, counts = checks.read_stream(scenes.pred_dir(self.pred, name), self.w.n_scans)
            miscounted = checks.check_label_counts(counts, self.scan_sizes, name)
            if miscounted:  # the scores below would compare misaligned points
                return bad + miscounted
            reports[name] = json.loads((self.reports / f"{name}.json").read_text())
            bad += checks.check_report_matches(
                reports[name], checks.scores((gs, gi), (ps, pi), class_map), name)
            if name == "own":
                bad += checks.check_oracle_tubes((gs, gi), (ps, pi), self.w.n_objects,
                                                 reports[name])
        bad += checks.check_permutation_invariant(reports["own"], reports["permuted"])
        corr = scenes.corruptions(self.w)
        bad += checks.check_corruptions(
            reports, perfect, self.w.n_objects,
            split_share=corr["split"]["scan"] / self.w.n_scans,
            switch_share=corr["idswitch"]["scan"] / self.w.n_scans,
            tube_sizes=perfect["gt_tube_sizes"],
        )
        return bad

    def expected_volume_points(self):
        """Volume points the strategy implies from the scene's scan sizes.

        A window holds its newest scan in full plus ceil(fraction * N_s) points
        of each past scan s it samples. Past scans enter only once an earlier
        window has emitted them, so with a window stride of 2 the scan just
        before the newest one is left out; the stride strategy then samples
        every second remaining past scan, oldest first.
        """
        w, sizes = self.w, self.scan_sizes
        n = len(sizes)
        windows = list(range(0, n, w.window_stride))
        if windows[-1] != n - 1:
            windows.append(n - 1)
        total, emitted_to = 0, -1
        for t in windows:
            past = list(range(max(0, t - w.tau + 1), emitted_to + 1))
            if w.strategy == "stride":
                past = past[::scenes.STRIDE]
            total += sizes[t] + sum(math.ceil(w.fraction * sizes[s]) for s in past)
            emitted_to = t
        return total


def measure(bench, seconds, trace):
    """Rounds until `seconds` have passed; returns the metric values (medians
    over the rounds). A traced run starts with one untraced round, the
    reference for the traced rounds' bytes and for the tracing overhead."""
    points = sum(bench.scan_sizes)
    n_sets = len(bench.sets) * bench.w.eval_passes
    untraced = bench.round(False, "r0") if trace else None
    rounds = []
    t0 = time.perf_counter()
    k, last = 1, 0.0
    # whole rounds only; stop before a round that would end past the deadline
    while not rounds or time.perf_counter() - t0 + last <= seconds:
        t_round = time.perf_counter()
        run, ev = bench.round(trace, f"r{k}")
        last = time.perf_counter() - t_round
        print(f"round {k}: run {sum(run['seconds']):.4f} s, evaluate {sum(ev['seconds']):.4f} s, "
              f"imports {run['import_s']:.4f} {ev['import_s']:.4f} s", file=sys.stderr)
        rounds.append((run, ev))
        k += 1
    if trace:
        return layer_metrics(bench, rounds, untraced)
    median = statistics.median
    return {
        "cli_import_s": median([c["import_s"] for r in rounds for c in r]),
        "run_points_per_s": median([points / sum(r[0]["seconds"]) for r in rounds]),
        "run_peak_rss_mb": median([r[0]["peak_rss_mb"] for r in rounds]),
        "evaluate_points_per_s": median([points * n_sets / sum(r[1]["seconds"]) for r in rounds]),
        "evaluate_peak_rss_mb": median([r[1]["peak_rss_mb"] for r in rounds]),
    }


def layer_metrics(bench, rounds, untraced):
    """Per-layer values of each traced round (summed over its two processes),
    then the median over rounds."""
    per_round = []
    for run, ev in rounds:
        m = defaultdict(int)
        for child in (run, ev):
            tr = child["trace"]
            for span, v in tr["seconds"].items():
                m[f"{span}_s"] += v
            for key, v in tr["counts"].items():
                m[key] += v
            m["clustering.seeds"] += tr["calls"].get("clustering.affinity", 0)
            m["tracking.fresh_ids"] += tr["calls"].get("tracking.fresh", 0)
        run_s = sum(run["seconds"])
        pipeline_self = run["trace"]["self_seconds"].get("tracking.pipeline", 0.0)
        m["tracking.pipeline_self_s"] = pipeline_self
        m["trace.run_wrapped_share"] = (run["trace"]["top_level_seconds"] - pipeline_self) / run_s
        m["trace.run_overhead"] = run_s / sum(untraced[0]["seconds"]) - 1.0
        m["trace.evaluate_overhead"] = sum(ev["seconds"]) / sum(untraced[1]["seconds"]) - 1.0
        per_round.append(m)
    out = {key: statistics.median([m[key] for m in per_round]) for key in metric_units(trace=True)}
    expected = bench.expected_volume_points()
    if out["volume.points"] != expected:
        bench.failures.append(f"volume.points = {out['volume.points']}, the strategy implies "
                              f"{expected}")
    return out


def run_workload(workload, seed, seconds, trace, work_root=WORK):
    """Set up, measure and check one workload; returns the result object."""
    work_dir = Path(work_root) / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work_dir)
        warm_memory()
        timings = bench.setup()
        metrics = measure(bench, seconds, trace)
        if trace:
            metrics["synth.generate_s"] = timings["generate_s"]
            metrics["synth.write_s"] = timings["write_s"]
        else:
            metrics["setup_s"] = timings["generate_s"] + timings["write_s"]
        if bench.first is None:
            bench.failures.append("no round completed, so no output was checked")
        else:  # every round reproduced these bytes, so checking them once suffices
            bench.failures += bench.check_outputs()
            print(f"predictions_sha256 {workload.name} seed={seed} {bench.first[0]}")
        for msg in bench.failures:
            print(f"check failed: {msg}", file=sys.stderr)
        return {
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in metric_units(trace).items()},
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            Path(work_root).rmdir()  # only when no other run is using it
