"""Workload definitions: synthetic scenes, run settings and prediction sets.

Every scene is built with the program's own ``synth`` layer from the
benchmark seed, so the same seed always gives the same files. Objects all
have the same point count and every sequence has an even scan count, so the
tubes are of equal size and the split/merge corruptions have closed-form
association scores (see ``checks.py``).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np
import yaml

from pan4d.clustering import ClusterParams
from pan4d.kitti_io import write_labels
from pan4d.synth import (
    ObjectSpec,
    SceneSpec,
    class_map_for,
    corrupt,
    generate_sequence,
    write_sequence,
)
from pan4d.volume import VolumeConfig

CAR, PERSON, ROAD = 10, 30, 40
THINGS = (CAR, PERSON)
SEQ = "00"
GRID_SPACING = 14.0  # metres between object start cells; far above the capture radius
SEED_STOP = ClusterParams().seed_stop  # the runs keep the default --seed-stop
STRIDE = VolumeConfig().stride  # and the default --stride


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # mixed into the scene seed so workloads never share a scene
    n_scans: int
    n_objects: int
    object_points: int
    background_points: int
    strategy: str
    max_speed: float  # per-object speed bound, metres per scan
    common_velocity: tuple = (0.0, 0.0, 0.0)  # shared by every object
    noisy_share: float = 0.0  # share of all points: background with objectness in (seed_stop, 1)
    tau: int = 4
    fraction: float = 0.10
    window_stride: int = 1
    eval_passes: int = 1  # evaluate every prediction set this often per round, for ~1.5 s of work

    @property
    def points_per_scan(self):
        return self.n_objects * self.object_points + self.background_points

    def run_args(self, data_root, out_root, seed):
        return [
            "run", "--data", data_root, "--sequences", SEQ, "--out", out_root,
            "--config", os.path.join(data_root, "classes.yaml"),
            "--strategy", self.strategy, "--tau", str(self.tau),
            "--fraction", str(self.fraction), "--window-stride", str(self.window_stride),
            "--feature-mode", "emb", "--seed", str(seed), "--threads", "1",
        ]


# Sizes keep a round (one run plus ~1.5 s of evaluation, two interpreter
# start-ups) at 5-7 s, so a 22 s run holds three or four rounds and, with
# set-up and checks, takes about 26 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kitti-importance", 0, n_scans=4, n_objects=30, object_points=400,
                 background_points=108_000, strategy="importance", max_speed=0.3,
                 eval_passes=4),
        Workload("noisy-objectness", 1, n_scans=4, n_objects=25, object_points=200,
                 background_points=5_000, strategy="importance", max_speed=0.3,
                 noisy_share=0.30, eval_passes=16),
        Workload("stride-backfill", 2, n_scans=6, n_objects=20, object_points=250,
                 background_points=20_000, strategy="stride", max_speed=0.3,
                 window_stride=2, eval_passes=10),
        Workload("long-sequence", 3, n_scans=300, n_objects=10, object_points=100,
                 background_points=1_500, strategy="importance", max_speed=0.004,
                 common_velocity=(0.15, -0.05, 0.0)),
    )
}


def scene_spec(w: Workload, seed: int) -> SceneSpec:
    """Objects on a jittered grid, moving at bounded speed, over a flat road."""
    rng = np.random.default_rng([seed, w.index])
    cols = math.ceil(math.sqrt(w.n_objects))
    objects = []
    for k in range(w.n_objects):
        row, col = divmod(k, cols)
        start = (
            (col - (cols - 1) / 2) * GRID_SPACING + rng.uniform(-1.0, 1.0),
            (row - (cols - 1) / 2) * GRID_SPACING + rng.uniform(-1.0, 1.0),
            rng.uniform(5.0, 7.0),
        )
        heading = rng.uniform(0.0, 2.0 * np.pi)
        speed = rng.uniform(0.0, w.max_speed)
        velocity = (
            w.common_velocity[0] + speed * np.cos(heading),
            w.common_velocity[1] + speed * np.sin(heading),
            0.0,
        )
        objects.append(ObjectSpec(
            class_id=THINGS[k % 2], n_points=w.object_points, sigma=0.3,
            start=tuple(float(v) for v in start),
            velocity=tuple(float(v) for v in velocity),
        ))
    return SceneSpec(
        n_scans=w.n_scans,
        objects=tuple(objects),
        background_class=ROAD,
        background_points=w.background_points,
        background_extent=50.0,
        noise_sigma=0.01,
        seed=int(rng.integers(0, 2**31)),
        ego_velocity=(0.2, 0.05, 0.0),
        ego_yaw_rate=0.003,
    )


def add_noisy_objectness(w: Workload, data, seed: int):
    """Give a seeded share of background points objectness in (seed_stop, 1).

    Each such point can seed a cluster, so clustering tries thousands of seeds
    per window; the clusters stay below min_points and are dropped.
    """
    if w.noisy_share == 0.0:
        return
    rng = np.random.default_rng([seed, w.index, 1])
    n_bg = int(round(w.noisy_share * w.points_per_scan))
    first_bg = w.n_objects * w.object_points  # synth appends background last
    for _, _, objectness in data.fields:
        chosen = first_bg + rng.choice(w.background_points, size=n_bg, replace=False)
        objectness[chosen] = rng.uniform(SEED_STOP + 0.01, 1.0, n_bg).astype(np.float32)


def corruptions(w: Workload):
    """The five corrupted prediction sets every workload scores."""
    half = w.n_scans // 2
    return {
        "split": {"kind": "split_tube", "tube": 1, "scan": half},
        "merge": {"kind": "merge_tubes", "keep": 2, "absorb": 3},
        "idswitch": {"kind": "id_switch", "tube": 4, "scan": max(1, w.n_scans // 3)},
        "flip": {"kind": "flip_class", "fraction": 0.2, "things": list(THINGS), "seed": 5},
        "drop": {"kind": "drop_points", "fraction": 0.1, "seed": 6},
    }


def pred_dir(root, set_name):
    return os.path.join(root, set_name, SEQ, "predictions")


def write_label_stream(labels, d):
    os.makedirs(d, exist_ok=True)
    for t, lab in enumerate(labels):
        write_labels(lab, os.path.join(d, f"{t:06d}.label"))


def make_inputs(w: Workload, seed: int, spec: SceneSpec, data_root, pred_root, timings):
    """Write the scene, its class map and the corrupted prediction sets.

    ``timings`` receives the seconds spent generating the scene (with the
    objectness edits) and writing it; together they are the set-up time. The
    corrupted sets are written afterwards, untimed.
    """
    t0 = time.perf_counter()
    data = generate_sequence(spec)
    add_noisy_objectness(w, data, seed)
    t1 = time.perf_counter()
    write_sequence(data, os.path.join(data_root, SEQ))
    with open(os.path.join(data_root, "classes.yaml"), "w") as f:
        yaml.safe_dump(class_map_for(spec), f)
    timings["generate_s"] = t1 - t0
    timings["write_s"] = time.perf_counter() - t1
    for name, c in corruptions(w).items():
        write_label_stream(corrupt(data.labels, c), pred_dir(pred_root, name))
