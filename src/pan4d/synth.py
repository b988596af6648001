"""Synthetic labeled LiDAR sequences with analytically known metric behavior.

Objects are isotropic Gaussian point blobs (offsets truncated at 3 sigma)
translating at constant velocity over a static stuff background; the ego
sensor may translate and yaw. Alongside scans, labels, and poses, the
generator emits oracle clustering fields: embeddings are world coordinates,
objectness follows the center-proximity rule, and variances are wide enough
that greedy Gaussian clustering recovers each blob exactly.

Controlled corruptions of a ground-truth label stream (tube splits, merges,
class flips, dropped points, id switches) are provided for metric tests.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .clustering import write_cluster_fields
from .config import coerce, path_component
from .errors import ValidationError
from .kitti_io import PanopticLabels, Pose, Scan, write_labels, write_point_scan
from .losses import objectness_target

# capture radius multiplier: affinity exceeds 0.5 within this many oracle stds
_CAPTURE = np.sqrt(2.0 * np.log(2.0))

DEFAULT_CALIB_TR = np.array(
    [
        [0.0, -1.0, 0.0, 0.05],
        [0.0, 0.0, -1.0, -0.08],
        [1.0, 0.0, 0.0, 0.12],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

SEQUENCE_NAME = "00"  # sequence directory of a scene spec without a name


@dataclass(frozen=True)
class ObjectSpec:
    class_id: int
    n_points: int
    sigma: float  # blob standard deviation, meters
    start: tuple  # world position at scan 0
    velocity: tuple = (0.0, 0.0, 0.0)  # meters per scan
    cluster_sigma: float | None = None  # oracle Gaussian std; see SceneSpec

    def oracle_sigma(self):
        if self.cluster_sigma is not None:
            return self.cluster_sigma
        speed = float(np.linalg.norm(self.velocity))
        return 3.0 * self.sigma + 3.0 * speed


@dataclass(frozen=True)
class SceneSpec:
    """One synthetic scene; construction checks its values and its objects' layout."""

    n_scans: int = 10
    objects: tuple = ()
    background_class: int = 40
    background_points: int = 0
    background_extent: float = 60.0
    background_z_jitter: float = 0.2
    noise_sigma: float = 0.0
    seed: int = 0
    ego_velocity: tuple = (0.0, 0.0, 0.0)
    ego_yaw_rate: float = 0.0  # radians per scan
    min_separation_sigma: float = 10.0
    calib_tr: np.ndarray = field(default_factory=lambda: DEFAULT_CALIB_TR.copy())

    def __post_init__(self):
        if self.n_scans < 1:
            raise ValidationError("sequence length must be >= 1")
        if not self.objects:
            raise ValidationError("scene needs at least one object")
        if self.background_points < 0 or self.seed < 0:
            raise ValidationError("background points and seed must be >= 0")
        for obj in self.objects:
            if obj.n_points < 1 or obj.sigma <= 0 or obj.oracle_sigma() <= 0:
                raise ValidationError("object point counts and sigmas must be positive")
        self._check_separation()
        self._check_background_clearance()

    def _check_separation(self):
        centers = np.array(
            [
                [np.asarray(o.start) + np.asarray(o.velocity) * t for o in self.objects]
                for t in range(self.n_scans)
            ]
        )  # (T, K, 3)
        for i in range(len(self.objects)):
            for j in range(i + 1, len(self.objects)):
                dist = np.linalg.norm(centers[:, i] - centers[:, j], axis=1).min()
                need = self.min_separation_sigma * max(
                    self.objects[i].sigma, self.objects[j].sigma
                )
                if dist < need:
                    raise ValidationError(
                        f"objects {i} and {j} approach to {dist:.2f} m, "
                        f"below the required {need:.2f} m"
                    )

    def _check_background_clearance(self):
        if self.background_points == 0:
            return
        for i, obj in enumerate(self.objects):
            clearance = _CAPTURE * obj.oracle_sigma() + 3.0 * obj.sigma
            z_min = min(
                obj.start[2] + obj.velocity[2] * t for t in range(self.n_scans)
            )
            if z_min - clearance <= self.background_z_jitter:
                raise ValidationError(
                    f"object {i} comes within its capture radius of the "
                    f"background plane; raise it above z = "
                    f"{clearance + self.background_z_jitter:.2f}"
                )


@dataclass
class SequenceData:
    """In-memory synthetic sequence plus its oracle clustering fields."""

    scans: list  # Scan, sensor frame
    labels: list  # PanopticLabels
    poses: list  # Pose, LiDAR world frame
    fields: list  # (embeddings, variances, objectness) per scan
    calib_tr: np.ndarray


def _truncated_blob(rng, n, sigma):
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        draw = rng.normal(scale=sigma, size=(n - filled, 3))
        keep = draw[np.linalg.norm(draw, axis=1) <= 3.0 * sigma]
        out[filled : filled + keep.shape[0]] = keep
        filled += keep.shape[0]
    return out


def _ego_pose(spec: SceneSpec, t: int) -> Pose:
    yaw = spec.ego_yaw_rate * t
    c, s = np.cos(yaw), np.sin(yaw)
    m = np.eye(4)
    m[:3, :3] = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    m[:3, 3] = np.asarray(spec.ego_velocity) * t
    return Pose(matrix=m)


def generate_sequence(spec: SceneSpec) -> SequenceData:
    """Generate scans, labels, poses, and oracle fields for one sequence."""
    rng = np.random.default_rng(spec.seed)

    background = None
    if spec.background_points:
        background = np.column_stack(
            [
                rng.uniform(-spec.background_extent, spec.background_extent,
                            spec.background_points),
                rng.uniform(-spec.background_extent, spec.background_extent,
                            spec.background_points),
                rng.uniform(-spec.background_z_jitter, spec.background_z_jitter,
                            spec.background_points),
            ]
        )

    scans, labels, poses, fields = [], [], [], []
    for t in range(spec.n_scans):
        world_parts, sem_parts, inst_parts, var_parts = [], [], [], []
        for k, obj in enumerate(spec.objects):
            center = np.asarray(obj.start) + np.asarray(obj.velocity) * t
            pts = center + _truncated_blob(rng, obj.n_points, obj.sigma)
            world_parts.append(pts)
            sem_parts.append(np.full(obj.n_points, obj.class_id, dtype=np.int64))
            inst_parts.append(np.full(obj.n_points, k + 1, dtype=np.int64))
            var_parts.append(np.full((obj.n_points, 3), obj.oracle_sigma() ** 2))
        if background is not None:
            world_parts.append(background)
            sem_parts.append(
                np.full(spec.background_points, spec.background_class, dtype=np.int64)
            )
            inst_parts.append(np.zeros(spec.background_points, dtype=np.int64))
            var_parts.append(np.ones((spec.background_points, 3)))

        world = np.vstack(world_parts)
        if spec.noise_sigma > 0:
            world = world + rng.normal(scale=spec.noise_sigma, size=world.shape)
        sem = np.concatenate(sem_parts)
        inst = np.concatenate(inst_parts)

        pose = _ego_pose(spec, t)
        sensor = pose.inverse().transform(world)
        scans.append(
            Scan(
                points=sensor.astype(np.float32),
                remission=rng.uniform(0.0, 1.0, world.shape[0]).astype(np.float32),
            )
        )
        labels.append(PanopticLabels(semantic=sem, instance=inst))
        poses.append(pose)

        objectness = objectness_target(world, inst)
        fields.append(
            (
                world.astype(np.float32),
                np.vstack(var_parts).astype(np.float32),
                objectness.astype(np.float32),
            )
        )

    return SequenceData(scans=scans, labels=labels, poses=poses, fields=fields,
                        calib_tr=spec.calib_tr.copy())


def write_sequence(data: SequenceData, seq_dir):
    """Write a sequence in the on-disk layout the readers expect."""
    os.makedirs(os.path.join(seq_dir, "velodyne"), exist_ok=True)
    os.makedirs(os.path.join(seq_dir, "labels"), exist_ok=True)
    os.makedirs(os.path.join(seq_dir, "fields"), exist_ok=True)

    tr = data.calib_tr
    with open(os.path.join(seq_dir, "calib.txt"), "w") as f:
        f.write("Tr: " + " ".join(f"{v:.17g}" for v in tr[:3, :].ravel()) + "\n")
    tr_inv = np.linalg.inv(tr)
    with open(os.path.join(seq_dir, "poses.txt"), "w") as f:
        for pose in data.poses:
            cam = tr @ pose.matrix @ tr_inv
            f.write(" ".join(f"{v:.17g}" for v in cam[:3, :].ravel()) + "\n")

    for t, (scan, labels, field_arrays) in enumerate(
        zip(data.scans, data.labels, data.fields)
    ):
        stem = f"{t:06d}"
        write_point_scan(scan, os.path.join(seq_dir, "velodyne", stem + ".bin"))
        write_labels(labels, os.path.join(seq_dir, "labels", stem + ".label"))
        emb, var, obj = field_arrays
        write_cluster_fields(
            os.path.join(seq_dir, "fields", stem + ".p4de"), emb, obj, var
        )


# -- label corruptions -------------------------------------------------------


def _copy_stream(labels):
    return [
        PanopticLabels(semantic=l.semantic.copy(), instance=l.instance.copy())
        for l in labels
    ]


def _fresh_id(labels):
    top = max((int(l.instance.max()) if len(l) else 0) for l in labels)
    return top + 1


def split_tube(labels, tube_id: int, at_scan: int, new_id=None):
    """Relabel the tube's points at scans >= at_scan with a new id."""
    out = _copy_stream(labels)
    new_id = _fresh_id(labels) if new_id is None else new_id
    for n in range(at_scan, len(out)):
        mask = out[n].instance == tube_id
        out[n].instance[mask] = new_id
    return out


id_switch = split_tube  # switching a tube to a new identity mid-sequence is one split


def merge_tubes(labels, keep_id: int, absorb_id: int):
    """Relabel every point of absorb_id with keep_id."""
    out = _copy_stream(labels)
    for l in out:
        l.instance[l.instance == absorb_id] = keep_id
    return out


def flip_class(labels, fraction: float, thing_classes, seed: int = 0):
    """Flip a seeded fraction of thing points to the next thing class."""
    things = sorted(int(c) for c in thing_classes)
    if len(things) < 2:
        raise ValidationError("class flipping needs at least two thing classes")
    succ = {c: things[(i + 1) % len(things)] for i, c in enumerate(things)}
    rng = np.random.default_rng(seed)
    out = _copy_stream(labels)
    for l in out:
        mask = np.isin(l.semantic, things)
        idx = np.flatnonzero(mask)
        k = int(np.floor(fraction * idx.size))
        if k == 0:
            continue
        chosen = rng.choice(idx, size=k, replace=False)
        l.semantic[chosen] = np.array([succ[int(c)] for c in l.semantic[chosen]])
    return out


def drop_points(labels, fraction: float, seed: int = 0):
    """Blank out a seeded fraction of points (class and id to 0)."""
    rng = np.random.default_rng(seed)
    out = _copy_stream(labels)
    for l in out:
        k = int(np.floor(fraction * len(l)))
        if k == 0:
            continue
        chosen = rng.choice(len(l), size=k, replace=False)
        l.semantic[chosen] = 0
        l.instance[chosen] = 0
    return out


# YAML key of a scene spec -> SceneSpec / ObjectSpec field; a nested table
# reads a nested mapping
_SCENE_KEYS = {
    "n_scans": "n_scans", "seed": "seed", "noise_sigma": "noise_sigma",
    "min_separation_sigma": "min_separation_sigma",
    "background": {"class": "background_class", "points": "background_points",
                   "extent": "background_extent"},
    "ego": {"velocity": "ego_velocity", "yaw_rate": "ego_yaw_rate"},
}
_OBJECT_KEYS = {"class": "class_id", "points": "n_points", "sigma": "sigma", "start": "start",
                "velocity": "velocity", "cluster_sigma": "cluster_sigma"}


def _spec_values(cls, data, keys, prefix=""):
    """{field: value} of dataclass cls from the YAML mapping data, read by the
    key table keys. Values go through config.coerce() by field type, a tuple
    field takes 3 numbers, and an unknown key fails."""
    if not isinstance(data, dict):
        raise ValidationError(f"{prefix[:-1]}: expected a mapping, got {data!r}")
    types = {f.name: f.type for f in fields(cls)}
    out = {}
    for key, value in data.items():
        target, path = keys.get(key), f"{prefix}{key}"
        if target is None:
            raise ValidationError(f"unknown scene spec key {path!r}")
        if isinstance(target, dict):
            out.update(_spec_values(cls, {} if value is None else value, target, path + "."))
        elif types[target] == "tuple":
            if not isinstance(value, (list, tuple)) or len(value) != 3:
                raise ValidationError(f"{path}: expected 3 numbers, got {value!r}")
            out[target] = tuple(coerce(path, v, "float") for v in value)
        else:
            out[target] = coerce(path, value, types[target])
    return out


def scene_spec_from_dict(data: dict):
    """Build a SceneSpec from a parsed YAML mapping; returns (spec, name).

    Absent keys keep the SceneSpec and ObjectSpec defaults. An unknown key, a
    value of the wrong type or a vector that is not 3 numbers fails, and so
    does a name that is not one plain path component.
    """
    data = dict(data)
    name = path_component("name", coerce("name", data.pop("name", SEQUENCE_NAME), "str"))
    objects = data.pop("objects", SceneSpec.objects)
    if not isinstance(objects, (list, tuple)):
        raise ValidationError(f"objects: expected a list, got {objects!r}")
    required = {f.name for f in fields(ObjectSpec) if f.default is MISSING}
    specs = []
    for k, obj in enumerate(objects):
        values = _spec_values(ObjectSpec, obj, _OBJECT_KEYS, f"objects[{k}].")
        missing = [key for key, f in _OBJECT_KEYS.items() if f in required - set(values)]
        if missing:
            raise ValidationError(f"objects[{k}]: missing key {missing[0]!r}")
        specs.append(ObjectSpec(**values))
    return SceneSpec(objects=tuple(specs), **_spec_values(SceneSpec, data, _SCENE_KEYS)), name


def class_map_for(spec: SceneSpec) -> dict:
    """Evaluation class map implied by a scene spec."""
    things = sorted({o.class_id for o in spec.objects})
    classes = list(things)
    if spec.background_points:
        classes = sorted(set(classes) | {spec.background_class})
    return {"classes": classes, "things": things, "ignore": [0]}


def corrupt(labels, corruption: dict):
    """Apply one named corruption, e.g. {"kind": "split_tube", "tube": 1, "scan": 5}."""
    kind = corruption.get("kind")
    if kind in ("split_tube", "id_switch"):
        return split_tube(labels, corruption["tube"], corruption["scan"],
                          corruption.get("new_id"))
    if kind == "merge_tubes":
        return merge_tubes(labels, corruption["keep"], corruption["absorb"])
    if kind == "flip_class":
        return flip_class(labels, corruption["fraction"], corruption["things"],
                          corruption.get("seed", 0))
    if kind == "drop_points":
        return drop_points(labels, corruption["fraction"], corruption.get("seed", 0))
    raise ValidationError(f"unknown corruption kind {kind!r}")
