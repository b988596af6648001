"""Readers and writers for SemanticKITTI-style sequence data.

Formats handled here:
  velodyne/NNNNNN.bin   little-endian float32 quadruples (x, y, z, remission)
  labels/NNNNNN.label   little-endian uint32 words; low 16 bits semantic
                        class, high 16 bits instance id
  poses.txt             one pose per scan, 12 decimals, row-major 3x4,
                        camera frame
  calib.txt             contains a "Tr:" line (camera-from-LiDAR, 3x4)

Poses are converted to the LiDAR frame at load time (Tr^-1 * P * Tr) so every
downstream module works in a single world frame.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError

POINT_RECORD_BYTES = 16  # 4 x float32
LABEL_RECORD_BYTES = 4  # 1 x uint32
LABEL_FIELD_MAX = 0xFFFF  # semantic class and instance id each fill 16 bits of a label
# Pose.transform multiplies at most this many rows at once: OpenBLAS runs
# products this small on one thread, whose time does not swing with how long
# its worker threads have been idle
TRANSFORM_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Scan:
    """One LiDAR sweep: N points in the sensor frame plus remission."""

    points: np.ndarray  # (N, 3) float32, meters
    remission: np.ndarray  # (N,) float32

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValidationError(f"points must be (N, 3), got {self.points.shape}")
        if self.remission.shape != (self.points.shape[0],):
            raise ValidationError(
                f"remission length {self.remission.shape} does not match "
                f"{self.points.shape[0]} points"
            )
        if not np.isfinite(self.points).all():
            raise ValidationError("scan coordinates must be finite")

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class PanopticLabels:
    """Per-point (semantic class, instance id) pairs for one scan.

    Instance id 0 means "no instance"; points of ignore classes carry
    instance 0 by dataset convention.
    """

    semantic: np.ndarray  # (N,) integer class ids, 16-bit range
    instance: np.ndarray  # (N,) integer instance ids, 16-bit range

    def __post_init__(self):
        if self.semantic.shape != self.instance.shape or self.semantic.ndim != 1:
            raise ValidationError("semantic and instance must be equal-length 1-d arrays")

    def __len__(self):
        return self.semantic.shape[0]


@dataclass(frozen=True)
class Pose:
    """Rigid transform into the world frame, stored as a homogeneous 4x4 matrix."""

    matrix: np.ndarray  # (4, 4) float64

    def __post_init__(self):
        m = self.matrix
        if m.shape != (4, 4):
            raise ValidationError(f"pose matrix must be 4x4, got {m.shape}")
        r = m[:3, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6):
            raise ValidationError("pose rotation block is not orthonormal within 1e-6")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValidationError("pose bottom row must be [0, 0, 0, 1]")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(matrix=np.eye(4))

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the pose to an (N, 3) array of points.

        The rows go through in blocks of at most TRANSFORM_BLOCK_ROWS, all of
        about equal size: a short remainder block could round differently from
        one `pts @ R.T + t` over all rows, which the result matches bit for bit.
        """
        pts = np.asarray(points, dtype=np.float64)
        r, t = self.matrix[:3, :3].T, self.matrix[:3, 3]
        n_blocks = max(1, -(-pts.shape[0] // TRANSFORM_BLOCK_ROWS))
        return np.concatenate([block @ r + t for block in np.array_split(pts, n_blocks)])

    def inverse(self) -> "Pose":
        r = self.matrix[:3, :3]
        t = self.matrix[:3, 3]
        inv = np.eye(4)
        inv[:3, :3] = r.T
        inv[:3, 3] = -r.T @ t
        return Pose(matrix=inv)


def read_point_scan(path) -> Scan:
    """Read one velodyne .bin file.

    Args:
        path: file of little-endian float32 (x, y, z, remission) records.

    Raises:
        FormatError: truncated file or non-finite values.
    """
    nbytes = os.path.getsize(path)
    if nbytes % POINT_RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: {nbytes} bytes is not a multiple of {POINT_RECORD_BYTES}"
        )
    data = np.fromfile(path, dtype="<f4").reshape(-1, 4)
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        idx = int(np.argmax(bad))
        raise FormatError(f"{path}: non-finite value at point {idx}")
    return Scan(points=data[:, :3], remission=data[:, 3])


def write_point_scan(scan: Scan, path):
    """Write a Scan as a velodyne .bin file (inverse of read_point_scan)."""
    data = np.empty((len(scan), 4), dtype="<f4")
    data[:, :3] = scan.points
    data[:, 3] = scan.remission
    data.tofile(path)


def read_labels(path, expected_n=None) -> PanopticLabels:
    """Read a .label file and split each word into (semantic, instance).

    Args:
        path: file of little-endian uint32 words.
        expected_n: point count of the paired scan; None skips the check.

    Raises:
        FormatError: length not a multiple of 4, or mismatch with expected_n.
    """
    words = np.fromfile(path, dtype="<u4")
    if os.path.getsize(path) % LABEL_RECORD_BYTES != 0:
        raise FormatError(f"{path}: size is not a multiple of {LABEL_RECORD_BYTES}")
    if expected_n is not None and words.size != expected_n:
        raise FormatError(
            f"{path}: {words.size} labels but paired scan has {expected_n} points"
        )
    semantic = (words & 0xFFFF).astype(np.uint16)
    instance = (words >> 16).astype(np.uint16)
    return PanopticLabels(semantic=semantic, instance=instance)


def write_labels(labels: PanopticLabels, path):
    """Write labels as packed uint32 words (bit-exact inverse of read_labels).

    Raises:
        ValidationError: semantic or instance value outside the 16-bit range.
    """
    sem = np.asarray(labels.semantic, dtype=np.int64)
    inst = np.asarray(labels.instance, dtype=np.int64)
    for name, arr in (("semantic", sem), ("instance", inst)):
        if arr.size and (arr.min() < 0 or arr.max() > LABEL_FIELD_MAX):
            raise ValidationError(f"{name} value outside 16-bit range")
    words = ((inst.astype(np.uint32) << 16) | sem.astype(np.uint32)).astype("<u4")
    words.tofile(path)


def _parse_line_12(line, what):
    parts = line.split()
    if len(parts) != 12:
        raise FormatError(f"{what}: expected 12 values, got {len(parts)}")
    try:
        vals = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from exc
    if not np.isfinite(vals).all():
        raise FormatError(f"{what}: non-finite value")
    m = np.eye(4)
    m[:3, :] = vals.reshape(3, 4)
    return m


def read_calib_tr(calib_path) -> np.ndarray:
    """Return the 4x4 camera-from-LiDAR transform from a calib.txt.

    Raises:
        FormatError: no Tr line, or a Tr line that is malformed, non-finite or
            singular; the message names the file and the line.
    """
    with open(calib_path) as f:
        for k, line in enumerate(f, start=1):
            key, _, rest = line.partition(":")
            if key.strip() == "Tr":
                what = f"{calib_path} line {k} (Tr)"
                tr = _parse_line_12(rest, what)
                # a zero determinant covers every matrix np.linalg.inv rejects;
                # an SVD-based rank would add about 0.7 MiB to a run's peak memory
                if np.linalg.det(tr) == 0:
                    raise FormatError(f"{what}: singular matrix")
                return tr
    raise FormatError(f"{calib_path}: no 'Tr' line found")


def read_poses(poses_path, calib_path) -> list:
    """Read camera-frame poses and convert them to LiDAR-frame world poses.

    Each returned Pose maps LiDAR coordinates of its scan into the world
    (first-scan LiDAR) frame, computed as Tr^-1 * P * Tr.

    Raises:
        FormatError: a bad calib.txt (see `read_calib_tr`), or a pose line that
            is malformed, non-finite or not rigid; the message names the file
            and the line.
    """
    tr = read_calib_tr(calib_path)
    tr_inv = np.linalg.inv(tr)
    poses = []
    with open(poses_path) as f:
        for k, line in enumerate(f, start=1):
            if not line.strip():
                continue
            what = f"{poses_path} line {k}"
            p_cam = _parse_line_12(line, what)
            try:
                poses.append(Pose(matrix=tr_inv @ p_cam @ tr))
            except ValidationError as exc:
                raise FormatError(f"{what}: {exc}") from exc
    return poses


@dataclass
class SequenceHandle:
    """Lazy access to one sequence directory (velodyne/ labels/ poses.txt).

    Scans and labels are materialized on demand; scan/label point counts are
    cross-checked at access time.
    """

    root: str
    scan_paths: list
    label_paths: list
    poses: list
    fields_paths: list = field(default_factory=list)

    def __len__(self):
        return len(self.scan_paths)

    def _check_index(self, i):
        if not 0 <= i < len(self.scan_paths):
            raise IndexError(f"scan {i} out of range [0, {len(self.scan_paths)})")

    def scan_size(self, i) -> int:
        self._check_index(i)
        return os.path.getsize(self.scan_paths[i]) // POINT_RECORD_BYTES

    def scan(self, i) -> Scan:
        self._check_index(i)
        return read_point_scan(self.scan_paths[i])

    def labels(self, i) -> PanopticLabels:
        self._check_index(i)
        if not self.label_paths:
            raise FormatError(f"{self.root}: sequence has no labels directory")
        return read_labels(self.label_paths[i], expected_n=self.scan_size(i))

    def pose(self, i) -> Pose:
        self._check_index(i)
        return self.poses[i]

    def fields_path(self, i) -> str:
        self._check_index(i)
        if not self.fields_paths:
            raise FormatError(f"{self.root}: sequence has no fields directory")
        return self.fields_paths[i]

    @property
    def has_labels(self):
        return bool(self.label_paths)

    @property
    def has_fields(self):
        return bool(self.fields_paths)


def listdir_sorted(d, suffix):
    """Paths of the files in d whose names end with suffix, sorted by name."""
    return [os.path.join(d, n) for n in sorted(os.listdir(d)) if n.endswith(suffix)]


def load_sequence(seq_dir) -> SequenceHandle:
    """Open a sequence directory laid out as velodyne/ labels/ poses.txt calib.txt.

    Raises:
        FormatError: missing velodyne directory, poses.txt or calib.txt, or
            fewer poses than scans.
    """
    velo_dir = os.path.join(seq_dir, "velodyne")
    if not os.path.isdir(velo_dir):
        raise FormatError(f"{seq_dir}: no velodyne/ directory")
    scan_paths = listdir_sorted(velo_dir, ".bin")

    labels_dir = os.path.join(seq_dir, "labels")
    label_paths = listdir_sorted(labels_dir, ".label") if os.path.isdir(labels_dir) else []
    if label_paths and len(label_paths) != len(scan_paths):
        raise FormatError(
            f"{seq_dir}: {len(scan_paths)} scans but {len(label_paths)} label files"
        )

    fields_dir = os.path.join(seq_dir, "fields")
    fields_paths = listdir_sorted(fields_dir, ".p4de") if os.path.isdir(fields_dir) else []
    if fields_paths and len(fields_paths) != len(scan_paths):
        raise FormatError(
            f"{seq_dir}: {len(scan_paths)} scans but {len(fields_paths)} fields files"
        )

    poses_path = os.path.join(seq_dir, "poses.txt")
    calib_path = os.path.join(seq_dir, "calib.txt")
    for path in (poses_path, calib_path):
        if not os.path.isfile(path):
            raise FormatError(f"{seq_dir}: no {os.path.basename(path)}")
    poses = read_poses(poses_path, calib_path)
    if len(poses) < len(scan_paths):
        raise FormatError(
            f"{seq_dir}: {len(scan_paths)} scans but only {len(poses)} poses"
        )

    return SequenceHandle(
        root=seq_dir,
        scan_paths=scan_paths,
        label_paths=label_paths,
        poses=poses,
        fields_paths=fields_paths,
    )
