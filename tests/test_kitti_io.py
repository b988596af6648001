import struct

import numpy as np
import pytest

from pan4d.errors import FormatError, ValidationError
from pan4d.kitti_io import (
    PanopticLabels,
    Pose,
    Scan,
    load_sequence,
    read_labels,
    read_point_scan,
    read_poses,
    write_labels,
    write_point_scan,
)

from conftest import random_rigid


class TestPointScan:
    def test_single_point_golden_bytes(self, tmp_path):
        path = tmp_path / "000000.bin"
        path.write_bytes(struct.pack("<ffff", 1.0, 2.0, 3.0, 0.5))
        scan = read_point_scan(path)
        assert len(scan) == 1
        np.testing.assert_array_equal(scan.points, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(scan.remission, [0.5])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(read_point_scan(path)) == 0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError, match="multiple of 16"):
            read_point_scan(path)

    def test_non_finite_reported_with_index(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(
            struct.pack("<ffff", 0, 0, 0, 0) + struct.pack("<ffff", 1, float("nan"), 2, 0)
        )
        with pytest.raises(FormatError, match="point 1"):
            read_point_scan(path)

    def test_write_read_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        scan = Scan(
            points=rng.normal(size=(50, 3)).astype(np.float32),
            remission=rng.uniform(size=50).astype(np.float32),
        )
        path = tmp_path / "rt.bin"
        write_point_scan(scan, path)
        again = read_point_scan(path)
        np.testing.assert_array_equal(scan.points, again.points)
        np.testing.assert_array_equal(scan.remission, again.remission)


class TestLabels:
    def test_word_bit_split(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 0x0001000A))
        labels = read_labels(path, expected_n=1)
        assert labels.semantic[0] == 10
        assert labels.instance[0] == 1

    def test_zero_word(self, tmp_path):
        path = tmp_path / "z.label"
        path.write_bytes(struct.pack("<I", 0))
        labels = read_labels(path, expected_n=1)
        assert labels.semantic[0] == 0
        assert labels.instance[0] == 0

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        src = tmp_path / "src.label"
        words = rng.integers(0, 2**32, size=200, dtype=np.uint64).astype("<u4")
        src.write_bytes(words.tobytes())
        labels = read_labels(src, expected_n=200)
        dst = tmp_path / "dst.label"
        write_labels(labels, dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "m.label"
        path.write_bytes(struct.pack("<II", 1, 2))
        with pytest.raises(FormatError, match="2 labels"):
            read_labels(path, expected_n=3)

    def test_overflow_rejected(self, tmp_path):
        labels = PanopticLabels(
            semantic=np.array([70000]), instance=np.array([0])
        )
        with pytest.raises(ValidationError, match="16-bit"):
            write_labels(labels, tmp_path / "o.label")

    def test_empty_labels_empty_file(self, tmp_path):
        path = tmp_path / "e.label"
        write_labels(
            PanopticLabels(semantic=np.array([], dtype=np.int64),
                           instance=np.array([], dtype=np.int64)),
            path,
        )
        assert path.read_bytes() == b""


def _write_calib(path, tr):
    with open(path, "w") as f:
        f.write("Tr: " + " ".join(f"{v:.17g}" for v in np.asarray(tr)[:3, :].ravel()) + "\n")


def _write_poses(path, mats):
    with open(path, "w") as f:
        for m in mats:
            f.write(" ".join(f"{v:.17g}" for v in np.asarray(m)[:3, :].ravel()) + "\n")


class TestPoses:
    def test_identity(self, tmp_path):
        _write_calib(tmp_path / "calib.txt", np.eye(4))
        _write_poses(tmp_path / "poses.txt", [np.eye(4)])
        poses = read_poses(tmp_path / "poses.txt", tmp_path / "calib.txt")
        np.testing.assert_allclose(poses[0].matrix, np.eye(4), atol=1e-12)

    def test_pure_translation(self, tmp_path):
        m = np.eye(4)
        m[0, 3] = 1.0
        _write_calib(tmp_path / "calib.txt", np.eye(4))
        _write_poses(tmp_path / "poses.txt", [m])
        pose = read_poses(tmp_path / "poses.txt", tmp_path / "calib.txt")[0]
        np.testing.assert_allclose(pose.transform([[0.0, 0.0, 0.0]]), [[1.0, 0.0, 0.0]])

    def test_frame_conversion_matches_matrix_oracle(self, tmp_path):
        # oracle: explicit 4x4 products Tr^-1 @ P @ Tr on random rigid transforms
        rng = np.random.default_rng(7)
        for _ in range(20):
            tr = random_rigid(rng, max_translation=2.0)
            cams = [random_rigid(rng) for _ in range(4)]
            _write_calib(tmp_path / "calib.txt", tr)
            _write_poses(tmp_path / "poses.txt", cams)
            poses = read_poses(tmp_path / "poses.txt", tmp_path / "calib.txt")
            for cam, pose in zip(cams, poses):
                expected = np.linalg.inv(tr) @ cam @ tr
                np.testing.assert_allclose(pose.matrix, expected, atol=1e-9)

    def test_malformed_line(self, tmp_path):
        _write_calib(tmp_path / "calib.txt", np.eye(4))
        (tmp_path / "poses.txt").write_text("1 0 0\n")
        with pytest.raises(FormatError, match="12 values"):
            read_poses(tmp_path / "poses.txt", tmp_path / "calib.txt")

    def test_missing_tr(self, tmp_path):
        (tmp_path / "calib.txt").write_text("P0: " + " ".join(["0"] * 12) + "\n")
        _write_poses(tmp_path / "poses.txt", [np.eye(4)])
        with pytest.raises(FormatError, match="Tr"):
            read_poses(tmp_path / "poses.txt", tmp_path / "calib.txt")

    def test_composition_round_trip(self):
        # apply a then b, then undo both: every point returns within 1e-9 m
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = Pose(matrix=random_rigid(rng))
            b = Pose(matrix=random_rigid(rng))
            pts = rng.normal(size=(30, 3)) * 20.0
            moved = b.transform(a.transform(pts))
            back = a.inverse().transform(b.inverse().transform(moved))
            assert np.abs(back - pts).max() < 1e-9

    def test_rotation_must_be_orthonormal(self):
        m = np.eye(4)
        m[0, 0] = 1.5
        with pytest.raises(ValidationError, match="orthonormal"):
            Pose(matrix=m)

    @pytest.mark.parametrize("n", [1, 2, 8191, 8192, 8193, 16385, 120000])
    def test_blocked_transform_matches_one_product(self, n):
        # row blocks of equal size: no short remainder block that BLAS rounds differently
        rng = np.random.default_rng(n)
        for _ in range(5):
            m = random_rigid(rng, max_translation=50.0)
            pts = rng.normal(scale=30.0, size=(n, 3))
            out = Pose(matrix=m).transform(pts)
            np.testing.assert_array_equal(out, pts @ m[:3, :3].T + m[:3, 3])


class TestSequenceHandle:
    def _make_sequence(self, root, n_scans=3, n_points=5):
        rng = np.random.default_rng(0)
        (root / "velodyne").mkdir()
        (root / "labels").mkdir()
        for i in range(n_scans):
            scan = Scan(
                points=rng.normal(size=(n_points, 3)).astype(np.float32),
                remission=rng.uniform(size=n_points).astype(np.float32),
            )
            write_point_scan(scan, root / "velodyne" / f"{i:06d}.bin")
            write_labels(
                PanopticLabels(
                    semantic=np.full(n_points, 10, dtype=np.int64),
                    instance=np.ones(n_points, dtype=np.int64),
                ),
                root / "labels" / f"{i:06d}.label",
            )
        _write_calib(root / "calib.txt", np.eye(4))
        _write_poses(root / "poses.txt", [np.eye(4)] * n_scans)

    def test_lazy_access(self, tmp_path):
        self._make_sequence(tmp_path)
        seq = load_sequence(str(tmp_path))
        assert len(seq) == 3
        assert seq.scan_size(1) == 5
        assert len(seq.scan(2)) == 5
        assert len(seq.labels(0)) == 5

    def test_index_out_of_range(self, tmp_path):
        self._make_sequence(tmp_path)
        seq = load_sequence(str(tmp_path))
        with pytest.raises(IndexError):
            seq.scan(3)

    def test_scan_label_mismatch_detected_at_access(self, tmp_path):
        self._make_sequence(tmp_path)
        # shrink one label file behind the handle's back
        bad = tmp_path / "labels" / "000001.label"
        bad.write_bytes(bad.read_bytes()[:-4])
        seq = load_sequence(str(tmp_path))
        seq.labels(0)
        with pytest.raises(FormatError):
            seq.labels(1)

    def test_missing_velodyne(self, tmp_path):
        with pytest.raises(FormatError, match="velodyne"):
            load_sequence(str(tmp_path))
