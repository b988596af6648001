from dataclasses import fields

import numpy as np
import pytest

from pan4d.errors import ValidationError
from pan4d.kitti_io import load_sequence
from pan4d.metrics import evaluate
from pan4d.synth import (
    ObjectSpec,
    SceneSpec,
    corrupt,
    drop_points,
    flip_class,
    generate_sequence,
    id_switch,
    merge_tubes,
    scene_spec_from_dict,
    split_tube,
    write_sequence,
)

from conftest import CAR, PERSON


def two_object_scene(n_scans=10, n_points=30, seed=3):
    return SceneSpec(
        n_scans=n_scans,
        objects=(
            ObjectSpec(class_id=CAR, n_points=n_points, sigma=0.3,
                       start=(12.0, 0.0, 5.0), velocity=(0.4, 0.0, 0.0)),
            ObjectSpec(class_id=PERSON, n_points=n_points, sigma=0.2,
                       start=(-12.0, 6.0, 5.0), velocity=(0.0, -0.3, 0.0)),
        ),
        background_class=40,
        background_points=200,
        background_extent=40.0,
        noise_sigma=0.01,
        seed=seed,
        ego_velocity=(0.2, 0.0, 0.0),
        ego_yaw_rate=0.002,
    )


@pytest.fixture(scope="module")
def scene_data():
    return generate_sequence(two_object_scene())


def gt_stream(data):
    return [(l.semantic, l.instance) for l in data.labels]


class TestGeneration:
    def test_ids_persist_across_scans(self):
        data = generate_sequence(two_object_scene(n_scans=5))
        for labels in data.labels:
            assert set(np.unique(labels.instance)) == {0, 1, 2}

    def test_blob_counts_match_spec(self, scene_data):
        for labels in scene_data.labels:
            assert (labels.instance == 1).sum() == 30
            assert (labels.instance == 2).sum() == 30
            assert (labels.instance == 0).sum() == 200

    def test_seeded_regeneration_identical(self):
        a = generate_sequence(two_object_scene(seed=11))
        b = generate_sequence(two_object_scene(seed=11))
        for sa, sb in zip(a.scans, b.scans):
            np.testing.assert_array_equal(sa.points, sb.points)
            np.testing.assert_array_equal(sa.remission, sb.remission)

    def test_objectness_follows_center_proximity(self, scene_data):
        emb, _, obj = scene_data.fields[0]
        labels = scene_data.labels[0]
        members = labels.instance == 1
        world = emb[members].astype(np.float64)
        center = world.mean(axis=0)
        d = np.linalg.norm(world - center, axis=1)
        np.testing.assert_allclose(obj[members], 1.0 - d / d.max(), atol=1e-6)
        assert (obj[labels.instance == 0] == 0.0).all()

    def test_separation_validation(self):
        with pytest.raises(ValidationError, match="approach"):
            SceneSpec(
                n_scans=5,
                objects=(
                    ObjectSpec(class_id=CAR, n_points=10, sigma=1.0, start=(0.0, 0.0, 5.0)),
                    ObjectSpec(class_id=CAR, n_points=10, sigma=1.0, start=(4.0, 0.0, 5.0)),
                ),
            )

    def test_background_clearance_validation(self):
        with pytest.raises(ValidationError, match="capture radius"):
            SceneSpec(
                n_scans=3,
                objects=(
                    ObjectSpec(class_id=CAR, n_points=10, sigma=0.3, start=(0.0, 0.0, 0.5)),
                ),
                background_points=100,
            )

    def test_spec_from_dict(self):
        spec, name = scene_spec_from_dict(
            {
                "name": "07",
                "n_scans": 4,
                "objects": [
                    {"class": CAR, "points": 12, "sigma": 0.2, "start": [3, 0, 5]}
                ],
            }
        )
        assert name == "07"
        assert spec.n_scans == 4
        assert spec.objects[0].n_points == 12

    def test_spec_from_dict_keeps_dataclass_defaults(self):
        spec, _ = scene_spec_from_dict(
            {"objects": [{"class": CAR, "points": 12, "sigma": 0.2, "start": [3, 0, 5]}]}
        )
        for f in fields(SceneSpec):
            if f.name not in ("objects", "calib_tr"):
                assert getattr(spec, f.name) == f.default, f.name
        assert spec.objects[0] == ObjectSpec(class_id=CAR, n_points=12, sigma=0.2,
                                             start=(3.0, 0.0, 5.0))


class TestRoundTrip:
    def test_emitted_files_reparse_bit_exactly(self, tmp_path, scene_data):
        seq_dir = tmp_path / "00"
        write_sequence(scene_data, seq_dir)
        seq = load_sequence(str(seq_dir))
        assert len(seq) == 10
        for i in range(len(seq)):
            scan = seq.scan(i)
            np.testing.assert_array_equal(scan.points, scene_data.scans[i].points)
            np.testing.assert_array_equal(scan.remission, scene_data.scans[i].remission)
            labels = seq.labels(i)
            np.testing.assert_array_equal(labels.semantic, scene_data.labels[i].semantic)
            np.testing.assert_array_equal(labels.instance, scene_data.labels[i].instance)
            np.testing.assert_allclose(
                seq.pose(i).matrix, scene_data.poses[i].matrix, atol=1e-12
            )

    def test_sidecars_reparse(self, tmp_path, scene_data):
        from pan4d.clustering import read_cluster_fields

        seq_dir = tmp_path / "00"
        write_sequence(scene_data, seq_dir)
        seq = load_sequence(str(seq_dir))
        for i in range(len(seq)):
            cf = read_cluster_fields(seq.fields_path(i))
            emb, var, obj = scene_data.fields[i]
            np.testing.assert_array_equal(cf.embeddings, emb)
            np.testing.assert_array_equal(cf.variances, var)
            np.testing.assert_array_equal(cf.objectness, obj)


class TestUncorrupted:
    def test_gt_vs_gt_scores_one_everywhere(self, scene_data, eval_config):
        gt = gt_stream(scene_data)
        report = evaluate({"00": gt}, {"00": gt}, eval_config)
        assert report.s_cls == 1.0
        assert report.s_assoc == 1.0
        assert report.lstq == 1.0
        assert report.pq == 1.0
        assert report.sq == 1.0
        assert report.rq == 1.0
        assert report.pq_dagger == 1.0
        assert report.motsa_mean == 1.0
        assert report.smotsa_mean == 1.0
        assert report.ptq_mean == 1.0
        for v in report.mots_per_class.values():
            assert v["ids"] == 0


class TestCorruptions:
    def test_split_even_tube_scores_half(self, eval_config):
        # tube of 10 scans x 30 points split at scan 5: halves of 150 points
        data = generate_sequence(two_object_scene())
        gt = gt_stream(data)
        split = split_tube(data.labels, tube_id=1, at_scan=5)
        pred = gt_stream_from(split)
        # the split tube contributes 0.5, the intact one 1.0
        report = evaluate({"": gt}, {"": pred}, eval_config)
        assert report.s_assoc == pytest.approx(0.75, abs=1e-12)

    def test_merge_equal_tubes_scores_half(self, eval_config):
        data = generate_sequence(two_object_scene())
        gt = gt_stream(data)
        merged = merge_tubes(data.labels, keep_id=1, absorb_id=2)
        pred = gt_stream_from(merged)
        # each gt tube sees TPA = |gt| against a pred tube of twice the size
        report = evaluate({"": gt}, {"": pred}, eval_config)
        assert report.s_assoc == pytest.approx(0.5, abs=1e-12)

    def test_class_flip_within_things_preserves_association(self, eval_config):
        data = generate_sequence(two_object_scene())
        gt = gt_stream(data)
        flipped = flip_class(data.labels, fraction=0.3, thing_classes=(CAR, PERSON),
                             seed=4)
        pred = gt_stream_from(flipped)
        report = evaluate({"": gt}, {"": pred}, eval_config)
        assert report.s_assoc == pytest.approx(1.0, abs=1e-12)
        assert report.s_cls < 1.0

    def test_id_switch_adds_exactly_one_switch(self, eval_config):
        data = generate_sequence(two_object_scene())
        gt = gt_stream(data)
        switched = id_switch(data.labels, tube_id=1, at_scan=5)
        pred = gt_stream_from(switched)
        report = evaluate({"": gt}, {"": pred}, eval_config)
        assert report.mots_per_class[CAR]["ids"] == 1
        assert report.mots_per_class[PERSON]["ids"] == 0
        assert report.s_cls == 1.0

    def test_drop_points_blanks_labels(self, eval_config):
        data = generate_sequence(two_object_scene())
        gt = gt_stream(data)
        dropped = drop_points(data.labels, fraction=0.5, seed=8)
        pred = gt_stream_from(dropped)
        report = evaluate({"": gt}, {"": pred}, eval_config)
        assert report.s_assoc < 1.0
        assert report.s_cls < 1.0

    def test_corrupt_dispatcher(self):
        data = generate_sequence(two_object_scene(n_scans=4))
        out = corrupt(data.labels, {"kind": "split_tube", "tube": 1, "scan": 2})
        assert int(out[3].instance.max()) == 3
        with pytest.raises(ValidationError):
            corrupt(data.labels, {"kind": "mystery"})

    def test_corruptions_are_deterministic(self):
        data = generate_sequence(two_object_scene(n_scans=4))
        a = flip_class(data.labels, 0.4, (CAR, PERSON), seed=5)
        b = flip_class(data.labels, 0.4, (CAR, PERSON), seed=5)
        for la, lb in zip(a, b):
            np.testing.assert_array_equal(la.semantic, lb.semantic)


def gt_stream_from(labels):
    return [(l.semantic, l.instance) for l in labels]
