import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pan4d import clustering
from pan4d.clustering import (
    ClusterFields,
    ClusterParams,
    InstanceAssignment,
    build_point_features,
    cluster_volume,
    gaussian_affinity,
    majority_vote_classes,
    read_cluster_fields,
    reference_cluster_volume,
    write_cluster_fields,
)
from pan4d.errors import FormatError, ValidationError
from pan4d.volume import ScanState

from conftest import random_rigid

CAR, TRUCK, ROAD = 10, 18, 40


class TestFeatures:
    def test_xyzt_concatenates_time_slot(self):
        coords = np.array([[1.0, 2.0, 3.0, 2.0]])
        fields = ClusterFields(embeddings=None, variances=None, objectness=np.ones(1))
        feats, variances = build_point_features(
            coords, fields.embeddings, fields.variances, ClusterParams(feature_mode="xyzt")
        )
        np.testing.assert_array_equal(feats, [[1.0, 2.0, 3.0, 2.0]])
        assert variances.shape == (1, 4)

    def test_emb_mode_returns_embeddings(self):
        emb = np.arange(6.0).reshape(2, 3)
        fields = ClusterFields(embeddings=emb, variances=np.ones((2, 3)),
                               objectness=np.ones(2))
        feats, variances = build_point_features(
            np.zeros((2, 4)), fields.embeddings, fields.variances,
            ClusterParams(feature_mode="emb"),
        )
        np.testing.assert_array_equal(feats, emb)
        np.testing.assert_array_equal(variances, np.ones((2, 3)))

    def test_emb_xyzt_dimension(self):
        emb = np.zeros((5, 7))
        fields = ClusterFields(embeddings=emb, variances=np.ones((5, 7)),
                               objectness=np.ones(5))
        feats, variances = build_point_features(
            np.zeros((5, 4)), fields.embeddings, fields.variances,
            ClusterParams(feature_mode="emb+xyzt"),
        )
        assert feats.shape == (5, 11)
        assert variances.shape == (5, 11)

    def test_emb_mode_without_embeddings_rejected(self):
        fields = ClusterFields(embeddings=None, variances=None, objectness=np.ones(3))
        with pytest.raises(ValidationError):
            build_point_features(np.zeros((3, 4)), fields.embeddings, fields.variances,
                                 ClusterParams(feature_mode="emb"))

    def test_coordinate_variance_defaults(self):
        params = ClusterParams(feature_mode="xyzt", coord_variance=2.0, time_variance=9.0)
        fields = ClusterFields(embeddings=None, variances=None, objectness=np.ones(1))
        _, variances = build_point_features(np.zeros((1, 4)), fields.embeddings,
                                            fields.variances, params)
        np.testing.assert_array_equal(variances, [[2.0, 2.0, 2.0, 9.0]])


class TestClusterFieldsValues:
    @pytest.mark.parametrize("array, index, value", [
        ("emb", (1, 0), np.nan),
        ("emb", (0, 1), -np.inf),
        ("var", (1, 1), np.inf),
        ("var", (0, 0), np.nan),
        ("obj", 0, np.nan),
        ("obj", 1, 2.0),
        ("obj", 1, -0.5),
    ])
    def test_bad_values_rejected_at_construction(self, array, index, value):
        arrays = {"emb": np.zeros((2, 2)), "var": np.ones((2, 2)), "obj": np.full(2, 0.5)}
        arrays[array][index] = value
        with pytest.raises(ValidationError, match=array):
            ClusterFields(arrays["emb"], arrays["var"], arrays["obj"])

    def test_coordinate_only_fields_still_check_objectness(self):
        with pytest.raises(ValidationError, match="obj"):
            ClusterFields(None, None, np.array([0.2, 1.5]))

    def test_one_rule_for_clustering_and_past_scans(self):
        obj = np.array([0.2, 1.5])
        with pytest.raises(ValidationError, match="objectness must be finite and in"):
            cluster_volume(np.zeros((2, 2)), np.ones((2, 2)), obj, ClusterParams())
        with pytest.raises(ValidationError, match="objectness must be finite and in"):
            ScanState(0, np.zeros((2, 3)), ClusterFields(None, None, obj),
                      np.zeros(2, dtype=np.int64))


class TestGaussianAffinity:
    def test_equal_embeddings_give_one(self):
        p = gaussian_affinity(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                              np.array([0.3, 0.7]))
        assert p == pytest.approx(1.0)

    def test_unit_distance_closed_form(self):
        p = gaussian_affinity(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        assert p == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_normalized_constant_2d(self):
        p = gaussian_affinity(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                              np.array([1.0, 1.0]), normalized=True)
        assert p == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-12)

    def test_symmetry_under_seed_variance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            e_i, e_j = rng.normal(size=(2, 5))
            var = rng.uniform(0.2, 3.0, 5)
            assert gaussian_affinity(e_i, e_j, var) == pytest.approx(
                gaussian_affinity(e_j, e_i, var), rel=1e-12
            )

    def test_vectorized_over_queries(self):
        e_i = np.zeros(3)
        e_j = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p = gaussian_affinity(e_i, e_j, np.ones(3))
        np.testing.assert_allclose(p, [1.0, np.exp(-0.5)])

    def test_non_positive_variance_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_affinity(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))


def blob(rng, center, sigma, n):
    return center + rng.normal(scale=sigma, size=(n, 3))


def proximity_objectness(coords, centers_members):
    """Oracle objectness: 1 - d/d_max toward each blob's sample mean."""
    o = np.zeros(coords.shape[0])
    for idx in centers_members:
        c = coords[idx].mean(axis=0)
        d = np.linalg.norm(coords[idx] - c, axis=1)
        o[idx] = 1.0 - d / d.max() if d.max() > 0 else 1.0
    return o


class TestClusterVolume:
    def test_two_well_separated_blobs_recovered_exactly(self):
        # separation 100 sigma: cross-affinity below 1e-30, recovery is exact
        rng = np.random.default_rng(0)
        sigma = 0.1
        a = blob(rng, np.zeros(3), sigma, 50)
        b = blob(rng, np.array([10.0, 0.0, 0.0]), sigma, 40)
        feats = np.vstack([a, b])
        members = [np.arange(50), np.arange(50, 90)]
        obj = proximity_objectness(feats, members)
        variances = np.full_like(feats, (5 * sigma) ** 2)
        params = ClusterParams(min_points=10, feature_mode="xyz")
        out = cluster_volume(feats, variances, obj, params)
        assert out.n_instances == 2
        assert len({out.instance_ids[i] for i in members[0]}) == 1
        assert len({out.instance_ids[i] for i in members[1]}) == 1
        assert out.instance_ids[0] != out.instance_ids[60]
        assert (out.instance_ids != 0).all()

    def test_exact_recovery_at_ten_sigma_separation(self):
        # spec boundary: isotropic blobs (3-sigma truncated) separated by
        # 10 sigma with the generator's oracle variance recover exactly
        from pan4d.synth import ObjectSpec, SceneSpec, generate_sequence

        sigma = 0.4
        spec = SceneSpec(
            n_scans=1,
            objects=tuple(
                ObjectSpec(class_id=CAR, n_points=50, sigma=sigma,
                           start=(k * 10.0 * sigma, 0.0, 5.0))
                for k in range(3)
            ),
            seed=42,
        )
        data = generate_sequence(spec)
        emb, var, obj = data.fields[0]
        gt_ids = data.labels[0].instance
        out = cluster_volume(
            emb.astype(np.float64), var.astype(np.float64), obj.astype(np.float64),
            ClusterParams(feature_mode="emb", min_points=10),
        )
        assert out.n_instances == 3
        for gid in (1, 2, 3):
            assert len(set(out.instance_ids[gt_ids == gid].tolist())) == 1
        # partition equality: same grouping, ids up to renaming
        assert (out.instance_ids != 0).all()

    def test_all_objectness_below_stop_threshold(self):
        feats = np.random.default_rng(1).normal(size=(30, 3))
        out = cluster_volume(feats, np.ones_like(feats), np.full(30, 0.05),
                             ClusterParams())
        assert out.n_instances == 0
        assert (out.instance_ids == 0).all()

    def test_small_blob_pruned(self):
        rng = np.random.default_rng(2)
        feats = blob(rng, np.zeros(3), 0.1, 10)
        obj = proximity_objectness(feats, [np.arange(10)])
        out = cluster_volume(feats, np.ones_like(feats), obj,
                             ClusterParams(min_points=25))
        assert out.n_instances == 0
        assert (out.instance_ids == 0).all()

    def test_empty_volume(self):
        out = cluster_volume(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0),
                             ClusterParams())
        assert out.n_instances == 0

    def test_seeds_in_non_increasing_objectness_order(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0, 0], [20.0, 0, 0], [40.0, 0, 0]])
        parts = [blob(rng, c, 0.1, 30) for c in centers]
        feats = np.vstack(parts)
        members = [np.arange(30 * i, 30 * (i + 1)) for i in range(3)]
        obj = proximity_objectness(feats, members)
        out = cluster_volume(feats, np.full_like(feats, 0.25), obj,
                             ClusterParams(min_points=5, feature_mode="xyz"))
        seed_obj = [obj[s] for s in out.seeds]
        assert all(a >= b for a, b in zip(seed_obj, seed_obj[1:]))

    def test_assignment_is_partition(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(200, 3)) * 3.0
        obj = rng.uniform(size=200)
        out = cluster_volume(feats, np.ones_like(feats), obj,
                             ClusterParams(min_points=1))
        # ids 0..K, each of 1..K held by at least its seed
        assert out.instance_ids.min() >= 0
        assert out.instance_ids.max() == out.n_instances
        np.testing.assert_array_equal(out.instance_ids[out.seeds],
                                      np.arange(1, out.n_instances + 1))

    def test_rigid_transform_invariance_xyzt(self):
        # equal variances on xyzt: distances are preserved, so is the partition
        rng = np.random.default_rng(5)
        a = blob(rng, np.zeros(3), 0.1, 40)
        b = blob(rng, np.array([8.0, 0, 0]), 0.1, 40)
        coords = np.hstack([np.vstack([a, b]), np.repeat([[0.0], [1.0]], 40, axis=0)])
        members = [np.arange(40), np.arange(40, 80)]
        obj = proximity_objectness(coords[:, :3], members)
        params = ClusterParams(min_points=5, feature_mode="xyzt",
                               coord_variance=0.5, time_variance=0.5)
        fields = ClusterFields(embeddings=None, variances=None, objectness=obj)

        feats, variances = build_point_features(coords, fields.embeddings, fields.variances,
                                                params)
        base = cluster_volume(feats, variances, obj, params)

        m = random_rigid(rng)
        moved = coords.copy()
        moved[:, :3] = coords[:, :3] @ m[:3, :3].T + m[:3, 3]
        feats2, variances2 = build_point_features(moved, fields.embeddings, fields.variances,
                                                  params)
        out = cluster_volume(feats2, variances2, obj, params)

        np.testing.assert_array_equal(base.instance_ids, out.instance_ids)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            ClusterParams(assign_prob=1.0)
        with pytest.raises(ValidationError):
            ClusterParams(min_points=0)
        with pytest.raises(ValidationError):
            ClusterParams(feature_mode="nope")


@st.composite
def volumes(draw):
    """(features, variances, objectness, params) with tied distances and objectness."""
    m = draw(st.integers(0, 60))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.3, 1.0, 4.0]))
    feats = np.round(rng.normal(scale=spread, size=(m, d)), draw(st.integers(0, 2)))
    var_scale = draw(st.sampled_from([0.01, 0.3, 1.0, 10.0]))
    if draw(st.booleans()):
        variances = np.full((m, d), var_scale)
    else:
        variances = var_scale * rng.uniform(0.2, 5.0, size=(m, d))
    obj = np.round(rng.uniform(size=m), draw(st.integers(1, 3)))
    params = ClusterParams(
        assign_prob=draw(st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.sampled_from([1e-12, 0.5, 1 - 1e-6, 1 - 1e-12]),
        )),
        seed_stop=draw(st.floats(0.0, 1.0)),
        min_points=draw(st.integers(1, 5)),
        normalized_pdf=draw(st.booleans()),
    )
    return feats, variances, obj, params


class TestMatchesReference:
    @settings(max_examples=400)
    @given(volumes())
    @example((np.zeros((0, 3)), np.ones((0, 3)), np.zeros(0), ClusterParams()))
    @example((np.zeros((1, 2)), np.ones((1, 2)), np.ones(1), ClusterParams(min_points=1)))
    @example((np.zeros((4, 1)), np.ones((4, 1)), np.full(4, 0.5),
              ClusterParams(min_points=1, assign_prob=1 - 1e-12)))
    def test_same_seeds_members_and_ids(self, volume):
        feats, variances, obj, params = volume
        fast = cluster_volume(feats, variances, obj, params)
        slow = reference_cluster_volume(feats, variances, obj, params)
        assert fast.seeds == slow.seeds
        np.testing.assert_array_equal(fast.instance_ids, slow.instance_ids)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_density_constant(self):
        # normalized_pdf with prod(var) below the float range: the density
        # constant is 0, so every point whose exp(-maha/2) is nonzero passes
        feats = np.array([[0.0] * 40, [1e-4] * 40, [3.0] * 40])
        variances = np.full_like(feats, 1e-9)
        obj = np.array([0.9, 0.2, 0.3])
        params = ClusterParams(min_points=1, normalized_pdf=True)
        fast = cluster_volume(feats, variances, obj, params)
        slow = reference_cluster_volume(feats, variances, obj, params)
        np.testing.assert_array_equal(fast.instance_ids, [1, 1, 2])
        np.testing.assert_array_equal(slow.instance_ids, [1, 1, 2])
        assert fast.seeds == slow.seeds == [0, 2]


@st.composite
def clustered_volumes(draw):
    """(features, variances, objectness, params): up to ~400 points in blobs.

    Blobs about as wide as a member ball put chains of candidates that take
    each other, or only some of each other, into one seed block.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    sizes = rng.integers(1, draw(st.sampled_from([2, 30, 60])), size=draw(st.integers(1, 7)))
    centers = rng.normal(scale=draw(st.sampled_from([0.5, 2.0, 8.0])), size=(sizes.size, d))
    feats = np.repeat(centers, sizes, axis=0)
    feats = feats + rng.normal(scale=draw(st.sampled_from([0.2, 0.6, 1.5])), size=feats.shape)
    feats = np.round(feats, draw(st.integers(0, 2)))
    # 1 / (2 pi) keeps the normalized density constant near 1
    var_scale = draw(st.sampled_from([1 / (2 * np.pi), 0.3, 1.0]))
    if draw(st.booleans()):
        variances = np.full(feats.shape, var_scale)
    else:
        variances = var_scale * rng.uniform(0.3, 3.0, size=feats.shape)
    obj = np.round(rng.uniform(size=feats.shape[0]), draw(st.integers(1, 2)))
    params = ClusterParams(
        assign_prob=draw(st.one_of(st.floats(0.01, 0.99), st.sampled_from([1e-3, 0.05, 0.5]))),
        seed_stop=draw(st.floats(0.0, 0.5)),
        min_points=draw(st.integers(1, 5)),
    )
    return feats, variances, obj, params


class TestMatchesReferenceAcrossBlocks:
    @pytest.mark.parametrize("normalized_pdf", [False, True])
    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])  # None: the module's SEED_BLOCK
    @settings(max_examples=40)
    @given(volume=clustered_volumes())
    def test_same_seeds_members_and_ids(self, block, normalized_pdf, volume):
        feats, variances, obj, params = volume
        params = replace(params, normalized_pdf=normalized_pdf)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(clustering, "SEED_BLOCK", block)
            fast = cluster_volume(feats, variances, obj, params)
        slow = reference_cluster_volume(feats, variances, obj, params)
        assert fast.seeds == slow.seeds
        np.testing.assert_array_equal(fast.instance_ids, slow.instance_ids)


class TestClusterInputValues:
    @pytest.mark.parametrize("array, value, match", [
        ("feats", np.nan, "feature"),
        ("feats", np.inf, "feature"),
        ("var", np.nan, "variances"),
        ("var", np.inf, "variances"),
        ("var", 0.0, "variances"),
        ("var", -1.0, "variances"),
        ("obj", np.nan, "objectness"),
    ])
    @pytest.mark.parametrize("fn", [cluster_volume, reference_cluster_volume])
    def test_non_finite_inputs_rejected(self, fn, array, value, match):
        # a bad feature or variance sits on point 2, which never seeds (objectness 0)
        arrays = {"feats": np.zeros((3, 2)), "var": np.ones((3, 2)),
                  "obj": np.array([0.9, 0.5, 0.0])}
        arrays[array][2 if array != "obj" else 1] = value
        with pytest.raises(ValidationError, match=match):
            fn(arrays["feats"], arrays["var"], arrays["obj"], ClusterParams(min_points=1))

    def test_zero_feature_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="D >= 1"):
            cluster_volume(np.zeros((3, 0)), np.zeros((3, 0)), np.ones(3), ClusterParams())


def reference_majority_vote(assignment, semantic, stuff_classes=()):
    """majority_vote_classes as one np.unique per instance: the oracle."""
    stuff = set(int(c) for c in stuff_classes)
    ids = np.zeros_like(assignment.instance_ids)
    seeds, classes = [], []
    for k, seed in enumerate(assignment.seeds, start=1):
        mem = assignment.instance_ids == k
        values, counts = np.unique(semantic[mem], return_counts=True)
        modal = int(values[counts == counts.max()].min())
        if modal in stuff:
            continue
        seeds.append(seed)
        classes.append(modal)
        ids[mem] = len(seeds)
    return InstanceAssignment(instance_ids=ids, seeds=seeds, classes=classes)


@st.composite
def votes(draw):
    """(assignment, semantic, stuff classes): disjoint instances over a few
    classes, so ties and stuff-modal instances are common."""
    m = draw(st.integers(0, 40))
    owner = np.array(draw(st.lists(st.integers(0, 6), min_size=m, max_size=m)), dtype=np.int64)
    palette = draw(st.lists(st.sampled_from([3, CAR, TRUCK, ROAD, 70]), min_size=1,
                            max_size=4, unique=True))
    semantic = np.array(draw(st.lists(st.sampled_from(palette), min_size=m, max_size=m)),
                        dtype=np.int64)
    stuff = draw(st.sets(st.sampled_from([CAR, TRUCK, ROAD, 70, 99])))
    ids = np.zeros(m, dtype=np.int64)
    seeds = []
    for o in np.unique(owner[owner > 0]):  # instance o -> id in increasing o
        members = np.flatnonzero(owner == o)
        seeds.append(int(members[draw(st.integers(0, members.size - 1))]))
        ids[members] = len(seeds)
    return InstanceAssignment(instance_ids=ids, seeds=seeds), semantic, stuff


class TestMajorityVoteMatchesReference:
    @settings(max_examples=300)
    @given(votes())
    @example((  # a tie, a stuff-modal instance, then one renumbered past it
        InstanceAssignment(instance_ids=np.array([1, 1, 1, 1, 2, 2, 2, 3, 3]), seeds=[0, 4, 7]),
        np.array([TRUCK, CAR, TRUCK, CAR, ROAD, ROAD, CAR, TRUCK, ROAD]),
        {ROAD},
    ))
    def test_same_instances_ids_and_classes(self, vote):
        assignment, semantic, stuff = vote
        fast = majority_vote_classes(assignment, semantic, stuff)
        slow = reference_majority_vote(assignment, semantic, stuff)
        np.testing.assert_array_equal(fast.instance_ids, slow.instance_ids)
        assert fast.seeds == slow.seeds
        assert fast.classes == slow.classes
        assert all(type(c) is int for c in fast.classes)


class TestMajorityVote:
    def _assignment(self, feats, members):
        obj = proximity_objectness(feats, members)
        return cluster_volume(feats, np.full_like(feats, 4.0), obj,
                              ClusterParams(min_points=2, feature_mode="xyz"))

    def test_modal_class_wins(self):
        rng = np.random.default_rng(6)
        feats = blob(rng, np.zeros(3), 0.1, 3)
        out = self._assignment(feats, [np.arange(3)])
        sem = np.array([CAR, CAR, TRUCK])
        voted = majority_vote_classes(out, sem, stuff_classes={ROAD})
        assert voted.classes == [CAR]

    def test_tie_takes_smaller_class_id(self):
        rng = np.random.default_rng(7)
        feats = blob(rng, np.zeros(3), 0.1, 4)
        out = self._assignment(feats, [np.arange(4)])
        voted = majority_vote_classes(out, np.array([TRUCK, CAR, TRUCK, CAR]),
                                      stuff_classes={ROAD})
        assert voted.classes == [min(CAR, TRUCK)]

    def test_stuff_modal_class_dissolves_instance(self):
        rng = np.random.default_rng(8)
        feats = blob(rng, np.zeros(3), 0.1, 4)
        out = self._assignment(feats, [np.arange(4)])
        sem = np.array([ROAD, ROAD, ROAD, CAR])
        voted = majority_vote_classes(out, sem, stuff_classes={ROAD})
        assert voted.n_instances == 0
        assert (voted.instance_ids == 0).all()
        np.testing.assert_array_equal(sem, [ROAD, ROAD, ROAD, CAR])  # untouched

    @pytest.mark.parametrize("bad_class", [-1, 0x10000])
    def test_class_outside_label_field_rejected(self, bad_class):
        rng = np.random.default_rng(9)
        feats = blob(rng, np.zeros(3), 0.1, 3)
        out = self._assignment(feats, [np.arange(3)])
        with pytest.raises(ValidationError, match="class ids"):
            majority_vote_classes(out, np.array([CAR, bad_class, CAR]), stuff_classes={ROAD})


class TestSidecarFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        emb = rng.normal(size=(12, 5)).astype(np.float32)
        obj = rng.uniform(size=12).astype(np.float32)
        var = rng.uniform(0.5, 2.0, size=(12, 5)).astype(np.float32)
        path = tmp_path / "000000.p4de"
        write_cluster_fields(path, emb, obj, var)
        fields = read_cluster_fields(path)
        np.testing.assert_array_equal(fields.embeddings, emb)
        np.testing.assert_array_equal(fields.objectness, obj)
        np.testing.assert_array_equal(fields.variances, var)

    def test_golden_header_bytes(self, tmp_path):
        path = tmp_path / "g.p4de"
        write_cluster_fields(
            path,
            np.array([[1.0]], dtype=np.float32),
            np.array([0.5], dtype=np.float32),
            np.array([[2.0]], dtype=np.float32),
        )
        raw = path.read_bytes()
        assert raw[:4] == b"P4DE"
        assert struct.unpack("<III", raw[4:16]) == (1, 1, 1)
        assert struct.unpack("<fff", raw[16:28]) == (1.0, 0.5, 2.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.p4de"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            read_cluster_fields(path)

    @pytest.mark.parametrize("array, index, value", [
        ("emb", (1, 2), np.nan),
        ("emb", (0, 0), np.inf),
        ("var", (3, 1), np.nan),
        ("var", (2, 4), -np.inf),
        ("var", (0, 0), 0.0),
        ("obj", 5, np.nan),
        ("obj", 4, 1.5),
        ("obj", 0, -0.25),
    ])
    def test_out_of_range_values_rejected(self, tmp_path, array, index, value):
        rng = np.random.default_rng(10)
        arrays = {
            "emb": rng.normal(size=(8, 5)),
            "obj": rng.uniform(size=8),
            "var": rng.uniform(0.5, 2.0, size=(8, 5)),
        }
        arrays[array][index] = value
        path = tmp_path / "bad.p4de"
        write_cluster_fields(path, arrays["emb"], arrays["obj"], arrays["var"])
        with pytest.raises(FormatError, match=array[:3]):
            read_cluster_fields(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.p4de"
        path.write_bytes(b"P4DE" + struct.pack("<III", 1, 2, 3) + b"\x00" * 8)
        with pytest.raises(FormatError, match="payload"):
            read_cluster_fields(path)
