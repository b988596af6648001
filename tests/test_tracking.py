import logging
import re
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pan4d import tracking
from pan4d.clustering import ClusterFields, ClusterParams
from pan4d.errors import ValidationError
from pan4d.synth import ObjectSpec, SceneSpec, generate_sequence
from pan4d.tracking import (
    TrackLedger,
    WindowResult,
    associate_windows,
    join_sorted,
    run_online_pipeline,
)
from pan4d.volume import VolumeConfig

from conftest import (CAR, PERSON, ROAD, MemorySequence, count_field_checks, oracle_providers,
                      run_config)


def window(window_id, entries, scans):
    """entries: list of (scan, point, instance, class)."""
    arr = np.asarray(entries, dtype=np.int64)
    return WindowResult(
        window_id=window_id,
        coords=np.zeros((arr.shape[0], 3)),
        origin=arr[:, :2],
        semantic=arr[:, 3],
        instance=arr[:, 2],
        scans=frozenset(scans),
    )


class TestAssociateWindows:
    def test_identical_segmentation_inherits_every_id(self):
        prev = window(0, [(1, p, 1 + p // 5, CAR) for p in range(10)], {0, 1})
        cur = window(
            1,
            [(1, p, 7 + p // 5, CAR) for p in range(10)]
            + [(2, p, 7 + p // 5, CAR) for p in range(10)],
            {1, 2},
        )
        ledger = TrackLedger(next_id=3)
        mapping = associate_windows(prev, cur, ledger, iou_threshold=0.5)
        assert mapping == {7: 1, 8: 2}
        assert ledger.next_id == 3  # nothing fresh

    def test_greedy_prefers_higher_iou(self):
        # one prev instance, two cur candidates with IoU 0.6 and 0.4 at a
        # relaxed threshold: greedy takes 0.6, the loser gets a fresh id
        prev = window(0, [(1, p, 4, CAR) for p in range(10)], {0, 1})
        cur_entries = [(1, p, 21, CAR) for p in range(6)]  # IoU 6/10
        cur_entries += [(1, p, 22, CAR) for p in range(6, 10)]  # IoU 4/10
        cur = window(1, cur_entries, {1, 2})
        ledger = TrackLedger(next_id=100)
        mapping = associate_windows(prev, cur, ledger, iou_threshold=0.3)
        assert mapping[21] == 4
        assert mapping[22] == 100

    def test_iou_exactly_at_threshold_is_rejected(self):
        # both windows include scan-1 points 0..7; instance sets of 6 and 6
        # with intersection 4 -> IoU = 4/8 = 0.5 exactly, strictly rejected
        prev = window(
            0,
            [(1, p, 3 if p < 6 else 0, CAR) for p in range(8)],
            {0, 1},
        )
        cur = window(
            1,
            [(1, p, 9 if p >= 2 else 0, CAR) for p in range(8)],
            {1, 2},
        )
        ledger = TrackLedger(next_id=50)
        mapping = associate_windows(prev, cur, ledger, iou_threshold=0.5)
        assert mapping == {9: 50}

    def test_iou_tie_broken_by_lexicographic_pair_order(self):
        # two candidate pairs tied at IoU 0.4 against prev instance 1: the
        # lower (prev, cur) pair wins, the other draws a fresh id
        prev = window(0, [(1, p, 1, CAR) for p in range(10)], {0, 1})
        cur_entries = [(1, p, 5, CAR) for p in range(4)]
        cur_entries += [(1, p, 6, CAR) for p in range(4, 8)]
        cur_entries += [(1, p, 0, CAR) for p in range(8, 10)]
        cur = window(1, cur_entries, {1, 2})
        ledger = TrackLedger(next_id=90)
        mapping = associate_windows(prev, cur, ledger, iou_threshold=0.2)
        assert mapping == {5: 1, 6: 90}

    def test_no_common_scans_all_fresh_with_warning(self, caplog):
        prev = window(0, [(0, p, 1, CAR) for p in range(4)], {0})
        cur = window(1, [(1, p, 5, CAR) for p in range(4)], {1})
        ledger = TrackLedger(next_id=2)
        with caplog.at_level(logging.WARNING):
            mapping = associate_windows(prev, cur, ledger, iou_threshold=0.5)
        assert mapping == {5: 2}
        assert any("no scans" in r.message for r in caplog.records)

    def test_restriction_to_shared_points(self):
        # cur sub-samples the shared scan; IoU is computed over the points
        # both windows include, so the match still succeeds
        prev = window(0, [(1, p, 6, CAR) for p in range(100)], {0, 1})
        cur = window(1, [(1, p, 30, CAR) for p in range(0, 100, 10)], {1, 2})
        ledger = TrackLedger(next_id=7)
        mapping = associate_windows(prev, cur, ledger, iou_threshold=0.5)
        assert mapping == {30: 6}

    def test_fresh_id_beyond_label_field_rejected_when_issued(self):
        prev = window(0, [(0, 0, 1, CAR)], {0})
        cur = window(1, [(1, p, 1, CAR) for p in range(3)], {1})
        with pytest.raises(ValidationError, match="16-bit"):
            associate_windows(prev, cur, TrackLedger(next_id=0x10000), iou_threshold=0.5)

    def test_last_id_of_label_field_still_issued(self):
        ledger = TrackLedger(next_id=0xFFFF)
        assert ledger.fresh() == 0xFFFF
        with pytest.raises(ValidationError):
            ledger.fresh()

    def test_fresh_ids_strictly_increase(self):
        prev = window(0, [(0, 0, 1, CAR)], {0})
        ledger = TrackLedger(next_id=2)
        issued = []
        for w in range(1, 4):
            cur = window(w, [(w, p, 1, CAR) for p in range(3)], {w})
            mapping = associate_windows(prev, cur, ledger, iou_threshold=0.5)
            issued.append(mapping[1])
            prev = cur
        assert issued == sorted(issued)
        assert len(set(issued)) == 3

    def test_duplicate_entries_rejected(self):
        with pytest.raises(Exception):
            window(0, [(0, 1, 1, CAR), (0, 1, 2, CAR)], {0})


def single_object_scene(n_scans=20, velocity=(0.4, 0.0, 0.0)):
    return SceneSpec(
        n_scans=n_scans,
        objects=(
            ObjectSpec(class_id=CAR, n_points=60, sigma=0.25, start=(5.0, 0.0, 5.0),
                       velocity=velocity),
        ),
        background_points=0,
        seed=5,
    )


def oracle_params(min_points=20):
    return ClusterParams(feature_mode="emb", min_points=min_points)


class TestOnlinePipeline:
    def test_single_object_keeps_one_global_id(self):
        data = generate_sequence(single_object_scene())
        fields_fn, semantics_fn = oracle_providers(data)
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy="importance", tau=4), oracle_params(), {CAR}, seed=0),
        )
        assert result.n_instances == 1
        for labels in result.labels:
            assert set(labels.instance.tolist()) == {1}
            assert set(labels.semantic.tolist()) == {CAR}

    def test_each_past_state_built_once(self, monkeypatch):
        built, emitted = [], []
        state = tracking.ScanState
        monkeypatch.setattr(tracking, "ScanState",
                            lambda s, *args: (built.append(s), state(s, *args))[1])
        data = generate_sequence(single_object_scene(n_scans=8))
        run_online_pipeline(
            MemorySequence(data), *oracle_providers(data),
            run_config(VolumeConfig(strategy="importance", tau=4), oracle_params(), {CAR}, seed=0),
            emit=lambda s, labels: emitted.append(s),
        )
        assert built == list(range(8))  # one ScanState per scan
        assert emitted == list(range(8))  # one emission each

    def test_tau_one_degenerates_to_fresh_ids_per_scan(self):
        data = generate_sequence(single_object_scene(n_scans=6))
        fields_fn, semantics_fn = oracle_providers(data)
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy="base", tau=1), oracle_params(), {CAR}, seed=0),
        )
        assert result.n_instances == 6
        ids = [int(labels.instance[0]) for labels in result.labels]
        assert ids == [1, 2, 3, 4, 5, 6]

    def test_two_objects_swapping_keep_distinct_ids(self):
        spec = SceneSpec(
            n_scans=20,
            objects=(
                ObjectSpec(class_id=CAR, n_points=60, sigma=0.25,
                           start=(8.0, 4.0, 5.0), velocity=(-0.7, 0.0, 0.0)),
                ObjectSpec(class_id=PERSON, n_points=60, sigma=0.25,
                           start=(-8.0, -4.0, 5.0), velocity=(0.7, 0.0, 0.0)),
            ),
            background_points=0,
            seed=6,
        )
        data = generate_sequence(spec)
        fields_fn, semantics_fn = oracle_providers(data)
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy="importance", tau=4), oracle_params(), {CAR, PERSON},
                       seed=1),
        )
        assert result.n_instances == 2
        for labels, gt in zip(result.labels, data.labels):
            # object points keep two distinct ids, consistently per object
            got = {}
            for inst_gt in (1, 2):
                ids = set(labels.instance[gt.instance == inst_gt].tolist())
                assert len(ids) == 1
                got[inst_gt] = ids.pop()
            assert got[1] != got[2]

    def test_deterministic_given_seed(self):
        data = generate_sequence(single_object_scene(n_scans=8))
        fields_fn, semantics_fn = oracle_providers(data)

        def run():
            return run_online_pipeline(
                MemorySequence(data), fields_fn, semantics_fn,
                run_config(VolumeConfig(strategy="importance", tau=3), oracle_params(), {CAR},
                           seed=9),
            )

        a, b = run(), run()
        for la, lb in zip(a.labels, b.labels):
            np.testing.assert_array_equal(la.instance, lb.instance)
            np.testing.assert_array_equal(la.semantic, lb.semantic)

    @pytest.mark.parametrize("strategy,tau", [("thing", 3), ("decay", 4)])
    def test_other_strategies_track_single_object(self, strategy, tau):
        data = generate_sequence(single_object_scene(n_scans=10))
        fields_fn, semantics_fn = oracle_providers(data)
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy=strategy, tau=tau), oracle_params(), {CAR}, seed=4),
        )
        assert result.n_instances == 1

    def test_stride_strategy_covers_skipped_scans(self):
        data = generate_sequence(single_object_scene(n_scans=10))
        fields_fn, semantics_fn = oracle_providers(data)
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy="stride", tau=4, stride=2), oracle_params(), {CAR},
                       seed=3),
        )
        assert result.n_instances == 1
        for labels in result.labels:
            assert set(labels.instance.tolist()) == {1}

    def test_window_stride_two_still_tracks_and_covers_all_scans(self):
        data = generate_sequence(single_object_scene(n_scans=11))
        fields_fn, semantics_fn = oracle_providers(data)
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy="importance", tau=4), oracle_params(), {CAR}, seed=2,
                       window_stride=2),
        )
        assert result.n_instances == 1
        assert len(result.labels) == 11
        for labels, gt in zip(result.labels, data.labels):
            assert len(labels) == len(gt)
            assert set(labels.instance.tolist()) == {1}

    def test_stride_strategy_with_window_stride_two(self):
        # windows emit two scans each and fill the volume's skipped scans
        spec = SceneSpec(
            n_scans=20,
            objects=(
                ObjectSpec(class_id=CAR, n_points=60, sigma=0.25,
                           start=(8.0, 4.0, 5.0), velocity=(-0.7, 0.0, 0.0)),
                ObjectSpec(class_id=PERSON, n_points=60, sigma=0.25,
                           start=(-8.0, -4.0, 5.0), velocity=(0.7, 0.0, 0.0)),
            ),
            background_points=200,
            seed=6,
        )
        data = generate_sequence(spec)
        fields_fn, semantics_fn = oracle_providers(data)
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy="stride", tau=4), oracle_params(), {CAR, PERSON},
                       {ROAD}, seed=1, window_stride=2),
        )
        assert result.n_instances == 2
        assert len(result.labels) == 20
        owners = {1: set(), 2: set()}
        for labels, gt in zip(result.labels, data.labels):
            assert len(labels) == len(gt)
            assert (labels.semantic >= 0).all()
            assert (labels.instance[gt.instance == 0] == 0).all()
            for inst_gt in owners:
                owners[inst_gt] |= set(labels.instance[gt.instance == inst_gt].tolist())
        assert len(owners[1]) == len(owners[2]) == 1
        assert owners[1] != owners[2]
        assert 0 not in owners[1] | owners[2]

    def test_id_overflow_names_the_window(self, monkeypatch):
        monkeypatch.setattr(tracking, "TrackLedger", lambda: TrackLedger(next_id=0xFFFF))
        data = generate_sequence(single_object_scene(n_scans=4))
        fields_fn, semantics_fn = oracle_providers(data)
        with pytest.raises(ValidationError, match=r"window ending at scan 1: .*16-bit"):
            run_online_pipeline(
                MemorySequence(data), fields_fn, semantics_fn,
                run_config(VolumeConfig(strategy="base", tau=1), oracle_params(), {CAR}, seed=0),
            )

    # the window rules hold at RunConfig construction, before any scan is read
    def test_window_stride_beyond_tau_rejected(self):
        with pytest.raises(ValidationError, match=r"window_stride must lie in \[1, tau=2\]"):
            run_config(VolumeConfig(strategy="importance", tau=2), oracle_params(), {CAR},
                       window_stride=3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"assoc_iou": 1.0}, "assoc_iou"),
        ({"assoc_iou": 1.5}, "assoc_iou"),
        ({"seed": -1}, "seed"),
        ({"seed": [0, -1]}, "seed"),
    ])
    def test_bad_association_or_seed_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            run_config(VolumeConfig(strategy="importance", tau=4), oracle_params(), {CAR},
                       **kwargs)

    def test_identity_preserved_when_shared_sets_identical(self):
        # direct check of the invariant at the association level
        ledger = TrackLedger(next_id=2)
        prev = window(0, [(0, p, 1, CAR) for p in range(8)], {0})
        global_id = 1
        for w in range(1, 6):
            cur = window(
                w,
                [(w - 1, p, 40 + w, CAR) for p in range(8)]
                + [(w, p, 40 + w, CAR) for p in range(8)],
                {w - 1, w},
            )
            mapping = associate_windows(prev, cur, ledger, iou_threshold=0.5)
            assert mapping[40 + w] == global_id
            cur.instance[cur.instance == 40 + w] = mapping[40 + w]
            prev = cur


class TestStreamingEmit:
    """emit gets every scan once, in order, and the pipeline then lets go of
    all labels of scans older than its current window."""

    @pytest.mark.parametrize("window_stride", [1, 2])
    def test_emits_in_order_and_matches_collected_labels(self, window_stride):
        data = generate_sequence(single_object_scene(n_scans=11))
        args = (MemorySequence(data), *oracle_providers(data),
                run_config(VolumeConfig(strategy="importance", tau=4), oracle_params(), {CAR},
                           seed=2, window_stride=window_stride))
        got = []
        streamed = run_online_pipeline(*args, emit=lambda s, l: got.append((s, l)))
        collected = run_online_pipeline(*args)
        assert streamed.labels is None
        assert [s for s, _ in got] == list(range(11))
        for (_, a), b in zip(got, collected.labels):
            np.testing.assert_array_equal(a.semantic, b.semantic)
            np.testing.assert_array_equal(a.instance, b.instance)

    @pytest.mark.parametrize("window_stride", [1, 2])
    def test_labels_older_than_the_window_are_released(self, window_stride):
        n_scans, tau = 13, 4
        data = generate_sequence(single_object_scene(n_scans=n_scans))
        window_ts = sorted(set(range(0, n_scans, window_stride)) | {n_scans - 1})
        refs = {}  # scan -> weak references to its labels and their two arrays

        def alive(before):
            return [s for s in range(before) if any(r() is not None for r in refs[s])]

        def emit(s, labels):
            # the window emitting scan s is the first one that ends at or after s
            t = next(t for t in window_ts if t >= s)
            assert alive(max(0, t - tau + 1)) == []
            refs[s] = [weakref.ref(x) for x in (labels, labels.semantic, labels.instance)]

        result = run_online_pipeline(
            MemorySequence(data), *oracle_providers(data),
            run_config(VolumeConfig(strategy="thing", tau=tau), oracle_params(), {CAR}, seed=0,
                       window_stride=window_stride),
            emit=emit,
        )
        assert result.labels is None
        assert sorted(refs) == list(range(n_scans))
        assert alive(n_scans - tau) == []


class TestWindowRowOrder:
    def test_rows_out_of_scan_order_rejected(self):
        with pytest.raises(ValidationError, match="order"):
            window(0, [(1, 0, 1, CAR), (0, 5, 1, CAR)], {0, 1})

    def test_rows_out_of_point_order_rejected(self):
        with pytest.raises(ValidationError, match="order"):
            window(0, [(0, 3, 1, CAR), (0, 1, 1, CAR)], {0})

    def test_duplicate_rows_still_rejected(self):
        with pytest.raises(ValidationError):
            window(0, [(0, 0, 1, CAR), (0, 2, 1, CAR), (0, 2, 3, CAR)], {0})

    def test_sorted_rows_accepted(self):
        result = window(0, [(0, 4, 1, CAR), (1, 0, 1, CAR), (1, 9, 0, ROAD)], {0, 1})
        assert result.keys().tolist() == [4, 1 << 32, (1 << 32) | 9]


# strictly increasing int64 keys; a small value range makes shared keys common
increasing_keys = st.lists(st.integers(-40, 40), unique=True, max_size=30).map(
    lambda v: np.array(sorted(v), dtype=np.int64))


class TestJoinSorted:
    @given(increasing_keys, increasing_keys)
    def test_matches_intersect1d(self, a, b):
        _, want_a, want_b = np.intersect1d(a, b, assume_unique=True, return_indices=True)
        got_a, got_b = join_sorted(a, b)
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_array_equal(got_b, want_b)


class TestCoordinateOnlyFields:
    """Fields without embeddings (ClusterFields(None, None, objectness)) run
    in the coordinate feature modes and fail cleanly in the others."""

    def run(self, fields_fn_of, mode):
        data = generate_sequence(single_object_scene(n_scans=6))
        return run_online_pipeline(
            MemorySequence(data), fields_fn_of(data), oracle_providers(data)[1],
            run_config(VolumeConfig(strategy="importance", tau=3),
                       ClusterParams(feature_mode=mode, min_points=20), {CAR}, seed=0),
        )

    @staticmethod
    def coordinate_only(data):
        return lambda s: ClusterFields(None, None, data.fields[s][2])

    @pytest.mark.parametrize("mode", ["xyz", "xyzt"])
    def test_coordinate_modes_label_as_with_embeddings(self, mode):
        got = self.run(self.coordinate_only, mode)
        want = self.run(lambda data: oracle_providers(data)[0], mode)
        assert got.n_instances == want.n_instances >= 1
        for a, b in zip(got.labels, want.labels, strict=True):
            np.testing.assert_array_equal(a.semantic, b.semantic)
            np.testing.assert_array_equal(a.instance, b.instance)

    @pytest.mark.parametrize("mode", ["emb", "emb+xyz", "emb+xyzt"])
    def test_embedding_modes_rejected(self, mode):
        with pytest.raises(ValidationError, match=re.escape(f"'{mode}' requires embeddings")):
            self.run(self.coordinate_only, mode)


class TestLoadScanValidation:
    """Bad library input fails naming its scan instead of reaching the labels."""

    def run(self, fields_fn, semantics_fn, data, window_stride=1):
        run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            run_config(VolumeConfig(strategy="importance", tau=2), oracle_params(), {CAR}, seed=0,
                       window_stride=window_stride),
        )

    @pytest.mark.parametrize("window_stride", [1, 2])
    def test_nan_embedding_names_its_scan(self, window_stride):
        # at window stride 2 scan 1 enters no volume: only its load sees the NaN
        data = generate_sequence(single_object_scene(n_scans=4))
        semantics_fn = oracle_providers(data)[1]

        def bad_fields(s):
            emb, var, obj = data.fields[s]
            if s == 1:
                emb = emb.copy()
                emb[3, 0] = np.nan
            return ClusterFields(emb, var, obj)

        with pytest.raises(ValidationError, match="scan 1: non-finite embedding"):
            self.run(bad_fields, semantics_fn, data, window_stride)

    def test_fields_checked_once_per_scan_and_once_per_volume(self, monkeypatch):
        calls = count_field_checks(monkeypatch)
        data = generate_sequence(single_object_scene(n_scans=4))
        self.run(*oracle_providers(data), data)
        # 4 ClusterFields built by fields_fn, then one cluster_volume check
        # for each of the 4 windows
        assert len(calls) == 8

    @pytest.mark.parametrize("rows", ["double", 10])
    def test_variance_shape_mismatch(self, rows):
        data = generate_sequence(single_object_scene(n_scans=4))
        semantics_fn = oracle_providers(data)[1]

        def bad_fields(s):
            emb, var, obj = data.fields[s]
            if s == 2:
                var = np.vstack([var, var]) if rows == "double" else var[:rows]
            return ClusterFields(emb, var, obj)

        with pytest.raises(ValidationError, match="scan 2: variances"):
            self.run(bad_fields, semantics_fn, data)

    @pytest.mark.parametrize("bad_class", [-3, 0x10000])
    def test_class_outside_label_field(self, bad_class):
        data = generate_sequence(single_object_scene(n_scans=4))
        fields_fn, semantics_fn = oracle_providers(data)

        def bad_semantics(s):
            sem = semantics_fn(s).copy()
            if s == 1:
                sem[0] = bad_class
            return sem

        with pytest.raises(ValidationError, match="scan 1: predicted class"):
            self.run(fields_fn, bad_semantics, data)

