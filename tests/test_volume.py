import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from pan4d import volume
from pan4d.clustering import ClusterFields
from pan4d.errors import InvariantError, ValidationError
from pan4d.kitti_io import Pose
from pan4d.volume import (
    ScanState,
    VolumeConfig,
    align_scan,
    backfill_skipped,
    build_volume,
    temporal_decay_shares,
    weighted_sample,
)

from conftest import random_rigid

CAR, ROAD = 10, 40


def make_state(scan_index, coords, objectness=None, semantic=None):
    """An emitted past scan with coordinate-only fields; semantic is both its
    predicted and its emitted classes."""
    n = coords.shape[0]
    semantic = np.asarray(semantic if semantic is not None else np.full(n, ROAD),
                          dtype=np.int64)
    return ScanState(
        scan_index=scan_index,
        coords=np.asarray(coords, dtype=np.float64),
        fields=ClusterFields(None, None, np.asarray(
            objectness if objectness is not None else np.zeros(n), dtype=np.float64)),
        semantic=semantic,
        emitted=semantic,
    )


class TestAlignScan:
    def test_identity(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_allclose(align_scan(pts, Pose.identity()), pts)

    def test_translation_lifts_z(self):
        m = np.eye(4)
        m[2, 3] = 5.0
        pts = np.zeros((4, 3))
        out = align_scan(pts, Pose(matrix=m))
        np.testing.assert_allclose(out[:, 2], 5.0)

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_rigid(rng)
            pts = rng.normal(size=(25, 3)) * 15.0
            # oracle: explicit 4x4 product on homogeneous coordinates
            hom = np.hstack([pts, np.ones((25, 1))])
            expected = (m @ hom.T).T[:, :3]
            np.testing.assert_allclose(align_scan(pts, Pose(matrix=m)), expected, atol=1e-9)


def volume_of(states, strategy, seed=0, n_current=5, things=(CAR,), **config):
    """The volume of scan len(states) over the past states, at tau = len(states) + 1."""
    cfg = VolumeConfig(strategy=strategy, tau=len(states) + 1, **config)
    return build_volume(np.zeros((n_current, 3)), len(states), states, cfg,
                        np.random.default_rng(seed), thing_classes=things)


def rows_of(vol, scan):
    """The point indices the volume holds of one scan."""
    return vol.origin[vol.origin[:, 0] == scan, 1]


class TestThingPropagation:
    def test_selects_exactly_thing_points(self):
        sem = np.array([ROAD] * 7 + [CAR] * 3)
        state = make_state(0, np.zeros((10, 3)), semantic=sem)
        np.testing.assert_array_equal(rows_of(volume_of([state], "thing"), 0), [7, 8, 9])

    def test_no_thing_points(self):
        state = make_state(0, np.zeros((5, 3)))
        assert rows_of(volume_of([state], "thing"), 0).size == 0

    def test_budget_subsamples_deterministically(self):
        # max_points 7 less 5 current points leaves 2 for the one past scan
        sem = np.array([CAR, ROAD, CAR, CAR])
        state = make_state(0, np.zeros((4, 3)), semantic=sem)
        a = rows_of(volume_of([state], "thing", seed=9, max_points=7), 0)
        b = rows_of(volume_of([state], "thing", seed=9, max_points=7), 0)
        assert a.size == 2
        np.testing.assert_array_equal(a, b)
        assert set(a) <= {0, 2, 3}

    def test_empty_thing_set_rejected(self):
        state = make_state(0, np.zeros((5, 3)))
        with pytest.raises(ValidationError, match="thing class set"):
            volume_of([state], "thing", things=set())


class TestImportanceSampling:
    def test_one_hot_weight_is_always_picked(self):
        obj = np.zeros(10)
        obj[7] = 1.0
        state = make_state(0, np.zeros((10, 3)), objectness=obj)
        vol = volume_of([state], "importance", fraction=0.1)
        np.testing.assert_array_equal(rows_of(vol, 0), [7])

    def test_count_rule(self):
        state = make_state(0, np.zeros((10, 3)), objectness=np.full(10, 0.5))
        assert rows_of(volume_of([state], "importance", seed=1, fraction=0.10), 0).size == 1

    def test_all_zero_objectness_falls_back_to_uniform(self):
        state = make_state(0, np.zeros((20, 3)))
        assert rows_of(volume_of([state], "importance", seed=2, fraction=0.25), 0).size == 5

    def test_uniform_weights_empirically_uniform(self):
        # Monte-Carlo frequency oracle: with uniform weights each index is
        # selected with probability k/N; check counts within 3 sigma.
        n, k, trials = 10, 3, 10_000
        weights = np.full(n, 0.4)
        counts = np.zeros(n)
        for t in range(trials):
            counts[weighted_sample(weights, k, np.random.default_rng(t))] += 1
        p = k / n
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.abs(counts - trials * p).max() < 3 * sigma

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(123)
        obj = rng.uniform(size=100)
        state = make_state(0, np.zeros((100, 3)), objectness=obj)
        a = rows_of(volume_of([state], "importance", seed=42), 0)
        b = rows_of(volume_of([state], "importance", seed=42), 0)
        assert a.size == 10
        np.testing.assert_array_equal(a, b)


class TestWeightedSample:
    def test_fewer_positive_weights_than_k(self):
        # 4 positive weights, k = 7: every positive index, then 3 distinct
        # zero-weight ones
        w = np.zeros(40)
        positive = [3, 11, 25, 38]
        w[positive] = [0.2, 0.9, 0.05, 1.0]
        for seed in range(50):
            idx = weighted_sample(w, 7, np.random.default_rng(seed))
            assert idx.size == 7
            assert set(positive) <= set(idx.tolist())
            rest = np.setdiff1d(idx, positive)
            assert rest.size == 3 and (w[rest] == 0).all()
            np.testing.assert_array_equal(
                idx, weighted_sample(w, 7, np.random.default_rng(seed)))


class TestTemporalDecay:
    def test_softmax_shares_tau3(self):
        # oracle: w_i = e^i / (e^1 + e^2); 100 * w = (26.894, 73.106)
        w = np.exp([1.0, 2.0])
        w /= w.sum()
        np.testing.assert_allclose(w, [0.26894142, 0.73105858], atol=1e-8)
        shares = temporal_decay_shares(2, 100)
        np.testing.assert_array_equal(shares, [27, 73])
        assert shares.sum() == 100

    def test_tau2_single_scan_gets_everything(self):
        np.testing.assert_array_equal(temporal_decay_shares(1, 50), [50])

    def test_zero_budget(self):
        # build_volume never asks for it (fraction > 0), but the shares allow it
        np.testing.assert_array_equal(temporal_decay_shares(3, 0), [0, 0, 0])

    def test_budget_beyond_available_takes_all(self):
        # 103 points at fraction 1 share out as [28, 75]: the 3-point scan's
        # share exceeds it, so it enters whole
        states = [make_state(0, np.zeros((3, 3))), make_state(1, np.zeros((100, 3)))]
        vol = volume_of(states, "decay", fraction=1.0)
        np.testing.assert_array_equal(rows_of(vol, 0), [0, 1, 2])
        assert rows_of(vol, 1).size == 75

    def test_nearest_scan_gets_more(self):
        # 300 past points at fraction 0.2 share out as 60 in all
        states = [make_state(i, np.zeros((100, 3))) for i in range(3)]
        vol = volume_of(states, "decay", fraction=0.2)
        sizes = [rows_of(vol, i).size for i in range(3)]
        assert sizes[0] < sizes[1] < sizes[2] and sum(sizes) == 60


class TestStridedSampling:
    def test_tau4_selects_offsets_one_and_three(self):
        # past positions 0,1,2 correspond to offsets i = 1,2,3; stride 2
        # keeps i = 1,3 and skips i = 2
        states = [make_state(i, np.zeros((10, 3))) for i in range(3)]
        vol = volume_of(states, "stride", stride=2, fraction=0.5)
        assert [rows_of(vol, i).size for i in range(3)] == [5, 0, 5]
        assert vol.skipped_scans == [1]

    def test_tau2_nothing_skipped(self):
        vol = volume_of([make_state(0, np.zeros((10, 3)))], "stride")
        assert rows_of(vol, 0).size == 1
        assert vol.skipped_scans == []

    def test_stride_beyond_window_keeps_only_oldest(self):
        states = [make_state(i, np.zeros((10, 3))) for i in range(3)]
        vol = volume_of(states, "stride", stride=5, fraction=0.5)
        assert [rows_of(vol, i).size for i in range(3)] == [5, 0, 0]
        assert vol.skipped_scans == [1, 2]


class TestBackfill:
    def test_coincident_point_inherits(self):
        inc = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        origin = np.array([[0, 0], [0, 1]])
        sem = np.array([CAR, ROAD])
        inst = np.array([4, 0])
        got_sem, got_inst = backfill_skipped(inc, origin, sem, inst,
                                             np.array([[0.0, 0.0, 0.0]]))
        assert got_sem[0] == CAR
        assert got_inst[0] == 4

    def test_equidistant_tie_lowest_origin_wins(self):
        inc = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        origin = np.array([[2, 5], [1, 9]])  # second point has lower scan index
        sem = np.array([CAR, ROAD])
        inst = np.array([1, 2])
        got_sem, got_inst = backfill_skipped(inc, origin, sem, inst,
                                             np.array([[0.0, 0.0, 0.0]]))
        assert got_sem[0] == ROAD
        assert got_inst[0] == 2

    def test_empty_volume_rejected(self):
        with pytest.raises(ValidationError):
            backfill_skipped(np.zeros((0, 3)), np.zeros((0, 2), dtype=np.int64),
                             np.array([]), np.array([]), np.zeros((1, 3)))

    def test_matches_brute_force_oracle(self):
        # oracle: all-pairs squared distances, ties by (scan, point)
        rng = np.random.default_rng(17)
        inc = rng.normal(size=(400, 3)) * 5.0
        origin = np.column_stack([rng.integers(0, 4, 400), rng.permutation(400)])
        sem = rng.integers(0, 50, 400)
        inst = rng.integers(0, 6, 400)
        query = rng.normal(size=(200, 3)) * 5.0

        got_sem, got_inst = backfill_skipped(inc, origin, sem, inst, query)
        for q in range(query.shape[0]):
            diff = inc - query[q]
            d2 = np.einsum("ij,ij->i", diff, diff)
            tied = np.flatnonzero(d2 == d2.min())
            best = tied[np.lexsort((origin[tied, 1], origin[tied, 0]))[0]]
            assert got_sem[q] == sem[best]
            assert got_inst[q] == inst[best]


class TestBuildVolume:
    def _states(self, rng, t_first, count, n=1000):
        return [
            make_state(
                t_first + i,
                rng.normal(size=(n, 3)),
                objectness=rng.uniform(size=n),
                semantic=rng.choice([CAR, ROAD], size=n),
            )
            for i in range(count)
        ]

    def test_current_scan_always_complete(self):
        rng = np.random.default_rng(3)
        for strategy in ("thing", "importance", "decay", "stride"):
            cfg = VolumeConfig(strategy=strategy, tau=4)
            states = self._states(rng, 0, 3, n=500)
            cur = rng.normal(size=(777, 3))
            vol = build_volume(cur, 3, states, cfg, np.random.default_rng(0), {CAR})
            current = vol.origin[:, 0] == 3
            assert current.sum() == 777
            np.testing.assert_array_equal(vol.origin[current, 1], np.arange(777))
            np.testing.assert_allclose(vol.coords[current, :3], cur)

    def test_empty_current_scan_leaves_past_rows_past(self):
        rng = np.random.default_rng(12)
        cfg = VolumeConfig(strategy="importance", tau=2)
        states = self._states(rng, 0, 1, n=50)
        vol = build_volume(np.empty((0, 3)), 1, states, cfg, np.random.default_rng(0))
        assert len(vol) == 5
        assert not (vol.origin[:, 0] == 1).any()
        assert (vol.origin[:, 0] == 0).all()
        assert (vol.coords[:, 3] == 0.0).all()

    def test_memory_proxy_importance_tau4(self):
        # 1 + 3 * 0.10 = 1.3x a single scan on uniform synthetic scans
        rng = np.random.default_rng(4)
        cfg = VolumeConfig(strategy="importance", tau=4, fraction=0.10)
        states = self._states(rng, 0, 3, n=1000)
        vol = build_volume(rng.normal(size=(1000, 3)), 3, states, cfg,
                           np.random.default_rng(0))
        assert len(vol) <= 1.3 * 1000

    def test_time_coordinate_slots(self):
        rng = np.random.default_rng(5)
        cfg = VolumeConfig(strategy="importance", tau=4)
        states = self._states(rng, 0, 3, n=100)
        vol = build_volume(rng.normal(size=(100, 3)), 3, states, cfg,
                           np.random.default_rng(0))
        assert set(np.unique(vol.coords[:, 3])) == {0.0, 1.0, 2.0, 3.0}
        for scan in range(4):  # the t coordinate is the scan's window slot
            assert (vol.coords[vol.origin[:, 0] == scan, 3] == scan).all()

    def test_truncated_window_at_sequence_start(self):
        rng = np.random.default_rng(6)
        cfg = VolumeConfig(strategy="importance", tau=4)
        states = self._states(rng, 0, 1, n=100)  # only scan 0 exists before t=1
        vol = build_volume(rng.normal(size=(100, 3)), 1, states, cfg,
                           np.random.default_rng(0))
        assert vol.window == (0, 1)
        assert vol.coords[vol.origin[:, 0] == 1, 3].max() == 1.0

    def test_origin_pairs_unique(self):
        rng = np.random.default_rng(7)
        cfg = VolumeConfig(strategy="decay", tau=3)
        states = self._states(rng, 0, 2, n=300)
        vol = build_volume(rng.normal(size=(300, 3)), 2, states, cfg,
                           np.random.default_rng(1))
        packed = vol.origin[:, 0] * 10_000_000 + vol.origin[:, 1]
        assert np.unique(packed).size == len(vol)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        cfg = VolumeConfig(strategy="importance", tau=3)
        states = self._states(rng, 0, 2, n=200)
        cur = rng.normal(size=(200, 3))
        a = build_volume(cur, 2, states, cfg, np.random.default_rng(5))
        b = build_volume(cur, 2, states, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.origin, b.origin)

    def test_inconsistent_past_states_rejected(self):
        rng = np.random.default_rng(9)
        cfg = VolumeConfig(strategy="importance", tau=4)
        states = self._states(rng, 0, 2, n=50)
        with pytest.raises(ValidationError):
            build_volume(rng.normal(size=(50, 3)), 5, states, cfg,
                         np.random.default_rng(0))

    def test_more_past_states_than_tau_rejected(self):
        rng = np.random.default_rng(9)
        cfg = VolumeConfig(strategy="importance", tau=3)
        states = self._states(rng, 0, 3, n=50)
        with pytest.raises(ValidationError, match="3 past scans exceed window tau=3"):
            build_volume(rng.normal(size=(50, 3)), 3, states, cfg, np.random.default_rng(0))

    def test_gap_in_past_states_rejected(self):
        rng = np.random.default_rng(9)
        cfg = VolumeConfig(strategy="importance", tau=4)
        states = self._states(rng, 0, 3, n=50)
        with pytest.raises(ValidationError, match="consecutive"):
            build_volume(rng.normal(size=(50, 3)), 3, [states[0], states[2]], cfg,
                         np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["objectness", "semantic"])
    def test_past_state_field_length_mismatch_rejected(self, name):
        arrays = {"objectness": np.zeros(5), "semantic": np.full(5, ROAD)}
        arrays[name] = arrays[name][:4]
        with pytest.raises(ValidationError, match=f"{name} length 4 != 5 points"):
            ScanState(scan_index=0, coords=np.zeros((5, 3)),
                      fields=ClusterFields(None, None, arrays["objectness"]),
                      semantic=arrays["semantic"])

    def test_past_state_never_emitted_rejected(self):
        rng = np.random.default_rng(9)
        states = self._states(rng, 0, 3, n=50)
        states[1].emitted = None
        with pytest.raises(ValidationError, match="past scan 1 was never emitted"):
            build_volume(rng.normal(size=(50, 3)), 3, states, VolumeConfig(tau=4),
                         np.random.default_rng(0))

    def test_scan_state_needs_cluster_fields(self):
        with pytest.raises(ValidationError, match="fields must be ClusterFields"):
            ScanState(0, np.zeros((2, 3)), (None, None, np.zeros(2)), np.zeros(2, dtype=np.int64))

    def test_base_strategy_has_no_past(self):
        rng = np.random.default_rng(10)
        cfg = VolumeConfig(strategy="base", tau=1)
        vol = build_volume(rng.normal(size=(60, 3)), 4, [], cfg,
                           np.random.default_rng(0))
        assert len(vol) == 60
        assert vol.window == (4, 4)

    def test_thing_strategy_honors_total_budget(self):
        rng = np.random.default_rng(11)
        cfg = VolumeConfig(strategy="thing", tau=3, max_points=700)
        states = [
            make_state(i, rng.normal(size=(400, 3)),
                       semantic=np.full(400, CAR)) for i in range(2)
        ]
        vol = build_volume(rng.normal(size=(500, 3)), 2, states, cfg,
                           np.random.default_rng(0), thing_classes={CAR})
        assert len(vol) <= 700
        # the budget never shrinks the newest scan
        assert (vol.origin[:, 0] == 2).sum() == 500

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            VolumeConfig(strategy="warp")
        with pytest.raises(ValidationError):
            VolumeConfig(strategy="importance", fraction=0.0)
        with pytest.raises(ValidationError):
            VolumeConfig(strategy="base", tau=2)


def brute_force_backfill(inc, origin, sem, inst, query):
    """All-pairs squared distances; ties go to the lowest (scan, point)."""
    best = np.empty(query.shape[0], dtype=np.int64)
    for q in range(query.shape[0]):
        diff = inc - query[q]
        d2 = np.einsum("ij,ij->i", diff, diff)
        tied = np.flatnonzero(d2 == d2.min())
        best[q] = tied[np.lexsort((origin[tied, 1], origin[tied, 0]))[0]]
    return sem[best], inst[best]


@st.composite
def backfill_inputs(draw):
    """Coordinates on a coarse grid, so equidistant and coincident rows are
    common, and unique (scan, point) origins in shuffled order."""
    n = draw(st.integers(1, 40))
    n_query = draw(st.integers(0, 30))
    step = draw(st.sampled_from([0.5, 0.1]))
    coord = st.integers(-4, 4)
    inc = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n)),
                   dtype=np.float64).reshape(n, 3) * step
    # queries on the half grid land midway between rows, which ties them
    qcoord = st.integers(-8, 8)
    query = np.array(draw(st.lists(st.tuples(qcoord, qcoord, qcoord), min_size=n_query,
                                   max_size=n_query)), dtype=np.float64).reshape(n_query, 3)
    origin = np.array(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 15)),
                                    min_size=n, max_size=n, unique=True)), dtype=np.int64)
    sem = np.arange(n, dtype=np.int64) + 100  # one value per row: the winner is visible
    inst = np.arange(n, dtype=np.int64)
    return inc, origin, sem, inst, query * (step / 2)


class TestBackfillMatchesOracle:
    @staticmethod
    def check(inc, origin, sem, inst, query):
        got_sem, got_inst = backfill_skipped(inc, origin, sem, inst, query)
        want_sem, want_inst = brute_force_backfill(inc, origin, sem, inst, query)
        np.testing.assert_array_equal(got_sem, want_sem)
        np.testing.assert_array_equal(got_inst, want_inst)
        assert got_sem.dtype == sem.dtype and got_inst.dtype == inst.dtype

    @given(backfill_inputs())
    def test_rounded_grid_shuffled_origins(self, inputs):
        self.check(*inputs)

    def test_zero_queries(self):
        inc = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        got_sem, got_inst = backfill_skipped(inc, np.array([[1, 0], [0, 3]]), np.array([5, 6]),
                                             np.array([1, 2]), np.zeros((0, 3)))
        assert got_sem.shape == got_inst.shape == (0,)

    def test_single_included_row(self):
        query = np.array([[0.0, 0.0, 0.0], [3.0, -1.0, 2.0], [1.0, 1.0, 1.0]])
        self.check(np.array([[1.0, 1.0, 1.0]]), np.array([[2, 7]]), np.array([CAR]),
                   np.array([4]), query)

    def test_coincident_rows_lowest_origin_wins(self):
        inc = np.zeros((4, 3))
        origin = np.array([[3, 0], [1, 8], [1, 2], [2, 1]])
        self.check(inc, origin, np.arange(4), np.arange(4), np.array([[0.0, 0.0, 0.5]]))

    def test_empty_ball_is_an_invariant_error(self, monkeypatch):
        class NoBalls:
            def __init__(self, data):
                self.tree = cKDTree(data)

            def query(self, x, k):
                return self.tree.query(x, k=k)

            def query_ball_point(self, x, r):
                return [[] for _ in x]

        monkeypatch.setattr(volume, "cKDTree", NoBalls)
        with pytest.raises(InvariantError):
            backfill_skipped(np.zeros((2, 3)), np.array([[0, 0], [0, 1]]), np.array([1, 2]),
                             np.array([1, 2]), np.ones((1, 3)))


class SpyTree:
    """cKDTree that records every query array passed to query_ball_point."""

    ball_queries = []

    def __init__(self, data):
        self.tree = cKDTree(data)

    def query(self, x, k):
        return self.tree.query(x, k=k)

    def query_ball_point(self, x, r):
        self.ball_queries.append(np.array(x))
        return self.tree.query_ball_point(x, r=r)


@pytest.fixture
def ball_queries(monkeypatch):
    """The queries that backfill_skipped scores by ball, one array per call."""
    monkeypatch.setattr(SpyTree, "ball_queries", [])
    monkeypatch.setattr(volume, "cKDTree", SpyTree)
    return SpyTree.ball_queries


class TestBackfillNearestTwo:
    """Only a query whose second-nearest row may tie its nearest one is
    scored by ball; every other query takes its nearest row."""

    check = staticmethod(TestBackfillMatchesOracle.check)

    def test_near_tie_smaller_distance_beats_lower_origin(self, ball_queries):
        # d2 / d1 - 1 = 5e-8: inside the near-tie margin, yet not a tie
        inc = np.array([[1.0 + 5e-8, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        origin = np.array([[0, 0], [3, 9]])
        got_sem, got_inst = backfill_skipped(inc, origin, np.array([CAR, ROAD]),
                                             np.array([1, 2]), np.zeros((1, 3)))
        assert got_sem.tolist() == [ROAD] and got_inst.tolist() == [2]
        assert len(ball_queries) == 1 and ball_queries[0].shape == (1, 3)

    def test_single_row_table_many_queries(self, ball_queries):
        rng = np.random.default_rng(5)
        query = np.vstack([rng.normal(size=(25, 3)) * 4.0, [[1.0, -2.0, 0.5]]])
        self.check(np.array([[1.0, -2.0, 0.5]]), np.array([[4, 2]]), np.array([CAR]),
                   np.array([7]), query)
        assert ball_queries == []

    def test_random_float_rows_need_no_ball(self, ball_queries):
        rng = np.random.default_rng(29)
        inc = rng.normal(size=(300, 3)) * 5.0
        origin = np.column_stack([rng.integers(0, 4, 300), rng.permutation(300)])
        self.check(inc, origin, rng.integers(0, 50, 300), rng.integers(0, 6, 300),
                   rng.normal(size=(150, 3)) * 5.0)
        assert ball_queries == []

    def test_coincident_rows_score_every_query_by_ball(self, ball_queries):
        rng = np.random.default_rng(31)
        inc = np.zeros((4, 3))
        origin = np.array([[3, 0], [1, 8], [1, 2], [2, 1]])
        query = rng.normal(size=(6, 3))
        self.check(inc, origin, np.arange(4), np.arange(4), query)
        assert len(ball_queries) == 1
        np.testing.assert_array_equal(ball_queries[0], query)


class TestVolumeRowOrder:
    @pytest.mark.parametrize("strategy,tau,max_points", [
        ("base", 1, None), ("thing", 4, None), ("thing", 4, 900), ("importance", 4, None),
        ("decay", 4, None), ("stride", 4, None),
    ])
    def test_origin_strictly_increases(self, strategy, tau, max_points):
        rng = np.random.default_rng(12)
        states = [
            make_state(2 + i, rng.normal(size=(400, 3)), objectness=rng.uniform(size=400),
                       semantic=rng.choice([CAR, ROAD], size=400))
            for i in range(tau - 1)
        ]
        cfg = VolumeConfig(strategy=strategy, tau=tau, max_points=max_points)
        vol = build_volume(rng.normal(size=(500, 3)), 2 + tau - 1, states, cfg,
                           np.random.default_rng(0), thing_classes={CAR})
        keys = vol.origin[:, 0] * 10_000_000 + vol.origin[:, 1]
        assert len(vol) > 500 or strategy == "base"
        assert (np.diff(keys) > 0).all()

