import numpy as np
import pytest

from pan4d.errors import ValidationError
from pan4d.losses import (
    balanced_class_sample,
    class_loss,
    instance_loss,
    objectness_loss,
    objectness_target,
    total_loss,
    variance_smoothness_loss,
)

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_gradient(f, x, step=FD_STEP):
    """Test-local central-difference oracle."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        k = it.multi_index
        orig = x[k]
        x[k] = orig + step
        hi = f(x)
        x[k] = orig - step
        lo = f(x)
        x[k] = orig
        grad[k] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def rel_err(a, b):
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return np.abs(a - b).max(initial=0.0) / scale


def random_problem(rng, n_max=100, d_max=6, n_instances=3):
    n = int(rng.integers(6, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    ids = rng.integers(0, n_instances + 1, size=n)
    for j in range(1, n_instances + 1):
        if not (ids == j).any():
            ids[rng.integers(0, n)] = j
    feats = rng.normal(size=(n, d))
    variances = rng.uniform(0.5, 2.0, size=(n, d))
    return feats, variances, ids


class TestObjectnessTarget:
    def test_symmetric_pair_is_zero_for_both(self):
        coords = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        o = objectness_target(coords, np.array([1, 1]))
        np.testing.assert_allclose(o, [0.0, 0.0])

    def test_single_point_instance(self):
        o = objectness_target(np.array([[3.0, 4.0, 5.0]]), np.array([1]))
        np.testing.assert_allclose(o, [1.0])

    def test_three_collinear_points(self):
        # center = 1, distances (1, 0, 1), d_max = 1 -> o = (0, 1, 0)
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        o = objectness_target(coords, np.array([1, 1, 1]))
        np.testing.assert_allclose(o, [0.0, 1.0, 0.0])

    def test_non_instance_points_zero(self):
        coords = np.array([[0.0, 0, 0], [9.0, 0, 0], [11.0, 0, 0], [13.0, 0, 0]])
        o = objectness_target(coords, np.array([0, 1, 1, 1]))
        assert o[0] == 0.0

    def test_equals_one_scan_per_instance_on_shuffled_ids(self):
        # members come from one argsort; the result is the bytes that
        # gathering each instance with its own full-array scan gives
        rng = np.random.default_rng(11)
        coords = rng.normal(size=(300, 3)) * 5.0
        ids = rng.permutation(np.repeat([0, 9, 2, 40000, 7], [60, 90, 1, 70, 79]))
        expected = np.zeros(300)
        for uid in (2, 7, 9, 40000):
            idx = np.flatnonzero(ids == uid)
            d = np.linalg.norm(coords[idx] - coords[idx].mean(axis=0), axis=1)
            expected[idx] = 1.0 - d / d.max() if d.max() else 1.0
        np.testing.assert_array_equal(objectness_target(coords, ids), expected)

    def test_ids_must_be_one_dimensional(self):
        with pytest.raises(ValidationError, match="1-d"):
            objectness_target(np.zeros((2, 3)), np.ones((2, 1), dtype=np.int64))


class TestObjectnessLoss:
    def test_zero_at_match(self):
        x = np.array([0.2, 0.8])
        loss, grad = objectness_loss(x, x)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_all_wrong_n4(self):
        loss, _ = objectness_loss(np.zeros(4), np.ones(4))
        assert loss == pytest.approx(4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            objectness_loss(np.zeros(3), np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            pred = rng.uniform(size=n)
            target = rng.uniform(size=n)
            _, grad = objectness_loss(pred, target)
            numeric = fd_gradient(lambda x: objectness_loss(x, target)[0], pred)
            assert rel_err(grad, numeric) < 1e-6


class TestInstanceLoss:
    def test_tight_instance_distant_outliers_near_zero(self):
        feats = np.vstack([np.zeros((5, 2)), np.full((3, 2), 30.0)])
        variances = np.ones_like(feats)
        loss, _, _ = instance_loss(feats, variances, np.array([1] * 5 + [0] * 3))
        assert loss < 1e-12

    def test_single_point_single_instance_exact_zero(self):
        loss, gx, gv = instance_loss(
            np.array([[1.5, -2.0]]), np.array([[1.0, 1.0]]), np.array([1])
        )
        assert loss == 0.0
        np.testing.assert_array_equal(gx, [[0.0, 0.0]])
        np.testing.assert_array_equal(gv, [[0.0, 0.0]])

    def test_non_positive_variance_rejected(self):
        with pytest.raises(ValidationError):
            instance_loss(np.zeros((2, 1)), np.zeros((2, 1)), np.array([1, 1]))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_gradients_match_finite_differences(self, normalized):
        rng = np.random.default_rng(7)
        for _ in range(20):
            feats, variances, gt = random_problem(rng, n_max=50)
            _, gx, gv = instance_loss(feats, variances, gt, normalized=normalized)
            num_x = fd_gradient(
                lambda x: instance_loss(x, variances, gt, normalized=normalized)[0], feats
            )
            num_v = fd_gradient(
                lambda v: instance_loss(feats, v, gt, normalized=normalized)[0], variances
            )
            assert rel_err(gx, num_x) < FD_TOL
            assert rel_err(gv, num_v) < FD_TOL

    def test_invariant_under_point_and_label_permutation(self):
        rng = np.random.default_rng(8)
        feats, variances, gt = random_problem(rng, n_max=40)
        base, _, _ = instance_loss(feats, variances, gt)

        perm = rng.permutation(feats.shape[0])
        shuffled = gt[perm]
        a, _, _ = instance_loss(feats[perm], variances[perm], shuffled)

        relabel = {0: 0, 1: 3, 2: 1, 3: 2}
        renamed = np.array([relabel[int(i)] for i in gt])
        b, _, _ = instance_loss(feats, variances, renamed)

        assert a == pytest.approx(base, rel=1e-12)
        assert b == pytest.approx(base, rel=1e-12)


class TestVarianceSmoothness:
    def test_uniform_variances_zero(self):
        v = np.full((6, 3), 1.3)
        loss, grad = variance_smoothness_loss(v, np.array([1, 1, 1, 2, 2, 2]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(v))

    def test_two_member_deviation(self):
        # mean 1, deviations (-1, +1): (1/2) * (1 + 1) = 1
        v = np.array([[0.0], [2.0]])
        loss, _ = variance_smoothness_loss(v, np.array([1, 1]))
        assert loss == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            _, variances, gt = random_problem(rng, n_max=40)
            _, grad = variance_smoothness_loss(variances, gt)
            numeric = fd_gradient(lambda v: variance_smoothness_loss(v, gt)[0], variances)
            assert rel_err(grad, numeric) < FD_TOL


class TestClassLoss:
    def test_confident_correct_scores_near_zero(self):
        scores = np.array([[50.0, 0.0], [0.0, 50.0]])
        loss, _ = class_loss(scores, np.array([0, 1]), np.array([0, 1]))
        assert loss < 1e-12

    def test_uniform_scores_log_c(self):
        for c in (2, 5, 9):
            scores = np.zeros((4, c))
            loss, _ = class_loss(scores, np.zeros(4, dtype=int), np.arange(4))
            assert loss == pytest.approx(np.log(c), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, c = int(rng.integers(4, 40)), int(rng.integers(2, 7))
            scores = rng.normal(size=(n, c))
            classes = rng.integers(0, c, size=n)
            sampled = rng.choice(n, size=max(1, n // 2), replace=False)
            _, grad = class_loss(scores, classes, sampled)
            numeric = fd_gradient(lambda s: class_loss(s, classes, sampled)[0], scores)
            assert rel_err(grad, numeric) < FD_TOL

    def test_unsampled_rows_have_zero_gradient(self):
        scores = np.random.default_rng(11).normal(size=(5, 3))
        _, grad = class_loss(scores, np.zeros(5, dtype=int), np.array([0, 2]))
        np.testing.assert_array_equal(grad[[1, 3, 4]], np.zeros((3, 3)))


class TestBalancedSample:
    def test_imbalanced_classes_split_evenly(self):
        # Monte-Carlo frequency oracle over seeds: 90/10 points, budget 20
        classes = np.array([0] * 90 + [1] * 10)
        minority = []
        for t in range(300):
            idx = balanced_class_sample(classes, 20, np.random.default_rng(t))
            assert idx.size == 20
            assert np.unique(idx).size == 20
            minority.append(int((classes[idx] == 1).sum()))
        assert 9.5 <= np.mean(minority) <= 10.5

    def test_single_class_uniform(self):
        classes = np.zeros(50, dtype=int)
        counts = np.zeros(50)
        for t in range(2000):
            idx = balanced_class_sample(classes, 10, np.random.default_rng(t))
            counts[idx] += 1
        p = 10 / 50
        sigma = np.sqrt(2000 * p * (1 - p))
        assert np.abs(counts - 2000 * p).max() < 4 * sigma

    def test_full_budget_returns_everything(self):
        idx = balanced_class_sample(np.array([0, 1, 1]), 3, np.random.default_rng(0))
        np.testing.assert_array_equal(idx, [0, 1, 2])

    def test_budget_above_n_rejected(self):
        with pytest.raises(ValidationError):
            balanced_class_sample(np.zeros(3, dtype=int), 4, np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        classes = np.array([0] * 30 + [1] * 5)
        a = balanced_class_sample(classes, 8, np.random.default_rng(3))
        b = balanced_class_sample(classes, 8, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestTotalLoss:
    def test_plain_sum(self):
        assert total_loss(1.0, 2.0, 3.0, 4.5) == 10.5

    def test_non_negative_components_on_random_problems(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            feats, variances, gt = random_problem(rng, n_max=30)
            l_ins, _, _ = instance_loss(feats, variances, gt)
            l_var, _ = variance_smoothness_loss(variances, gt)
            pred = rng.uniform(size=feats.shape[0])
            target = objectness_target(feats, gt)
            l_obj, _ = objectness_loss(pred, target)
            scores = rng.normal(size=(feats.shape[0], 4))
            l_cls, _ = class_loss(scores, rng.integers(0, 4, feats.shape[0]),
                                  np.arange(feats.shape[0]))
            for value in (l_ins, l_var, l_obj, l_cls):
                assert value >= 0.0
