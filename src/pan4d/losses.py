"""Training objectives as pure differentiable functions (no training loop).

Every loss returns its scalar value together with analytic gradients; the
test suite verifies each gradient against central finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _members(instance_ids):
    """[(instance id, member indices)] of a 1-d per-point id array, 0 meaning
    no instance: ids ascending, indices ascending, from one stable argsort."""
    ids = np.asarray(instance_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValidationError("instance ids must be a 1-d array")
    order = np.argsort(ids, kind="stable")
    uniq, starts = np.unique(ids[order], return_index=True)
    return [(uid, idx) for uid, idx in zip(uniq.tolist(), np.split(order, starts[1:])) if uid]


def objectness_target(coords: np.ndarray, instance_ids: np.ndarray) -> np.ndarray:
    """Per-point objectness: 1 - d / d_max toward the instance center.

    d is the Euclidean distance from a member to its instance's center (mean
    member coordinate), d_max the largest member distance. A single-point
    instance (d_max = 0) scores 1; points outside any instance score 0.
    """
    coords = np.asarray(coords, dtype=np.float64)
    o = np.zeros(coords.shape[0])
    for _, idx in _members(instance_ids):
        center = coords[idx].mean(axis=0)
        d = np.linalg.norm(coords[idx] - center, axis=1)
        d_max = d.max()
        if d_max == 0.0:
            o[idx] = 1.0
        else:
            o[idx] = 1.0 - d / d_max
    return o


def objectness_loss(pred: np.ndarray, target: np.ndarray):
    """Sum of squared errors between regressed and target objectness.

    Returns (loss, gradient wrt pred).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValidationError("pred and target objectness lengths differ")
    diff = pred - target
    return float(np.sum(diff * diff)), 2.0 * diff


def instance_loss(features: np.ndarray, variances: np.ndarray, instance_ids: np.ndarray,
                  normalized: bool = False):
    """Squared error between Gaussian memberships and the membership indicator.

    For each instance j, the per-point probability is evaluated under the
    Gaussian centered at the instance's mean embedding with its mean diagonal
    variance; both means are member averages, and the gradients flow through
    them.

    Returns (loss, grad wrt features, grad wrt variances).
    """
    x = np.asarray(features, dtype=np.float64)
    v = np.asarray(variances, dtype=np.float64)
    if x.shape != v.shape:
        raise ValidationError("features and variances must have the same shape")
    if v.size and v.min() <= 0:
        raise ValidationError("variances must be strictly positive")
    n, d = x.shape

    loss = 0.0
    grad_x = np.zeros_like(x)
    grad_v = np.zeros_like(v)
    for _, idx in _members(instance_ids):
        nj = idx.size
        mu = x[idx].mean(axis=0)
        var = v[idx].mean(axis=0)
        diff = mu[None, :] - x  # (N, D)
        a = diff / var[None, :]
        maha = np.sum(diff * a, axis=1)
        p_hat = np.exp(-0.5 * maha)
        if normalized:
            p_hat = p_hat / ((2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.prod(var)))
        p = np.zeros(n)
        p[idx] = 1.0
        r = p_hat - p
        loss += float(np.sum(r * r))

        s = 2.0 * r * p_hat  # (N,)
        grad_x += s[:, None] * a
        grad_x[idx] -= np.sum(s[:, None] * a, axis=0) / nj
        h = 0.5 * np.sum(s[:, None] * (a * a), axis=0)
        if normalized:
            h -= 0.5 * np.sum(s) / var
        grad_v[idx] += h / nj
    return loss, grad_x, grad_v


def variance_smoothness_loss(variances: np.ndarray, instance_ids: np.ndarray):
    """Mean squared deviation of member variances from their instance mean.

    Returns (loss, gradient wrt variances).
    """
    v = np.asarray(variances, dtype=np.float64)
    loss = 0.0
    grad = np.zeros_like(v)
    for _, idx in _members(instance_ids):
        dev = v[idx] - v[idx].mean(axis=0)
        loss += float(np.sum(dev * dev)) / idx.size
        grad[idx] += 2.0 * dev / idx.size
    return loss, grad


def class_loss(scores: np.ndarray, gt_classes: np.ndarray, sampled: np.ndarray):
    """Mean cross-entropy over the sampled points; softmax applied inside.

    gt_classes holds column indices into the score matrix; ignore-class
    points must be excluded from `sampled` by the caller. Returns
    (loss, gradient wrt scores) with nonzero rows only at sampled indices.
    """
    scores = np.asarray(scores, dtype=np.float64)
    sampled = np.asarray(sampled, dtype=np.int64)
    if sampled.size == 0:
        raise ValidationError("class loss needs at least one sampled point")
    rows = scores[sampled]
    shifted = rows - rows.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    picked = softmax[np.arange(sampled.size), gt_classes[sampled]]
    loss = float(-np.mean(np.log(picked)))

    grad = np.zeros_like(scores)
    g = softmax.copy()
    g[np.arange(sampled.size), gt_classes[sampled]] -= 1.0
    np.add.at(grad, sampled, g / sampled.size)
    return loss, grad


def balanced_class_sample(gt_classes: np.ndarray, budget: int, rng) -> np.ndarray:
    """Sample point indices with inclusion probability ~ 1 / count(class).

    Randomized systematic sampling without replacement: each point's chance of
    inclusion is proportional to its class weight (capped at certainty), so
    the expected class mix is roughly uniform. Deterministic per seed.
    """
    gt_classes = np.asarray(gt_classes)
    n = gt_classes.shape[0]
    if budget > n:
        raise ValidationError(f"budget {budget} exceeds {n} points")
    if budget == n:
        return np.arange(n, dtype=np.int64)
    values, counts = np.unique(gt_classes, return_counts=True)
    freq = dict(zip(values.tolist(), counts.tolist()))
    w = np.array([1.0 / freq[c] for c in gt_classes.tolist()])

    # inclusion probabilities, saturating over-weighted points at 1
    pi = np.minimum(budget * w / w.sum(), 1.0)
    for _ in range(n):
        saturated = pi >= 1.0
        spare = budget - int(saturated.sum())
        free = ~saturated
        if not free.any() or spare <= 0:
            break
        scaled = np.minimum(spare * w[free] / w[free].sum(), 1.0)
        if np.allclose(pi[free], scaled):
            pi[free] = scaled
            break
        pi[free] = scaled

    order = rng.permutation(n)
    boundaries = np.cumsum(pi[order])
    thresholds = rng.uniform() + np.arange(budget)
    slots = np.minimum(np.searchsorted(boundaries, thresholds, side="right"), n - 1)
    return np.sort(order[slots])


def total_loss(l_class: float, l_obj: float, l_ins: float, l_var: float) -> float:
    """Unweighted sum of the four training objectives."""
    return l_class + l_obj + l_ins + l_var


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Numerical gradient of scalar f at x by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        hi = f(x)
        flat[k] = orig - step
        lo = f(x)
        flat[k] = orig
        g[k] = (hi - lo) / (2.0 * step)
    return grad


def _rel_err(analytic, numeric):
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def check_gradients(seed: int = 0, trials: int = 20, step: float = 1e-5,
                    tolerance: float = 1e-4):
    """Compare every analytic gradient against central differences.

    Runs `trials` random problems per loss (<= 100 points, D <= 6) and returns
    (rows, all_ok) where each row carries the worst relative error observed.
    """
    rng = np.random.default_rng(seed)
    worst = {"objectness": 0.0, "instance/features": 0.0, "instance/variances": 0.0,
             "variance_smoothness": 0.0, "class": 0.0}
    for _ in range(trials):
        n = int(rng.integers(5, 101))
        d = int(rng.integers(1, 7))
        n_inst = int(rng.integers(1, 4))
        ids = rng.integers(0, n_inst + 1, size=n)
        for j in range(1, n_inst + 1):  # keep every instance non-empty
            if not (ids == j).any():
                ids[rng.integers(0, n)] = j

        pred = rng.uniform(0.0, 1.0, n)
        target = rng.uniform(0.0, 1.0, n)
        _, g = objectness_loss(pred, target)
        num = central_difference(lambda x: objectness_loss(x, target)[0], pred.copy(), step)
        worst["objectness"] = max(worst["objectness"], _rel_err(g, num))

        feats = rng.normal(size=(n, d))
        variances = rng.uniform(0.5, 2.0, size=(n, d))
        normalized = bool(rng.integers(0, 2))
        _, gx, gv = instance_loss(feats, variances, ids, normalized=normalized)
        num_x = central_difference(
            lambda x: instance_loss(x, variances, ids, normalized=normalized)[0],
            feats.copy(), step)
        num_v = central_difference(
            lambda v: instance_loss(feats, v, ids, normalized=normalized)[0],
            variances.copy(), step)
        worst["instance/features"] = max(worst["instance/features"], _rel_err(gx, num_x))
        worst["instance/variances"] = max(worst["instance/variances"], _rel_err(gv, num_v))

        _, gs = variance_smoothness_loss(variances, ids)
        num_s = central_difference(
            lambda v: variance_smoothness_loss(v, ids)[0], variances.copy(), step)
        worst["variance_smoothness"] = max(worst["variance_smoothness"], _rel_err(gs, num_s))

        n_cls = int(rng.integers(2, 7))
        scores = rng.normal(size=(n, n_cls))
        classes = rng.integers(0, n_cls, size=n)
        sampled = rng.choice(n, size=max(1, n // 2), replace=False)
        _, gc = class_loss(scores, classes, sampled)
        num_c = central_difference(
            lambda s: class_loss(s, classes, sampled)[0], scores.copy(), step)
        worst["class"] = max(worst["class"], _rel_err(gc, num_c))

    rows = [
        {"loss": name, "max_rel_err": err, "ok": err < tolerance}
        for name, err in worst.items()
    ]
    return rows, all(r["ok"] for r in rows)
