"""Greedy instance clustering over 4D point volumes.

Instances are modeled as Gaussian probability distributions: the unassigned
point with the highest objectness seeds a cluster, the remaining points are
evaluated under the seed's diagonal Gaussian, and points above the assignment
probability join. Small instances are pruned afterwards and each instance's
class is settled by majority vote.

A point can pass a seed's assignment test only inside a Euclidean ball around
the seed (see `cluster_volume`), so each seed scores just the unassigned
points a KD-tree finds in that ball. `reference_cluster_volume` keeps the
loop that scores every unassigned point for every seed; only tests call it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import FormatError, ValidationError

FEATURE_MODES = ("xyz", "xyzt", "emb", "emb+xyz", "emb+xyzt")

SIDECAR_MAGIC = b"P4DE"
SIDECAR_VERSION = 1


@dataclass
class ClusterFields:
    """Per-point embedding, variance, and objectness maps for one volume."""

    embeddings: np.ndarray | None  # (M, D_e) or None for coordinate-only modes
    variances: np.ndarray | None  # (M, D_e), strictly positive
    objectness: np.ndarray  # (M,) in [0, 1]

    def __post_init__(self):
        m = self.objectness.shape[0]
        if self.embeddings is not None:
            if self.embeddings.shape[0] != m:
                raise ValidationError("embeddings row count does not match objectness")
            if not np.isfinite(self.embeddings).all():
                raise ValidationError("non-finite embedding value")
        if self.variances is not None:
            if self.variances.shape[0] != m:
                raise ValidationError("variances row count does not match objectness")
            if not (np.isfinite(self.variances) & (self.variances > 0)).all():
                raise ValidationError("variances must be finite and strictly positive")
        if not ((self.objectness >= 0) & (self.objectness <= 1)).all():
            raise ValidationError("objectness must be finite and in [0, 1]")

    def __len__(self):
        return self.objectness.shape[0]


@dataclass
class ClusterParams:
    """Clustering run parameters; each field's help text is its `pan4d run` flag help."""

    assign_prob: float = field(default=0.5, metadata={"help": "cluster assignment probability"})
    seed_stop: float = field(default=0.1, metadata={"help": "objectness that stops seeding"})
    min_points: int = field(default=25, metadata={"help": "smaller instances are pruned"})
    normalized_pdf: bool = field(default=False, metadata={
        "help": "keep the Gaussian normalization constant in affinities"})
    feature_mode: str = field(default="emb+xyzt", metadata={
        "help": "clustering features: " + ", ".join(FEATURE_MODES)})
    coord_variance: float = field(default=1.0, metadata={
        "help": "default variance of the x/y/z feature dims (m^2)"})
    time_variance: float = field(default=1.0, metadata={
        "help": "default variance of the t feature dim (slot^2)"})

    def validate(self):
        if not 0.0 < self.assign_prob < 1.0:
            raise ValidationError("assign_prob must lie in (0, 1)")
        if self.min_points < 1:
            raise ValidationError("min_points must be >= 1")
        if self.feature_mode not in FEATURE_MODES:
            raise ValidationError(f"unknown feature_mode {self.feature_mode!r}")
        if self.coord_variance <= 0 or self.time_variance <= 0:
            raise ValidationError("coordinate variances must be positive")
        return self


@dataclass
class InstanceAssignment:
    """Result of clustering: instance id per point (0 = unassigned)."""

    instance_ids: np.ndarray  # (M,) int64, contiguous ids 1..K
    seeds: list = field(default_factory=list)  # seed point index per instance
    members: list = field(default_factory=list)  # index arrays per instance
    classes: list = field(default_factory=list)  # majority class per instance

    @property
    def n_instances(self):
        return len(self.members)


def build_point_features(volume_coords: np.ndarray, fields: ClusterFields, params: ClusterParams):
    """Assemble the (features, variances) matrices for the chosen feature mode.

    Coordinate dimensions use the configured default variances; embedding
    dimensions take the per-point variance map from `fields`.
    """
    mode = params.feature_mode
    m = volume_coords.shape[0]
    coord_var4 = np.array(
        [params.coord_variance] * 3 + [params.time_variance], dtype=np.float64
    )
    if mode in ("xyz", "xyzt"):
        d = 3 if mode == "xyz" else 4
        feats = np.asarray(volume_coords[:, :d], dtype=np.float64)
        variances = np.broadcast_to(coord_var4[:d], (m, d)).copy()
        return feats, variances

    if fields.embeddings is None or fields.variances is None:
        raise ValidationError(f"feature_mode {mode!r} requires embeddings and variances")
    emb = np.asarray(fields.embeddings, dtype=np.float64)
    var = np.asarray(fields.variances, dtype=np.float64)
    if mode == "emb":
        return emb, var
    d = 3 if mode == "emb+xyz" else 4
    feats = np.hstack([emb, volume_coords[:, :d]])
    variances = np.hstack([var, np.broadcast_to(coord_var4[:d], (m, d))])
    return feats, variances


def gaussian_affinity(e_i, e_j, var_i, normalized: bool = False):
    """Probability of point j belonging to seed i under i's diagonal Gaussian.

    With `normalized` off (default) the density constant is dropped so the
    value lies in (0, 1]; with it on, the (2 pi)^(D/2) |Sigma|^(1/2)
    denominator is included.
    """
    e_i = np.asarray(e_i, dtype=np.float64)
    e_j = np.asarray(e_j, dtype=np.float64)
    var_i = np.asarray(var_i, dtype=np.float64)
    if var_i.size and var_i.min() <= 0:
        raise ValidationError("variance must be strictly positive")
    diff = e_i - e_j
    maha = np.sum(diff * diff / var_i, axis=-1)
    p = np.exp(-0.5 * maha)
    if normalized:
        d = var_i.shape[-1]
        norm = (2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.prod(var_i, axis=-1))
        p = p / norm
    return p


def _check_volume(features, variances, objectness, params):
    params.validate()
    if variances.shape != features.shape:
        raise ValidationError("variances must match the feature matrix shape")
    if objectness.shape[0] != features.shape[0]:
        raise ValidationError("objectness length must match the feature matrix")
    if features.ndim != 2 or features.shape[1] == 0:
        raise ValidationError("features must be an (M, D) matrix with D >= 1")
    if not np.isfinite(features).all():
        raise ValidationError("non-finite feature value")
    if not (np.isfinite(variances) & (variances > 0)).all():
        raise ValidationError("variances must be finite and strictly positive")
    if not np.isfinite(objectness).all():
        raise ValidationError("non-finite objectness value")


def _member_radii(variances: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Per-seed radius of the ball that holds every point the seed can take.

    The pads keep the ball a superset under rounding in the affinity, the log
    and the tree's distances. A density constant that underflows to 0 lets
    every point pass; its radius is infinite.
    """
    level = np.full(variances.shape[0], params.assign_prob)
    if params.normalized_pdf:
        d = variances.shape[1]
        level = level * ((2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.prod(variances, axis=1)))
    with np.errstate(divide="ignore"):
        maha = np.maximum(-2.0 * np.log(level), 0.0)
    return np.sqrt((maha * (1.0 + 1e-9) + 1e-9) * variances.max(axis=1))


def _prune(m, seeds, members, min_points) -> InstanceAssignment:
    """Dissolve instances below min_points; survivors are renumbered 1..K."""
    final_ids = np.zeros(m, dtype=np.int64)
    kept_seeds, kept_members = [], []
    for seed, mem in zip(seeds, members):
        if mem.size >= min_points:
            kept_seeds.append(seed)
            kept_members.append(mem)
            final_ids[mem] = len(kept_members)
    return InstanceAssignment(instance_ids=final_ids, seeds=kept_seeds, members=kept_members)


def cluster_volume(features: np.ndarray, variances: np.ndarray, objectness: np.ndarray,
                   params: ClusterParams) -> InstanceAssignment:
    """Greedy seed selection and Gaussian assignment.

    Repeatedly seed at the unassigned point of maximal objectness (ties to the
    lowest index), attach all unassigned points with affinity above
    assign_prob, and stop once the best remaining objectness falls below
    seed_stop. Instances smaller than min_points are then dissolved back to
    unassigned.

    Seeds are visited in one stable descending sort of objectness, skipping
    points already assigned. With the density constant dropped, affinity > p
    holds exactly when the Mahalanobis distance^2 is below -2 ln p, so every
    member lies within sqrt(-2 ln p * max_d var_seed,d) of the seed (with
    `normalized_pdf`, p becomes p * (2 pi)^(D/2) * sqrt(prod var_seed)). A
    KD-tree over the features returns the points in that ball, padded against
    rounding; the unassigned ones are scored with `gaussian_affinity`. The
    result equals `reference_cluster_volume`, which scores every unassigned
    point for every seed.

    Raises:
        ValidationError: bad params, mismatched shapes, non-finite features or
            objectness, or variances that are not finite and positive.
    """
    _check_volume(features, variances, objectness, params)
    m = features.shape[0]
    ids = np.zeros(m, dtype=np.int64)
    seeds, members = [], []
    obj = np.asarray(objectness, dtype=np.float64)
    order = np.argsort(-obj, kind="stable")[: np.count_nonzero(obj >= params.seed_stop)]
    radii = _member_radii(variances[order], params)
    # the sliding-midpoint tree builds in about half the time of the default
    # one; every tree returns the same ball
    tree = cKDTree(features, balanced_tree=False, compact_nodes=False) if order.size else None
    for seed, radius in zip(order.tolist(), radii.tolist()):
        if ids[seed]:
            continue
        hits = np.array(tree.query_ball_point(features[seed], radius, return_sorted=True),
                        dtype=np.intp)
        cand = hits[ids[hits] == 0]
        p = gaussian_affinity(
            features[seed], features[cand], variances[seed],
            normalized=params.normalized_pdf,
        )
        take = cand[p > params.assign_prob]
        if seed not in take:  # the seed itself always joins its cluster
            take = np.append(take, seed)
        ids[take] = len(seeds) + 1
        seeds.append(seed)
        members.append(np.sort(take))
    return _prune(m, seeds, members, params.min_points)


def reference_cluster_volume(features: np.ndarray, variances: np.ndarray,
                             objectness: np.ndarray, params: ClusterParams) -> InstanceAssignment:
    """`cluster_volume` scoring every unassigned point for every seed; the test oracle.

    Costs O(M * seeds): each iteration rescans the unassigned points for the
    best objectness and computes the seed's affinity to all of them.
    """
    _check_volume(features, variances, objectness, params)
    m = features.shape[0]
    ids = np.zeros(m, dtype=np.int64)
    obj = np.asarray(objectness, dtype=np.float64).copy()
    seeds, members = [], []

    while True:
        unassigned = np.flatnonzero(ids == 0)
        if unassigned.size == 0:
            break
        local_best = np.argmax(obj[unassigned])
        seed = unassigned[local_best]
        if obj[seed] < params.seed_stop:
            break
        p = gaussian_affinity(
            features[seed], features[unassigned], variances[seed],
            normalized=params.normalized_pdf,
        )
        take = unassigned[p > params.assign_prob]
        if seed not in take:  # the seed itself always joins its cluster
            take = np.append(take, seed)
        new_id = len(seeds) + 1
        ids[take] = new_id
        seeds.append(int(seed))
        members.append(np.sort(take))

    return _prune(m, seeds, members, params.min_points)


def majority_vote_classes(assignment: InstanceAssignment, semantic: np.ndarray,
                          stuff_classes=()) -> InstanceAssignment:
    """Settle each instance's class by majority vote over member predictions.

    Ties go to the smaller class id. Instances whose modal class is a stuff
    class are dissolved: members keep their semantics, instance ids reset to 0
    and the survivors are renumbered.
    """
    stuff = set(int(c) for c in stuff_classes)
    sem = np.asarray(semantic)
    ids = np.zeros_like(assignment.instance_ids)
    seeds, members, classes = [], [], []
    for seed, mem in zip(assignment.seeds, assignment.members):
        values, counts = np.unique(sem[mem], return_counts=True)
        modal = int(values[counts == counts.max()].min())
        if modal in stuff:
            continue
        seeds.append(seed)
        members.append(mem)
        classes.append(modal)
        ids[mem] = len(members)
    return InstanceAssignment(instance_ids=ids, seeds=seeds, members=members, classes=classes)


def write_cluster_fields(path, embeddings: np.ndarray, objectness: np.ndarray,
                         variances: np.ndarray):
    """Write a per-scan P4DE sidecar file (little-endian throughout)."""
    emb = np.ascontiguousarray(embeddings, dtype="<f4")
    obj = np.ascontiguousarray(objectness, dtype="<f4")
    var = np.ascontiguousarray(variances, dtype="<f4")
    n, d = emb.shape
    if obj.shape != (n,) or var.shape != (n, d):
        raise ValidationError("sidecar arrays must share one point count and dimension")
    with open(path, "wb") as f:
        f.write(SIDECAR_MAGIC)
        f.write(struct.pack("<III", SIDECAR_VERSION, n, d))
        f.write(emb.tobytes())
        f.write(obj.tobytes())
        f.write(var.tobytes())


def read_cluster_fields(path) -> ClusterFields:
    """Read a P4DE sidecar file written by write_cluster_fields.

    Raises:
        FormatError: bad header or size, or values that ClusterFields rejects.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != SIDECAR_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = f.read(12)
        if len(header) != 12:
            raise FormatError(f"{path}: truncated header")
        version, n, d = struct.unpack("<III", header)
        if version != SIDECAR_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        body = f.read()
    expected = (n * d + n + n * d) * 4
    if len(body) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    emb = np.frombuffer(body, dtype="<f4", count=n * d).reshape(n, d)
    obj = np.frombuffer(body, dtype="<f4", count=n, offset=n * d * 4)
    var = np.frombuffer(body, dtype="<f4", count=n * d, offset=(n * d + n) * 4).reshape(n, d)
    try:
        return ClusterFields(embeddings=emb.copy(), variances=var.copy(), objectness=obj.copy())
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
