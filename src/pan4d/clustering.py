"""Greedy instance clustering over 4D point volumes.

Instances are modeled as Gaussian probability distributions: the unassigned
point with the highest objectness seeds a cluster, the remaining points are
evaluated under the seed's diagonal Gaussian, and points above the assignment
probability join. Small instances are pruned afterwards and each instance's
class is settled by majority vote. Clustering's output is one instance id per
point (InstanceAssignment): the members of instance k are the points whose id
is k, so every point belongs to at most one instance.

A point can pass a seed's assignment test only inside a Euclidean ball around
the seed (see `cluster_volume`), so each seed scores just the unassigned
points a KD-tree finds in that ball. Seeds are settled in blocks of
SEED_BLOCK open candidates of the objectness order, with one ball query and
one affinity pass per block. The volume's KD-tree has VOLUME_LEAFSIZE points
per leaf. `reference_cluster_volume` keeps the loop that scores every
unassigned point for every seed; only tests call it.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import FormatError, ValidationError
from .kitti_io import LABEL_FIELD_MAX

FEATURE_MODES = ("xyz", "xyzt", "emb", "emb+xyz", "emb+xyzt")

SIDECAR_MAGIC = b"P4DE"
SIDECAR_VERSION = 1

SEED_BLOCK = 128  # open candidates per block of cluster_volume's seed order
VOLUME_LEAFSIZE = 256  # points per leaf of cluster_volume's volume tree


def check_fields(embeddings, variances, objectness, name="embedding"):
    """The per-point field rules, or a ValidationError naming the first broken one.

    Embeddings are an (M, D) matrix with D >= 1 and finite values; variances
    have that shape and are finite and > 0; objectness is (M,), finite and in
    [0, 1]. Coordinate-only fields pass None for embeddings and variances, and
    only their objectness is checked. Messages call the embeddings `name`.
    """
    if embeddings is not None or variances is not None:
        if embeddings is None or embeddings.ndim != 2 or embeddings.shape[1] == 0:
            raise ValidationError(f"{name}s must be an (M, D) matrix with D >= 1")
        if variances is None or variances.shape != embeddings.shape:
            raise ValidationError(f"variances must have the {name}s' shape {embeddings.shape}")
    rows = objectness.shape[:1] if embeddings is None else embeddings.shape[:1]
    if objectness.ndim != 1 or objectness.shape != rows:
        raise ValidationError(f"objectness must be one value per point, got shape "
                              f"{objectness.shape}")
    if embeddings is not None and not np.isfinite(embeddings).all():
        raise ValidationError(f"non-finite {name} value")
    if variances is not None and not (np.isfinite(variances) & (variances > 0)).all():
        raise ValidationError("variances must be finite and strictly positive")
    if not ((objectness >= 0) & (objectness <= 1)).all():
        raise ValidationError("objectness must be finite and in [0, 1]")


@dataclass
class ClusterFields:
    """Per-point embedding, variance, and objectness maps; construction runs
    `check_fields`."""

    embeddings: np.ndarray | None  # (M, D_e) or None for coordinate-only modes
    variances: np.ndarray | None  # (M, D_e), strictly positive
    objectness: np.ndarray  # (M,) in [0, 1]

    def __post_init__(self):
        check_fields(self.embeddings, self.variances, self.objectness)

    def __len__(self):
        return self.objectness.shape[0]


@dataclass(frozen=True)
class ClusterParams:
    """Clustering run parameters; each field's help text is its `pan4d run` flag help.
    Construction checks every value."""

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

    def __post_init__(self):
        if not 0.0 < self.assign_prob < 1.0:
            raise ValidationError("assign_prob must lie in (0, 1)")
        if not 0.0 <= self.seed_stop <= 1.0:
            raise ValidationError("seed_stop must lie in [0, 1], the range of objectness")
        if self.min_points < 1:
            raise ValidationError("min_points must be >= 1")
        if self.feature_mode not in FEATURE_MODES:
            raise ValidationError(f"unknown feature_mode {self.feature_mode!r}")
        for name in ("coord_variance", "time_variance"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")


@dataclass
class InstanceAssignment:
    """Result of clustering: instance id per point (0 = unassigned). The
    members of instance k are the points whose id is k."""

    instance_ids: np.ndarray  # (M,) int64, contiguous ids 1..K
    seeds: list = field(default_factory=list)  # seed point index per instance
    classes: list = field(default_factory=list)  # majority class per instance

    @property
    def n_instances(self):
        return len(self.seeds)


def build_point_features(volume_coords: np.ndarray, embeddings, variances,
                         params: ClusterParams):
    """Assemble the (features, variances) matrices for the chosen feature mode.

    Coordinate dimensions use the configured default variances; embedding
    dimensions take the per-point variance map `variances`. Coordinate-only
    modes ignore the embeddings and variances, which may be None.
    """
    mode = params.feature_mode
    m = volume_coords.shape[0]
    coord_var4 = np.array(
        [params.coord_variance] * 3 + [params.time_variance], dtype=np.float64
    )
    if mode in ("xyz", "xyzt"):
        d = 3 if mode == "xyz" else 4
        return (np.asarray(volume_coords[:, :d], dtype=np.float64),
                np.broadcast_to(coord_var4[:d], (m, d)).copy())

    if embeddings is None or variances is None:
        raise ValidationError(f"feature_mode {mode!r} requires embeddings and variances")
    emb = np.asarray(embeddings, dtype=np.float64)
    var = np.asarray(variances, dtype=np.float64)
    if mode == "emb":
        return emb, var
    d = 3 if mode == "emb+xyz" else 4
    return (np.hstack([emb, volume_coords[:, :d]]),
            np.hstack([var, np.broadcast_to(coord_var4[:d], (m, d))]))


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


def _prune(ids, seeds, min_points) -> InstanceAssignment:
    """Dissolve instances below min_points; survivors are renumbered 1..K."""
    keep = np.bincount(ids, minlength=len(seeds) + 1)[1:] >= min_points
    new_id = np.r_[0, np.cumsum(keep) * keep]  # 0 for the unassigned and the dissolved
    return InstanceAssignment(instance_ids=new_id[ids],
                              seeds=[s for s, k in zip(seeds, keep) if k])


def _block_seeds(features, variances, cand, radius, params) -> np.ndarray:
    """Which of a block's unassigned candidates (in seed order) become seeds.

    Candidate j is taken by an earlier candidate i when it passes i's
    assignment test, which it can only do within i's member radius; `radius`
    is the largest of the block, so one KD-tree over the block finds every
    such pair. j becomes a seed exactly when no earlier seed takes it. Each
    round settles every candidate whose earlier takers are all settled, so
    the first open candidate settles in every round.
    """
    pts = features[cand]
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")  # rows (i, j), i < j
    src, dst = pairs[:, 0], pairs[:, 1]
    p = gaussian_affinity(pts[src], pts[dst], variances[cand[src]],
                          normalized=params.normalized_pdf)
    takes = p > params.assign_prob
    src, dst = src[takes], dst[takes]
    state = np.zeros(cand.size, dtype=np.int8)  # 0 open, 1 seed, 2 taken
    while (state == 0).any():
        taken = np.zeros(cand.size, dtype=bool)
        taken[dst[state[src] == 1]] = True
        waiting = np.zeros(cand.size, dtype=bool)
        waiting[dst[state[src] == 0]] = True
        open_ = state == 0
        state[open_ & taken] = 2
        state[open_ & ~taken & ~waiting] = 1
        open_dst = state[dst] == 0
        src, dst = src[open_dst], dst[open_dst]
    return state == 1


def cluster_volume(features: np.ndarray, variances: np.ndarray, objectness: np.ndarray,
                   params: ClusterParams) -> InstanceAssignment:
    """Greedy seed selection and Gaussian assignment.

    Repeatedly seed at the unassigned point of maximal objectness (ties to the
    lowest index), attach all unassigned points with affinity above
    assign_prob, and stop once the best remaining objectness falls below
    seed_stop. Instances smaller than min_points are then dissolved back to
    unassigned.

    Seeds are visited in one stable descending sort of objectness, cut at
    seed_stop. With the density constant dropped, affinity > p holds exactly
    when the Mahalanobis distance^2 is below -2 ln p, so every member lies
    within sqrt(-2 ln p * max_d var_seed,d) of the seed (with
    `normalized_pdf`, p becomes p * (2 pi)^(D/2) * sqrt(prod var_seed)); the
    ball is padded against rounding.

    The order is taken in blocks of SEED_BLOCK open candidates: after each
    block, the candidates it assigned leave the rest of the order, and the
    next block is the next SEED_BLOCK of what remains. A candidate becomes a
    seed exactly when no earlier seed of the block takes it (`_block_seeds`).
    One KD-tree query over the volume returns the balls of the block's seeds,
    their still-unassigned points are scored in one `gaussian_affinity` call,
    and each point joins the earliest seed of the block that takes it; every
    seed joins its own cluster. That is the sequential greedy rule, so the
    result equals `reference_cluster_volume`, which scores every unassigned
    point for every seed. The Python cost is per block, not per seed.

    Raises:
        ValidationError: inputs that break `check_fields`.
    """
    check_fields(features, variances, objectness, name="feature")
    ids = np.zeros(features.shape[0], dtype=np.int64)
    seeds = []
    obj = np.asarray(objectness, dtype=np.float64)
    order = np.argsort(-obj, kind="stable")[: np.count_nonzero(obj >= params.seed_stop)]
    # the sliding-midpoint tree builds in about half the time of the default
    # one, and large leaves make it shallower still: a window's tree serves
    # few ball queries, so build time dominates. Of leaf sizes 16 to 512 on
    # the benchmark volumes, 256 was fastest; every tree returns the same ball
    tree = (cKDTree(features, leafsize=VOLUME_LEAFSIZE, balanced_tree=False,
                    compact_nodes=False) if order.size else None)
    while order.size:
        cand, order = order[:SEED_BLOCK], order[SEED_BLOCK:]
        cand_radii = _member_radii(variances[cand], params)
        is_seed = _block_seeds(features, variances, cand, cand_radii.max(), params)
        block_seeds = cand[is_seed]
        balls = tree.query_ball_point(features[block_seeds], cand_radii[is_seed],
                                      return_sorted=True)
        sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
        rows = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                           count=sizes.sum())
        rank = np.repeat(np.arange(len(balls)), sizes)  # the seed of each ball row
        free = ids[rows] == 0
        rank, rows = rank[free], rows[free]
        owner = block_seeds[rank]
        p = gaussian_affinity(features[owner], features[rows], variances[owner],
                              normalized=params.normalized_pdf)
        take = (p > params.assign_prob) | (rows == owner)  # a seed always joins its cluster
        rank, rows = rank[take], rows[take]
        # the pairs are in (seed, point) order, so a point's first pair is its
        # earliest seed that takes it
        rows, first = np.unique(rows, return_index=True)
        ids[rows] = len(seeds) + 1 + rank[first]
        seeds.extend(block_seeds.tolist())
        order = order[ids[order] == 0]  # the next block holds only open candidates
    return _prune(ids, seeds, params.min_points)


def reference_cluster_volume(features: np.ndarray, variances: np.ndarray,
                             objectness: np.ndarray, params: ClusterParams) -> InstanceAssignment:
    """`cluster_volume` scoring every unassigned point for every seed; the test oracle.

    Costs O(M * seeds): each iteration rescans the unassigned points for the
    best objectness and computes the seed's affinity to all of them.
    """
    check_fields(features, variances, objectness, name="feature")
    ids = np.zeros(features.shape[0], dtype=np.int64)
    obj = np.asarray(objectness, dtype=np.float64)
    seeds = []

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
        seeds.append(int(seed))
        ids[take] = len(seeds)

    return _prune(ids, seeds, params.min_points)


def majority_vote_classes(assignment: InstanceAssignment, semantic: np.ndarray,
                          stuff_classes=()) -> InstanceAssignment:
    """Settle each instance's class by majority vote over member predictions.

    Ties go to the smaller class id. Instances whose modal class is a stuff
    class are dissolved: members keep their semantics, instance ids reset to 0
    and the survivors are renumbered. One count of the (instance, class) pairs
    of all members, packed into one int64 key, settles every instance. So
    member class ids must lie in [0, LABEL_FIELD_MAX], the range of a label's
    class field.
    """
    ids = assignment.instance_ids
    if assignment.n_instances == 0:
        return InstanceAssignment(instance_ids=np.zeros_like(ids))
    points = np.flatnonzero(ids)
    sem = np.asarray(semantic, dtype=np.int64)[points]
    if sem.min() < 0 or sem.max() > LABEL_FIELD_MAX:
        raise ValidationError(f"member class ids must lie in [0, {LABEL_FIELD_MAX}]")
    pairs, counts = np.unique(ids[points] << 16 | sem, return_counts=True)
    inst = pairs >> 16
    # per instance, the largest count first; the stable sort keeps equal
    # counts in increasing class order, so the smaller class wins a tie
    order = np.lexsort((-counts, inst))
    first = order[np.r_[True, inst[order[1:]] != inst[order[:-1]]]]
    modal = pairs[first] & LABEL_FIELD_MAX
    keep = ~np.isin(modal, list(stuff_classes))
    new_id = np.r_[0, np.cumsum(keep) * keep]  # 1..K' for the survivors, 0 when dissolved
    return InstanceAssignment(
        instance_ids=new_id[ids],
        seeds=[s for s, k in zip(assignment.seeds, keep) if k],
        classes=modal[keep].tolist(),
    )


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
