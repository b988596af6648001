"""Online 4D volume construction from the current scan plus sub-sampled past scans.

A volume covers the temporal window {max(0, t - tau + 1), ..., t}. The newest
scan always enters in full; points from past scans are selected by one of four
strategies ("thing", "importance", "decay", "stride"; "base" keeps tau = 1).
Each volume point carries (x, y, z, t) with t its window slot (0 = oldest).
Every scan of the window is one ScanState, built once when the scan is
loaded: its world coordinates, its checked ClusterFields, its predicted
classes, and, once the scan is emitted, its final classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .clustering import ClusterFields
from .errors import InvariantError, ValidationError
from .kitti_io import LABEL_FIELD_MAX, Pose, Scan

STRATEGIES = ("base", "thing", "importance", "decay", "stride")


@dataclass(frozen=True)
class VolumeConfig:
    """Volume run parameters; each field's help text is its `pan4d run` flag help.
    Construction checks every value."""

    strategy: str = field(default="importance", metadata={
        "help": "past-scan sampling strategy: " + ", ".join(STRATEGIES)})
    tau: int = field(default=4, metadata={"help": "temporal window size in scans"})
    fraction: float = field(default=0.10, metadata={"help": "past-scan sampling fraction"})
    stride: int = field(default=2, metadata={"help": "temporal stride of the stride strategy"})
    max_points: int | None = field(default=None, metadata={
        "help": "total volume point budget of the thing strategy, None = unlimited"})

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.tau < 1:
            raise ValidationError("tau must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise ValidationError("fraction must lie in (0, 1]")
        if self.stride < 2:
            raise ValidationError("stride must be >= 2")
        if self.max_points is not None and self.max_points < 0:
            raise ValidationError("max_points must be >= 0 (None = unlimited)")
        if self.strategy == "base" and self.tau != 1:
            raise ValidationError("strategy 'base' requires tau = 1")
        if self.strategy != "base" and self.tau < 2:
            raise ValidationError(f"strategy {self.strategy!r} requires tau >= 2")


@dataclass
class ScanState:
    """One loaded scan of the window: what volume building, the field gather
    and the vote read of it. The fields were checked when they were built;
    construction checks that every array has one row per point and that the
    predicted classes fit a label's class field."""

    scan_index: int
    coords: np.ndarray  # (N, 3) world frame
    fields: ClusterFields  # (N, ...) embeddings, variances, objectness
    semantic: np.ndarray  # (N,) predicted class ids
    emitted: np.ndarray | None = None  # (N,) final class ids, once emitted

    def __post_init__(self):
        if not isinstance(self.fields, ClusterFields):
            raise ValidationError(f"fields must be ClusterFields, got {type(self.fields).__name__}")
        n = self.coords.shape[0]
        for name, size in (("objectness", len(self.fields)), ("semantic", self.semantic.shape[0])):
            if size != n:
                raise ValidationError(f"{name} length {size} != {n} points")
        if n and (self.semantic.min() < 0 or self.semantic.max() > LABEL_FIELD_MAX):
            raise ValidationError(f"predicted class ids must lie in [0, {LABEL_FIELD_MAX}]")

    def __len__(self):
        return self.coords.shape[0]


@dataclass
class Volume4D:
    """Ego-motion-aligned multi-scan point set with provenance.

    Rows are sorted by (scan, point): past scans oldest first, then the
    current scan, each scan's rows by point index. The pipeline's label table
    keeps this order when it inserts the fill rows of skipped scans.
    """

    coords: np.ndarray  # (M, 4): x, y, z world meters; t = window slot
    origin: np.ndarray  # (M, 2) int64: (scan_index, point_index)
    window: tuple  # (first_scan_index, last_scan_index), inclusive
    skipped_scans: list = field(default_factory=list)  # stride strategy only

    def __len__(self):
        return self.coords.shape[0]


def align_scan(scan_points: np.ndarray | Scan, pose: Pose) -> np.ndarray:
    """Map sensor-frame points into the world frame; remission is untouched."""
    pts = scan_points.points if isinstance(scan_points, Scan) else scan_points
    return pose.transform(pts)


def weighted_sample(weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k indices without replacement with probability proportional to weights.

    All-zero weights fall back to uniform. If fewer than k weights are
    positive, every positive-weight index is taken and the remainder is drawn
    uniformly from the zero-weight ones.
    """
    n = weights.shape[0]
    k = min(k, n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0.0:
        return np.sort(rng.choice(n, size=k, replace=False))
    positive = np.flatnonzero(w > 0)
    if positive.size < k:
        zeros = np.flatnonzero(w == 0)
        extra = rng.choice(zeros, size=k - positive.size, replace=False)
        return np.sort(np.concatenate([positive, extra]))
    sel = rng.choice(n, size=k, replace=False, p=w / total)
    return np.sort(sel)


def temporal_decay_shares(n_past: int, total_budget: int) -> np.ndarray:
    """Integer point budgets per past scan, weighted e^i / sum_j e^j.

    Index 0 is the oldest past scan (i = 1), index n_past - 1 the nearest
    (i = tau - 1). Budgets are allocated by largest remainder so they sum to
    total_budget exactly.
    """
    i = np.arange(1, n_past + 1, dtype=np.float64)
    w = np.exp(i)
    w /= w.sum()
    raw = w * total_budget
    alloc = np.floor(raw).astype(np.int64)
    short = total_budget - int(alloc.sum())
    if short > 0:
        order = np.argsort(-(raw - alloc), kind="stable")
        alloc[order[:short]] += 1
    return alloc


def backfill_skipped(
    included_coords: np.ndarray,
    included_origin: np.ndarray,
    included_semantic: np.ndarray,
    included_instance: np.ndarray,
    query_coords: np.ndarray,
):
    """Copy (class, instance) from each query point's nearest included point.

    Nearest neighbor is exact (KD-tree over world xyz); distance ties are
    broken by the lowest (scan_index, point_index) origin pair. One k=2 query
    finds each point's two nearest rows. Where the second lies beyond
    d1 * (1 + 1e-6), far outside the padded ball below, the first wins
    alone. Only the other queries, which may tie, score every row in their
    ball (within d1, padded) in one flat array, and one lexsort over
    (query, d², scan, point) puts each query's winner first in its group.
    A one-row table reports no second row (distance inf), so no query ties.

    Returns (semantic, instance) arrays aligned with query_coords.
    """
    if included_coords.shape[0] == 0:
        raise ValidationError("cannot backfill from an empty volume")
    tree = cKDTree(included_coords)
    dists, nearest = tree.query(query_coords, k=2)
    best = nearest[:, 0]
    # second row not clearly farther: a tie, a near tie or a coincident pair
    near_tie = np.flatnonzero(~(dists[:, 1] > dists[:, 0] * (1.0 + 1e-6)))
    if near_tie.size:
        tied_coords = query_coords[near_tie]
        balls = tree.query_ball_point(tied_coords, r=dists[near_tie, 0] * (1.0 + 1e-9))
        sizes = np.fromiter(map(len, balls), dtype=np.int64, count=len(balls))
        if (sizes == 0).any():
            raise InvariantError("a backfill query found no row within its nearest distance")
        cand = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64,
                           count=sizes.sum())
        del balls  # one Python list per query: free it before the flat arrays below
        query = np.repeat(np.arange(sizes.size), sizes)
        diff = included_coords[cand] - tied_coords[query]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((included_origin[cand, 1], included_origin[cand, 0], d2, query))
        best[near_tie] = cand[order[np.cumsum(sizes) - sizes]]
    return included_semantic[best], included_instance[best]


def build_volume(
    current_coords: np.ndarray,
    current_index: int,
    past_states,
    config: VolumeConfig,
    rng,
    thing_classes=(),
) -> Volume4D:
    """Assemble one 4D volume from the aligned current scan and past states.

    past_states are ScanStates, ordered oldest to newest, that cover exactly
    the scans max(0, t - tau + 1) .. t - 1 (fewer at the start of a sequence).
    Each must have been emitted: "thing" reads its emitted classes.

    One loop picks every past point. It samples each past scan, oldest first,
    or under "stride" every stride-th one; the rest become skipped_scans. A
    sampled scan of N points gives at most k points, where k is
    ceil(fraction * N) ("importance", "stride"), its temporal_decay_shares
    entry of ceil(fraction * all past points) ("decay"), or
    (max_points - current points) // n_past ("thing"; no limit without
    max_points). "thing" takes the scan's emitted thing points, a uniform
    draw of k of them when they exceed k; the others draw
    weighted_sample(objectness, k).
    """
    n_past = len(past_states)
    if n_past > config.tau - 1:
        raise ValidationError(
            f"{n_past} past scans exceed window tau={config.tau}"
        )
    expect_first = max(0, current_index - config.tau + 1)
    if past_states and past_states[0].scan_index != expect_first:
        raise ValidationError(
            f"window must start at scan {expect_first}, got {past_states[0].scan_index}"
        )
    for pos, state in enumerate(past_states):
        if state.scan_index != expect_first + pos:
            raise ValidationError("past states must be consecutive scans")
        if state.emitted is None:
            raise ValidationError(f"past scan {state.scan_index} was never emitted")

    # each past scan's point budget, by position
    if config.strategy == "decay":
        budgets = temporal_decay_shares(
            n_past, int(np.ceil(config.fraction * sum(len(s) for s in past_states))))
    elif config.strategy == "thing":
        things = sorted({int(c) for c in thing_classes})
        if n_past and not things:
            raise ValidationError("thing class set must be non-empty")
        limit = None if config.max_points is None or not n_past else max(
            0, (config.max_points - current_coords.shape[0]) // n_past)
        budgets = [limit] * n_past
    else:
        budgets = [int(np.ceil(config.fraction * len(s))) for s in past_states]
    sampled = range(0, n_past, config.stride if config.strategy == "stride" else 1)

    # (slot, scan, xyz, point indices) per scan, oldest first: rows come out
    # sorted by (scan, point)
    blocks = []
    for pos in sampled:
        state, k = past_states[pos], budgets[pos]
        if config.strategy == "thing":
            idx = np.flatnonzero(np.isin(state.emitted, things))
            if k is not None and idx.size > k:
                idx = np.sort(rng.choice(idx, size=k, replace=False))
        else:
            idx = weighted_sample(state.fields.objectness, k, rng)
        blocks.append((pos, state.scan_index, state.coords[idx], idx))
    blocks.append((n_past, current_index, current_coords, np.arange(current_coords.shape[0])))
    coords = np.vstack([np.column_stack([xyz, np.full(idx.size, slot)])
                        for slot, _, xyz, idx in blocks])
    origin = np.vstack([np.column_stack([np.full(idx.size, scan, dtype=np.int64), idx])
                        for _, scan, _, idx in blocks])

    return Volume4D(
        coords=coords,
        origin=origin,
        window=(expect_first, current_index),
        skipped_scans=[s.scan_index for pos, s in enumerate(past_states) if pos not in sampled],
    )
