"""Cross-window identity association and the online segmentation pipeline.

Consecutive 4D windows overlap on shared scans. Instances are linked by
point-set IoU computed over the points present in BOTH windows (keyed by
(scan_index, point_index) and accumulated jointly over all common scans), so
sub-sampled past scans still associate. Matched instances inherit the previous
global id; everything else receives a fresh id from the ledger.

Each window's label table is its WindowResult: a row per volume point with
its world coordinates, (scan, point) origin, class and instance, sorted by
(scan, point) as `build_volume` emits them. The scans that the stride
strategy skips are filled by nearest row and merged in (not appended): each
one's rows are inserted before the first row of a later scan, so the window
covers them for association and the order holds. Each scan is emitted once,
by the first window that contains it: its rows are one slice of the table,
and its other points copy their nearest row, with distance ties going to the
lowest (scan, point). Emitted labels go to the caller at once; the pipeline keeps one
ScanState per scan of the current window, built when the scan is loaded, and
records the scan's emitted classes in it when it is emitted.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .clustering import build_point_features, cluster_volume, majority_vote_classes
from .errors import ValidationError
from .kitti_io import LABEL_FIELD_MAX, PanopticLabels
from .metrics import _counts, _pair_counts, greedy_match
from .volume import ScanState, Volume4D, align_scan, backfill_skipped, build_volume

log = logging.getLogger(__name__)


@dataclass
class WindowResult:
    """One window's label table: a row per point, in strictly increasing
    (scan, point) order, with the columns of Volume4D and backfill_skipped."""

    window_id: int
    coords: np.ndarray | None  # (M, 3) world xyz; the pipeline drops them once emitted
    origin: np.ndarray  # (M, 2) int64: (scan_index, point_index)
    semantic: np.ndarray  # (M,) class ids
    instance: np.ndarray  # (M,) int64, 0 = unassigned
    scans: frozenset  # scan indices covered

    def __post_init__(self):
        keys = self.keys()
        if not (keys[1:] > keys[:-1]).all():
            raise ValidationError("window result rows repeat or leave (scan, point) order")

    def keys(self):
        """(scan << 32) | point per row."""
        origin = np.asarray(self.origin, dtype=np.int64)
        return (origin[:, 0] << 32) | origin[:, 1]


@dataclass
class TrackLedger:
    """Issues fresh global instance ids; ids are never reused in a sequence."""

    next_id: int = 1

    def fresh(self) -> int:
        gid = self.next_id
        if gid > LABEL_FIELD_MAX:
            raise ValidationError(f"instance id {gid} exceeds the 16-bit label instance field")
        self.next_id += 1
        return gid


def join_sorted(a: np.ndarray, b: np.ndarray):
    """(a_at, b_at): where the values shared by the strictly increasing
    arrays a and b sit in each, in increasing value order. The same as
    np.intersect1d(a, b, assume_unique=True, return_indices=True)[1:], by one
    searchsorted of b into a instead of a sort of both."""
    pos = np.searchsorted(a, b)
    b_at = np.flatnonzero(a[np.minimum(pos, a.size - 1)] == b) if a.size else pos[:0]
    return pos[b_at], b_at


def associate_windows(prev: WindowResult, cur: WindowResult, ledger: TrackLedger,
                      iou_threshold: float) -> dict:
    """Map every cur instance id to a global id by overlap with prev.

    IoU is computed over points present in both windows, jointly over all
    common scans. Pairs are accepted greedily in descending IoU (ties broken
    by (prev id, cur id)), each instance used at most once, and only strictly
    above iou_threshold. Unmatched cur instances draw fresh ids.
    """
    cur_ids = sorted(int(i) for i in np.unique(cur.instance) if i != 0)
    mapping = {}
    if not prev.scans & cur.scans:
        log.warning(
            "windows %d and %d share no scans; all ids start fresh",
            prev.window_id, cur.window_id,
        )
    else:
        prev_at, cur_at = join_sorted(prev.keys(), cur.keys())
        a = prev.instance[prev_at]
        b = cur.instance[cur_at]
        both = (a != 0) & (b != 0)
        matches = greedy_match(_counts(a[a != 0]), _counts(b[b != 0]),
                               _pair_counts(a[both], b[both]), iou_threshold)
        mapping = {pb: pa for _, pa, pb in matches}

    for cid in cur_ids:
        if cid not in mapping:
            mapping[cid] = ledger.fresh()
    return mapping


@dataclass
class PipelineResult:
    labels: list | None  # PanopticLabels per scan; None when they went to `emit`
    n_instances: int
    stats: dict


def _load_scan(seq, s, fields_fn, semantics_fn):
    """The ScanState of scan s; a value that its fields or the state reject
    fails naming the scan."""
    try:
        return ScanState(s, align_scan(seq.scan(s), seq.pose(s)), fields_fn(s),
                         np.asarray(semantics_fn(s), dtype=np.int64))
    except ValidationError as exc:
        raise ValidationError(f"scan {s}: {exc}") from exc


def _scan_rows(origin, s):
    """The rows of scan s, as a slice of a table sorted by (scan, point)."""
    return slice(*np.searchsorted(origin[:, 0], [s, s + 1]))


def _fields_for_volume(volume: Volume4D, scans):
    """The (embeddings, variances, objectness, predicted class) of every volume
    row, in row order: one take per scan of the window, as float64 and int64,
    the types clustering computes in. Embeddings and variances are None
    unless every scan of the window has them, and the scans that have them
    must share one embedding dimension."""
    states = [scans[s] for s in range(volume.window[0], volume.window[1] + 1)]
    dims = [(st.scan_index, st.fields.embeddings.shape[1])
            for st in states if st.fields.embeddings is not None]
    for (a, da), (b, db) in zip(dims, dims[1:]):
        if da != db:
            raise ValidationError(
                f"scan {a} has {da}-d embeddings and scan {b} {db}-d; "
                "the scans of a window must share one embedding dimension"
            )
    points = [volume.origin[_scan_rows(volume.origin, st.scan_index), 1] for st in states]
    columns = zip(*[(st.fields.embeddings, st.fields.variances, st.fields.objectness,
                     st.semantic) for st in states])
    return tuple(None if any(c is None for c in col)
                 else np.concatenate([c[p] for c, p in zip(col, points)], dtype=dtype)
                 for col, dtype in zip(columns, (np.float64,) * 3 + (np.int64,)))


def run_online_pipeline(seq, fields_fn, semantics_fn, config, emit=None) -> PipelineResult:
    """Run volume building, clustering, and association over a whole sequence.

    Args:
        seq: SequenceHandle (scans + poses).
        fields_fn: scan index -> ClusterFields of its N points; its
            construction is the one check of the field values. Coordinate-only
            fields (embeddings None) suit the "xyz" and "xyzt" feature modes.
        semantics_fn: scan index -> predicted class id per point.
        config: the run's RunConfig, checked when it was built: its volume
            and cluster records, the things and stuff of its eval_config, and
            seed, assoc_iou and window_stride. At window stride 1 every scan
            is emitted from the window where it is newest; larger strides emit
            intermediate scans from the next window, filling points the
            volume did not include by nearest included neighbor.
        emit: called as emit(scan index, PanopticLabels) once per scan, in
            increasing scan order, as soon as the scan's labels are final. The
            pipeline keeps no labels of scans older than the current window,
            so memory holds O(tau) scans whatever the sequence length. An
            exception from emit ends the run.

    Returns:
        PipelineResult with one PanopticLabels per scan in `labels`, or, when
        emit is given, with `labels` None.
    """
    n_scans = len(seq)
    tau = config.volume.tau
    things, stuff = config.eval_config.things, config.eval_config.stuff

    ledger = TrackLedger()
    prev_result = None
    scans = {}  # scan index -> ScanState, for the scans of the current window
    labels = None
    if emit is None:
        labels = [None] * n_scans
        emit = labels.__setitem__
    peak_points = 0
    t_start = time.perf_counter()

    window_ts = list(range(0, n_scans, config.window_stride))
    if window_ts and window_ts[-1] != n_scans - 1:
        window_ts.append(n_scans - 1)

    for t in window_ts:
        window = range(max(0, t - tau + 1), t + 1)
        scans = {s: scans[s] for s in window if s in scans}  # let go before loading
        for s in window:
            if s not in scans:
                scans[s] = _load_scan(seq, s, fields_fn, semantics_fn)

        states = [scans[s] for s in window[:-1] if scans[s].emitted is not None]
        rng = np.random.default_rng([config.seed, t])
        volume = build_volume(scans[t].coords, t, states, config.volume, rng, things)
        peak_points = max(peak_points, len(volume))

        v_emb, v_var, v_obj, sem = _fields_for_volume(volume, scans)
        # each scan's fields were checked when built; cluster_volume checks the volume's inputs
        feats, variances = build_point_features(volume.coords, v_emb, v_var, config.cluster)
        assignment = cluster_volume(feats, variances, v_obj, config.cluster)
        assignment = majority_vote_classes(assignment, sem, stuff)
        ids = assignment.instance_ids
        voted = ids > 0  # members take their instance's majority class
        sem[voted] = np.asarray(assignment.classes, dtype=np.int64)[ids[voted] - 1]

        # the label table: one row per volume point and per point of the
        # skipped stride scans (filled by its nearest volume row); each
        # skipped scan's rows go in before the first row of a later scan
        table = (volume.coords[:, :3], volume.origin, sem, assignment.instance_ids)
        if volume.skipped_scans:
            fill = np.concatenate([scans[s].coords for s in volume.skipped_scans])
            sizes = [scans[s].coords.shape[0] for s in volume.skipped_scans]
            fill_origin = np.column_stack([np.repeat(volume.skipped_scans, sizes),
                                           np.concatenate([np.arange(n) for n in sizes])])
            fill_table = (fill, fill_origin, *backfill_skipped(*table, fill))
            at = np.searchsorted(volume.origin[:, 0], fill_origin[:, 0])
            table = tuple(np.insert(col, at, new, axis=0) for col, new in zip(table, fill_table))
        cur_result = WindowResult(t, *table, scans=frozenset(window))

        try:
            if prev_result is not None and (prev_result.scans & cur_result.scans):
                mapping = associate_windows(prev_result, cur_result, ledger, config.assoc_iou)
            else:
                mapping = {i: ledger.fresh() for i in range(1, assignment.n_instances + 1)}
        except ValidationError as exc:
            raise ValidationError(f"window ending at scan {t}: {exc}") from exc
        to_global = np.zeros(assignment.n_instances + 1, dtype=np.int64)
        for local, gid in mapping.items():
            to_global[local] = gid
        cur_result.instance = to_global[cur_result.instance]

        for s in window:
            if scans[s].emitted is None:
                scan_labels = _emit_scan(s, scans[s].coords, cur_result)
                scans[s].emitted = scan_labels.semantic
                emit(s, scan_labels)
        cur_result.coords = None  # association reads none: free them before the next window
        prev_result = cur_result

    return PipelineResult(
        labels=labels,
        n_instances=ledger.next_id - 1,
        stats={
            "scans": n_scans,
            "peak_volume_points": peak_points,
            "seconds": time.perf_counter() - t_start,
        },
    )


def _emit_scan(s, coords_s, table: WindowResult):
    """Final labels for scan s from a window's label table; points without a
    row copy their nearest row."""
    sem = np.full(coords_s.shape[0], -1, dtype=np.int64)
    inst = np.zeros(coords_s.shape[0], dtype=np.int64)
    rows = _scan_rows(table.origin, s)
    sem[table.origin[rows, 1]] = table.semantic[rows]
    inst[table.origin[rows, 1]] = table.instance[rows]
    missing = np.flatnonzero(sem < 0)
    if missing.size:
        sem[missing], inst[missing] = backfill_skipped(
            table.coords, table.origin, table.semantic, table.instance, coords_s[missing])
    return PanopticLabels(semantic=sem, instance=inst)
