"""Cross-window identity association and the online segmentation pipeline.

Consecutive 4D windows overlap on shared scans. Instances are linked by
point-set IoU computed over the points present in BOTH windows (keyed by
(scan_index, point_index) and accumulated jointly over all common scans), so
sub-sampled past scans still associate. Matched instances inherit the previous
global id; everything else receives a fresh id from the ledger.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .clustering import (
    ClusterFields,
    ClusterParams,
    build_point_features,
    cluster_volume,
    majority_vote_classes,
)
from .errors import ValidationError
from .kitti_io import LABEL_FIELD_MAX, PanopticLabels
from .metrics import _counts, _pair_counts, greedy_match
from .volume import PastScanState, Volume4D, VolumeConfig, align_scan, backfill_skipped, build_volume

log = logging.getLogger(__name__)

_KEY_SHIFT = np.int64(32)


def _pack_keys(scan_idx, point_idx):
    return (np.asarray(scan_idx, dtype=np.int64) << _KEY_SHIFT) | np.asarray(
        point_idx, dtype=np.int64
    )


@dataclass
class WindowResult:
    """Per-point labels produced by one window, keyed by (scan, point)."""

    window_id: int
    scan_idx: np.ndarray  # (M,) int64
    point_idx: np.ndarray  # (M,) int64
    instance: np.ndarray  # (M,) int64, 0 = unassigned
    semantic: np.ndarray  # (M,) class ids
    scans: frozenset  # scan indices covered

    def __post_init__(self):
        keys = _pack_keys(self.scan_idx, self.point_idx)
        if np.unique(keys).size != keys.size:
            raise ValidationError("duplicate (scan, point) entry in window result")

    def keys(self):
        return _pack_keys(self.scan_idx, self.point_idx)


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


def associate_windows(prev: WindowResult, cur: WindowResult, ledger: TrackLedger,
                      iou_threshold: float = 0.5) -> dict:
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
        _, prev_at, cur_at = np.intersect1d(
            prev.keys(), cur.keys(), assume_unique=True, return_indices=True
        )
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
    labels: list  # PanopticLabels per scan
    n_instances: int
    stats: dict


def _fields_for_volume(volume: Volume4D, per_scan_fields, per_scan_semantic):
    """Gather per-point embeddings/variances/objectness/semantics for a volume."""
    m = len(volume)
    d = next(iter(per_scan_fields.values()))[0].shape[1]
    emb = np.empty((m, d))
    var = np.empty((m, d))
    obj = np.empty(m)
    sem = np.empty(m, dtype=np.int64)
    scans = volume.origin[:, 0]
    for s in np.unique(scans):
        sel = scans == s
        idx = volume.origin[sel, 1]
        e, v, o = per_scan_fields[int(s)]
        emb[sel] = e[idx]
        var[sel] = v[idx]
        obj[sel] = o[idx]
        sem[sel] = per_scan_semantic[int(s)][idx]
    return emb, var, obj, sem


def run_online_pipeline(
    seq,
    fields_fn,
    semantics_fn,
    volume_config: VolumeConfig,
    cluster_params: ClusterParams,
    thing_classes,
    stuff_classes,
    seed: int = 0,
    assoc_iou: float = 0.5,
    window_stride: int = 1,
) -> PipelineResult:
    """Run volume building, clustering, and association over a whole sequence.

    Args:
        seq: SequenceHandle (scans + poses).
        fields_fn: scan index -> (embeddings NxD, variances NxD, objectness N).
        semantics_fn: scan index -> predicted class id per point.
        volume_config, cluster_params: see their modules.
        thing_classes, stuff_classes: class id partitions.
        seed: drives every sampling decision; runs are seed-deterministic.
        window_stride: scans between consecutive windows. At the default 1
            every scan is emitted from the window where it is newest; larger
            strides emit intermediate scans from the next window, filling
            points the volume did not include by nearest included neighbor.

    Returns:
        PipelineResult with one PanopticLabels per scan.
    """
    volume_config.validate()
    cluster_params.validate()
    if not 1 <= window_stride <= volume_config.tau:
        raise ValidationError(
            f"window_stride must lie in [1, tau={volume_config.tau}] so every "
            "scan is covered by some window"
        )
    n_scans = len(seq)
    tau = volume_config.tau

    ledger = TrackLedger()
    prev_result = None
    past_states = {}  # scan index -> PastScanState
    scan_cache = {}  # scan index -> (aligned coords, (emb, var, obj), semantic)
    out_labels = [None] * n_scans
    peak_points = 0
    t_start = time.perf_counter()

    window_ts = list(range(0, n_scans, window_stride))
    if window_ts and window_ts[-1] != n_scans - 1:
        window_ts.append(n_scans - 1)

    emitted_to = -1
    for t in window_ts:
        window_start = max(0, t - tau + 1)
        for s in range(window_start, t + 1):
            if s in scan_cache:
                continue
            scan = seq.scan(s)
            aligned = align_scan(scan, seq.pose(s))
            emb, var, obj = fields_fn(s)
            sem_pred = np.asarray(semantics_fn(s), dtype=np.int64)
            if not (len(scan) == emb.shape[0] == obj.shape[0] == sem_pred.shape[0]):
                raise ValidationError(f"scan {s}: fields/semantics length mismatch")
            scan_cache[s] = (aligned, (emb, var, obj), sem_pred)

        states = [past_states[s] for s in range(window_start, t) if s in past_states]
        rng = np.random.default_rng([seed, t])
        volume = build_volume(
            scan_cache[t][0], t, states, volume_config, rng, thing_classes
        )
        peak_points = max(peak_points, len(volume))

        per_scan_fields = {s: scan_cache[s][1] for s in range(window_start, t + 1)}
        per_scan_sem = {s: scan_cache[s][2] for s in range(window_start, t + 1)}
        v_emb, v_var, v_obj, v_sem = _fields_for_volume(volume, per_scan_fields, per_scan_sem)

        feats, variances = build_point_features(
            volume.coords, ClusterFields(v_emb, v_var, v_obj), cluster_params
        )
        assignment = cluster_volume(feats, variances, v_obj, cluster_params)
        assignment = majority_vote_classes(assignment, v_sem, stuff_classes)

        # per-point output class: members take their instance's majority class
        out_sem = v_sem.copy()
        for cls, mem in zip(assignment.classes, assignment.members):
            out_sem[mem] = cls

        entries_scan = volume.origin[:, 0].copy()
        entries_point = volume.origin[:, 1].copy()
        entries_inst = assignment.instance_ids.copy()
        entries_sem = out_sem.copy()
        entries_coords = volume.coords[:, :3].copy()

        if volume.skipped_scans:
            # fill skipped stride scans by nearest included neighbor so the
            # window covers them for association
            fill = [
                (entries_scan, entries_point, entries_inst, entries_sem, entries_coords)
            ]
            for s in volume.skipped_scans:
                coords_s = scan_cache[s][0]
                bf_sem, bf_inst = backfill_skipped(
                    volume.coords[:, :3], volume.origin, out_sem,
                    assignment.instance_ids, coords_s,
                )
                fill.append((
                    np.full(coords_s.shape[0], s, dtype=np.int64),
                    np.arange(coords_s.shape[0], dtype=np.int64),
                    bf_inst.astype(np.int64),
                    bf_sem.astype(np.int64),
                    coords_s,
                ))
            entries_scan, entries_point, entries_inst, entries_sem, entries_coords = (
                np.concatenate([part[k] for part in fill]) for k in range(5)
            )

        cur_result = WindowResult(
            window_id=t,
            scan_idx=entries_scan,
            point_idx=entries_point,
            instance=entries_inst,
            semantic=entries_sem,
            scans=frozenset(range(window_start, t + 1)),
        )

        if prev_result is not None and (prev_result.scans & cur_result.scans):
            mapping = associate_windows(prev_result, cur_result, ledger, assoc_iou)
        else:
            mapping = {int(i): ledger.fresh() for i in np.unique(entries_inst) if i != 0}

        global_inst = np.zeros_like(entries_inst)
        for local, gid in mapping.items():
            global_inst[entries_inst == local] = gid
        cur_result.instance[:] = global_inst

        entry_origin = np.column_stack([entries_scan, entries_point])
        for s in range(max(emitted_to + 1, window_start), t + 1):
            sem_s, inst_s = _emit_scan(
                s, scan_cache[s][0], entries_scan, entries_point, entries_sem,
                global_inst, entries_coords, entry_origin,
            )
            out_labels[s] = PanopticLabels(semantic=sem_s, instance=inst_s)
            past_states[s] = PastScanState(
                scan_index=s,
                coords=scan_cache[s][0],
                objectness=scan_cache[s][1][2].astype(np.float64),
                semantic=sem_s,
                instance=inst_s,
            )
        emitted_to = t

        prev_result = cur_result
        next_start = min(t + window_stride, n_scans - 1) - tau + 1
        for s in list(past_states):
            if s < next_start:
                del past_states[s]
        for s in list(scan_cache):
            if s < next_start:
                del scan_cache[s]

    return PipelineResult(
        labels=out_labels,
        n_instances=ledger.next_id - 1,
        stats={
            "scans": n_scans,
            "peak_volume_points": peak_points,
            "seconds": time.perf_counter() - t_start,
        },
    )


def _emit_scan(s, coords_s, entries_scan, entries_point, entries_sem, entries_inst,
               entries_coords, entry_origin):
    """Final labels for scan s from a window's entries; uncovered points copy
    their nearest covered neighbor."""
    n = coords_s.shape[0]
    sem = np.full(n, -1, dtype=np.int64)
    inst = np.zeros(n, dtype=np.int64)
    mask = entries_scan == s
    sem[entries_point[mask]] = entries_sem[mask]
    inst[entries_point[mask]] = entries_inst[mask]
    missing = np.flatnonzero(sem < 0)
    if missing.size:
        bf_sem, bf_inst = backfill_skipped(
            entries_coords, entry_origin, entries_sem, entries_inst, coords_s[missing]
        )
        sem[missing] = bf_sem
        inst[missing] = bf_inst
    return sem, inst

