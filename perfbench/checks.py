"""Output checks, computed apart from the program.

Label files are decoded here with plain numpy, and the classification score
(S_cls), the association score (S_assoc) and their geometric mean (LSTQ) are
recomputed from the decoded arrays, then compared with the report that
``pan4d evaluate`` wrote. Each check returns a list of failure messages; an
empty list means it passed.
"""

from __future__ import annotations

import math
import os

import numpy as np

TOL = 1e-9


def read_label_file(path):
    """(semantic, instance) int64 arrays of one .label file."""
    words = np.fromfile(path, dtype="<u4").astype(np.int64)
    return words & 0xFFFF, words >> 16


def read_stream(label_dir, n_scans):
    """Every scan's labels of one directory, concatenated, plus per-file counts."""
    sems, insts, counts = [], [], []
    for t in range(n_scans):
        sem, inst = read_label_file(os.path.join(label_dir, f"{t:06d}.label"))
        sems.append(sem)
        insts.append(inst)
        counts.append(sem.size)
    return np.concatenate(sems), np.concatenate(insts), counts


def scores(gt, pred, class_map):
    """S_cls, S_assoc, LSTQ and the gt tube count of one prediction set.

    gt and pred are (semantic, instance) arrays over the whole sequence;
    tube ids are per sequence, so concatenating scans keeps them apart.
    """
    gs, gi = gt
    ps, pi = pred
    valid = ~np.isin(gs, class_map["ignore"])
    gs, gi, ps, pi = gs[valid], gi[valid], ps[valid], pi[valid]

    ious = []
    for c in class_map["classes"]:
        tp = np.count_nonzero((gs == c) & (ps == c))
        fp = np.count_nonzero((gs != c) & (ps == c))
        fn = np.count_nonzero((gs == c) & (ps != c))
        if tp + fp + fn:
            ious.append(tp / (tp + fp + fn))
    s_cls = float(np.mean(ious)) if ious else 0.0

    g_tube = np.isin(gs, class_map["things"]) & (gi != 0)
    p_tube = np.isin(ps, class_map["things"]) & (pi != 0)
    g_ids, g_sizes = np.unique(gi[g_tube], return_counts=True)
    p_ids, p_sizes = np.unique(pi[p_tube], return_counts=True)
    if g_ids.size == 0:
        s_assoc = 1.0
    else:
        both = g_tube & p_tube
        pairs, tpa = np.unique(np.stack([gi[both], pi[both]]), axis=1, return_counts=True)
        g_size = g_sizes[np.searchsorted(g_ids, pairs[0])]
        p_size = p_sizes[np.searchsorted(p_ids, pairs[1])]
        term = tpa * (tpa / (g_size + p_size - tpa))
        per_tube = np.zeros(g_ids.size)
        np.add.at(per_tube, np.searchsorted(g_ids, pairs[0]), term)
        s_assoc = float(np.mean(per_tube / g_sizes))
    return {"s_cls": s_cls, "s_assoc": s_assoc, "lstq": math.sqrt(s_cls * s_assoc),
            "n_gt_tubes": int(g_ids.size), "gt_tube_sizes": g_sizes}


def check_label_counts(counts, scan_sizes, what):
    if list(counts) != list(scan_sizes):
        return [f"{what}: labels per file {counts} != points per scan {list(scan_sizes)}"]
    return []


def check_report_matches(report, expected, what):
    """The report's S_cls, S_assoc and LSTQ equal the recomputation to 1e-9."""
    bad = []
    for key in ("s_cls", "s_assoc", "lstq"):
        if not abs(report[key] - expected[key]) <= TOL:
            bad.append(f"{what}: report {key} = {report[key]!r}, recomputed {expected[key]!r}")
    if report["n_gt_tubes"] != expected["n_gt_tubes"]:
        bad.append(f"{what}: report n_gt_tubes = {report['n_gt_tubes']}, "
                   f"recomputed {expected['n_gt_tubes']}")
    return bad


def check_oracle_tubes(gt, pred, n_objects, report):
    """Every gt tube is covered by one predicted id over the whole sequence,
    no two tubes share it, and the report counts one tube per scene object."""
    _, gi = gt
    _, pi = pred
    bad = []
    if report["n_gt_tubes"] != n_objects:
        bad.append(f"oracle run: n_gt_tubes = {report['n_gt_tubes']}, "
                   f"scene has {n_objects} objects")
    owners = {}
    for tube in np.unique(gi[gi != 0]):
        ids = np.unique(pi[gi == tube])
        if ids.size != 1 or ids[0] == 0:
            bad.append(f"oracle run: gt tube {tube} is covered by predicted ids {ids.tolist()}")
        elif int(ids[0]) in owners:
            bad.append(f"oracle run: gt tubes {owners[int(ids[0])]} and {tube} "
                       f"share predicted id {ids[0]}")
        else:
            owners[int(ids[0])] = int(tube)
    return bad


def split_score(k, share):
    """S_assoc after one of k equal tubes is split into shares (share, 1 - share)."""
    return 1.0 - (1.0 - share**2 - (1.0 - share) ** 2) / k


def check_corruptions(reports, perfect, k, split_share, switch_share, tube_sizes):
    """Closed-form and invariance checks on the corrupted prediction sets.

    perfect: independently computed scores of the ground truth against itself.
    """
    if np.unique(tube_sizes).size != 1:
        return [f"tubes are not of equal size: {np.unique(tube_sizes).tolist()}"]
    bad = []
    expect = {
        ("split", "s_assoc"): split_score(k, split_share),
        ("merge", "s_assoc"): 1.0 - 1.0 / k,
        ("idswitch", "s_assoc"): split_score(k, switch_share),
        ("split", "s_cls"): perfect["s_cls"],
        ("merge", "s_cls"): perfect["s_cls"],
        ("idswitch", "s_cls"): perfect["s_cls"],
        ("flip", "s_assoc"): perfect["s_assoc"],
    }
    for (name, key), value in expect.items():
        if not abs(reports[name][key] - value) <= TOL:
            bad.append(f"{name}: {key} = {reports[name][key]!r}, expected {value!r}")
    return bad


def _diff(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys differ"]
        return [m for key in a for m in _diff(a[key], b[key], f"{path}.{key}")]
    if isinstance(a, float) or isinstance(b, float):
        return [] if abs(a - b) <= TOL else [f"{path}: {a!r} != {b!r}"]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def check_permutation_invariant(report, permuted_report):
    """Relabelling the predicted ids leaves every score of the report unchanged."""
    return [f"permuted ids change {m}" for m in _diff(report, permuted_report, "report")]


def permute_ids(src_dir, dst_dir, n_scans, seed):
    """Copy a prediction set with its nonzero instance ids relabelled by a
    seeded bijection (the same one in every scan)."""
    os.makedirs(dst_dir, exist_ok=True)
    streams = [read_label_file(os.path.join(src_dir, f"{t:06d}.label")) for t in range(n_scans)]
    ids = np.unique(np.concatenate([inst for _, inst in streams]))
    ids = ids[ids != 0]
    rng = np.random.default_rng(seed)
    new_ids = rng.permutation(np.arange(1, 0xFFFF))[: ids.size]
    for t, (sem, inst) in enumerate(streams):
        out = inst.copy()
        hit = inst != 0
        out[hit] = new_ids[np.searchsorted(ids, inst[hit])]
        words = ((out << 16) | sem).astype("<u4")
        words.tofile(os.path.join(dst_dir, f"{t:06d}.label"))
