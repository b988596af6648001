"""Evaluation metrics for 4D panoptic label streams.

Implements the segmentation-and-tracking score (class IoU term, association
term, and their geometric mean) plus the comparison metrics: panoptic quality
(PQ/SQ/RQ/PQ-dagger), MOTS counts (TP/FP/FN/IDS, precision, recall, MOTSA,
sMOTSA), PTQ/sPTQ, and mIoU.

Points whose ground-truth class is in the ignore set are excluded from all
counts. Association is class-agnostic over thing-class tubes: a tube is the
set of (scan, point) pairs sharing one nonzero instance id, and every
overlapping gt/pred tube pair contributes TPA * IoU without any segment
matching step.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError
from .kitti_io import LABEL_FIELD_MAX, PanopticLabels

_SHIFT = 32  # (a << _SHIFT) | b packs two ids in [0, 2**31) into one int64
_MASK = (1 << _SHIFT) - 1


@dataclass(frozen=True)
class EvalConfig:
    """Class universe and thresholds used by all metrics."""

    classes: tuple  # evaluated class ids
    things: frozenset  # countable subset of classes
    ignore: frozenset = frozenset({0})
    pq_match_threshold: float = 0.5
    per_sequence: bool = False  # average stream scores per sequence

    def __post_init__(self):
        classes = set(self.classes)
        if not classes:
            raise ValidationError("classes must name at least one class")
        if not self.things <= classes:
            raise ValidationError("thing classes must be a subset of the class set")
        if self.ignore & classes:
            raise ValidationError("ignore classes must not appear in the class set")
        if not 0.0 < self.pq_match_threshold < 1.0:
            raise ValidationError("pq_match_threshold must lie in (0, 1)")

    @property
    def stuff(self):
        return frozenset(self.classes) - self.things


def _as_arrays(item):
    """Accept PanopticLabels or a (semantic, instance) pair, which must be
    equal-length 1-d arrays as in PanopticLabels."""
    if not hasattr(item, "semantic"):
        item = PanopticLabels(*(np.asarray(a, dtype=np.int64) for a in item))
    return np.asarray(item.semantic, dtype=np.int64), np.asarray(item.instance, dtype=np.int64)


def _counts(ids):
    """{id: points} over an id array."""
    uniq, cnt = np.unique(ids, return_counts=True)
    return dict(zip(uniq.tolist(), cnt.tolist()))


def _pair_counts(a, b):
    """{(a id, b id): points} over two aligned id arrays."""
    keys, cnt = np.unique((a << _SHIFT) | b, return_counts=True)
    return {(k >> _SHIFT, k & _MASK): n for k, n in zip(keys.tolist(), cnt.tolist())}


def greedy_match(sizes_a, sizes_b, overlaps, threshold):
    """Greedy unique matching of two segment sets by IoU.

    sizes_a/sizes_b map segment id -> points and overlaps maps (a id, b id) ->
    shared points. Pairs count only strictly above threshold. They are taken
    best IoU first, ties broken by (a id, b id), each segment at most once.
    Returns the accepted (iou, a id, b id) triples in acceptance order.
    """
    candidates = [
        (n / (sizes_a[a] + sizes_b[b] - n), a, b) for (a, b), n in overlaps.items()
    ]
    used_a, used_b, matches = set(), set(), []
    for iou, a, b in sorted((c for c in candidates if c[0] > threshold),
                            key=lambda c: (-c[0], c[1], c[2])):
        if a in used_a or b in used_b:
            continue
        used_a.add(a)
        used_b.add(b)
        matches.append((iou, a, b))
    return matches


def _count_matches(stat, matches, n_gt, n_pred):
    """Add one group's matched segments to its class's tp/fp/fn/iou_sum counts."""
    for iou, _, _ in matches:
        stat["tp"] += 1
        stat["iou_sum"] += iou
    stat["fp"] += n_pred - len(matches)
    stat["fn"] += n_gt - len(matches)


def _new_segment_stats(classes):
    return {c: {"tp": 0, "fp": 0, "fn": 0, "iou_sum": 0.0, "ids": 0, "switch_iou": 0.0}
            for c in classes}


def _match_segments(seg, table, config):
    """Match the segments a count table holds, and add them to seg.

    table maps (seq, gt id, pred id, gt class, pred class) to points. A thing
    class has one segment per (seq, id) on each side, and points with id 0
    are in none; a stuff class has one segment per (seq, class). The thing
    segments of a class are matched together, and a stuff segment only with
    its counterpart, sequence by sequence in sorted order. Returns the
    accepted thing matches as (class, iou, (seq, gt id), (seq, pred id)).
    """
    things, stuff = config.things, config.stuff

    def segment(s, inst, cls):  # (group, segment id), or None
        if cls in things:
            return ((cls,), (s, inst)) if inst else None
        return ((cls, s), s) if cls in stuff else None

    groups = defaultdict(lambda: (defaultdict(int), defaultdict(int), defaultdict(int)))
    for (s, g, p, gc, pc), n in table.items():
        a, b = segment(s, g, gc), segment(s, p, pc)
        if a:
            groups[a[0]][0][a[1]] += n
        if b:
            groups[b[0]][1][b[1]] += n
        if a and b and a[0] == b[0]:
            groups[a[0]][2][(a[1], b[1])] += n
    matches = []
    for group in sorted(groups):
        c, (gt_sizes, pred_sizes, overlaps) = group[0], groups[group]
        found = greedy_match(gt_sizes, pred_sizes, overlaps, config.pq_match_threshold)
        _count_matches(seg[c], found, len(gt_sizes), len(pred_sizes))
        if c in things:
            matches += [(c, *m) for m in found]
    return matches


_NO_TUBES = "no ground-truth tubes; association score defined as 1.0"


def _mean(values):
    return float(np.mean(values)) if values else 0.0


class PanopticEvaluator:
    """Streaming accumulator; feed scans in temporal order per sequence.

    Its state is one count table plus, with pq_per_scan, the segment stats
    matched scan by scan (`seg`, and `_last_match`: each gt track's last pred
    id, for id switches). The table maps (seq, gt id, pred id, gt class, pred
    class) to the number of points with those labels whose gt class is not
    ignored. `add_scan` fills it from one `np.isin` (the ignore mask) and one
    `np.unique` over the four fields packed 16 bits each into a uint64, so
    classes and ids must lie in [0, LABEL_FIELD_MAX], the `.label` range.
    Class IoUs, tubes and segments are all sums over its rows. result() reads
    the counts without changing them, so it may be called at any point and
    any number of times.
    """

    def __init__(self, config: EvalConfig, pq_per_scan: bool = True):
        self.config = config
        self.pq_per_scan = pq_per_scan
        self._ignore = np.array(sorted(config.ignore), dtype=np.int64)
        self.table = Counter()  # (seq, gt id, pred id, gt class, pred class) -> points
        self.seg = _new_segment_stats(config.classes)
        self._last_match = {}  # (seq, class, gt id) -> pred id
        self.sequences = set()  # every seq passed to add_scan

    # -- accumulation ------------------------------------------------------

    def add_scan(self, gt, pred, seq=""):
        gt_sem, gt_inst = _as_arrays(gt)
        pr_sem, pr_inst = _as_arrays(pred)
        if gt_sem.shape != pr_sem.shape:
            raise ValidationError(
                f"gt stream has {gt_sem.shape[0]} points, pred {pr_sem.shape[0]}"
            )
        labels = (gt_inst, pr_inst, gt_sem, pr_sem)  # key fields, most significant first
        if any(a.size and (a.min() < 0 or a.max() > LABEL_FIELD_MAX) for a in labels):
            raise ValidationError(f"class and instance ids must lie in [0, {LABEL_FIELD_MAX}]")
        g, p, gc, pc = (a.view(np.uint64) for a in labels)
        key = (g << 48 | p << 32 | gc << 16 | pc)[~np.isin(gt_sem, self._ignore)]
        keys, counts = np.unique(key, return_counts=True)
        fields = [(keys >> shift & LABEL_FIELD_MAX).tolist() for shift in (48, 32, 16, 0)]
        scan = {(seq, *key): n for *key, n in zip(*fields, counts.tolist())}
        self.table.update(scan)
        self.sequences.add(seq)
        if not self.pq_per_scan:
            return
        for c, iou, (_, g), (_, p) in _match_segments(self.seg, scan, self.config):
            track = (seq, c, g)
            last = self._last_match.get(track)
            if last is not None and last != p:
                self.seg[c]["ids"] += 1
                self.seg[c]["switch_iou"] += iou
            self._last_match[track] = p

    # -- results -----------------------------------------------------------

    def _stream_scores(self, seq=None):
        """One pass over the table rows of all sequences, or of sequence seq:
        (class IoUs, gt tube sizes, pred tube sizes, S_assoc).

        Tube sizes map (seq, id) to points. Every sum runs in the order the
        table first counted its rows. S_assoc is the TPA-weighted tube IoU
        averaged over gt tubes, 1.0 when there are none."""
        things = self.config.things
        tp, fp, fn = defaultdict(int), defaultdict(int), defaultdict(int)
        gt, pred, overlaps = defaultdict(int), defaultdict(int), defaultdict(int)
        for (s, g, p, gc, pc), n in self.table.items():
            if seq is not None and s != seq:
                continue
            if gc == pc:
                tp[gc] += n
            else:
                fp[pc] += n
                fn[gc] += n
            g_tube, p_tube = g != 0 and gc in things, p != 0 and pc in things
            if g_tube:
                gt[(s, g)] += n
            if p_tube:
                pred[(s, p)] += n
            if g_tube and p_tube:
                overlaps[(s, g, p)] += n
        iou = {c: tp[c] / (tp[c] + fp[c] + fn[c])
               for c in self.config.classes if tp[c] + fp[c] + fn[c]}
        inner = defaultdict(float)
        for (s, g, p), tpa in overlaps.items():
            inner[(s, g)] += tpa * (tpa / (gt[(s, g)] + pred[(s, p)] - tpa))
        total = 0.0
        for key, gt_size in gt.items():
            total += inner.get(key, 0.0) / gt_size
        return iou, gt, pred, total / len(gt) if gt else 1.0

    def result(self) -> "MetricReport":
        """The report. With config.per_sequence, s_cls (= miou), s_assoc and
        lstq average the values of each sequence add_scan has seen; every
        other field is pooled over all sequences."""
        seg = self.seg
        if not self.pq_per_scan:  # one segment per tube of a whole sequence
            seg = _new_segment_stats(self.config.classes)
            _match_segments(seg, self.table, self.config)
        iou_per_class, gt_tubes, pred_tubes, s_assoc = self._stream_scores()
        s_cls = _mean(list(iou_per_class.values()))
        if self.config.per_sequence and self.sequences:
            per_seq = [self._stream_scores(s) for s in sorted(self.sequences)]
            s_cls = _mean([_mean(list(iou.values())) for iou, *_ in per_seq])
            s_assoc = _mean([score for *_, score in per_seq])
        things_iou = [v for c, v in iou_per_class.items() if c in self.config.things]
        stuff_iou = [v for c, v in iou_per_class.items() if c in self.config.stuff]

        pq_per_class, mots_per_class = {}, {}
        for c in self.config.classes:
            stat = seg[c]
            tp, fp, fn, ids, iou_sum = (stat[k] for k in ("tp", "fp", "fn", "ids", "iou_sum"))
            if not tp + fp + fn:
                continue
            q = pq_from_counts(tp, fp, fn, iou_sum, ids, stat["switch_iou"])
            pq_per_class[c] = {"pq": q["pq"], "sq": q["sq"], "rq": q["rq"],
                               "tp": tp, "fp": fp, "fn": fn, "iou_sum": iou_sum}
            if c in self.config.things:
                pq_per_class[c].update(ptq=q["ptq"], sptq=q["sptq"], ids=ids)
                mots_per_class[c] = {
                    "tp": tp, "fp": fp, "fn": fn, "ids": ids, "gt_segments": tp + fn,
                    **mots_from_counts(tp, fp, fn, ids, iou_sum),
                }
        mots_per_class = dict(sorted(mots_per_class.items()))

        # PQ-dagger: stuff classes contribute their plain class IoU
        pq_dagger_per_class = {}
        for c in self.config.classes:
            if c in self.config.things:
                if c in pq_per_class:
                    pq_dagger_per_class[c] = pq_per_class[c]["pq"]
            elif c in iou_per_class:
                pq_dagger_per_class[c] = iou_per_class[c]

        return MetricReport(
            s_cls=s_cls,
            s_assoc=s_assoc,
            lstq=lstq(s_cls, s_assoc),
            miou=s_cls,
            iou_per_class=iou_per_class,
            iou_things_mean=_mean(things_iou),
            iou_stuff_mean=_mean(stuff_iou),
            pq=_mean([v["pq"] for v in pq_per_class.values()]),
            sq=_mean([v["sq"] for v in pq_per_class.values()]),
            rq=_mean([v["rq"] for v in pq_per_class.values()]),
            pq_dagger=_mean(list(pq_dagger_per_class.values())),
            pq_dagger_per_class=pq_dagger_per_class,
            pq_per_class=pq_per_class,
            mots_per_class=mots_per_class,
            motsa_mean=_mean([v["motsa"] for v in mots_per_class.values()]),
            smotsa_mean=_mean([v["smotsa"] for v in mots_per_class.values()]),
            ptq_mean=_mean([v["ptq"] for v in pq_per_class.values() if "ptq" in v]),
            sptq_mean=_mean([v["sptq"] for v in pq_per_class.values() if "sptq" in v]),
            n_gt_tubes=len(gt_tubes),
            n_pred_tubes=len(pred_tubes),
            warnings=[] if gt_tubes else [_NO_TUBES],
        )


@dataclass
class MetricReport:
    """Aggregate and per-class results plus the counts behind them.

    The scalar fields come first, in report order; `scalars()` reads them
    from the field list."""

    lstq: float
    s_assoc: float
    s_cls: float
    miou: float
    iou_things_mean: float
    iou_stuff_mean: float
    pq: float
    pq_dagger: float
    sq: float
    rq: float
    motsa_mean: float
    smotsa_mean: float
    ptq_mean: float
    sptq_mean: float
    n_gt_tubes: int
    n_pred_tubes: int
    iou_per_class: dict
    pq_dagger_per_class: dict
    pq_per_class: dict
    mots_per_class: dict
    warnings: list = field(default_factory=list)

    def scalars(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.type in ("float", "int")}

    def _class_ids(self):
        return sorted(
            set(self.iou_per_class) | set(self.pq_per_class) | set(self.pq_dagger_per_class)
        )

    def to_dict(self):
        out = self.scalars()
        out["per_class"] = {
            str(c): {
                "iou": self.iou_per_class.get(c),
                "pq_dagger": self.pq_dagger_per_class.get(c),
                **self.pq_per_class.get(c, {}),
                **{f"mots_{k}": v for k, v in self.mots_per_class.get(c, {}).items()},
            }
            for c in self._class_ids()
        }
        out["warnings"] = self.warnings
        return out

    def write_text(self, path):
        """Flat key<TAB>value table, one line per metric: the entries of
        `to_dict()`, a class's as class.<id>.<key> (mots_<k> as mots.<k>),
        without the values a class does not have (None)."""
        report = self.to_dict()
        lines = [f"{key}\t{_fmt(val)}" for key, val in self.scalars().items()]
        for c, entries in report["per_class"].items():
            lines += [f"class.{c}.{k.replace('mots_', 'mots.', 1)}\t{_fmt(v)}"
                      for k, v in entries.items() if v is not None]
        lines += [f"warning\t{w}" for w in report["warnings"]]
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


# -- formulas and whole-stream evaluation ------------------------------------


_END = object()  # fill value past the end of the shorter stream


def _feed(ev, gt_stream, pred_stream, seq=""):
    """Add aligned scan pairs to ev one at a time, as the streams yield them."""
    for gt, pred in itertools.zip_longest(gt_stream, pred_stream, fillvalue=_END):
        if gt is _END or pred is _END:
            raise ValidationError(
                f"sequence {seq or '.'}: gt and pred streams differ in scan count"
            )
        ev.add_scan(gt, pred, seq=seq)


def lstq(s_cls_value: float, s_assoc_value: float) -> float:
    """Geometric mean of the classification and association terms."""
    return math.sqrt(s_cls_value * s_assoc_value)


def brute_force_s_assoc(gt_stream, pred_stream, config: EvalConfig) -> float:
    """Association score via explicit point-id sets; the test oracle.

    Materializes every tube as a python set of (scan, point) pairs and
    evaluates the association formula with nested set intersections. Intended
    for small inputs (<= 1e4 points).
    """
    things = config.things
    ignore = config.ignore
    gt_tubes = defaultdict(set)
    pr_tubes = defaultdict(set)
    for n, (gt, pred) in enumerate(zip(gt_stream, pred_stream)):
        gt_sem, gt_inst = _as_arrays(gt)
        pr_sem, pr_inst = _as_arrays(pred)
        for k in range(gt_sem.shape[0]):
            if int(gt_sem[k]) in ignore:
                continue
            if int(gt_sem[k]) in things and gt_inst[k] != 0:
                gt_tubes[int(gt_inst[k])].add((n, k))
            if int(pr_sem[k]) in things and pr_inst[k] != 0:
                pr_tubes[int(pr_inst[k])].add((n, k))
    if not gt_tubes:
        return 1.0
    total = 0.0
    for gset in gt_tubes.values():
        inner = 0.0
        for pset in pr_tubes.values():
            tpa = len(gset & pset)
            if tpa == 0:
                continue
            inner += tpa * (tpa / (len(gset) + len(pset) - tpa))
        total += inner / len(gset)
    return total / len(gt_tubes)


def mots_from_counts(tp: int, fp: int, fn: int, ids: int, iou_sum: float | None = None):
    """MOTS scores straight from counts (the formula layer).

    The counts are inputs, not recomputed. sMOTSA requires iou_sum.
    """
    gt_segments = tp + fn
    out = {
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "motsa": 1.0 - (fp + fn + ids) / gt_segments if gt_segments else 0.0,
    }
    if iou_sum is not None:
        out["smotsa"] = (iou_sum - fp - ids) / gt_segments if gt_segments else 0.0
    return out


def pq_from_counts(tp: int, fp: int, fn: int, iou_sum: float, ids: int = 0,
                   switch_iou_sum: float = 0.0):
    """PQ, SQ, RQ, PTQ and sPTQ straight from segment counts (the formula layer).

    All five share the denominator tp + fp/2 + fn/2, so at least one count
    must be nonzero. PTQ subtracts the id switch count from iou_sum, sPTQ the
    IoU of the switched segments instead.
    """
    denom = tp + 0.5 * fp + 0.5 * fn
    return {
        "pq": iou_sum / denom,
        "sq": iou_sum / tp if tp else 0.0,
        "rq": tp / denom,
        "ptq": (iou_sum - ids) / denom,
        "sptq": (iou_sum - switch_iou_sum) / denom,
    }


def evaluate(gt_sequences: dict, pred_sequences: dict, config: EvalConfig) -> MetricReport:
    """Full report over one or more sequences of aligned label streams.

    gt ids are namespaced per sequence (tubes never cross sequences); class
    counts are pooled before the IoU, or, with config.per_sequence, the
    stream scores are averaged over sequences (see PanopticEvaluator.result).
    Streams are consumed one scan pair at a time.
    """
    if set(gt_sequences) != set(pred_sequences):
        raise ValidationError("gt and pred sequence sets differ")
    ev = PanopticEvaluator(config)
    for seq in sorted(gt_sequences):
        _feed(ev, gt_sequences[seq], pred_sequences[seq], seq)
    return ev.result()
