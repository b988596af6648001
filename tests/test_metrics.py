import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pan4d.errors import ValidationError
from pan4d.kitti_io import LABEL_FIELD_MAX
from pan4d.metrics import (
    EvalConfig,
    PanopticEvaluator,
    brute_force_s_assoc,
    evaluate,
    lstq,
    mots_from_counts,
    pq_from_counts,
)

from conftest import CAR, PERSON, ROAD, stream


def random_stream(rng, n_scans=6, n_points=40, n_ids=5):
    """Random aligned gt/pred label stream incl. ignore-class points."""
    classes = np.array([0, CAR, PERSON, ROAD])
    gt, pred = [], []
    for _ in range(n_scans):
        gt.append((rng.choice(classes, n_points), rng.integers(0, n_ids + 1, n_points)))
        pred.append((rng.choice(classes, n_points), rng.integers(0, n_ids + 1, n_points)))
    return stream(*gt), stream(*pred)


class TestSCls:
    def test_perfect_prediction(self, eval_config):
        gt = stream(([CAR, CAR, ROAD], [1, 1, 0]))
        report = evaluate({"": gt}, {"": gt}, eval_config)
        assert report.s_cls == 1.0
        assert report.iou_per_class == {CAR: 1.0, ROAD: 1.0}

    def test_fully_wrong_prediction(self, eval_config):
        gt = stream(([CAR, CAR], [0, 0]))
        pred = stream(([ROAD, ROAD], [0, 0]))
        mean = evaluate({"": gt}, {"": pred}, eval_config).s_cls
        assert mean == 0.0

    def test_counting_example(self, eval_config):
        # class CAR: TP=3, FP=1, FN=2 -> IoU 3/6 = 0.5
        gt = stream(([CAR, CAR, CAR, CAR, CAR, ROAD], [0] * 6))
        pred = stream(([CAR, CAR, CAR, ROAD, ROAD, CAR], [0] * 6))
        per_class = evaluate({"": gt}, {"": pred}, eval_config).iou_per_class
        assert per_class[CAR] == pytest.approx(0.5)

    def test_ignore_class_gt_points_excluded(self, eval_config):
        gt = stream(([0, CAR], [0, 1]))
        pred = stream(([ROAD, CAR], [0, 1]))  # wrong on the ignored point only
        mean = evaluate({"": gt}, {"": pred}, eval_config).s_cls
        assert mean == 1.0

    def test_stream_length_mismatch(self, eval_config):
        gt = stream(([CAR], [1]))
        pred = stream(([CAR, CAR], [1, 1]))
        with pytest.raises(ValidationError):
            evaluate({"": gt}, {"": pred}, eval_config)

    def test_absent_classes_excluded_from_mean(self, eval_config):
        gt = stream(([CAR, CAR], [1, 1]))
        report = evaluate({"": gt}, {"": gt}, eval_config)
        assert set(report.iou_per_class) == {CAR}
        assert report.s_cls == 1.0


class TestSAssoc:
    def test_perfect_tubes(self, eval_config):
        gt = stream(([CAR] * 4, [1, 1, 2, 2]), ([CAR] * 4, [1, 1, 2, 2]))
        assert evaluate({"": gt}, {"": gt}, eval_config).s_assoc == 1.0

    def test_even_split_scores_half(self, eval_config):
        # one gt tube of 2L points split into two predicted halves of L each:
        # each half contributes L * (L / 2L) -> total (1/2L) * 2 * L/2 = 0.5
        L = 6
        gt = stream(([CAR] * (2 * L), [1] * (2 * L)))
        pred = stream(([CAR] * (2 * L), [1] * L + [2] * L))
        assert evaluate({"": gt}, {"": pred}, eval_config).s_assoc == pytest.approx(0.5)

    def test_one_matched_one_missed(self, eval_config):
        gt = stream(([CAR, CAR, PERSON, PERSON], [1, 1, 2, 2]))
        pred = stream(([CAR, CAR, PERSON, PERSON], [1, 1, 0, 0]))
        assert evaluate({"": gt}, {"": pred}, eval_config).s_assoc == pytest.approx(0.5)

    def test_no_gt_tubes_defined_as_one_with_warning(self, eval_config):
        gt = stream(([ROAD, ROAD], [0, 0]))
        pred = stream(([CAR, CAR], [1, 1]))
        ev = PanopticEvaluator(eval_config)
        ev.add_scan(gt[0], pred[0])
        report = ev.result()
        assert report.s_assoc == 1.0
        assert report.warnings

    def test_empty_prediction_scores_zero(self, eval_config):
        gt = stream(([CAR, CAR], [1, 1]))
        pred = stream(([ROAD, ROAD], [0, 0]))
        assert evaluate({"": gt}, {"": pred}, eval_config).s_assoc == 0.0

    def test_pred_thing_points_with_zero_id_form_no_tube(self, eval_config):
        gt = stream(([CAR, CAR], [1, 1]))
        pred = stream(([CAR, CAR], [1, 0]))  # second point predicted but unassigned
        # single pred tube of 1 point: TPA=1, IoU = 1/(2+1-1) = 0.5 -> 0.25
        assert evaluate({"": gt}, {"": pred}, eval_config).s_assoc == pytest.approx(0.25)


class TestLstq:
    def test_reported_row_four_scans(self):
        # published S_cls/S_assoc pair for the 4-scan configuration
        assert lstq(0.6046, 0.6511) == pytest.approx(0.6274, abs=5e-4)

    def test_reported_row_two_scans(self):
        assert lstq(0.6095, 0.5879) == pytest.approx(0.5986, abs=5e-4)

    def test_zero_annihilates(self):
        for x in (0.0, 0.3, 1.0):
            assert lstq(x, 0.0) == 0.0

    def test_symmetric(self):
        assert lstq(0.3, 0.7) == lstq(0.7, 0.3)


class TestBruteForceEquivalence:
    def test_streaming_equals_set_oracle(self, eval_config):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n_scans = int(rng.integers(1, 11))
            n_points = int(rng.integers(1, 51))
            n_ids = int(rng.integers(1, 6))
            gt, pred = random_stream(rng, n_scans, n_points, n_ids)
            fast = evaluate({"": gt}, {"": pred}, eval_config).s_assoc
            slow = brute_force_s_assoc(gt, pred, eval_config)
            assert fast == pytest.approx(slow, abs=1e-12), f"trial {trial}"


# one point: (gt class, gt id, pred class, pred id), with the ignored class 0
_point = st.tuples(*[st.sampled_from([0, CAR, PERSON, ROAD]), st.integers(0, 5)] * 2)
_sequence = st.lists(st.lists(_point, min_size=1, max_size=25), min_size=1, max_size=4)


class TestMultiSequenceAssociation:
    @settings(max_examples=150)
    @given(st.lists(_sequence, min_size=1, max_size=3))
    def test_pooled_s_assoc_equals_oracle_on_concatenated_stream(self, sequences):
        # sequence k's nonzero ids move up by k * 30000 in the concatenated
        # stream, so its tubes stay apart there as they do in evaluate; the
        # last sequence's ids reach the top half of the 16-bit label field
        config = EvalConfig(classes=(CAR, PERSON, ROAD), things=frozenset({CAR, PERSON}))
        gt, pred, joined_gt, joined_pred = {}, {}, [], []
        for k, scans in enumerate(sequences):
            seq = f"s{k}"
            gt[seq], pred[seq] = [], []
            for scan in scans:
                gs, gi, ps, pi = (np.array(col, dtype=np.int64) for col in zip(*scan))
                gt[seq].append((gs, gi))
                pred[seq].append((ps, pi))
                offset = k * 30000
                joined_gt.append((gs, np.where(gi != 0, gi + offset, 0)))
                joined_pred.append((ps, np.where(pi != 0, pi + offset, 0)))
        fast = evaluate(gt, pred, config).s_assoc
        assert fast == pytest.approx(brute_force_s_assoc(joined_gt, joined_pred, config),
                                     abs=1e-12)


class TestPanopticQuality:
    def test_perfect(self, eval_config):
        gt = stream(([CAR] * 30 + [ROAD] * 10, [1] * 30 + [0] * 10))
        out = evaluate({"": gt}, {"": gt}, eval_config)
        assert out.pq == out.sq == out.rq == 1.0

    def test_single_pair_iou_06(self, eval_config):
        # |gt| = |pred| = 8, intersection 6 -> IoU 6/10 = 0.6
        gt_ids = [1] * 8 + [0] * 2
        pr_ids = [0] * 2 + [1] * 8
        gt = stream(([CAR] * 10, gt_ids))
        pred = stream(([CAR] * 10, pr_ids))
        car = evaluate({"": gt}, {"": pred}, eval_config).pq_per_class[CAR]
        assert car["pq"] == pytest.approx(0.6)
        assert car["rq"] == pytest.approx(1.0)
        assert car["sq"] == pytest.approx(0.6)

    def test_exactly_half_iou_rejected(self, eval_config):
        # intersection 4 of 6+6 -> IoU exactly 0.5: counts as both FP and FN
        gt_ids = [1] * 6 + [0] * 2
        pr_ids = [0] * 2 + [1] * 6
        gt = stream(([CAR] * 8, gt_ids))
        pred = stream(([CAR] * 8, pr_ids))
        car = evaluate({"": gt}, {"": pred}, eval_config).pq_per_class[CAR]
        assert car["tp"] == 0
        assert car["fp"] == 1
        assert car["fn"] == 1
        assert car["pq"] == 0.0

    def test_pq_dagger_uses_iou_for_stuff(self, eval_config):
        gt = stream(([CAR] * 30 + [ROAD, ROAD], [1] * 30 + [0, 0]))
        pred = stream(([CAR] * 30 + [ROAD, PERSON], [1] * 30 + [0, 0]))
        out = evaluate({"": gt}, {"": pred}, eval_config)
        # ROAD: gt {2 points}, pred {1 point}, intersection 1 -> class IoU 0.5,
        # segment IoU 0.5 is rejected by plain PQ; dagger takes the class IoU.
        # PERSON has no segments at all and drops out of the mean.
        assert out.pq_per_class[ROAD]["tp"] == 0
        assert out.pq_dagger == pytest.approx((1.0 + 0.5) / 2.0)

    def test_4d_matching_over_tubes(self, eval_config):
        # two scans, consistent tube: one 4D TP; per-scan would count two
        gt = stream(([CAR] * 4, [1] * 4), ([CAR] * 4, [1] * 4))
        ev = PanopticEvaluator(eval_config, pq_per_scan=False)
        for scan in gt:
            ev.add_scan(scan, scan)
        out = ev.result()
        assert out.pq_per_class[CAR]["tp"] == 1
        assert out.pq == 1.0

    def test_4d_matching_keeps_sequences_apart(self, eval_config):
        # thing tubes with the same id in two sequences are two tubes, and a
        # stuff class forms one segment per sequence; pooled, CAR would be one
        # 8-point tube (1 TP) and ROAD one segment of IoU 5/8 (1 TP)
        ev = PanopticEvaluator(eval_config, pq_per_scan=False)
        for _ in range(2):
            ev.add_scan(([CAR, CAR, ROAD, ROAD], [1, 1, 0, 0]),
                        ([CAR, CAR, ROAD, ROAD], [1, 1, 0, 0]), seq="a")
        ev.add_scan(([CAR, CAR, ROAD, ROAD], [1, 1, 0, 0]),
                    ([CAR, CAR, ROAD, CAR], [1, 1, 0, 0]), seq="b")
        ev.add_scan(([CAR, CAR, ROAD, ROAD], [1, 1, 0, 0]),
                    ([CAR, ROAD, CAR, CAR], [1, 0, 0, 0]), seq="b")
        per_class = ev.result().pq_per_class
        car, road = per_class[CAR], per_class[ROAD]
        # a: IoU 1; b: gt tube 4 points, pred tube 3 of them -> IoU 0.75
        assert (car["tp"], car["fp"], car["fn"]) == (2, 0, 0)
        assert car["iou_sum"] == pytest.approx(1.75)
        # a: IoU 1; b: gt 4 points, pred 1 of them -> IoU 0.25, a miss
        assert (road["tp"], road["fp"], road["fn"]) == (1, 1, 1)
        assert road["iou_sum"] == 1.0

    def test_sub_half_threshold_matching_stays_unique(self, eval_config):
        # pred splits the gt segment into 0.4 / 0.25 overlaps; at a relaxed
        # threshold only the better pair may match (greedy, each used once)
        cfg = EvalConfig(
            classes=eval_config.classes,
            things=eval_config.things,
            ignore=eval_config.ignore,
            pq_match_threshold=0.2,
        )
        gt = stream(([CAR] * 10, [1] * 10))
        pred = stream(([CAR] * 10, [2] * 5 + [3] * 3 + [0] * 2))
        car = evaluate({"": gt}, {"": pred}, cfg).pq_per_class[CAR]
        assert car["tp"] == 1
        assert car["fp"] == 1
        assert car["fn"] == 0
        assert car["iou_sum"] == pytest.approx(0.5)  # 5 / (10 + 5 - 5)

    def test_per_class_dagger_exposed(self, eval_config):
        gt = stream(([CAR] * 30 + [ROAD] * 4, [1] * 30 + [0] * 4))
        report = evaluate({"s": gt}, {"s": gt}, eval_config)
        assert report.pq_dagger_per_class == {CAR: 1.0, ROAD: 1.0}


class TestMots:
    def test_reported_car_counts(self):
        # published per-class counts for the car class, 2-scan setting
        out = mots_from_counts(tp=27553, fp=687, fn=1702, ids=1204)
        assert out["motsa"] == pytest.approx(0.88, abs=0.005)
        assert out["precision"] == pytest.approx(0.98, abs=0.005)
        assert out["recall"] == pytest.approx(0.94, abs=0.005)

    def test_reported_motorcycle_counts(self):
        out = mots_from_counts(tp=231, fp=747, fn=24, ids=9)
        assert out["motsa"] == pytest.approx(-2.06, abs=0.005)

    def test_perfect_tracking(self, eval_config):
        gt = stream(([CAR] * 30, [1] * 30), ([CAR] * 30, [1] * 30))
        out = evaluate({"": gt}, {"": gt}, eval_config).mots_per_class
        assert out[CAR]["motsa"] == 1.0
        assert out[CAR]["smotsa"] == 1.0
        assert out[CAR]["ids"] == 0

    def test_id_switch_counted_once(self, eval_config):
        gt = stream(*[([CAR] * 10, [1] * 10)] * 4)
        pred = stream(
            ([CAR] * 10, [7] * 10),
            ([CAR] * 10, [7] * 10),
            ([CAR] * 10, [8] * 10),
            ([CAR] * 10, [8] * 10),
        )
        out = evaluate({"": gt}, {"": pred}, eval_config).mots_per_class
        assert out[CAR]["ids"] == 1
        assert out[CAR]["tp"] == 4
        assert out[CAR]["motsa"] == pytest.approx(1.0 - 1.0 / 4.0)

    def test_missed_scan_then_rematch_same_id_no_switch(self, eval_config):
        gt = stream(*[([CAR] * 10, [1] * 10)] * 3)
        pred = stream(
            ([CAR] * 10, [7] * 10),
            ([ROAD] * 10, [0] * 10),  # lost in the middle
            ([CAR] * 10, [7] * 10),
        )
        out = evaluate({"": gt}, {"": pred}, eval_config).mots_per_class
        assert out[CAR]["ids"] == 0
        assert out[CAR]["fn"] == 1


class TestPtq:
    def test_zero_switches_equals_pq(self, eval_config):
        gt = stream(([CAR] * 20, [1] * 20), ([CAR] * 20, [1] * 20))
        car = evaluate({"": gt}, {"": gt}, eval_config).pq_per_class[CAR]
        assert car["ptq"] == car["pq"]

    def test_single_switched_segment_formula(self):
        # direct evaluation of the adopted formula: one TP with IoU 0.8,
        # that segment switched -> PTQ (0.8 - 1)/1, sPTQ (0.8 - 0.8)/1
        out = pq_from_counts(tp=1, fp=0, fn=0, iou_sum=0.8, ids=1, switch_iou_sum=0.8)
        assert out["ptq"] == pytest.approx(-0.2)
        assert out["sptq"] == pytest.approx(0.0)

    def test_stream_level_switch(self, eval_config):
        # two perfect-IoU matches, second one switched:
        # PTQ = (2 - 1)/2, sPTQ = (2 - 1)/2
        gt = stream(([CAR] * 10, [1] * 10), ([CAR] * 10, [1] * 10))
        pred = stream(([CAR] * 10, [5] * 10), ([CAR] * 10, [6] * 10))
        car = evaluate({"": gt}, {"": pred}, eval_config).pq_per_class[CAR]
        assert car["ptq"] == pytest.approx(0.5)
        assert car["sptq"] == pytest.approx(0.5)

    def test_perfect(self, eval_config):
        gt = stream(([CAR] * 20, [1] * 20))
        assert evaluate({"": gt}, {"": gt}, eval_config).ptq_mean == 1.0


class TestInvariances:
    def _relabel(self, labels, mapping):
        return [
            (sem, np.vectorize(lambda i: mapping.get(int(i), int(i)))(inst))
            for sem, inst in labels
        ]

    def test_pred_id_bijection_preserves_scores(self, eval_config):
        rng = np.random.default_rng(31)
        gt, pred = random_stream(rng, n_scans=5, n_points=60)
        mapping = {1: 9, 2: 14, 3: 11, 4: 13, 5: 12}
        pred2 = self._relabel(pred, mapping)

        r1 = evaluate({"": gt}, {"": pred}, eval_config)
        r2 = evaluate({"": gt}, {"": pred2}, eval_config)
        assert r1.s_assoc == pytest.approx(r2.s_assoc, abs=1e-12)
        assert r1.pq == pytest.approx(r2.pq, abs=1e-12)
        m1, m2 = r1.mots_per_class, r2.mots_per_class
        for c in m1:
            assert m1[c]["motsa"] == pytest.approx(m2[c]["motsa"], abs=1e-12)
            assert m1[c]["ids"] == m2[c]["ids"]

    def test_gt_id_bijection_preserves_s_assoc(self, eval_config):
        rng = np.random.default_rng(32)
        gt, pred = random_stream(rng, n_scans=5, n_points=60)
        gt2 = self._relabel(gt, {1: 21, 2: 22, 3: 23, 4: 24, 5: 25})
        assert evaluate({"": gt}, {"": pred}, eval_config).s_assoc == pytest.approx(
            evaluate({"": gt2}, {"": pred}, eval_config).s_assoc, abs=1e-12
        )

    def test_class_flip_within_things_preserves_s_assoc(self, eval_config):
        rng = np.random.default_rng(33)
        gt, pred = random_stream(rng, n_scans=5, n_points=60)
        flipped = [
            (np.where(sem == CAR, PERSON, np.where(sem == PERSON, CAR, sem)), inst)
            for sem, inst in pred
        ]
        assert evaluate({"": gt}, {"": pred}, eval_config).s_assoc == pytest.approx(
            evaluate({"": gt}, {"": flipped}, eval_config).s_assoc, abs=1e-12
        )

    def test_score_bounds(self, eval_config):
        rng = np.random.default_rng(34)
        for _ in range(20):
            gt, pred = random_stream(rng, n_scans=4, n_points=30)
            report = evaluate({"": gt}, {"": pred}, eval_config)
            a, c = report.s_assoc, report.s_cls
            assert 0.0 <= a <= 1.0
            assert 0.0 <= c <= 1.0
            assert 0.0 <= lstq(c, a) <= 1.0
            assert 0.0 <= report.pq <= 1.0
            assert 0.0 <= report.sq <= 1.0
            assert 0.0 <= report.rq <= 1.0
            for v in report.mots_per_class.values():
                assert v["motsa"] <= 1.0

    def test_tube_contribution_monotone_in_correct_points(self, eval_config):
        # growing a gt tube together with its matched (dominant) prediction
        # never lowers that tube's contribution; set-evaluated formula
        rng = np.random.default_rng(35)

        def tube_terms(gt_s, pred_s, tube):
            gt_pts, tubes = {}, {}
            for n, ((gs, gi), (ps, pi)) in enumerate(zip(gt_s, pred_s)):
                for k in range(len(gs)):
                    if gs[k] == 0:
                        continue
                    if gs[k] in (CAR, PERSON) and gi[k] != 0:
                        gt_pts.setdefault(int(gi[k]), set()).add((n, k))
                    if ps[k] in (CAR, PERSON) and pi[k] != 0:
                        tubes.setdefault(int(pi[k]), set()).add((n, k))
            if tube not in gt_pts:
                return None, None
            gset = gt_pts[tube]
            terms = {}
            for pid, pset in tubes.items():
                tpa = len(gset & pset)
                if tpa:
                    terms[pid] = tpa * tpa / (len(gset) + len(pset) - tpa)
            return gset, terms

        checked = 0
        for _ in range(80):
            gt, pred = random_stream(rng, n_scans=3, n_points=20, n_ids=3)
            gset, terms = tube_terms(gt, pred, 1)
            if not terms:
                continue
            checked += 1
            before = sum(terms.values()) / len(gset)
            matched = max(terms, key=terms.get)
            gs, gi = gt[0]
            ps, pi = pred[0]
            gt2 = [(np.append(gs, CAR), np.append(gi, 1))] + gt[1:]
            pred2 = [(np.append(ps, CAR), np.append(pi, matched))] + pred[1:]
            gset2, terms2 = tube_terms(gt2, pred2, 1)
            after = sum(terms2.values()) / len(gset2)
            assert after >= before - 1e-12
        assert checked > 30

    def test_miou_equals_s_cls(self, eval_config):
        rng = np.random.default_rng(36)
        gt, pred = random_stream(rng, n_scans=4, n_points=50)
        report = evaluate({"s": gt}, {"s": pred}, eval_config)
        assert report.miou == report.s_cls


def report_bytes(report, writer="write_json"):
    """The bytes report.write_json (or the writer named) puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        getattr(report, writer)(path)
        with open(path, "rb") as f:
            return f.read()


@st.composite
def relabelled(draw, increasing):
    """(gt, pred, gt', pred', config): up to three sequences, and the same
    streams with each sequence's nonzero gt ids and pred ids renamed by two
    bijections onto [1, LABEL_FIELD_MAX] (increasing ones if increasing)."""
    sequences = draw(st.lists(_sequence, min_size=1, max_size=3))
    config = EvalConfig(classes=(CAR, PERSON, ROAD), things=frozenset({CAR, PERSON}),
                        pq_match_threshold=draw(st.sampled_from([0.5, 0.7])),
                        per_sequence=draw(st.booleans()))
    names = st.lists(st.integers(1, LABEL_FIELD_MAX), min_size=5, max_size=5, unique=True)
    out = ({}, {}, {}, {})
    for k, scans in enumerate(sequences):
        maps = []
        for _ in range(2):  # gt ids, then pred ids: 1..5 -> names, 0 stays 0
            new = draw(names)
            maps.append(np.array([0, *(sorted(new) if increasing else new)]))
        streams = ([], [], [], [])
        for scan in scans:
            gs, gi, ps, pi = (np.array(col, dtype=np.int64) for col in zip(*scan))
            for stream_, labels in zip(streams, [(gs, gi), (ps, pi),
                                                 (gs, maps[0][gi]), (ps, maps[1][pi])]):
                stream_.append(labels)
        for side, stream_ in zip(out, streams):
            side[f"s{k}"] = stream_
    return (*out, config)


class TestRelabelling:
    """Instance ids only name tubes: renaming them one to one, per sequence
    and on either side, leaves the report as it was."""

    @settings(max_examples=150)
    @given(relabelled(increasing=True))
    def test_order_keeping_renames_keep_the_report_bytes(self, case):
        gt, pred, gt2, pred2, config = case
        assert report_bytes(evaluate(gt2, pred2, config)) == \
            report_bytes(evaluate(gt, pred, config))

    @settings(max_examples=150)
    @given(relabelled(increasing=False))
    def test_any_renames_keep_the_report(self, case):
        # association_score sums its tubes in the order the count table met
        # them, which renaming can change: s_assoc and lstq may move by a
        # rounding step, every other value must keep its bytes
        gt, pred, gt2, pred2, config = case
        before = json.loads(report_bytes(evaluate(gt, pred, config)))
        after = json.loads(report_bytes(evaluate(gt2, pred2, config)))
        for key in ("s_assoc", "lstq"):
            assert after.pop(key) == pytest.approx(before.pop(key), rel=1e-14, abs=1e-15)
        assert json.dumps(after, sort_keys=True) == json.dumps(before, sort_keys=True)


class TestResultIsEvaluate:
    """evaluate() is feeding the streams and calling result(): an evaluator
    fed sequence by sequence writes the same report bytes."""

    @settings(max_examples=150)
    @given(st.lists(_sequence, min_size=1, max_size=3), st.booleans(),
           st.sampled_from([0.3, 0.5, 0.7]))
    def test_fed_evaluator_writes_the_evaluate_report(self, sequences, per_sequence,
                                                      threshold):
        config = EvalConfig(classes=(CAR, PERSON, ROAD), things=frozenset({CAR, PERSON}),
                            pq_match_threshold=threshold, per_sequence=per_sequence)
        gt, pred = {}, {}
        for k, scans in enumerate(sequences):
            cols = [[np.array(col, dtype=np.int64) for col in zip(*scan)] for scan in scans]
            gt[f"s{k}"] = [(gs, gi) for gs, gi, _, _ in cols]
            pred[f"s{k}"] = [(ps, pi) for _, _, ps, pi in cols]
        ev = PanopticEvaluator(config)
        for seq in sorted(gt):
            for g, p in zip(gt[seq], pred[seq]):
                ev.add_scan(g, p, seq=seq)
        fed, whole = ev.result(), evaluate(gt, pred, config)
        for writer in ("write_text", "write_json"):
            assert report_bytes(fed, writer) == report_bytes(whole, writer)

    def test_sequence_without_scans_leaves_the_average(self, eval_config):
        config = EvalConfig(classes=eval_config.classes, things=eval_config.things,
                            per_sequence=True)
        perfect = stream(([CAR] * 4 + [ROAD] * 2, [1] * 4 + [0] * 2))
        report = evaluate({"a": perfect, "b": []}, {"a": perfect, "b": []}, config)
        assert (report.s_cls, report.s_assoc, report.lstq) == (1.0, 1.0, 1.0)


class TestEvaluate:
    def test_multi_sequence_ids_are_namespaced(self, eval_config):
        # same ids in two sequences must form separate tubes
        seq_a = stream(([CAR] * 4, [1] * 4))
        seq_b = stream(([CAR] * 4, [1] * 4))
        pred_b = stream(([CAR] * 4, [2] * 4))
        report = evaluate(
            {"a": seq_a, "b": seq_b}, {"a": seq_a, "b": pred_b}, eval_config
        )
        assert report.n_gt_tubes == 2
        assert report.s_assoc == 1.0

    def test_report_invariant_lstq(self, eval_config):
        rng = np.random.default_rng(37)
        gt, pred = random_stream(rng)
        report = evaluate({"s": gt}, {"s": pred}, eval_config)
        assert report.lstq == pytest.approx(
            np.sqrt(report.s_cls * report.s_assoc), abs=1e-15
        )

    def test_per_sequence_averaging(self, eval_config):
        cfg = EvalConfig(
            classes=eval_config.classes,
            things=eval_config.things,
            ignore=eval_config.ignore,
            per_sequence=True,
        )
        seq_a = stream(([CAR] * 4, [1] * 4))
        pred_a = stream(([CAR] * 4, [1] * 4))
        seq_b = stream(([CAR] * 4, [1] * 4))
        pred_b = stream(([CAR] * 2 + [ROAD] * 2, [1, 1, 0, 0]))
        report = evaluate({"a": seq_a, "b": seq_b}, {"a": pred_a, "b": pred_b}, cfg)
        # sequence a scores 1.0; sequence b association: tube of 4, pred tube
        # of 2 -> (1/4) * 2 * (2/4) = 0.25 -> average 0.625
        assert report.s_assoc == pytest.approx((1.0 + 0.25) / 2.0)

    def test_mismatched_sequence_sets_rejected(self, eval_config):
        with pytest.raises(ValidationError):
            evaluate({"a": []}, {"b": []}, eval_config)

    @pytest.mark.parametrize("n_gt, n_pred", [(2, 3), (3, 2)])
    def test_scan_count_mismatch_names_sequence(self, eval_config, n_gt, n_pred):
        scan = ([CAR, ROAD], [1, 0])
        gt = {"a": stream(scan, scan), "b": iter(stream(*[scan] * n_gt))}
        pred = {"a": stream(scan, scan), "b": iter(stream(*[scan] * n_pred))}
        with pytest.raises(ValidationError, match="sequence b: .*scan count"):
            evaluate(gt, pred, eval_config)

    def test_point_count_error_is_not_reported_as_scan_count(self, eval_config):
        gt = stream(([CAR, ROAD], [1, 0]), ([CAR, ROAD], [1, 0]))
        pred = stream(([CAR, ROAD], [1, 0]), ([CAR], [1]))
        with pytest.raises(ValidationError, match="points"):
            evaluate({"a": gt}, {"a": pred}, eval_config)

    def test_report_files(self, tmp_path, eval_config):
        gt = stream(([CAR] * 4 + [ROAD] * 2, [1] * 4 + [0] * 2))
        report = evaluate({"s": gt}, {"s": gt}, eval_config)
        text_path = tmp_path / "report.txt"
        json_path = tmp_path / "report.json"
        report.write_text(text_path)
        report.write_json(json_path)
        body = text_path.read_text()
        assert "lstq\t1.000000" in body
        assert f"class.{CAR}.iou\t1.000000" in body
        import json

        data = json.loads(json_path.read_text())
        assert data["lstq"] == 1.0
        assert data["per_class"][str(CAR)]["iou"] == 1.0


class TestResultIsPure:
    @pytest.mark.parametrize("pq_per_scan", [True, False])
    def test_repeated_result_is_identical(self, eval_config, pq_per_scan):
        rng = np.random.default_rng(38)
        ev = PanopticEvaluator(eval_config, pq_per_scan=pq_per_scan)
        for seq in ("a", "b"):
            gt, pred = random_stream(rng, n_scans=4, n_points=30, n_ids=2)
            gt.append(([CAR] * 6, [9] * 6))  # at least one matched tube
            pred.append(([CAR] * 6, [9] * 6))
            for g, p in zip(gt, pred):
                ev.add_scan(g, p, seq=seq)
        first = ev.result().to_dict()
        assert first == ev.result().to_dict()
        assert sum(v["tp"] for v in first["per_class"].values() if "tp" in v) > 0

    def test_no_gt_tubes_warns_once(self, eval_config):
        ev = PanopticEvaluator(eval_config)
        ev.add_scan(([ROAD, ROAD], [0, 0]), ([CAR, CAR], [1, 1]))
        first = ev.result().to_dict()
        assert first == ev.result().to_dict()
        assert len(first["warnings"]) == 1


class TestLabelRange:
    def test_negative_pred_id_is_a_validation_error(self):
        ev = PanopticEvaluator(EvalConfig((CAR, ROAD), frozenset({CAR})))
        with pytest.raises(ValidationError, match="must lie in"):
            ev.add_scan(([CAR] * 3, [1] * 3), ([CAR] * 3, [-1] * 3))

    @pytest.mark.parametrize("side", ["gt", "pred"])
    @pytest.mark.parametrize("column", ["class", "id"])
    @pytest.mark.parametrize("value", [-1, LABEL_FIELD_MAX + 1, 2**40])
    def test_every_field_checked(self, eval_config, side, column, value):
        ok = ([CAR, ROAD], [1, 0])
        bad = ([CAR, value], [1, 0]) if column == "class" else ([CAR, ROAD], [1, value])
        gt, pred = (bad, ok) if side == "gt" else (ok, bad)
        ev = PanopticEvaluator(eval_config)
        with pytest.raises(ValidationError, match=f"\\[0, {LABEL_FIELD_MAX}\\]"):
            ev.add_scan(gt, pred)
        assert not ev.table

    def test_top_of_the_field_is_counted(self, eval_config):
        top = LABEL_FIELD_MAX
        gt = stream(([CAR, CAR, ROAD], [top, top, 0]))
        pred = stream(([CAR, CAR, ROAD], [top - 1, top - 1, 0]))
        report = evaluate({"s": gt}, {"s": pred}, eval_config)
        assert report.s_assoc == 1.0
        assert report.pq_per_class[CAR]["tp"] == 1


class TestConfigValidation:
    def test_things_must_be_subset(self):
        with pytest.raises(ValidationError):
            EvalConfig(classes=(1, 2), things=frozenset({3}))

    def test_ignore_disjoint_from_classes(self):
        with pytest.raises(ValidationError):
            EvalConfig(classes=(0, 1), things=frozenset({1}), ignore=frozenset({0}))
