"""Golden digests of evaluation reports on fixed label streams.

Each case is an input × evaluation mode × PQ match threshold, and its digests
are the sha256 of the bytes `write_text` and `write_json` put in a file. They
were recorded from the evaluator as it stood before its counts were kept in
one table; a change that should not alter reports must leave every one of
them unchanged.

The inputs hold several sequences each, with id switches, merged tubes,
class flips, scans with no tubes on one side or both, and points of the
ignored class. One of them uses the 19-class SemanticKITTI map.
"""

import hashlib

import numpy as np
import pytest

from pan4d.kitti_io import PanopticLabels
from pan4d.metrics import EvalConfig, PanopticEvaluator, evaluate
from pan4d.synth import ObjectSpec, SceneSpec, corrupt, generate_sequence

from conftest import CAR, PERSON, ROAD

# SemanticKITTI's 19 evaluated classes (raw label ids); the first 8 are things
KITTI_THINGS = (10, 11, 15, 18, 20, 30, 31, 32)
KITTI_STUFF = (40, 44, 48, 49, 50, 51, 70, 71, 72, 80, 81)


def _scene(seed, n_scans=6):
    return SceneSpec(
        n_scans=n_scans,
        objects=(
            ObjectSpec(class_id=CAR, n_points=40, sigma=0.3, start=(8.0, 4.0, 5.0),
                       velocity=(-0.5, 0.1, 0.0)),
            ObjectSpec(class_id=PERSON, n_points=25, sigma=0.2, start=(-8.0, -4.0, 5.0),
                       velocity=(0.4, 0.0, 0.0)),
            ObjectSpec(class_id=CAR, n_points=30, sigma=0.3, start=(0.0, 12.0, 6.0)),
        ),
        background_points=60,
        seed=seed,
    )


def _no_tubes(labels, scan):
    """Copy of the stream whose scan `scan` has every point on the background."""
    out = [PanopticLabels(semantic=l.semantic.copy(), instance=l.instance.copy())
           for l in labels]
    out[scan].semantic[:] = ROAD
    out[scan].instance[:] = 0
    return out


def synth_sequences():
    """Three synthetic sequences and their corrupted predictions."""
    a = generate_sequence(_scene(seed=3)).labels
    gt_a = corrupt(a, {"kind": "drop_points", "fraction": 0.1, "seed": 1})  # ignored points
    pred_a = corrupt(a, {"kind": "id_switch", "tube": 1, "scan": 2})
    pred_a = corrupt(pred_a, {"kind": "flip_class", "fraction": 0.3,
                              "things": [CAR, PERSON], "seed": 2})
    pred_a = corrupt(pred_a, {"kind": "drop_points", "fraction": 0.05, "seed": 3})

    b = generate_sequence(_scene(seed=4, n_scans=5)).labels
    gt_b = _no_tubes(b, 1)  # no tubes on either side of scan 1
    pred_b = corrupt(_no_tubes(b, 1), {"kind": "merge_tubes", "keep": 2, "absorb": 3})
    pred_b = corrupt(pred_b, {"kind": "split_tube", "tube": 1, "scan": 3, "new_id": 9})
    pred_b = _no_tubes(pred_b, 4)  # every gt tube of scan 4 missed

    c = generate_sequence(_scene(seed=5, n_scans=8)).labels
    pred_c = corrupt(c, {"kind": "drop_points", "fraction": 0.3, "seed": 4})
    for first in (1, 2, 3):  # each tube takes a new, lower pred id at every scan
        tube = first
        for scan in range(1, 8):
            pred_c = corrupt(pred_c, {"kind": "split_tube", "tube": tube, "scan": scan,
                                      "new_id": 10 * first + 10 - scan})
            tube = 10 * first + 10 - scan
    classes = {"classes": (CAR, PERSON, ROAD), "things": frozenset({CAR, PERSON})}
    return {"a": gt_a, "b": gt_b, "c": c}, {"a": pred_a, "b": pred_b, "c": pred_c}, classes


def kitti19_sequences():
    """Six seeded random sequences over the 19-class map.

    Each scan is a few thing segments (ids persist across scans, so they form
    tubes), three stuff segments and ignored points; predictions reassign a
    random share of points to another segment of the scan, flip the class of
    some segments, switch some ids and rename all pred ids of some scans.
    """
    rng = np.random.default_rng(19)
    gt, pred = {}, {}
    for seq, n_scans in (("00", 5), ("01", 3), ("02", 4), ("03", 2), ("04", 6), ("05", 3)):
        gt[seq], pred[seq] = [], []
        classes = rng.choice(KITTI_THINGS, 5)
        for _ in range(n_scans):
            n_things = int(rng.integers(0, 5))  # 0: a scan with no gt tubes
            segments = [(classes[k], k + 1) for k in range(n_things)]
            segments += [(c, 0) for c in rng.choice(KITTI_STUFF, 3, replace=False)]
            segments = np.array(segments + [(0, 0)], dtype=np.int64)
            n = int(rng.integers(20, 80))
            g = segments[rng.integers(0, len(segments), n)]
            p = g.copy()
            noisy = rng.random(n) < rng.uniform(0.05, 0.5)
            p[noisy] = segments[rng.integers(0, len(segments), int(noisy.sum()))]
            if rng.random() < 0.3:
                p[p[:, 0] == classes[0], 0] = KITTI_THINGS[-1]
            if rng.random() < 0.4:
                p[p[:, 1] == 1, 1] = int(rng.integers(7, 10))
            if rng.random() < 0.3:  # every pred id of the scan renamed
                p[:, 1] = np.concatenate([[0], rng.permutation(np.arange(1, 10))])[p[:, 1]]
            gt[seq].append((g[:, 0], g[:, 1]))
            pred[seq].append((p[:, 0], p[:, 1]))
    classes = {"classes": KITTI_THINGS + KITTI_STUFF, "things": frozenset(KITTI_THINGS)}
    return gt, pred, classes


INPUTS = {"synth": synth_sequences, "kitti19": kitti19_sequences}


def report_for(inputs, mode, threshold):
    """The report of one case: `evaluate` pooled or per sequence, or the
    whole-sequence (4D) segment matching of `PanopticEvaluator`."""
    gt, pred, classes = INPUTS[inputs]()
    config = EvalConfig(**classes, pq_match_threshold=threshold,
                        per_sequence=mode == "per_sequence")
    if mode != "4d":
        return evaluate(gt, pred, config)
    ev = PanopticEvaluator(config, pq_per_scan=False)
    for seq in sorted(gt):
        for g, p in zip(gt[seq], pred[seq]):
            ev.add_scan(g, p, seq=seq)
    return ev.result()


# (input, mode, threshold) -> sha256 of the write_text and write_json bytes
DIGESTS = {
    ("synth", "pooled", 0.3): (
        "3e014a1dd2f1e87ecef9b891b20fdb6291b6fc93409e0d344020d85474e26db9",
        "cc6ea3837af8cd0c61ca402a7ec2626b421a81834b8eeb949e123014d9eb9de3"),
    ("synth", "pooled", 0.5): (
        "cc430f604af128a8eafaaa1dfb29be9c61a87c21a5887b410156ed9fb4a11c19",
        "6912b1f878dbc5d57b7c1a790360e4ce18346efcb212073957a8782e8c308266"),
    ("synth", "pooled", 0.7): (
        "5c9acbe5542132ab851fcc913e17fd023540ba84905090dc6adcf5fb1099ad93",
        "bfdbf2713f033e837d302847cead2b2383c0288b7ce62057fa66c078bdeeb4a6"),
    ("synth", "per_sequence", 0.3): (
        "ea88a867fa2bcd07840cfbd6f8eb7381f80dc7972bfef9bdc45528955f11e557",
        "38b4d43948cd2611143ba69dc00e8af60c798c4e12173378311a565149ead5dd"),
    ("synth", "per_sequence", 0.5): (
        "182ea4834bfc5082f6912950982eb326656b6599495b90a158af0ac668bf078d",
        "d511c09c9ab9a3542f12f33168b5838bfba4be5ec79a1af3e12d08f5e9759bcf"),
    ("synth", "per_sequence", 0.7): (
        "0ad5830cb7797c5c5add67af779d754daba888e7e5a9e3bbf4e31a7418afac1b",
        "abb8d27cebb3945fd2aa01a174f099c8062d1f40f0a98ac953c2917b8ebe9f63"),
    ("synth", "4d", 0.3): (
        "ad144dc2cc5295c30fd79f377118df39fa6373b316882996c462b8835ff2e3aa",
        "3aa2ac54efd85eb94ee4263cc87ea3cf79273acf91fa0fa9b0afda005e77e686"),
    ("synth", "4d", 0.5): (
        "a1f8967ce8378c1631c568c1b0da86dcb9af5b262103c4f3e550ad55bb7827d0",
        "219c8b5010d2df0c8c94f8b5b087272f776b27123bfc7e92c31260b79c0be795"),
    ("synth", "4d", 0.7): (
        "32170062eaec69084925784a49fa96168a4c7e3b2cf52ed0455478442197f9a2",
        "890c5f4b714acc4638bbac4a183f4877f9a7ed3e670bd61e6068a4e24500f72e"),
    ("kitti19", "pooled", 0.3): (
        "0b90f4e0c68ec8186b471956b5f496f428dc2b422c88ee1a030f7584960c33dc",
        "c7b1640e1a4f41924a16cf76b45d492ddb08f9900e493b8909171c68344a072e"),
    ("kitti19", "pooled", 0.5): (
        "9379713ecee1daae64b9a584b8db6fd13dda4ca3ed8539dc3b7a48b9c53a7df5",
        "d48770cad6f1a8b2cfee47a59a67e37c7dc499a97fd28ea1176d4a6ac42aaf8b"),
    ("kitti19", "pooled", 0.7): (
        "6500ed191a092d1d09051e1519687e571bdfc3f16c86391460b14fcd53c9e65d",
        "1809684bd72ede039eec62d7d62b1d181c6b22df961b28f95ca218530e3e5f07"),
    ("kitti19", "per_sequence", 0.3): (
        "32bcb54cbc351f3b5b23422875c0be7ff42bbdac0ecd7444b70c28632900b283",
        "a3241183fca5837a58fda057cc6d4b388aaccfd89c6db11b832c59d07d9b4c74"),
    ("kitti19", "per_sequence", 0.5): (
        "e677fc14ca694411a90958a69912adc31429bd28eb056c964caafe87135c2cac",
        "49b7fbe1cc065bb02eb9da1c71bc4c900d929f1c0ebbfb29f31a88a8aea30766"),
    ("kitti19", "per_sequence", 0.7): (
        "6a336f2f3c968431abf4d306f284262d6022ce454aabd25c27dc048de91245e5",
        "582cb889e7300c5892d06e07b906a49e54acfc1e966b69ebecec617889467061"),
    ("kitti19", "4d", 0.3): (
        "41e4885cb0c396533f20681ed18f71d0f3d1ad709e2ae8243b7b5fa8e6c2645f",
        "79a790b20ff8ed7d072b6533b5410f94cf4ff45d380a78624532eb47398b9f5c"),
    ("kitti19", "4d", 0.5): (
        "60f5b53677c10b4dab158ba6b4001cfc1ff3d448dd2aa0171d406c907bf05edc",
        "8c6fd6d73732ab35b9aacee11117a3f8bcb5b074292829cbd3cf20d47787aec0"),
    ("kitti19", "4d", 0.7): (
        "5111182845f14a74d41d637114f45b2bd610fdc7b287a265895031cf6efdbb08",
        "8508c98f804bbd73c6c542a22e2b52e0f234c8a2364b455d9d9077b5e2889bb4"),
}


@pytest.mark.parametrize("case", sorted(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_report_matches_recorded_digest(case, tmp_path):
    report = report_for(*case)
    report.write_text(tmp_path / "report.txt")
    report.write_json(tmp_path / "report.json")
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("report.txt", "report.json"))
    assert got == DIGESTS[case]
