"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import struct
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pan4d.clustering import ClusterParams
from pan4d.config import RunConfig
from pan4d.kitti_io import read_labels, read_point_scan, write_labels
from pan4d.losses import (
    class_loss,
    instance_loss,
    objectness_loss,
    variance_smoothness_loss,
)
from pan4d.metrics import (
    EvalConfig,
    brute_force_s_assoc,
    evaluate,
    lstq,
    mots_from_counts,
)
from pan4d.synth import (
    ObjectSpec,
    SceneSpec,
    flip_class,
    generate_sequence,
    id_switch,
    split_tube,
)
from pan4d.tracking import run_online_pipeline
from pan4d.volume import VolumeConfig

from conftest import CAR, PERSON, ROAD, MemorySequence, oracle_providers
from test_losses import fd_gradient, random_problem, rel_err
from test_metrics import random_stream


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {n:2d}] FAIL  {description}")
        raise
    print(f"[criterion {n:2d}] PASS  {description}")


@pytest.fixture
def config():
    return EvalConfig(
        classes=(CAR, PERSON, ROAD),
        things=frozenset({CAR, PERSON}),
        ignore=frozenset({0}),
    )


def test_criterion_1_metric_combiner():
    with criterion(1, "metric combiner reproduces the reported score pairs"):
        lstq(0.5, 0.5)  # warmup
        t0 = time.perf_counter()
        four_scan = lstq(0.6511, 0.6046)
        two_scan = lstq(0.5879, 0.6095)
        elapsed = time.perf_counter() - t0
        assert four_scan == pytest.approx(0.6274, abs=0.0005)
        assert two_scan == pytest.approx(0.5986, abs=0.0005)
        assert elapsed < 1e-3


def test_criterion_2_motsa_arithmetic():
    with criterion(2, "MOTSA/precision/recall arithmetic on published counts"):
        car = mots_from_counts(tp=27553, fp=687, fn=1702, ids=1204)
        assert car["motsa"] == pytest.approx(0.88, abs=0.005)
        assert car["precision"] == pytest.approx(0.98, abs=0.005)
        assert car["recall"] == pytest.approx(0.94, abs=0.005)
        moto = mots_from_counts(tp=231, fp=747, fn=24, ids=9)
        assert moto["motsa"] == pytest.approx(-2.06, abs=0.005)


def test_criterion_3_s_assoc_oracle_equivalence(config):
    with criterion(3, "streaming association score equals the set oracle (200 trials)"):
        rng = np.random.default_rng(99)
        t0 = time.perf_counter()
        for _ in range(200):
            n_scans = int(rng.integers(1, 11))
            n_points = int(rng.integers(1, 51))
            n_ids = int(rng.integers(1, 6))
            gt, pred = random_stream(rng, n_scans, n_points, n_ids)
            fast = evaluate({"": gt}, {"": pred}, config).s_assoc
            slow = brute_force_s_assoc(gt, pred, config)
            assert abs(fast - slow) <= 1e-12
        assert time.perf_counter() - t0 < 5.0


def _single_tube_scene(n_scans=10, n_points=30):
    return SceneSpec(
        n_scans=n_scans,
        objects=(
            ObjectSpec(class_id=CAR, n_points=n_points, sigma=0.3,
                       start=(10.0, 0.0, 5.0), velocity=(0.4, 0.0, 0.0)),
            ObjectSpec(class_id=PERSON, n_points=n_points, sigma=0.2,
                       start=(-10.0, 5.0, 5.0), velocity=(0.0, -0.3, 0.0)),
        ),
        seed=12,
    )


def test_criterion_4_closed_form_corruptions(config):
    with criterion(4, "closed-form corruption effects (split / flip / id switch)"):
        data = generate_sequence(_single_tube_scene())
        gt = [(l.semantic, l.instance) for l in data.labels]

        split = split_tube(data.labels, tube_id=1, at_scan=5)
        pred = [(l.semantic, l.instance) for l in split]
        # intact tube contributes 1.0; the evenly split one exactly 0.5
        assert evaluate({"": gt}, {"": pred}, config).s_assoc == (1.0 + 0.5) / 2.0

        flipped = flip_class(data.labels, fraction=0.3, thing_classes=(CAR, PERSON),
                             seed=3)
        pred = [(l.semantic, l.instance) for l in flipped]
        report = evaluate({"": gt}, {"": pred}, config)
        assert abs(report.s_assoc - 1.0) <= 1e-12
        assert report.s_cls < 1.0

        switched = id_switch(data.labels, tube_id=1, at_scan=5)
        pred = [(l.semantic, l.instance) for l in switched]
        report = evaluate({"": gt}, {"": pred}, config)
        assert sum(v["ids"] for v in report.mots_per_class.values()) == 1
        assert report.s_cls == 1.0


def test_criterion_5_identity_suite(config):
    with criterion(5, "gt-vs-gt scores exactly 1.0; empty prediction scores 0"):
        data = generate_sequence(_single_tube_scene())
        gt = [(l.semantic, l.instance) for l in data.labels]
        report = evaluate({"00": gt}, {"00": gt}, config)
        assert report.s_cls == 1.0
        assert report.s_assoc == 1.0
        assert report.lstq == 1.0
        assert report.pq == 1.0
        assert report.sq == 1.0
        assert report.rq == 1.0
        assert report.motsa_mean == 1.0

        empty = [(np.zeros_like(s), np.zeros_like(i)) for s, i in gt]
        assert evaluate({"": gt}, {"": empty}, config).s_assoc == 0.0


def test_criterion_6_relabeling_invariance(config):
    with criterion(6, "bijective relabeling of predicted ids changes nothing"):
        rng = np.random.default_rng(123)
        gt, pred = random_stream(rng, n_scans=6, n_points=50, n_ids=5)
        mapping = {1: 31, 2: 35, 3: 32, 4: 34, 5: 33}
        remapped = [
            (sem, np.vectorize(lambda v: mapping.get(int(v), int(v)))(inst))
            for sem, inst in pred
        ]
        a = evaluate({"": gt}, {"": pred}, config)
        b = evaluate({"": gt}, {"": remapped}, config)
        assert a.s_assoc == pytest.approx(b.s_assoc, abs=1e-12)
        assert a.pq == pytest.approx(b.pq, abs=1e-12)
        mots_a, mots_b = a.mots_per_class, b.mots_per_class
        for c in mots_a:
            assert mots_a[c]["motsa"] == pytest.approx(mots_b[c]["motsa"], abs=1e-12)
            assert mots_a[c]["ids"] == mots_b[c]["ids"]


def test_criterion_7_gradient_verification():
    with criterion(7, "analytic gradients match central differences (20+ problems)"):
        rng = np.random.default_rng(2)
        t0 = time.perf_counter()
        for _ in range(20):
            feats, variances, gt = random_problem(rng, n_max=100, d_max=6)
            n = feats.shape[0]

            pred = rng.uniform(size=n)
            target = rng.uniform(size=n)
            _, g = objectness_loss(pred, target)
            assert rel_err(g, fd_gradient(lambda x: objectness_loss(x, target)[0],
                                          pred)) < 1e-4

            _, gx, gv = instance_loss(feats, variances, gt)
            assert rel_err(gx, fd_gradient(
                lambda x: instance_loss(x, variances, gt)[0], feats)) < 1e-4
            assert rel_err(gv, fd_gradient(
                lambda v: instance_loss(feats, v, gt)[0], variances)) < 1e-4

            _, gs = variance_smoothness_loss(variances, gt)
            assert rel_err(gs, fd_gradient(
                lambda v: variance_smoothness_loss(v, gt)[0], variances)) < 1e-4

            scores = rng.normal(size=(n, 4))
            classes = rng.integers(0, 4, size=n)
            sampled = rng.choice(n, size=max(1, n // 2), replace=False)
            _, gc = class_loss(scores, classes, sampled)
            assert rel_err(gc, fd_gradient(
                lambda s: class_loss(s, classes, sampled)[0], scores)) < 1e-4
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_desk_scale_pipeline(config):
    with criterion(8, "online pipeline on 5 moving objects: S_assoc >= 0.95"):
        angles = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
        objects = tuple(
            ObjectSpec(
                class_id=CAR if k % 2 == 0 else PERSON,
                n_points=100,
                sigma=0.3,
                start=(25.0 * np.cos(a), 25.0 * np.sin(a), 6.0),
                velocity=(0.4 * np.sin(a), -0.4 * np.cos(a), 0.0),
            )
            for k, a in enumerate(angles)
        )
        spec = SceneSpec(
            n_scans=20,
            objects=objects,
            background_class=ROAD,
            background_points=400,
            background_extent=50.0,
            noise_sigma=0.01,
            seed=77,
            ego_velocity=(0.2, 0.1, 0.0),
            ego_yaw_rate=0.003,
        )
        data = generate_sequence(spec)
        fields_fn, semantics_fn = oracle_providers(data)

        t0 = time.perf_counter()
        result = run_online_pipeline(
            MemorySequence(data), fields_fn, semantics_fn,
            RunConfig(volume=VolumeConfig(strategy="importance", tau=4, fraction=0.10),
                      cluster=ClusterParams(feature_mode="emb", min_points=25),
                      eval_config=config, seed=0),
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0

        assert result.n_instances == 5
        gt = [(l.semantic, l.instance) for l in data.labels]
        pred = [(l.semantic, l.instance) for l in result.labels]
        report = evaluate({"00": gt}, {"00": pred}, config)
        assert report.s_assoc >= 0.95

        # five persistent ids: every object keeps one id over all 20 scans
        for obj_id in range(1, 6):
            ids = set()
            for gt_l, pr_l in zip(data.labels, result.labels):
                ids |= set(pr_l.instance[gt_l.instance == obj_id].tolist())
            assert len(ids) == 1


def test_criterion_9_format_golden_bytes(tmp_path):
    with criterion(9, "binary formats decode hand-written bytes; round trips exact"):
        bin_path = tmp_path / "g.bin"
        bin_path.write_bytes(struct.pack("<ffff", 1.0, 2.0, 3.0, 0.5))
        scan = read_point_scan(bin_path)
        assert scan.points.tolist() == [[1.0, 2.0, 3.0]]
        assert scan.remission.tolist() == [0.5]

        label_path = tmp_path / "g.label"
        label_path.write_bytes(struct.pack("<II", 0x0001000A, 0x00000000))
        labels = read_labels(label_path, expected_n=2)
        assert labels.semantic.tolist() == [10, 0]
        assert labels.instance.tolist() == [1, 0]

        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**32, size=256, dtype=np.uint64).astype("<u4")
        src = tmp_path / "rt.label"
        src.write_bytes(words.tobytes())
        out = tmp_path / "rt2.label"
        write_labels(read_labels(src, expected_n=256), out)
        assert src.read_bytes() == out.read_bytes()


def test_criterion_10_non_reproducibility_statement():
    with criterion(10, "README states which published scores are out of reach"):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        assert "not reproduced" in text.lower()
        assert "62.74" in text
