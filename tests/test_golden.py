"""Golden digests of `run_online_pipeline` labels on one small fixed scene.

Each case is a strategy × window stride × feature mode. The digests were
recorded from the pipeline as it stood before the window tables were kept in
(scan, point) order; a change that should not alter predictions must leave
every one of them unchanged. The two window-stride-3 cases, where one window
emits two scans wholly through nearest-row backfill, were recorded before
`backfill_skipped` took each point's two nearest rows. The scene has ego
motion, point noise, noisy embeddings, background points above the seeding
threshold and flipped classes, so the labels are not the trivial oracle ones.
"""

import hashlib

import numpy as np
import pytest

from pan4d.clustering import ClusterFields, ClusterParams
from pan4d.synth import ObjectSpec, SceneSpec, generate_sequence
from pan4d.tracking import run_online_pipeline
from pan4d.volume import VolumeConfig

from conftest import CAR, PERSON, ROAD, MemorySequence, run_config

SCENE = SceneSpec(
    n_scans=7,
    objects=(
        ObjectSpec(class_id=CAR, n_points=50, sigma=0.3, start=(8.0, 4.0, 5.0),
                   velocity=(-0.6, 0.1, 0.0)),
        ObjectSpec(class_id=PERSON, n_points=40, sigma=0.25, start=(-8.0, -4.0, 5.0),
                   velocity=(0.5, 0.0, 0.0)),
        ObjectSpec(class_id=CAR, n_points=30, sigma=0.3, start=(0.0, 12.0, 6.0)),
    ),
    background_points=150,
    noise_sigma=0.05,
    ego_velocity=(0.3, 0.1, 0.0),
    ego_yaw_rate=0.02,
    seed=11,
)

# (strategy, tau, window stride, feature mode) -> sha256 of every scan's
# semantic and instance labels as little-endian int64, scan by scan
DIGESTS = {
    ("base", 1, 1, "emb"):
        "7c5782422645b6b76ba7943f7cda4d2bbf9e9ab159623131b0619ab48d279740",
    ("base", 1, 1, "emb+xyzt"):
        "f21f9be900172c2fd4a516b72e3bc340568c751362eb625b7c87ac458941be46",
    ("thing", 4, 1, "emb"):
        "40d079890ae9b58e7b94067b7f65ce7e25536bd15db2db07851be5b273477175",
    ("thing", 4, 1, "emb+xyzt"):
        "85583c1893457785c089cb0c921f26490a0f3a37722357b3cf9c797a606e088e",
    ("thing", 4, 2, "emb"):
        "2eb61d53498c8bec492f1ec4b427aab16959b9060d6d180c82dc978b10b8a203",
    ("thing", 4, 2, "emb+xyzt"):
        "e085cd2768ae03feec77365759bef102534ecc835eb815932b2bfa6b5fff8c8b",
    ("importance", 4, 1, "emb"):
        "d5261ce970132afc0d5a79aeb160f8efb992351bb2d1eea72ec848704b6535f4",
    ("importance", 4, 1, "emb+xyzt"):
        "4cd26c53dc7afd34e2c1aff28628871aba72a1e7132f670488ad3c63317d4e31",
    ("importance", 4, 2, "emb"):
        "b1bea5b91445bab2b9a5edf1b20ee80402784ac9583c4ef14b8cbcbe5567c31a",
    ("importance", 4, 2, "emb+xyzt"):
        "a4885d6e993782fa80128b65ea9472716d477dff3ef601190050f1db35b57bcb",
    ("importance", 4, 3, "emb+xyzt"):
        "ea7fdaf6138e694342c31a85d952d23c8ffac4e420ddbd46ce56904bef4f735e",
    ("decay", 4, 1, "emb"):
        "3fda716276de6317ae0f8817de67fa3304fa27dca7f907194af6c8c91c9b9e29",
    ("decay", 4, 1, "emb+xyzt"):
        "957476cd747784ea98ea78b9dc247727a6aeb7b697df267d7efb987067a71165",
    ("decay", 4, 2, "emb"):
        "93c046564720c44a52af86609414e9ad4da2e1b467febd4abe39609d1f4b1a1b",
    ("decay", 4, 2, "emb+xyzt"):
        "0eb6aa89903460ccb4f24923e41d654c7bee2e8ae779ee4cae11003a12c6efbd",
    ("stride", 4, 1, "emb"):
        "93ca542aa958a7b9d64b2fb83b453ceb67ef77a99933d37554208555701c342a",
    ("stride", 4, 1, "emb+xyzt"):
        "df82fd8c51ba80348fd682e167904f32806a4a3d08c3bfd94b00d5dfe833c1bf",
    ("stride", 4, 2, "emb"):
        "b1bea5b91445bab2b9a5edf1b20ee80402784ac9583c4ef14b8cbcbe5567c31a",
    ("stride", 4, 2, "emb+xyzt"):
        "cc00529407a314f24130172d98935038c382f8d892286bf21425b7e3d53facda",
    ("stride", 4, 3, "emb+xyzt"):
        "ea7fdaf6138e694342c31a85d952d23c8ffac4e420ddbd46ce56904bef4f735e",
}


def _providers(data):
    """Oracle fields with seeded noise: jittered embeddings, background
    objectness in [0, 0.5) and 5% of the classes flipped to another class."""

    def fields_fn(s):
        rng = np.random.default_rng([23, s])
        emb, var, obj = data.fields[s]
        obj = obj.copy()
        background = data.labels[s].instance == 0
        obj[background] = rng.uniform(0.0, 0.5, background.sum())
        return ClusterFields(emb + rng.normal(scale=0.2, size=emb.shape).astype(np.float32),
                             var, obj)

    def semantics_fn(s):
        rng = np.random.default_rng([29, s])
        sem = data.labels[s].semantic.copy()
        flip = rng.uniform(size=sem.size) < 0.05
        sem[flip] = rng.choice([CAR, PERSON, ROAD], size=flip.sum())
        return sem

    return fields_fn, semantics_fn


def label_digest(labels):
    h = hashlib.sha256()
    for scan in labels:
        h.update(scan.semantic.astype("<i8").tobytes())
        h.update(scan.instance.astype("<i8").tobytes())
    return h.hexdigest()


def run_case(strategy, tau, window_stride, mode):
    data = generate_sequence(SCENE)
    fields_fn, semantics_fn = _providers(data)
    # thing sampling also exercises its total point budget
    max_points = 300 if strategy == "thing" else None
    result = run_online_pipeline(
        MemorySequence(data), fields_fn, semantics_fn,
        run_config(VolumeConfig(strategy=strategy, tau=tau, max_points=max_points),
                   ClusterParams(feature_mode=mode, min_points=10), {CAR, PERSON}, {ROAD},
                   seed=3, window_stride=window_stride),
    )
    return label_digest(result.labels)


@pytest.mark.parametrize("case", sorted(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_labels_match_recorded_digest(case):
    assert run_case(*case) == DIGESTS[case]
