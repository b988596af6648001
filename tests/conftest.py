import numpy as np
import pytest
from hypothesis import settings

from pan4d.metrics import EvalConfig

# derandomized: the same examples on every run, and no per-example deadline,
# whose timing would make slow shared machines fail at random
settings.register_profile("pan4d", derandomize=True, deadline=None)
settings.load_profile("pan4d")

CAR, PERSON, ROAD = 10, 30, 40


def random_rigid(rng, max_translation=10.0):
    """Random proper rigid transform as a homogeneous 4x4 matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    m = np.eye(4)
    m[:3, :3] = q
    m[:3, 3] = rng.uniform(-max_translation, max_translation, 3)
    return m


@pytest.fixture
def eval_config():
    return EvalConfig(
        classes=(CAR, PERSON, ROAD),
        things=frozenset({CAR, PERSON}),
        ignore=frozenset({0}),
    )


def stream(*scans):
    """Build a label stream from (semantic list, instance list) pairs."""
    return [
        (np.asarray(sem, dtype=np.int64), np.asarray(inst, dtype=np.int64))
        for sem, inst in scans
    ]


class MemorySequence:
    """SequenceHandle-alike over in-memory synthetic SequenceData."""

    def __init__(self, data):
        self.data = data

    def __len__(self):
        return len(self.data.scans)

    def scan(self, i):
        return self.data.scans[i]

    def pose(self, i):
        return self.data.poses[i]


def oracle_providers(data):
    """(fields_fn, semantics_fn) backed by a SequenceData's oracle arrays."""

    def fields_fn(i):
        return data.fields[i]

    def semantics_fn(i):
        return data.labels[i].semantic

    return fields_fn, semantics_fn
