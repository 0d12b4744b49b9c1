"""Exhaustive long-running sweeps (deselected by default; run with
``pytest -m slow``)."""

from itertools import permutations, product
from math import factorial

import pytest

from simplexfix import (
    ConfigSign,
    Configuration,
    Status,
    decide,
    enumerate_classes,
    orbit_size,
    sample_signs,
)
from conftest import N4_LABELS, XYZ


@pytest.mark.slow
def test_every_fixed_four_label_configuration_survives_heavy_sampling():
    perms = list(permutations(N4_LABELS))
    violations = 0
    fixed_seen = 0
    for index, seqs in enumerate(product(perms, repeat=3)):
        cfg = Configuration.from_sequences(N4_LABELS, XYZ, seqs)
        verdict = decide(cfg)
        if verdict.status is not Status.FIXED:
            continue
        fixed_seen += 1
        histogram = sample_signs(cfg, index, 1000)
        bucket = "pos" if verdict.sign is ConfigSign.PLUS else "neg"
        if histogram[bucket] != 1000:
            violations += 1
    assert fixed_seen == 2688
    assert violations == 0


@pytest.mark.slow
def test_five_label_enumeration_matches_orbit_count():
    reps = enumerate_classes(5, allow_long=True)
    assert len(reps) == 5097
    assert all(rep.is_linear() for rep in reps[:50])
    assert sum(orbit_size(rep) for rep in reps) == factorial(5) ** 4
