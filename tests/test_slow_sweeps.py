"""Exhaustive long-running sweeps (deselected by default; run with
``pytest -m slow``)."""

from collections import Counter
from itertools import permutations, product
from math import factorial

import pytest

from simplexfix import (
    ConfigSign,
    Configuration,
    Status,
    build_witness,
    decide,
    enumerate_classes,
    orbit_size,
    replay_certificate,
    sample_signs,
    verify_witness,
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


@pytest.mark.slow
def test_five_label_census_is_exact():
    # every class decided: 36 fixed, 5,061 non-fixed, none unknown; the 22
    # classes neither the lemma nor the expansion settles are backed by
    # sampling (ray_all) or an exact witness (ray_pair)
    reps = enumerate_classes(5, allow_long=True)
    statuses = Counter()
    kinds = Counter()
    for index, rep in enumerate(reps):
        verdict = decide(rep)
        statuses[verdict.status] += 1
        assert replay_certificate(rep, verdict)
        kind = verdict.certificate["inner"]["type"]
        if kind == "ray_all":
            histogram = sample_signs(rep, index, 1000)
            bucket = "pos" if verdict.sign is ConfigSign.PLUS else "neg"
            assert histogram[bucket] == 1000
        elif kind == "ray_pair":
            assert verify_witness(build_witness(rep, verdict), rep)
        kinds[kind] += 1
    assert len(reps) == 5097
    assert statuses == {Status.FIXED: 36, Status.NON_FIXED: 5061}
    assert (kinds["ray_all"], kinds["ray_pair"]) == (17, 5)
