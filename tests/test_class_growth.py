"""Fixed five-label classes grown from the fixed four-label ones, and
scans of them realized as point clouds."""

from collections import Counter

import pytest

from class_growth import fixed_classes, grow
from simplexfix import (
    PointCloud,
    Status,
    decide,
    derive_configuration,
    det_sign,
    enumerate_classes,
    induced,
    replay_certificate,
    scan,
)


@pytest.fixture(scope="module")
def fixed_four():
    return fixed_classes(enumerate_classes(4))


@pytest.fixture(scope="module")
def fixed_five(fixed_four):
    return fixed_classes(grow([rep for rep, _ in fixed_four]))


def inner_kinds(decided) -> Counter:
    return Counter(verdict.certificate["inner"]["type"] for _, verdict in decided)


def test_growth_gives_the_fixed_five_label_classes(fixed_four, fixed_five):
    # which decider settles the fixed classes: the paper's expansion
    # certifies all four at n = 4 and about half at n = 5
    assert inner_kinds(fixed_four) == {"expansion": 4}
    assert len(fixed_five) == 36
    assert inner_kinds(fixed_five) == {"expansion": 19, "ray_all": 17}
    for rep, verdict in fixed_five:
        assert replay_certificate(rep, verdict)
        # the lemma the growth rests on: every extreme removal stays fixed
        for axis, ordering in zip(rep.axes, rep.orders):
            seq = ordering.sequence()
            for label in (seq[0], seq[-1]):
                removal = induced(
                    rep, [lab for lab in rep.labels if lab != label], [a for a in rep.axes if a != axis]
                )
                assert decide(removal).status is Status.FIXED


def test_grown_fixed_classes_scan_fixed_as_four_dimensional_clouds(fixed_five):
    # coordinate = rank on each axis: the cloud's one subset derives the
    # class itself, and the scan's sign is decide's and the determinant's
    for rep, verdict in fixed_five:
        cloud = PointCloud.from_points(
            {lab: tuple(o.sequence().index(lab) for o in rep.orders) for lab in rep.labels}
        )
        assert derive_configuration(cloud, rep.labels) == rep
        (result,) = scan(cloud).results
        assert (result.status, result.sign) == (Status.FIXED, verdict.sign)
        assert det_sign(cloud).value == verdict.sign.value
