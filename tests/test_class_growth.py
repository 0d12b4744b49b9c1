"""Classes grown from fixed classes of one label fewer, the committed
fixed six-label classes, and scans of them realized as point clouds."""

from collections import Counter

import pytest

from class_growth import FIXED_SIX, fixed_classes, grow, survivors
from simplexfix import (
    Configuration,
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
from simplexfix.criteria import default_axes, default_labels
from simplexfix.equivalence import decode


def committed_fixed_six() -> list:
    """The fixed six-label classes, one canonical code in hex per line."""
    labels = default_labels(6)
    return [
        Configuration.from_sequences(labels, default_axes(5), decode(bytes.fromhex(code), labels))
        for code in FIXED_SIX.read_text().split()
    ]


@pytest.fixture(scope="module")
def fixed_four():
    return fixed_classes(enumerate_classes(4))


@pytest.fixture(scope="module")
def grown_five(fixed_four):
    return [(rep, decide(rep)) for rep in grow([rep for rep, _ in fixed_four])]


@pytest.fixture(scope="module")
def fixed_five(grown_five):
    return [(rep, verdict) for rep, verdict in grown_five if verdict.status is Status.FIXED]


def inner_kinds(decided) -> Counter:
    return Counter(verdict.certificate["inner"]["type"] for _, verdict in decided)


def test_growth_gives_the_fixed_five_label_classes(fixed_four, grown_five, fixed_five):
    # which decider settles the fixed classes: the paper's expansion
    # certifies all four at n = 4 and about half at n = 5
    assert inner_kinds(fixed_four) == {"expansion": 4}
    # the survivor filter keeps a candidate only when every extreme
    # removal is fixed; five such classes are still non-fixed, and the
    # lemma cannot see them
    assert len(survivors([rep for rep, _ in fixed_four])) == 488
    assert len(grown_five) == 41
    non_fixed = [(rep, verdict) for rep, verdict in grown_five if verdict.status is Status.NON_FIXED]
    assert inner_kinds(non_fixed) == {"ray_pair": 5}
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


def assert_scans_fixed_as_rank_cloud(rep, verdict):
    # coordinate = rank on each axis: the cloud's one subset derives the
    # class itself, and the scan's sign is decide's and the determinant's
    cloud = PointCloud.from_points(
        {lab: tuple(o.sequence().index(lab) for o in rep.orders) for lab in rep.labels}
    )
    assert derive_configuration(cloud, rep.labels) == rep
    (result,) = scan(cloud).results
    assert (result.status, result.sign) == (Status.FIXED, verdict.sign)
    assert det_sign(cloud).value == verdict.sign.value


def test_grown_fixed_classes_scan_fixed_as_four_dimensional_clouds(fixed_five):
    for rep, verdict in fixed_five:
        assert_scans_fixed_as_rank_cloud(rep, verdict)


def test_committed_fixed_six_label_classes_decide_replay_and_scan_fixed():
    reps = committed_fixed_six()
    assert len(reps) == 313
    for rep in reps:
        verdict = decide(rep)
        assert verdict.status is Status.FIXED
        assert replay_certificate(rep, verdict)
        assert_scans_fixed_as_rank_cloud(rep, verdict)
