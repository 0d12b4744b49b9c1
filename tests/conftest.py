"""Shared construction helpers for the test suite."""

from pathlib import Path

import pytest

from simplexfix import Configuration

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CLOUD_CSV = DATA_DIR / "landmarks_synthetic.csv"

N4_LABELS = ("A", "B", "C", "D")
XYZ = ("x", "y", "z")

# the four fixed classes at n=4, written with D's column last
FIXED_N4_SEQUENCES = (
    (("B", "C", "A", "D"), ("C", "A", "B", "D"), ("A", "B", "C", "D")),
    (("B", "C", "D", "A"), ("C", "A", "B", "D"), ("A", "B", "C", "D")),
    (("B", "D", "C", "A"), ("C", "A", "B", "D"), ("A", "B", "C", "D")),
    (("B", "C", "D", "A"), ("C", "D", "A", "B"), ("A", "B", "C", "D")),
)


def fixed_n4_configs():
    return [
        Configuration.from_sequences(N4_LABELS, XYZ, seqs) for seqs in FIXED_N4_SEQUENCES
    ]


def subset_2589():
    """Partial configuration of the cloud subset {2,5,8,9} (fixed)."""
    return Configuration.from_pairs(
        ("2", "5", "8", "9"),
        XYZ,
        {
            "x": [("9", "5"), ("5", "2"), ("2", "8")],
            "y": [("5", "8"), ("8", "9"), ("9", "2")],
            "z": [("2", "8"), ("8", "9"), ("5", "8")],
        },
    )


def subset_13710():
    """Partial configuration of the cloud subset {1,3,7,10} (non-fixed)."""
    return Configuration.from_pairs(
        ("1", "3", "7", "10"),
        XYZ,
        {
            "x": [("7", "3"), ("3", "10"), ("7", "1"), ("1", "10")],
            "y": [("7", "3"), ("3", "1"), ("7", "10"), ("10", "1")],
            "z": [("1", "7"), ("7", "10"), ("3", "7")],
        },
    )


def subset_13710_extension():
    """The non-fixed linear extension used to certify subset {1,3,7,10}."""
    return Configuration.from_sequences(
        ("1", "3", "7", "10"),
        XYZ,
        (("7", "3", "1", "10"), ("7", "10", "3", "1"), ("3", "1", "7", "10")),
    )


def subset_15910():
    """Partial configuration of the cloud subset {1,5,9,10} (fixed)."""
    return Configuration.from_pairs(
        ("1", "5", "9", "10"),
        XYZ,
        {
            "x": [("9", "1"), ("1", "10"), ("9", "5"), ("5", "10")],
            "y": [("5", "9"), ("9", "1"), ("5", "10"), ("10", "1")],
            "z": [("1", "9"), ("1", "10"), ("5", "9"), ("5", "10")],
        },
    )


def partial_n3_quartet():
    """The four partial three-label configurations with known verdicts
    (fixed, non-fixed, non-fixed, non-fixed)."""
    labels = ("A", "B", "C")
    axes = ("x", "y")
    p1 = Configuration.from_pairs(
        labels, axes, {"x": [("A", "B"), ("B", "C")], "y": [("B", "A"), ("B", "C")]}
    )
    p2 = Configuration.from_pairs(
        labels, axes, {"x": [("A", "B"), ("B", "C")], "y": [("B", "A"), ("C", "A")]}
    )
    p3 = Configuration.from_pairs(labels, axes, {"x": [("A", "B"), ("B", "C")], "y": []})
    p4 = Configuration.from_pairs(
        labels, axes, {"x": [("A", "C"), ("B", "C")], "y": [("B", "A"), ("C", "A")]}
    )
    return p1, p2, p3, p4


def seeded_partials(rng, n, count, drop=0.5):
    """``count`` seeded partial configurations on ``n`` labels: each axis
    a random chain with each covering pair dropped with probability
    ``drop`` (the rest closed transitively), at least one axis partial."""
    labels = tuple("ABCDEFGH"[:n])
    axes = tuple(f"a{i}" for i in range(n - 1))
    out = []
    while len(out) < count:
        pairs = {}
        for axis in axes:
            seq = rng.sample(labels, n)
            pairs[axis] = [p for p in zip(seq, seq[1:]) if rng.random() >= drop]
        cfg = Configuration.from_pairs(labels, axes, pairs)
        if not cfg.is_linear():
            out.append(cfg)
    return out


@pytest.fixture(scope="session")
def cloud_csv_path():
    assert CLOUD_CSV.exists()
    return CLOUD_CSV
