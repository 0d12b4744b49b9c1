"""Seeded input generators for the benchmark workloads.

Everything here is plain data (tuples, lists, strings) derived from the
workload seed alone; nothing imports simplexfix, so the inputs cannot
depend on the code under test.  The same seed always gives byte-identical
inputs (see ``spec_bytes``).

Size limits are enforced here rather than trusted to callers: no generator
produces a configuration with more than ``MAX_N`` labels or a cloud with
more than ``MAX_CLOUD_POINTS`` points.  At n = 7 a cold ``decide`` builds a
5040 x 5040 composition table (tens of seconds and hundreds of MB per
process), and at n = 8 that table would need about 13 GB.
"""

from __future__ import annotations

import json
import random
from itertools import permutations, product

MAX_N = 6
MAX_CLOUD_POINTS = 30

LABELS = "ABCDEF"
AXES = ("x", "y", "z", "u", "v")

# The four fixed classes at n = 4, one representative each.  Every other
# linear n = 4 class is non-fixed; growing these is how `highdim` reaches
# n = 5 configurations that are not non-fixed by a one-step argument.
FIXED_N4 = (
    ("ABCD", "ACDB", "ADBC"),
    ("ABCD", "ACDB", "CABD"),
    ("ABCD", "ACDB", "CBAD"),
    ("ABCD", "ADCB", "BADC"),
)

SWEEP_WITNESS_SAMPLE = 400

# items per highdim pass, by kind; n = 6 items are few because each costs
# about 30x an n = 5 one
HIGHDIM_MIX = (("grown5", 160), ("linear5", 60), ("linear6", 12), ("partial5", 40))

SCAN_POINTS = 16
SCAN_GRID = 8
# clouds per scan_ties seed, scanned in turn: scan cost differs by up to
# 20 % between clouds, and a run averaging four depends less on its seed
SCAN_CLOUDS = 4

SHIPPED_CLOUD = "data/landmarks_synthetic.csv"


def rng_for(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed, *salt))))


def spec_bytes(spec) -> bytes:
    """Canonical serialization, for comparing generated inputs."""
    return json.dumps(spec, sort_keys=True).encode()


def labels(n: int) -> tuple:
    if not 2 <= n <= MAX_N:
        raise ValueError(f"generators support 2 <= n <= {MAX_N}, got {n}")
    return tuple(LABELS[:n])


def axes(n: int) -> tuple:
    labels(n)
    return AXES[: n - 1]


def random_linear(rng: random.Random, n: int) -> tuple:
    labs = labels(n)
    return tuple("".join(rng.sample(labs, n)) for _ in range(n - 1))


def _relabel_fixed_n4(rng: random.Random) -> list:
    """A random member of a random fixed n = 4 class: relabel, permute
    axes, reverse some axes."""
    seqs = rng.choice(FIXED_N4)
    rename = dict(zip("ABCD", rng.sample("ABCD", 4)))
    out = ["".join(rename[c] for c in s) for s in seqs]
    rng.shuffle(out)
    return [s[::-1] if rng.random() < 0.5 else s for s in out]


def grown5(rng: random.Random) -> tuple:
    """A fixed n = 4 configuration with a fifth label inserted at a random
    position on every axis and a random fourth axis."""
    out = []
    for s in _relabel_fixed_n4(rng):
        i = rng.randrange(5)
        out.append(s[:i] + "E" + s[i:])
    out.append("".join(rng.sample("ABCDE", 5)))
    return tuple(out)


def drop_covering_pairs(rng: random.Random, seqs: tuple, n_axes: int) -> tuple:
    """Per axis the covering pairs of the chain, with one covering pair
    removed on ``n_axes`` distinct axes (a partial configuration)."""
    dropped = set(rng.sample(range(len(seqs)), n_axes))
    out = []
    for a, seq in enumerate(seqs):
        pairs = [[e, f] for e, f in zip(seq, seq[1:])]
        if a in dropped:
            pairs.pop(rng.randrange(len(pairs)))
        out.append(pairs)
    return tuple(out)


def non_fixed_n3(rng: random.Random) -> tuple:
    """Equal or mutually reversed orderings: non-fixed at n = 3."""
    x = "".join(rng.sample("ABC", 3))
    return (x, x if rng.random() < 0.5 else x[::-1])


def non_fixed_n4(rng: random.Random) -> tuple:
    """Non-fixed at n = 4 by construction: the label M is extreme on z and
    dropping M with z leaves equal or reversed orders on x and y."""
    m = rng.choice("ABCD")
    rest = "".join(rng.sample([c for c in "ABCD" if c != m], 3))
    other = rest if rng.random() < 0.5 else rest[::-1]

    def insert(s):
        i = rng.randrange(4)
        return s[:i] + m + s[i:]

    z_rest = "".join(rng.sample(rest, 3))
    z = m + z_rest if rng.random() < 0.5 else z_rest + m
    return (insert(rest), insert(other), z)


# ---------------------------------------------------------------------------
# workload specs


def sweep_n4(seed: int) -> dict:
    """All 13,824 linear n = 4 configurations, in a seeded order, with a
    seeded sample flagged for witness construction when non-fixed."""
    total = len(sweep_items())
    rng = rng_for("sweep_n4", seed)
    order = list(range(total))
    rng.shuffle(order)
    return {
        "order": order,
        "witness": sorted(rng.sample(range(total), SWEEP_WITNESS_SAMPLE)),
    }


def sweep_items() -> list:
    """Per-axis sequences of every linear n = 4 configuration."""
    perms = ["".join(p) for p in permutations("ABCD")]
    return [tuple(s) for s in product(perms, repeat=3)]


def highdim(seed: int, pass_index: int) -> list:
    """One pass of fresh n = 5 and n = 6 items, as ``[kind, n, orders]``;
    ``orders`` holds chains for linear items and covering pairs for
    partial ones."""
    rng = rng_for("highdim", seed, pass_index)
    items = []
    for kind, count in HIGHDIM_MIX:
        for _ in range(count):
            if kind == "grown5":
                items.append([kind, 5, grown5(rng)])
            elif kind == "linear5":
                items.append([kind, 5, random_linear(rng, 5)])
            elif kind == "linear6":
                items.append([kind, 6, random_linear(rng, 6)])
            else:
                seqs = random_linear(rng, 5)
                items.append([kind, 5, drop_covering_pairs(rng, seqs, rng.choice((1, 2)))])
    rng.shuffle(items)
    # the first item is the one first_result_s times: keep its kind fixed
    first = next(i for i, item in enumerate(items) if item[0] == "grown5")
    items[0], items[first] = items[first], items[0]
    return items


def cloud_csv(seed: int, index: int = 0, points: int = SCAN_POINTS,
              grid: int = SCAN_GRID) -> str:
    """A 3D cloud on an integer grid with ``grid`` values per axis, each
    value taken by the same number of points (give or take one), so every
    seed has the same number of tied pairs per axis and most 4-subsets
    have ties (partial orders).  ``index`` picks one of a seed's clouds."""
    if not 4 <= points <= MAX_CLOUD_POINTS:
        raise ValueError(f"clouds hold 4 to {MAX_CLOUD_POINTS} points, got {points}")
    salt = (index,) if index else ()  # cloud 0 keeps the seed's first stream
    rng = rng_for("scan_ties", seed, *salt)
    columns = []
    for _ in range(3):
        values = [i % grid for i in range(points)]
        rng.shuffle(values)
        columns.append(values)
    lines = ["label,x,y,z"]
    for i, (x, y, z) in enumerate(zip(*columns)):
        lines.append(f"P{i + 1},{x},{y},{z}")
    return "\n".join(lines) + "\n"


def scan_clouds(seed: int) -> list:
    """The clouds one ``scan_ties`` run scans in turn."""
    return [cloud_csv(seed, k) for k in range(SCAN_CLOUDS)]


def config_text(n: int, orders, partial: bool = False) -> str:
    """The simplexfix text format for chains or covering-pair lists."""
    lines = [f"labels: {' '.join(labels(n))}"]
    for axis, order in zip(axes(n), orders):
        if partial:
            lines.append(f"{axis}: " + ", ".join(f"{e}<{f}" for e, f in order))
        else:
            lines.append(f"{axis}: " + " < ".join(order))
    return "\n".join(lines) + "\n"


def config_json(n: int, orders) -> str:
    """The JSON mirror of a linear configuration."""
    payload = {
        "labels": list(labels(n)),
        "axes": list(axes(n)),
        "orders": {a: [[e, f] for e, f in zip(s, s[1:])] for a, s in zip(axes(n), orders)},
    }
    return json.dumps(payload) + "\n"


def cli_calls(seed: int) -> list:
    """One cycle of CLI calls as ``[argv, input_name, input_text]``;
    ``argv`` names the input file by ``input_name``.  The cycle repeats
    until the run ends.

    Three calls per cycle work at n = 6 and pay the table build in their
    process, several times slower than any other call.  A run makes
    about 20 of them, so its tail percentile (the 11th-slowest call) falls
    inside that group and not on the edge between two kinds of call."""
    rng = rng_for("cli_calls", seed)
    calls = []

    def add(argv, name=None, text=None):
        calls.append([argv, name, text])

    for n in (3, 4, 5, 6):
        # the n = 4 text call decides a fixed configuration, so both
        # verdict kinds reach the output
        seqs = tuple(_relabel_fixed_n4(rng)) if n == 4 else random_linear(rng, n)
        add(["decide", f"decide{n}.txt"], f"decide{n}.txt", config_text(n, seqs))
        seqs = random_linear(rng, n)
        add(["decide", f"decide{n}.json", "--format", "json"], f"decide{n}.json",
            config_json(n, seqs))
    add(["witness", "witness3.txt", "--format", "json"], "witness3.txt",
        config_text(3, non_fixed_n3(rng)))
    for fmt in ("text", "json"):
        add(["witness", f"witness4-{fmt}.txt", "--format", fmt], f"witness4-{fmt}.txt",
            config_text(4, non_fixed_n4(rng)))
    add(["canon", "canon4.txt", "--format", "json"], "canon4.txt",
        config_text(4, random_linear(rng, 4)))
    add(["canon", "canon5.txt"], "canon5.txt", config_text(5, random_linear(rng, 5)))
    add(["canon", "canon6.txt"], "canon6.txt", config_text(6, random_linear(rng, 6)))
    partial = drop_covering_pairs(rng, random_linear(rng, 4), 2)
    add(["extensions", "partial4.txt", "--format", "json"], "partial4.txt",
        config_text(4, partial, partial=True))
    add(["scan", SHIPPED_CLOUD, "--format", "json"])
    add(["count-classes", "5"])
    return calls
