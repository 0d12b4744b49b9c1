"""Exhaustive long-running sweeps (deselected by default; run with
``pytest -m slow``)."""

import os
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations, product, zip_longest
from pathlib import Path

import pytest

from simplexfix import (
    ConfigSign,
    Configuration,
    PointCloud,
    Status,
    build_witness,
    decide,
    enumerate_classes,
    replay_certificate,
    sample_signs,
    verify_witness,
)
from simplexfix.equivalence import code_of
from class_growth import FIXED_SIX, classes, fixed_classes, grow, survivors
from conftest import N4_LABELS, XYZ
from scan_reference import grid_cloud_csv, reference_scan_lines

TESTS = Path(__file__).resolve().parent


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
def test_five_label_census_is_exact():
    # every class decided: 36 fixed, 5,061 non-fixed, none unknown; the 22
    # classes neither the lemma nor the expansion settles are backed by
    # sampling (ray_all) or an exact witness (ray_pair); the fixed classes
    # are exactly those grown from the fixed four-label ones
    reps = enumerate_classes(5, allow_long=True)
    statuses = Counter()
    kinds = Counter()
    fixed = set()
    for index, rep in enumerate(reps):
        verdict = decide(rep)
        statuses[verdict.status] += 1
        if verdict.status is Status.FIXED:
            fixed.add(code_of(rep))
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
    grown = fixed_classes(grow([rep for rep, _ in fixed_classes(enumerate_classes(4))]))
    assert fixed == {code_of(rep) for rep, _ in grown}


@pytest.mark.slow
def test_six_label_growth_gives_the_committed_fixed_classes():
    # the survivor filter keeps 4,257 of 5.6 million candidates; the
    # expansion certifies 93 of the 313 fixed classes, and 67 classes
    # whose every extreme removal is fixed are non-fixed
    five = [rep for rep, _ in fixed_classes(grow([rep for rep, _ in fixed_classes(enumerate_classes(4))]))]
    candidates = survivors(five)
    assert len(candidates) == 4257
    grown = [(rep, decide(rep)) for rep in classes(candidates)]
    assert len(grown) == 380
    kinds = Counter((verdict.status, verdict.certificate["inner"]["type"]) for _, verdict in grown)
    assert kinds == {
        (Status.FIXED, "expansion"): 93,
        (Status.FIXED, "ray_all"): 220,
        (Status.NON_FIXED, "ray_pair"): 67,
    }
    fixed = [code_of(rep).hex() for rep, verdict in grown if verdict.status is Status.FIXED]
    assert fixed == FIXED_SIX.read_text().split()


# a child reports its own peak RSS (VmHWM) on stderr at exit; the
# rusage of a forked child would also count the parent's memory
_REPORT_PEAK = (
    "import atexit, sys; atexit.register(lambda: sys.stderr.write(next("
    "line for line in open('/proc/self/status') if line.startswith('VmHWM'))))"
)


def _peak_rss_kb(code, args, out_path, env) -> int:
    """Run ``python -c code args`` with stdout to a file; its peak RSS in KiB."""
    with open(out_path, "wb") as out:
        proc = subprocess.run([sys.executable, "-c", f"{_REPORT_PEAK}; {code}", *args],
                              stdout=out, stderr=subprocess.PIPE, env=env, check=True)
    return int(proc.stderr.decode().split()[-2])


@pytest.mark.slow
def test_thirty_point_scan_streams_the_reference_in_less_memory(tmp_path):
    # 27,405 subsets, most with ties: the CLI's streamed output equals the
    # per-subset reference, and it peaks below a process holding every
    # subset's configuration and verdict
    path = tmp_path / "grid30.csv"
    path.write_text(grid_cloud_csv(30, points=30, grid=8))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    start = time.perf_counter()
    streamed_kb = _peak_rss_kb(
        "from simplexfix.cli import main; sys.exit(main(sys.argv[1:]))",
        ["scan", str(path), "--format", "json"], tmp_path / "scan.out", env,
    )
    scan_s = time.perf_counter() - start
    held_kb = _peak_rss_kb(
        "from simplexfix import PointCloud; from scan_reference import reference_scan_output; "
        "sys.stdout.write(reference_scan_output(PointCloud.from_csv(open(sys.argv[1]).read()), 'json'))",
        [str(path)], tmp_path / "reference.out", env,
    )
    print(f"scan {scan_s:.2f} s, peak {streamed_kb} KiB; reference peak {held_kb} KiB")
    assert (tmp_path / "scan.out").read_bytes() == (tmp_path / "reference.out").read_bytes()
    assert streamed_kb < held_kb


@pytest.mark.slow
def test_fifty_point_scan_matches_a_streaming_reference(tmp_path):
    # 230,300 subsets: the CLI's output, written to a file, equals the
    # per-subset reference line by line; the reference decides and renders
    # one subset at a time, so the test holds neither side's results
    text = grid_cloud_csv(50, points=50, grid=8)
    path = tmp_path / "grid50.csv"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    with open(tmp_path / "scan.out", "wb") as out:
        subprocess.run([sys.executable, "-m", "simplexfix.cli", "scan", str(path), "--format", "json"],
                       stdout=out, env=env, check=True)
    lines = 0
    with open(tmp_path / "scan.out", encoding="utf-8") as got:
        for want, line in zip_longest(reference_scan_lines(PointCloud.from_csv(text), "json"), got):
            assert want is not None and line == want + "\n", lines
            lines += 1
    assert lines == 230_300 + 1
