"""Reproduce the figures of the ROADMAP "Baseline" section, once.

    python3 bench/baseline.py            # about five minutes on 2 cores

Not part of a benchmark run: it deliberately goes where the workloads do
not (a cold n = 7 decide, the n = 5 census, a 30-point cloud) to check the
ROADMAP's one-off numbers.  Each cold figure comes from a fresh child
interpreter; peak memory is that child's.  Results are printed as one
JSON object; bench/NOTES.md compares them with the ROADMAP.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from harness import child_env  # noqa: E402

CHILD_TIMEOUT_S = 600


def sweep() -> dict:
    import simplexfix as sf
    from simplexfix import engine

    labels, axes = inputs.labels(4), inputs.axes(4)
    start = time.perf_counter()
    cfgs = [sf.Configuration.from_sequences(labels, axes, s) for s in inputs.sweep_items()]
    build = time.perf_counter() - start
    start = time.perf_counter()
    verdicts = [sf.decide(c) for c in cfgs]
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for c in cfgs:
        sf.decide(c)
    warm = time.perf_counter() - start
    engine.clear_memo()
    start = time.perf_counter()
    for c in cfgs:
        sf.decide(c)
    memo_cleared = time.perf_counter() - start
    start = time.perf_counter()
    assert all(sf.replay_certificate(c, v) for c, v in zip(cfgs, verdicts))
    replay = time.perf_counter() - start
    non_fixed = [c for c, v in zip(cfgs, verdicts) if v.status is sf.Status.NON_FIXED][:500]
    start = time.perf_counter()
    for c in non_fixed:
        sf.build_witness(c)
    witness_ms = (time.perf_counter() - start) / len(non_fixed) * 1e3
    return {"build_s": build, "decide_cold_s": cold, "decide_warm_s": warm,
            "decide_memo_cleared_s": memo_cleared, "replay_s": replay,
            "witness_ms": witness_ms}


def cold_decide(n: int, count: int) -> dict:
    """First decide of a random linear configuration in this (fresh)
    process, then the mean of ``count`` more with a cold memo."""
    import simplexfix as sf
    from simplexfix import engine

    rng = random.Random(f"baseline:{n}")
    labels = tuple("ABCDEFG"[:n])
    axes = tuple(f"a{i}" for i in range(n - 1))

    def cfg():
        return sf.Configuration.from_sequences(
            labels, axes, [rng.sample(labels, n) for _ in range(n - 1)])

    start = time.perf_counter()
    sf.decide(cfg())
    first = time.perf_counter() - start
    times = []
    for _ in range(count):
        c = cfg()
        engine.clear_memo()
        start = time.perf_counter()
        sf.decide(c)
        times.append(time.perf_counter() - start)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"first_s": first, "mean_ms": sum(times) / len(times) * 1e3 if times else None,
            "peak_rss_mb": rss}


def census() -> dict:
    import simplexfix as sf

    start = time.perf_counter()
    reps = sf.enumerate_classes(5, allow_long=True)
    enumerate_s = time.perf_counter() - start
    start = time.perf_counter()
    counts = {}
    for r in reps:
        status = sf.decide(r, frontier_samples=0).status.value
        counts[status] = counts.get(status, 0) + 1
    return {"enumerate_s": enumerate_s, "decide_s": time.perf_counter() - start,
            "classes": len(reps), **counts}


def scan(points: int, threads: int) -> dict:
    import simplexfix as sf

    cloud = sf.PointCloud.from_csv(inputs.cloud_csv(0, points=points))
    start = time.perf_counter()
    report = sf.scan(cloud, threads=threads)
    wall = time.perf_counter() - start
    return {"subsets": len(report.results), "wall_s": wall,
            "per_subset_us": wall / len(report.results) * 1e6}


def shipped_scan() -> dict:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "simplexfix.cli", "scan", inputs.SHIPPED_CLOUD],
                   cwd=ROOT, env=child_env(), check=True, capture_output=True)
    return {"process_s": time.perf_counter() - start}


def in_child(expr: str) -> dict:
    code = (f"import sys, json; sys.path[:0] = [{str(BENCH)!r}]; import baseline; "
            f"print(json.dumps(baseline.{expr}))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout)


def main() -> int:
    results = {
        "sweep_n4": in_child("sweep()"),
        "cold_n5": in_child("cold_decide(5, 50)"),
        "cold_n6": in_child("cold_decide(6, 20)"),
        "cold_n7": in_child("cold_decide(7, 0)"),
        "census_n5": in_child("census()"),
        "shipped_scan": shipped_scan(),
        "scan_30_points": in_child("scan(30, 1)"),
        "scan_22_points_threads_1": in_child("scan(22, 1)"),
        "scan_22_points_threads_4": in_child("scan(22, 4)"),
    }
    print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
