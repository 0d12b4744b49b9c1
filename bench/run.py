"""simplexfix benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload highdim --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all     # each workload in a fresh process
    python3 bench/run.py --record           # rewrite bench/expected.json (seed 0)

Run it from anywhere inside a checkout; it uses the sources under
``src/`` and needs nothing installed.  One client drives the program in
a closed loop (each unit of work starts when the previous one returned),
single-threaded, for ``--seconds``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics instead: units alternate
between plain and traced, so both see the same cache state, and the ratio
of their mean latencies is the tracing overhead.

Report lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every operation's
output is checked (see workloads.py); ``correct`` is false when any check
failed.  The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from harness import (
    Tracer,
    line_times,
    median,
    peak_rss_mb,
    percentile,
    run_process,
    tail_percentile,
    timed_loop,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# BENCHMARK.json lists only highdim and scan_ties: on a shared 2-core host
# only runs of about a minute average out the host's changes of speed, and
# the run budget allows that for two workloads (see NOTES.md)
WORKLOAD_NAMES = ("sweep_n4", "highdim", "scan_ties", "cli_calls")
# set-up probes: at least SETUP_PROBES, more while they fit in
# SETUP_PROBE_SECONDS, since a median of short process launches is noisy
SETUP_PROBES = 7
MAX_SETUP_PROBES = 15
SETUP_PROBE_SECONDS = 4.0
STARTUP_PROBES = 3

# name -> unit; the same names and units as BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "first_result_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "decided_frac": "ratio",
}
PER_LAYER = {
    "orders.build_s": "s",
    "orders.build_calls": "count",
    "orders.extensions_s": "s",
    "orders.extensions_total": "count",
    "configio.parse_s": "s",
    "configio.parse_calls": "count",
    "equivalence.canon_s": "s",
    "equivalence.canon_calls": "count",
    "equivalence.canon_cold_s": "s",
    "engine.memo_hit_ratio": "ratio",
    "engine.decide_s": "s",
    "engine.decide_calls": "count",
    "engine.sample_s": "s",
    "engine.sample_draws": "count",
    "engine.replay_s": "s",
    "engine.replay_calls": "count",
    "engine.replay_failed": "count",
    "engine.witness_s": "s",
    "engine.witness_calls": "count",
    "engine.witness_failed": "count",
    "landmark.parse_s": "s",
    "landmark.derive_s": "s",
    "landmark.derive_calls": "count",
    "landmark.render_s": "s",
    "landmark.partial_share": "ratio",
    "landmark.pattern_reuse": "ratio",
    "cli.startup_ms": "ms",
    "cli.main_s": "s",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the seed-0 output digests in bench/expected.json")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


class SetupProbes:
    """Launch -> inputs loaded, and launch -> first configuration decided
    (in-process workloads), in fresh interpreters.  Each call is one
    probe; a run spreads them over its measured time, so their medians
    see the same host as the rest of the run."""

    def __init__(self, name, seed, workdir):
        self.argv = [sys.executable, str(BENCH / "probe.py"), "setup", name, str(seed),
                     str(workdir)]
        self.workdir = workdir
        self.ready, self.first = [], []

    def __call__(self) -> None:
        lines = dict(line_times(self.argv, self.workdir))
        self.ready.append(lines[b"ready\n"])
        if b"first\n" in lines:
            self.first.append(lines[b"first\n"])

    def count(self) -> int:
        """How many probes a run makes: as many as fit in
        SETUP_PROBE_SECONDS, judged by the first probe, within limits."""
        last = self.first[-1] if self.first else self.ready[-1]
        return max(SETUP_PROBES, min(MAX_SETUP_PROBES, int(SETUP_PROBE_SECONDS / last)))


def probe_cold(name, seed, workdir) -> float:
    (line, _), = line_times([sys.executable, str(BENCH / "probe.py"), "cold", name,
                             str(seed), str(workdir)], workdir)
    return sum(json.loads(line).values())


def probe_startup(workdir) -> float:
    times = [run_process([sys.executable, "-c", "import simplexfix.cli"], workdir).total_s
             for _ in range(STARTUP_PROBES)]
    return median(times)


def measure(workload, seconds, expected, workdir, report):
    """The end-to-end metrics of one untraced run."""
    probes = SetupProbes(workload.name, workload.seed, workdir / "probe")
    probes()
    workload.load()
    latencies = []
    items = timed_loop(workload.unit, workload.units(), seconds, workload.tally, latencies,
                       between=probes, breaks=probes.count() - 1)
    workload.finish(expected)
    tally = workload.tally
    tail = tail_percentile(len(latencies))
    report(f"latency: {len(latencies)} units, tail read at p{tail:.2f}; "
           f"{len(probes.ready)} set-up probes")
    first = median(workload.first_results or probes.first)
    return {
        "setup_s": median(probes.ready),
        "items_per_s": items / sum(latencies),
        "item_p50_ms": median(latencies) * 1e3,
        "item_tail_ms": percentile(latencies, tail) * 1e3,
        "first_result_s": first,
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        "decided_frac": 1.0 - tally.unknown / max(tally.verdicts, 1),
    }


def trace(workload, seconds, expected, workdir, report):
    """The per-layer metrics of one traced run."""
    import workloads  # imports simplexfix, so only once src/ is on the path
    workload.load()
    units = iter(workload.units())
    # untimed: fills caches and records the outputs later units compare to
    for u in workload.prime_units() if not workload.in_process else [next(units)]:
        workload.unit(u)
    if not workload.in_process:
        # each command once plain, then once traced: the pair sees the same
        # input and the same in-process caches
        units = (u for u in units for _ in (0, 1))
    tr = workload.tracer = Tracer()
    both = []

    def alternate(u):
        workload.tr = tr if len(both) % 2 else None
        return workload.unit(u) if workload.tr else workload.inproc(u)

    timed_loop(alternate, units, seconds, workload.tally, both, min_units=2)
    plain, traced = both[0::2], both[1::2]
    workload.tr = None
    workloads.cover(workload.cover_configs(), tr, workload.tally, workdir)
    tr.memo_reset()
    workload.finish(expected)
    cold = probe_cold(workload.name, workload.seed, workdir / "probe")
    startup = probe_startup(workdir)

    s, c, k = tr.seconds, tr.calls, tr.counts
    overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0
    report(f"trace: {len(plain)} plain and {len(traced)} traced units")
    main_s = median(plain) if not workload.in_process else s["cli.main"] / c["cli.main"]
    return {
        "orders.build_s": s["orders.build"],
        "orders.build_calls": c["orders.build"],
        "orders.extensions_s": s["orders.extensions"],
        "orders.extensions_total": k["orders.extensions_total"],
        "configio.parse_s": s["configio.parse"],
        "configio.parse_calls": c["configio.parse"],
        "equivalence.canon_s": s["equivalence.canon"],
        "equivalence.canon_calls": c["equivalence.canon"],
        "equivalence.canon_cold_s": cold,
        "engine.memo_hit_ratio": 1.0 - k["engine.memo_distinct"] / k["engine.linear_decides"],
        "engine.decide_s": s["engine.decide"],
        "engine.decide_calls": c["engine.decide"],
        "engine.sample_s": s["engine.sample"],
        "engine.sample_draws": k["engine.sample_draws"],
        "engine.replay_s": s["engine.replay"],
        "engine.replay_calls": c["engine.replay"],
        "engine.replay_failed": k["engine.replay_failed"],
        "engine.witness_s": s["engine.witness"],
        "engine.witness_calls": c["engine.witness"],
        "engine.witness_failed": k["engine.witness_failed"],
        "landmark.parse_s": s["landmark.parse"],
        "landmark.derive_s": s["landmark.derive"],
        "landmark.derive_calls": c["landmark.derive"],
        "landmark.render_s": s["landmark.render"],
        "landmark.partial_share": k["landmark.partial"] / k["landmark.subsets"],
        "landmark.pattern_reuse": k["landmark.subsets"] / k["landmark.patterns"],
        "cli.startup_ms": startup * 1e3,
        "cli.main_s": main_s,
        "trace.overhead": overhead,
    }


def record(workdir) -> None:
    """Run every workload on seed 0 once and store its output digests."""
    from workloads import WORKLOADS

    out = {"seed": 0}
    for name, cls in WORKLOADS.items():
        workload = cls(0, workdir)
        workload.load()
        for u in workload.prime_units():
            workload.unit(u)
        out[name] = workload.finish(None)
        if workload.tally.failed:
            raise SystemExit(f"{name}: checks failed while recording: {workload.tally.failures}")
    (BENCH / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every workload in its own fresh process; a table, then one JSON
    object mapping each workload to its result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stdout.splitlines()[:-1]:
            print(f"{name}: {line}")
        for metric, m in results[name]["metrics"].items():
            print(f"{name:10s} {metric:26s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "simplexfix" / "__init__.py").is_file():
        print(f"bench: no simplexfix sources under {ROOT / 'src'}; run it inside a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("SIMPLEXFIX_")]:
        del os.environ[key]  # CLI defaults must not come from the caller's environment

    workdir = ROOT / ".bench_work" / f"{args.workload or 'record'}-{os.getpid()}"
    (workdir / "probe").mkdir(parents=True)
    try:
        if args.record:
            record(workdir)
            return 0
        import numpy
        from workloads import WORKLOADS, load_expected

        def report(line):
            print(f"# {line}", flush=True)

        report(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
               f"nproc {os.cpu_count()}")
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = trace if args.trace else measure
        metrics = run(workload, args.seconds, load_expected(), workdir, report)
        tally = workload.tally
        for failure in tally.failures:
            report(f"FAILED: {failure}")
        units = PER_LAYER if args.trace else END_TO_END
        result = {
            "correct": tally.failed == 0,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
