"""Measurement plumbing: percentiles, the per-layer tracer, child
processes and resident memory.  Nothing here knows about simplexfix."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROCESS_TIMEOUT_S = 60.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it, but
    never below the median: below 20 samples the tail is the median."""
    return max(50.0, 100.0 * (count - 10) / count)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


class Tally:
    """The checks one run made, and the verdicts it saw."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.verdicts = 0
        self.unknown = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def verdict(self, status: str) -> None:
        self.verdicts += 1
        self.unknown += status == "unknown"


class Tracer:
    """Busy time and call counts per layer, measured around the calls the
    benchmark makes into each module, plus free-form counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.memo_keys = set()

    def memo_key(self, key) -> None:
        """A linear configuration reached the decider, under this
        canonical key."""
        self.memo_keys.add(key)
        self.counts["engine.linear_decides"] += 1

    def memo_reset(self) -> None:
        """The decider's memo starts cold again (a new pass or process)."""
        self.counts["engine.memo_distinct"] += len(self.memo_keys)
        self.memo_keys.clear()

    def call(self, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] += time.perf_counter() - start
            self.calls[layer] += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount


def timed_loop(fn, units, seconds: float, tally: Tally, latencies: list,
               min_units: int = 1, between=None, breaks: int = 0) -> int:
    """Closed loop: run ``fn`` on successive units, each starting when the
    previous one returned, until ``seconds`` have passed and at least
    ``min_units`` ran.  Appends each unit's latency and returns the number
    of items completed.  An exception fails the unit and the loop goes on.

    ``between()`` runs ``breaks`` times between units, spread evenly over
    the measured time (the last one after the loop); its time does not
    count towards ``seconds``."""
    items = 0
    done = 0
    start = time.perf_counter()
    paused = 0.0

    def measured() -> float:
        return time.perf_counter() - start - paused

    def take_breaks(final: bool) -> None:
        nonlocal done, paused
        while done < breaks and (final or measured() >= (done + 1) * seconds / breaks):
            t = time.perf_counter()
            between()
            done += 1
            paused += time.perf_counter() - t

    for u in units:
        take_breaks(False)
        t = time.perf_counter()
        try:
            items += fn(u)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.check(False, f"unit {u!r}: {exc!r}")
        latencies.append(time.perf_counter() - t)
        if measured() >= seconds and len(latencies) >= min_units:
            break
    take_breaks(True)
    return items


def call(tracer, layer, fn, *args, **kwargs):
    """``fn(*args)``, timed under ``layer`` when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(layer, fn, *args, **kwargs)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first,
    and no SIMPLEXFIX_* overrides of CLI defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMPLEXFIX_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class ProcessResult:
    def __init__(self, returncode, stdout, first_line_s, total_s, stderr):
        self.returncode = returncode
        self.stdout = stdout
        self.first_line_s = first_line_s
        self.total_s = total_s
        self.stderr = stderr

    def failure(self) -> str:
        """Exit code and the last line of stderr, for a failure message."""
        lines = self.stderr.decode(errors="replace").strip().splitlines()
        return f"exit code {self.returncode}: {lines[-1] if lines else ''}"


def line_times(argv, workdir: Path) -> list:
    """Run a child to completion; the seconds from launch to each line it
    prints, with the line."""
    with open(workdir / "probe-stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = [(line, time.perf_counter() - start) for line in proc.stdout]
            proc.stdout.close()
            returncode = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if returncode != 0:
        raise RuntimeError(f"{argv} exited with {returncode}: "
                           f"{(workdir / 'probe-stderr.txt').read_text()[-2000:]}")
    return out


def run_process(argv, workdir: Path, env=None) -> ProcessResult:
    """Run a child to completion; time launch -> first stdout line and
    launch -> exit.  Stderr goes to a file so a chatty child cannot block
    on a full pipe while stdout is read."""
    err_path = workdir / f"stderr-{threading.get_ident()}.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env or child_env()
        )
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            first_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.stdout.close()
            returncode = proc.wait()
            total_s = time.perf_counter() - start
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    stderr = err_path.read_bytes()
    err_path.unlink()
    return ProcessResult(returncode, first + rest, first_s, total_s, stderr)


def cli_argv(args) -> list:
    return [sys.executable, "-m", "simplexfix.cli", *args]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB
