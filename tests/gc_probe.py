"""What the process's long-lived caches cost the garbage collector: for
each state, the objects the collector tracks and how long a full
(generation-2) collection takes, so a change to what the caches hold can
show its effect on collection pauses.

    PYTHONPATH=src python3 tests/gc_probe.py

States, each from empty caches:

* ``canonical_cache``: ``equivalence.canonical`` filled to its bound with
  distinct seeded n = 5 codes;
* ``decide_memo``: ``decide`` on seeded linear n = 5 and n = 6
  configurations without ``clear_memo``, which fills the class memo and
  the canonical cache as a long-running caller would;
* ``stream``: seeded passes of fresh linear configurations, each decided
  and its certificate replayed, with ``clear_memo`` before every pass, the
  shape of the benchmark's ``highdim`` workload: n = 5 ones grown from the
  fixed n = 4 classes (a fifth label inserted on each axis, and a random
  fourth axis), random n = 5 ones and random n = 6 ones.

For the first two, each line gives the state's entries, the tracked
objects it added (after two collections, since a full pass can meet a
tuple before the tuples it holds are untracked), the process's tracked
total, and the median and maximum of five timed full collections in ms.
For ``stream`` it gives the full collections the interpreter started by
itself during the passes (seen through ``gc.callbacks``) and the longest
of them in ms.  Plain module (no pytest); it runs in well under a minute.
"""

import gc
import random
import sys
import time

from simplexfix import (
    Configuration,
    Status,
    decide,
    engine,
    enumerate_classes,
    equivalence,
    replay_certificate,
)

N5_CODES = equivalence._CACHE_SIZE
MEMO_N5, MEMO_N6 = 4000, 200
STREAM_PASSES, STREAM_GROWN5, STREAM_N5, STREAM_N6 = 160, 160, 60, 12


def _seeded_codes(n: int, count: int, seed: str) -> set:
    rng = random.Random(seed)
    codes = set()
    while len(codes) < count:
        codes.add(bytes(v for _ in range(n - 1) for v in rng.sample(range(n), n)))
    return codes


def _seeded_linear(n: int, count: int, seed: str) -> list:
    rng = random.Random(seed)
    labels = equivalence.default_labels(n)
    axes = equivalence.default_axes(n - 1)
    return [
        Configuration.from_sequences(labels, axes, [rng.sample(labels, n) for _ in axes])
        for _ in range(count)
    ]


def _stream_pass(rng: random.Random, fixed4: list):
    """One ``stream`` pass, each configuration built only when it is
    decided, so that the inputs themselves outlive no collection."""
    labels = equivalence.default_labels(5)
    axes = equivalence.default_axes(4)
    for _ in range(STREAM_GROWN5):
        seqs = []
        for seq in rng.choice(fixed4):
            i = rng.randrange(5)
            seqs.append(seq[:i] + ("E",) + seq[i:])
        yield Configuration.from_sequences(labels, axes, [*seqs, rng.sample(labels, 5)])
    for n, count in ((5, STREAM_N5), (6, STREAM_N6)):
        labels = equivalence.default_labels(n)
        axes = equivalence.default_axes(n - 1)
        for _ in range(count):
            yield Configuration.from_sequences(labels, axes, [rng.sample(labels, n) for _ in axes])


def _fill_canonical() -> int:
    codes = _seeded_codes(5, N5_CODES, "gc-probe:5")
    for code in codes:
        equivalence.canonical(code, 5)
    return equivalence.canonical.cache_info().currsize


def _fill_decide_memo() -> int:
    for n, count in ((5, MEMO_N5), (6, MEMO_N6)):
        for cfg in _seeded_linear(n, count, f"gc-probe:{n}"):
            decide(cfg)
    return engine._decide_class.cache_info().currsize


def probe(fill) -> str:
    equivalence.canonical.cache_clear()
    engine.clear_memo()
    gc.collect()
    before = len(gc.get_objects())
    entries = fill()
    gc.collect()
    gc.collect()
    tracked = len(gc.get_objects())
    pauses = []
    for _ in range(5):
        start = time.perf_counter()
        gc.collect()
        pauses.append((time.perf_counter() - start) * 1000)
    pauses.sort()
    return (
        f"entries={entries} tracked_growth={tracked - before} tracked={tracked} "
        f"full_collection_ms_median={pauses[2]:.1f} full_collection_ms_max={pauses[-1]:.1f}"
    )


def stream() -> str:
    equivalence.canonical.cache_clear()
    engine.clear_memo()
    gc.collect()
    pauses, started = [], []

    def watch(phase, info):
        if info["generation"] == 2:
            if phase == "start":
                started.append(time.perf_counter())
            else:
                pauses.append((time.perf_counter() - started.pop()) * 1000)

    fixed4 = [
        tuple(o.sequence() for o in rep.orders)
        for rep in enumerate_classes(4)
        if decide(rep).status is Status.FIXED
    ]
    rng = random.Random("gc-probe:stream")
    gc.callbacks.append(watch)
    try:
        for _ in range(STREAM_PASSES):
            engine.clear_memo()
            for cfg in _stream_pass(rng, fixed4):
                if not replay_certificate(cfg, decide(cfg)):
                    raise SystemExit(f"stream: a certificate does not replay:\n{cfg}")
    finally:
        gc.callbacks.remove(watch)
    items = STREAM_PASSES * (STREAM_GROWN5 + STREAM_N5 + STREAM_N6)
    return (
        f"passes={STREAM_PASSES} items={items} "
        f"full_collections={len(pauses)} full_collection_ms_max={max(pauses, default=0):.1f}"
    )


def main() -> int:
    for name, fill in (("canonical_cache", _fill_canonical), ("decide_memo", _fill_decide_memo)):
        print(f"{name} {probe(fill)}")
    print(f"stream {stream()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
