"""One sha256 per output family, so a refactor can show that it changes
no output byte: run it on two checkouts and compare the lines.

    PYTHONPATH=src python3 tests/output_fingerprint.py

Families:

* ``decide_linear``: decide JSON and replay result of every linear n = 3
  and n = 4 configuration and of seeded linear n = 5 and n = 6 ones;
* ``decide_partial``: the same of seeded partial n = 3..5 ones;
* ``witness``: witness JSON of the non-fixed ones among them, built as
  the CLI builds it (no verdict);
* ``witness_given``: the same built following ``decide``'s verdict;
* ``dim3``: ``decide_dim3`` JSON of every linear n = 4 configuration,
  the n = 4 check's own output;
* ``sample``: ``sample_signs`` histograms over seeded configurations,
  partial and linear;
* ``scan``: ``simplexfix scan`` output, JSON and text, plain and with
  ``--jitter``, of the shipped cloud and seeded tie-heavy ones in 2D,
  3D and 4D.

Plain module (no pytest); it runs in well under a minute.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from itertools import permutations, product
from pathlib import Path

from scan_reference import grid_cloud_csv

from simplexfix import (
    Configuration,
    NotNonFixedError,
    Status,
    build_witness,
    decide,
    decide_dim3,
    replay_certificate,
    sample_signs,
)
from simplexfix import cli
from simplexfix.configio import assignment_to_json

CLOUD_CSV = Path(__file__).resolve().parent.parent / "data" / "landmarks_synthetic.csv"


def _labels(n: int) -> tuple:
    return tuple("ABCDEFGH"[:n])


def _axes(n: int) -> tuple:
    return tuple(f"a{i}" for i in range(n - 1))


def all_linear(n: int) -> list:
    """Every linear configuration on ``n`` labels, in a fixed order."""
    labels = _labels(n)
    perms = list(permutations(labels))
    return [
        Configuration.from_sequences(labels, _axes(n), seqs)
        for seqs in product(perms, repeat=n - 1)
    ]


def seeded_linear(n: int, count: int, seed: int) -> list:
    rng = random.Random(f"fingerprint-linear:{n}:{seed}")
    labels = _labels(n)
    return [
        Configuration.from_sequences(labels, _axes(n), [rng.sample(labels, n) for _ in range(n - 1)])
        for _ in range(count)
    ]


def seeded_partial(n: int, count: int, seed: int) -> list:
    """Random chains with each covering pair dropped with probability
    1/2; at least one axis partial."""
    rng = random.Random(f"fingerprint-partial:{n}:{seed}")
    labels = _labels(n)
    out = []
    while len(out) < count:
        pairs = {}
        for axis in _axes(n):
            seq = rng.sample(labels, n)
            pairs[axis] = [p for p in zip(seq, seq[1:]) if rng.random() >= 0.5]
        cfg = Configuration.from_pairs(labels, _axes(n), pairs)
        if not cfg.is_linear():
            out.append(cfg)
    return out


def configurations() -> list:
    out = all_linear(3) + all_linear(4)
    out += seeded_linear(5, 120, 0) + seeded_linear(6, 30, 0)
    for n, count in ((3, 60), (4, 200), (5, 80)):
        out += seeded_partial(n, count, 0)
    return out


def _line(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode() + b"\n"


def decide_family(cfgs: list, verdicts: list, linear: bool) -> bytes:
    return b"".join(
        _line([verdict.to_json(), replay_certificate(cfg, verdict)])
        for cfg, verdict in zip(cfgs, verdicts)
        if cfg.is_linear() is linear
    )


def witness_family(cfgs: list, verdicts: list, given: bool) -> bytes:
    out = []
    for k, (cfg, verdict) in enumerate(zip(cfgs, verdicts)):
        # every n = 4 linear input would take most of the run: one in five
        if verdict.status is not Status.NON_FIXED or (cfg.n() == 4 and cfg.is_linear() and k % 5):
            continue
        pair = build_witness(cfg, verdict if given else None)
        out.append(_line([assignment_to_json(pair.plus), assignment_to_json(pair.minus)]))
    if not given:
        try:
            build_witness(all_linear(3)[1])
        except NotNonFixedError as exc:
            out.append(_line(str(exc)))
    return b"".join(out)


def dim3_family() -> bytes:
    return b"".join(_line(decide_dim3(cfg).to_json()) for cfg in all_linear(4))


def sample_family() -> bytes:
    cfgs = seeded_partial(3, 10, 1) + seeded_partial(4, 10, 1) + seeded_partial(5, 10, 1)
    cfgs += seeded_linear(4, 5, 1) + seeded_linear(5, 5, 1)
    return b"".join(_line(sample_signs(cfg, k, 300)) for k, cfg in enumerate(cfgs))


def _cli(argv: list) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}\n".encode() + buf.getvalue().encode()


def scan_family() -> bytes:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = [CLOUD_CSV]
        for name, text in (
            ("grid", grid_cloud_csv(3, 16, 8)),
            ("grid2d", grid_cloud_csv(4, 20, 5, 2)),
            ("grid4d", grid_cloud_csv(5, 14, 4, 4)),
        ):
            paths.append(Path(tmp) / f"{name}.csv")
            paths[-1].write_text(text)
        for path in paths:
            for fmt in ("json", "text"):
                for extra in ([], ["--jitter", "7"]):
                    out.append(_cli(["scan", str(path), "--format", fmt, *extra]))
    return b"".join(out)


def main() -> int:
    cfgs = configurations()
    verdicts = [decide(cfg) for cfg in cfgs]
    families = {
        "decide_linear": decide_family(cfgs, verdicts, linear=True),
        "decide_partial": decide_family(cfgs, verdicts, linear=False),
        "witness": witness_family(cfgs, verdicts, given=False),
        "witness_given": witness_family(cfgs, verdicts, given=True),
        "dim3": dim3_family(),
        "sample": sample_family(),
        "scan": scan_family(),
    }
    for name, data in families.items():
        print(f"{name} {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
