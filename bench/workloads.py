"""The four benchmark workloads.

Each workload generates its inputs from the seed (``inputs.py``) and
loads them into library objects in ``load`` (what ``setup_s`` times).  A
unit of work comes in three forms:

* ``unit(u)`` -- the measured work with tracing off: in this process for
  ``sweep_n4`` and ``highdim``, one ``simplexfix`` process for
  ``scan_ties`` and ``cli_calls``;
* ``inproc(u)`` -- the same work in this process without tracing, the
  baseline the tracing overhead is taken against (``cli.main`` with
  stdout captured for the process workloads);
* ``unit(u)`` with ``self.tr`` set -- the same work split into calls into
  each module, every call timed by the tracer.

Every unit checks what it computed (certificates replay, witnesses
verify, outputs repeat byte for byte); ``finish`` runs the checks that
stay outside the timed region: recorded digests and thread independence.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from itertools import combinations, cycle, islice, repeat
from math import comb
from pathlib import Path

import simplexfix as sf
from simplexfix import cli, engine, landmark
from simplexfix.configio import parse_configuration, render_configuration_text

import inputs
from harness import ROOT, Tally, call, cli_argv, run_process, sha256

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
FRONTIER_SAMPLES = 1000  # decide's default frontier_samples
COVER_SAMPLES = 64
THREAD_CHECK_SAMPLES = 2048  # four sampling chunks, so two threads split them


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def code(verdict) -> str:
    """One character per verdict: '+' or '-' fixed, 'N' non-fixed, 'U'."""
    if verdict.status is sf.Status.FIXED:
        return str(verdict.sign)
    return "N" if verdict.status is sf.Status.NON_FIXED else "U"


def code_of_json(obj: dict) -> str:
    if obj["status"] == "fixed":
        return obj["sign"]
    return "N" if obj["status"] == "non_fixed" else "U"


def decide_output_code(out: bytes) -> str:
    """The verdict code of ``simplexfix decide`` output, text or JSON."""
    text = out.decode().strip()
    if text.startswith("{"):
        return code_of_json(json.loads(text))
    word, *rest = text.split()
    if word == "fixed":
        return rest[0]
    return "N" if word == "non_fixed" else "U"


STATUS_OF_CODE = {"+": "fixed", "-": "fixed", "N": "non_fixed", "U": "unknown"}


def codes_agree(expected: str, observed: str) -> bool:
    """Recorded and observed verdicts agree; a recorded 'unknown' may have
    become decided (its certificate replay is checked separately)."""
    return len(expected) == len(observed) and all(
        e == o or e == "U" for e, o in zip(expected, observed)
    )


def verdict_from_json(obj: dict):
    signs = {"+": sf.ConfigSign.PLUS, "-": sf.ConfigSign.MINUS, "+-": sf.ConfigSign.BOTH}
    return sf.FixityVerdict(
        sf.Status(obj["status"]), signs.get(obj.get("sign")), obj.get("certificate")
    )


def run_main(argv) -> tuple:
    """In-process ``simplexfix`` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode()


def memo_key(canon) -> tuple:
    index = {lab: i for i, lab in enumerate(canon.labels)}
    return tuple(tuple(index[lab] for lab in o.sequence()) for o in canon.orders)


def decide_traced(cfg, tr):
    """``decide(cfg)``; traced, split into extension enumeration,
    canonicalization, the decider proper and frontier sampling."""
    if tr is None:
        return sf.decide(cfg)
    linear = [cfg]
    if not cfg.is_linear():
        linear = tr.call("orders.extensions", list, sf.configuration_extensions(cfg))
        tr.count("orders.extensions_total", len(linear))
    for ext in linear:
        canon, _ = tr.call("equivalence.canon", sf.canonical_form, ext)
        tr.memo_key(memo_key(canon))
    verdict = tr.call("engine.decide", sf.decide, cfg, frontier_samples=0)
    if verdict.status is sf.Status.UNKNOWN:
        tr.call("engine.sample", sf.sample_signs, cfg, 0, FRONTIER_SAMPLES)
        tr.count("engine.sample_draws", FRONTIER_SAMPLES)
    return verdict


def check_replay(cfg, verdict, tr, tally, what) -> None:
    ok = call(tr, "engine.replay", sf.replay_certificate, cfg, verdict)
    if tr is not None:
        tr.count("engine.replay_failed", not ok)
    tally.check(ok, f"{what}: certificate does not replay")


def check_witness(cfg, verdict, tr, tally, what) -> None:
    pair = call(tr, "engine.witness", sf.build_witness, cfg, verdict)
    ok = sf.verify_witness(pair, cfg)
    if tr is not None:
        tr.count("engine.witness_failed", not ok)
    tally.check(ok, f"{what}: witness does not verify")


def render_scan(report) -> bytes:
    return "".join(
        json.dumps(obj, sort_keys=True) + "\n" for obj in report.to_json_objects()
    ).encode()


def traced_scan(text: str, tr) -> bytes:
    """``simplexfix scan --format json`` split into parse, derive, decide
    and render calls; returns the bytes the CLI prints."""
    tr.memo_reset()  # every scan is a fresh process with a cold memo
    cloud = tr.call("landmark.parse", landmark.PointCloud.from_csv, text)
    results = []
    patterns = set()
    for subset in combinations(cloud.labels, cloud.dimension + 1):
        cfg = tr.call("landmark.derive", landmark.derive_configuration, cloud, subset)
        index = {lab: i for i, lab in enumerate(cfg.labels)}
        patterns.add(tuple(frozenset((index[e], index[f]) for e, f in o.pairs) for o in cfg.orders))
        tr.count("landmark.subsets")
        tr.count("landmark.partial", not cfg.is_linear())
        results.append(landmark.SubsetResult(tuple(subset), cfg, decide_traced(cfg, tr)))
    tr.count("landmark.patterns", len(patterns))
    report = landmark.ScanReport(cloud.dimension, tuple(results))
    return tr.call("landmark.render", render_scan, report)


def rank_csv(cfg) -> str:
    """A point cloud realizing a linear configuration: each coordinate is
    the label's position on that axis."""
    rows = ["label," + ",".join(cfg.axes)]
    positions = [{lab: i for i, lab in enumerate(o.sequence())} for o in cfg.orders]
    for lab in cfg.labels:
        rows.append(f"{lab}," + ",".join(str(p[lab]) for p in positions))
    return "\n".join(rows) + "\n"


def cover(cfgs, tr, tally, workdir: Path) -> None:
    """Take each configuration through every front end and layer the
    workload itself may not reach, and check that they all agree: the text
    format round trip, rebuilding from pairs, extension enumeration,
    decide and replay, sampled signs against a fixed verdict, a witness
    for a non-fixed one, a landmark scan of a realizing point cloud, and
    ``simplexfix decide`` run in this process."""
    path = workdir / "cover.txt"
    for k, cfg in enumerate(cfgs):
        what = f"cover {k}"
        text = render_configuration_text(cfg)
        parsed = tr.call("configio.parse", parse_configuration, text)
        tally.check(parsed == cfg, f"{what}: text round trip changed the configuration")
        pairs = {a: sorted(o.pairs) for a, o in zip(cfg.axes, cfg.orders)}
        rebuilt = tr.call("orders.build", sf.Configuration.from_pairs, cfg.labels, cfg.axes, pairs)
        tally.check(rebuilt == cfg, f"{what}: rebuilding from pairs changed the configuration")
        exts = tr.call("orders.extensions", list, sf.configuration_extensions(cfg))
        tr.count("orders.extensions_total", len(exts))
        tally.check(len(exts) == sf.extension_count(cfg), f"{what}: extension count")
        verdict = decide_traced(cfg, tr)
        check_replay(cfg, verdict, tr, tally, what)
        if verdict.status is sf.Status.FIXED:
            hist = tr.call("engine.sample", sf.sample_signs, cfg, 0, COVER_SAMPLES)
            tr.count("engine.sample_draws", COVER_SAMPLES)
            wrong = hist["neg"] if verdict.sign is sf.ConfigSign.PLUS else hist["pos"]
            tally.check(wrong == 0, f"{what}: a sampled assignment contradicts the fixed sign")
        elif verdict.status is sf.Status.NON_FIXED:
            check_witness(cfg, verdict, tr, tally, what)
        if cfg.is_linear():
            first = json.loads(traced_scan(rank_csv(cfg), tr).splitlines()[0])
            tally.check(
                code_of_json(first) == code(verdict) or code(verdict) == "U",
                f"{what}: scan of a realizing cloud disagrees with decide",
            )
        path.write_text(text)
        rc, out = tr.call("cli.main", run_main, ["decide", str(path), "--format", "json"])
        tally.check(
            rc == 0 and code_of_json(json.loads(out)) == code(verdict),
            f"{what}: simplexfix decide disagrees with the library",
        )


def pick_cover(verdicts_and_cfgs, per_kind: int = 4) -> list:
    """A few fixed, non-fixed and unknown configurations, in input order."""
    taken = {"+": 0, "N": 0, "U": 0}
    out = []
    for verdict, cfg in verdicts_and_cfgs:
        kind = code(verdict).replace("-", "+")
        if taken[kind] < per_kind:
            taken[kind] += 1
            out.append(cfg)
        if taken["+"] == taken["N"] == per_kind:
            break
    return out


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.tracer = None  # set for a traced run
        self.tr = None  # the tracer when the current unit is traced
        self.first_results = []

    def inproc(self, u) -> int:
        return self.unit(u)

    def prime_units(self):
        """Units of a process workload to run once, untimed, before
        in-process runs compare against their outputs."""
        return []

    def cold_configs(self) -> dict:
        """One linear configuration per size n, for the cold
        canonicalization probe."""
        raise NotImplementedError


class SweepN4(Workload):
    """Every linear n = 4 configuration: built, decided from a cold memo,
    certificate replayed; a seeded sample of non-fixed ones also gets a
    witness.  The memo is nearly all hits (21 classes).

    A unit is one whole sweep.  Single configurations take about 0.3 ms,
    so their latency tail would measure the host's scheduling noise rather
    than the program."""

    name = "sweep_n4"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = inputs.sweep_n4(seed)
        self.seqs = inputs.sweep_items()
        self.witness = set(self.spec["witness"])
        self.codes = [None] * len(self.seqs)
        self.labels, self.axes = inputs.labels(4), inputs.axes(4)

    def config(self, i):
        return sf.Configuration.from_sequences(self.labels, self.axes, self.seqs[i])

    def load(self):
        # Every input becomes a library object once, but none is kept: the
        # timed sweeps build their own, and 13,824 live configurations
        # would make each garbage collection walk ~90 MB the program under
        # test did not allocate.
        for i in range(len(self.seqs)):
            self.config(i)

    def units(self):
        return repeat(self.spec["order"])

    def unit(self, order) -> int:
        """One whole sweep, from a cold memo."""
        engine.clear_memo()
        if self.tracer is not None:
            self.tracer.memo_reset()
        for i in order:
            self.item(i)
        return len(order)

    def first(self):
        self.item(self.spec["order"][0])

    def item(self, i):
        tr = self.tr
        cfg = call(tr, "orders.build", self.config, i)
        verdict = decide_traced(cfg, tr)
        self.tally.verdict(verdict.status.value)
        self._record(i, code(verdict))
        check_replay(cfg, verdict, tr, self.tally, f"sweep item {i}")
        if i in self.witness and verdict.status is sf.Status.NON_FIXED:
            check_witness(cfg, verdict, tr, self.tally, f"sweep item {i}")

    def _record(self, i, c):
        if self.codes[i] is None:
            self.codes[i] = c
        elif self.codes[i] != c:
            self.tally.check(False, f"sweep item {i}: verdict changed between passes")

    def cover_configs(self):
        cfgs = (self.config(i) for i in self.spec["order"])
        return pick_cover((sf.decide(c), c) for c in cfgs)

    def cold_configs(self):
        return {4: self.config(self.spec["order"][0])}

    def finish(self, expected):
        for i, c in enumerate(self.codes):
            if c is None:
                self.codes[i] = code(sf.decide(self.config(i)))
        observed = sha256("".join(self.codes).encode())
        if expected is not None:  # the same configurations for every seed
            self.tally.check(
                observed == expected["sweep_n4"]["verdicts_sha256"],
                "sweep verdicts differ from the recorded digest",
            )
        return {"verdicts_sha256": observed}


class HighDim(Workload):
    """Fresh n = 5 and n = 6 items every pass (memo misses): grown from
    fixed n = 4 ones, random linear, and partial n = 5; each decided with
    default frontier sampling and its certificate replayed."""

    name = "highdim"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pass0 = inputs.highdim(seed, 0)
        self.codes0 = [None] * len(self.pass0)

    def build(self, item):
        kind, n, orders = item
        labels, axes = inputs.labels(n), inputs.axes(n)
        if kind == "partial5":
            return call(self.tr, "orders.build", sf.Configuration.from_pairs, labels, axes,
                        dict(zip(axes, orders)))
        return call(self.tr, "orders.build", sf.Configuration.from_sequences, labels, axes, orders)

    def load(self):
        self.cfgs0 = [self.build(item) for item in self.pass0]

    def units(self):
        p = 0
        while True:
            engine.clear_memo()
            if self.tracer is not None:
                self.tracer.memo_reset()
            items = self.pass0 if p == 0 else inputs.highdim(self.seed, p)
            for j, item in enumerate(items):
                yield p, j, item
            p += 1

    def first(self):
        self.unit(next(iter(self.units())))

    def unit(self, u) -> int:
        p, j, item = u
        cfg = self.build(item)
        verdict = decide_traced(cfg, self.tr)
        self.tally.verdict(verdict.status.value)
        if p == 0:
            self.codes0[j] = code(verdict)
        check_replay(cfg, verdict, self.tr, self.tally, f"highdim pass {p} item {j}")
        return 1

    def cover_configs(self):
        return pick_cover((sf.decide(c), c) for c in self.cfgs0)

    def cold_configs(self):
        out = {}
        for cfg in self.cfgs0:
            if cfg.is_linear():
                out.setdefault(cfg.n(), cfg)
        return out

    def finish(self, expected):
        for j, c in enumerate(self.codes0):
            if c is None:
                self.codes0[j] = code(sf.decide(self.cfgs0[j]))
        observed = "".join(self.codes0)
        if expected is not None and self.seed == DEFAULT_SEED:
            self.tally.check(
                codes_agree(expected["highdim"]["verdicts"], observed),
                "highdim verdicts differ from the recorded ones",
            )
        # thread independence of the sampling oracle, on a pass-0 item
        cfg = next((c for c, k in zip(self.cfgs0, self.codes0) if k == "U"), self.cfgs0[0])
        path = self.workdir / "sample.txt"
        path.write_text(render_configuration_text(cfg))
        outs = [
            run_process(cli_argv(["sample", str(path), "--seed", str(self.seed), "--samples",
                                  str(THREAD_CHECK_SAMPLES), "--threads", t]), self.workdir)
            for t in ("1", "2")
        ]
        self.tally.check(
            all(r.returncode == 0 for r in outs) and outs[0].stdout == outs[1].stdout,
            "sample --threads 2 differs from --threads 1",
        )
        return {"verdicts": observed}


class ScanTies(Workload):
    """``simplexfix scan --format json`` as a process on seeded clouds
    with heavy ties, scanned in turn; one unit is one whole scan."""

    name = "scan_ties"
    in_process = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.texts = inputs.scan_clouds(seed)
        self.argvs = []
        for k, text in enumerate(self.texts):
            path = workdir / f"cloud{k}.csv"
            path.write_text(text)
            self.argvs.append(["scan", str(path), "--format", "json"])
        self.references = [None] * len(self.texts)
        self.statuses = [None] * len(self.texts)

    def load(self):
        self.clouds = [landmark.PointCloud.from_csv(text) for text in self.texts]
        self.subsets = [comb(len(c.labels), c.dimension + 1) for c in self.clouds]

    def units(self):
        return cycle(range(len(self.texts)))

    def prime_units(self):
        return range(len(self.texts))

    def unit(self, k) -> int:
        if self.tr is not None:
            out = traced_scan(self.texts[k], self.tr)
            self.tally.check(out == self.references[k], "traced scan output differs from the CLI's")
            return self.subsets[k]
        r = run_process(cli_argv(self.argvs[k]), self.workdir)
        self.first_results.append(r.first_line_s)
        self._check_output(k, r.returncode, r.stdout, f"scan process {r.failure()}")
        return self.subsets[k]

    def inproc(self, k) -> int:
        rc, out = run_main(self.argvs[k])
        self._check_output(k, rc, out, "in-process scan")
        return self.subsets[k]

    def _check_output(self, k, rc, out, what):
        if self.references[k] is None and rc == 0:
            self.references[k] = out
            lines = [json.loads(line) for line in out.splitlines()]
            subsets = lines[:-1]
            self.statuses[k] = [obj["status"] for obj in subsets]
            counts = {"fixed": 0, "non_fixed": 0, "unknown": 0}
            for status in self.statuses[k]:
                counts[status] += 1
            summary = {"subsets": len(subsets), **counts}
            self.tally.check(
                lines[-1] == {"summary": summary} and len(subsets) == self.subsets[k],
                f"cloud {k}: scan summary line does not match the per-subset lines",
            )
        ok = self.tally.check(rc == 0 and out == self.references[k],
                              f"cloud {k}: {what}: output changed")
        if ok:
            for status in self.statuses[k]:
                self.tally.verdict(status)

    def cover_configs(self):
        cloud = self.clouds[0]
        cfgs = (landmark.derive_configuration(cloud, s)
                for s in combinations(cloud.labels, cloud.dimension + 1))
        return pick_cover((sf.decide(c), c) for c in islice(cfgs, 2000))

    def cold_configs(self):
        cloud = self.clouds[0]
        first = landmark.derive_configuration(cloud, cloud.labels[:4])
        return {4: next(sf.configuration_extensions(first))}

    def finish(self, expected):
        observed = [sha256(out or b"") for out in self.references]
        if expected is not None and self.seed == DEFAULT_SEED:
            for k, want in enumerate(expected["scan_ties"]["stdout_sha256"]):
                if self.references[k] is not None:  # else not reached, or failed and counted
                    self.tally.check(observed[k] == want,
                                     f"cloud {k}: scan output differs from the recorded digest")
        r = run_process(cli_argv(self.argvs[0] + ["--threads", "2"]), self.workdir)
        self.tally.check(r.returncode == 0 and r.stdout == self.references[0],
                         "scan --threads 2 differs from --threads 1")
        return {"stdout_sha256": observed}


class CliCalls(Workload):
    """A fixed seeded mix of ``simplexfix`` processes run back to back."""

    name = "cli_calls"
    in_process = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.calls = []
        for argv, name, text in inputs.cli_calls(seed):
            if name is not None:
                (workdir / name).write_text(text)
                argv = [str(workdir / name) if a == name else a for a in argv]
            elif argv[0] == "scan":
                argv = ["scan", str(ROOT / argv[1]), *argv[2:]]
            self.calls.append((argv, text))
        self.outputs = [None] * len(self.calls)

    def load(self):
        self.cfgs = [parse_configuration(text) if text is not None else None
                     for _, text in self.calls]

    def units(self):
        return cycle(range(len(self.calls)))

    def prime_units(self):
        return range(len(self.calls))

    def unit(self, k) -> int:
        if self.tr is not None:
            return self._traced(k)
        r = run_process(cli_argv(self.calls[k][0]), self.workdir)
        self.first_results.append(r.first_line_s)
        self._check_output(k, r.returncode, r.stdout, r.failure())
        return 1

    def inproc(self, k) -> int:
        rc, out = run_main(self.calls[k][0])
        self._check_output(k, rc, out, f"exit code {rc}")
        return 1

    def _check_output(self, k, rc, out, detail):
        argv = self.calls[k][0]
        if self.outputs[k] is None and rc == 0:
            self.outputs[k] = out
        ok = self.tally.check(rc == 0 and out == self.outputs[k],
                              f"{argv[0]} call {k}: output changed ({detail})")
        if not ok:
            return
        if argv[0] == "decide":
            self.tally.verdict(STATUS_OF_CODE[decide_output_code(out)])
        elif argv[0] == "scan":
            for line in out.splitlines()[:-1]:
                self.tally.verdict(json.loads(line)["status"])

    def _traced(self, k) -> int:
        tr = self.tr
        argv, text = self.calls[k]
        command = argv[0]
        tr.memo_reset()  # every call is a fresh process with a cold memo
        cfg = tr.call("configio.parse", parse_configuration, text) if text is not None else None
        if command == "decide":
            verdict = decide_traced(cfg, tr)
            check_replay(cfg, verdict, tr, self.tally, f"decide call {k}")
        elif command == "witness":
            check_witness(cfg, None, tr, self.tally, f"witness call {k}")
        elif command == "canon":
            tr.call("equivalence.canon", sf.canonical_form, cfg)
        elif command == "extensions":
            exts = tr.call("orders.extensions", list, sf.configuration_extensions(cfg))
            tr.count("orders.extensions_total", len(exts))
        elif command == "scan":
            out = traced_scan(Path(argv[1]).read_text(), tr)
            self.tally.check(out == self.outputs[k], "traced scan output differs from the CLI's")
        else:
            tr.call("equivalence.count", sf.count_classes, int(argv[1]))
        return 1

    def cover_configs(self):
        return [c for c in self.cfgs if c is not None]

    def cold_configs(self):
        out = {}
        for cfg in self.cfgs:
            if cfg is not None and cfg.is_linear():
                out.setdefault(cfg.n(), cfg)
        return dict(sorted(out.items()))

    def finish(self, expected):
        """Check each distinct output once, against the library and the
        recorded digests."""
        for k, ((argv, _), cfg, out) in enumerate(zip(self.calls, self.cfgs, self.outputs)):
            if out is None:
                continue  # the failed call is already counted
            what = f"{argv[0]} call {k}"
            fmt_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
            if argv[0] == "decide" and fmt_json:
                verdict = verdict_from_json(json.loads(out))
                self.tally.check(sf.replay_certificate(cfg, verdict),
                                 f"{what}: certificate does not replay")
            elif argv[0] == "decide":
                self.tally.check(decide_output_code(out) == code(sf.decide(cfg)),
                                 f"{what}: text verdict disagrees with the library")
            elif argv[0] == "witness" and fmt_json:
                payload = json.loads(out)
                pair = sf.WitnessPair(*(
                    sf.PointAssignment(cfg.labels, cfg.axes, {
                        (lab, a): Fraction(payload[side][lab][a]) for lab in cfg.labels for a in cfg.axes
                    }) for side in ("plus", "minus")))
                self.tally.check(sf.verify_witness(pair, cfg), f"{what}: witness does not verify")
            elif argv[0] == "canon" and fmt_json:
                canon = sf.configuration_from_json(json.loads(out)["canonical"])
                self.tally.check(canon == sf.canonical_form(cfg)[0], f"{what}: canonical form")
            elif argv[0] == "extensions":
                self.tally.check(len(json.loads(out)) == sf.extension_count(cfg),
                                 f"{what}: extension count")
            elif argv[0] == "count-classes":
                self.tally.check(out == b"5097\n", f"{what}: class count")
        digests = [sha256(out or b"") for out in self.outputs]
        codes = [decide_output_code(out) if argv[0] == "decide" and out is not None else None
                 for (argv, _), out in zip(self.calls, self.outputs)]
        if expected is not None and self.seed == DEFAULT_SEED:
            rec = expected["cli_calls"]
            for k, (want, got) in enumerate(zip(rec["stdout_sha256"], digests)):
                if self.outputs[k] is None:
                    continue  # not reached in a short run, or failed and counted
                allowed = rec["verdicts"][k] == "U" and codes[k] not in (None, "U")
                self.tally.check(want == got or allowed, f"call {k}: output differs from the recorded digest")
        return {"stdout_sha256": digests, "verdicts": codes}


WORKLOADS = {w.name: w for w in (SweepN4, HighDim, ScanTies, CliCalls)}
