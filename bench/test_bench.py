"""Self-tests of the benchmark itself.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import harness  # noqa: E402
from harness import Tally, percentile, tail_percentile, timed_loop  # noqa: E402
from workloads import WORKLOADS, codes_agree, decide_output_code  # noqa: E402

SPECS = {
    "sweep_n4": inputs.sweep_n4,
    "highdim": lambda seed: inputs.highdim(seed, 0),
    "scan_ties": inputs.scan_clouds,
    "cli_calls": inputs.cli_calls,
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_seed_determines_the_inputs(name):
    make = SPECS[name]
    assert inputs.spec_bytes(make(7)) == inputs.spec_bytes(make(7))
    assert inputs.spec_bytes(make(7)) != inputs.spec_bytes(make(8))


def test_highdim_passes_differ():
    assert inputs.spec_bytes(inputs.highdim(3, 0)) != inputs.spec_bytes(inputs.highdim(3, 1))


def test_scan_clouds_differ():
    clouds = inputs.scan_clouds(3)
    assert len(set(clouds)) == len(clouds) == inputs.SCAN_CLOUDS
    assert clouds[0] == inputs.cloud_csv(3)


def test_generators_refuse_large_inputs():
    with pytest.raises(ValueError):
        inputs.labels(inputs.MAX_N + 1)
    with pytest.raises(ValueError):
        inputs.random_linear(inputs.rng_for("t", 0), 7)
    with pytest.raises(ValueError):
        inputs.cloud_csv(0, points=inputs.MAX_CLOUD_POINTS + 1)


def test_constructed_inputs_have_their_verdicts():
    import simplexfix as sf

    rng = inputs.rng_for("t", 1)
    for _ in range(50):
        for n, seqs, want in ((3, inputs.non_fixed_n3(rng), sf.Status.NON_FIXED),
                              (4, inputs.non_fixed_n4(rng), sf.Status.NON_FIXED),
                              (4, inputs._relabel_fixed_n4(rng), sf.Status.FIXED)):
            cfg = sf.Configuration.from_sequences(inputs.labels(n), inputs.axes(n), seqs)
            assert sf.decide(cfg).status is want


@pytest.mark.parametrize("count,expected", [
    (1, 50.0), (5, 50.0), (20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile(count, expected):
    assert tail_percentile(count) == pytest.approx(expected)


@pytest.mark.parametrize("count", [25, 100, 1000, 4321])
def test_tail_leaves_ten_samples_beyond(count):
    values = list(range(count))
    tail = percentile(values, tail_percentile(count))
    assert sum(v > tail for v in values) == 10


def test_small_samples_read_the_median():
    assert percentile([5, 1, 3], tail_percentile(3)) == 3


def test_breaks_are_spread_over_the_measured_time_and_not_counted(monkeypatch):
    clock = [0.0]
    marks = []

    def unit(u):
        clock[0] += 1.0
        return 1

    def pause():
        marks.append(clock[0])
        clock[0] += 100.0  # a break much longer than the run

    monkeypatch.setattr(harness, "time", type("Clock", (), {"perf_counter": lambda: clock[0]}))
    latencies = []
    items = timed_loop(unit, iter(range(100)), 10.0, Tally(), latencies,
                       between=pause, breaks=5)
    assert items == len(latencies) == 10
    assert len(marks) == 5
    assert [m - 100.0 * k for k, m in enumerate(marks)] == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_unknown_may_become_decided_and_nothing_else_may_change():
    assert codes_agree("NU+", "NU+")
    assert codes_agree("NU+", "N-+")
    assert not codes_agree("NU+", "UU+")
    assert not codes_agree("NN+", "NN-")
    assert not codes_agree("NN", "NNN")


def test_decide_output_codes():
    assert decide_output_code(b"fixed -\n") == "-"
    assert decide_output_code(b"non_fixed\n") == "N"
    assert decide_output_code(b"unknown (conjecture frontier)\n") == "U"
    assert decide_output_code(b'{"sign": "+", "status": "fixed"}\n') == "+"


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_every_metric(trace):
    proc = _run("--workload", "highdim", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["scan_ties", "cli_calls"])
def test_a_short_seed0_run_checks_digests_of_what_it_ran(name):
    # one second reaches only some clouds or calls; the rest have no output to check
    proc = _run("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"], proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "sweep_n4", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
