"""Command-line behavior: outputs, formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scan_reference import grid_cloud_csv
from simplexfix.cli import MAX_EXTENSIONS, main

THM_FIXED = "x: A < B < C\ny: B < C < A\n"
EQUAL = "x: A < B < C\ny: A < B < C\n"
PARTIAL = "axes: x y\nx: A < B < C\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_decide_text_and_json(tmp_path, capsys):
    path = write(tmp_path, "fixed.cfg", THM_FIXED)
    code, out, _ = run(capsys, "decide", path)
    assert code == 0 and out == "fixed +\n"

    code, out, _ = run(capsys, "decide", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "fixed" and payload["sign"] == "+"
    assert payload["certificate"]["type"] == "dim2_fixed"


def test_decide_non_fixed_and_partial(tmp_path, capsys):
    code, out, _ = run(capsys, "decide", write(tmp_path, "eq.cfg", EQUAL))
    assert code == 0 and out == "non_fixed\n"
    code, out, _ = run(capsys, "decide", write(tmp_path, "p.cfg", PARTIAL))
    assert code == 0 and out == "non_fixed\n"


def test_decide_debug_crosscheck(tmp_path, capsys):
    text = "x: B < C < A < D\ny: C < A < B < D\nz: A < B < C < D\n"
    code, out, _ = run(capsys, "decide", write(tmp_path, "f4.cfg", text), "--debug-crosscheck")
    assert code == 0 and out == "fixed +\n"


def test_debug_crosscheck_checks_without_changing_the_output(tmp_path, capsys, monkeypatch):
    from simplexfix import engine

    fixed = write(tmp_path, "f4.cfg", "x: B < C < A < D\ny: C < A < B < D\nz: A < B < C < D\n")
    non_fixed = write(tmp_path, "n4.cfg", "x: A < B < C < D\ny: A < C < B < D\nz: D < B < A < C\n")
    for path in (fixed, non_fixed):
        plain = run(capsys, "decide", path, "--format", "json")
        assert plain[0] == 0
        assert run(capsys, "decide", path, "--format", "json", "--debug-crosscheck") == plain
    # the check still runs: a direct search that misses the fixed shape
    # splits the three characterizations
    monkeypatch.setattr(engine, "_dim3_fixed_search", lambda lin: None)
    with pytest.raises(engine.CrossCheckError):
        main(["decide", fixed, "--debug-crosscheck"])


def test_count_classes_output_and_gate(capsys):
    code, out, _ = run(capsys, "count-classes", "4")
    assert code == 0 and out == "21\n"
    code, _, err = run(capsys, "count-classes", "6")
    assert code == 1 and "--allow-long" in err
    code, out, _ = run(capsys, "count-classes", "6", "--allow-long")
    assert code == 0 and out == "71965235\n"
    code, _, err = run(capsys, "count-classes", "9", "--allow-long")
    assert code == 1
    # above six the limit is named at once, with or without --allow-long
    for extra in ((), ("--allow-long",)):
        code, out, err = run(capsys, "count-classes", "7", *extra)
        assert (code, out) == (1, "") and "supports 2 <= n <= 6, got 7" in err


def test_enumerate_classes_output(capsys):
    code, out, _ = run(capsys, "enumerate-classes", "3")
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 2
    code, out, _ = run(capsys, "enumerate-classes", "4", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 21


def test_extensions_output(tmp_path, capsys):
    code, out, _ = run(capsys, "extensions", write(tmp_path, "p.cfg", PARTIAL))
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 6

    code, out, _ = run(
        capsys, "extensions", write(tmp_path, "p2.cfg", PARTIAL), "--format", "json"
    )
    payload = json.loads(out)
    assert len(payload) == 6
    assert all(p["labels"] == ["A", "B", "C"] for p in payload)


def test_extensions_refuses_sparse_eight_label_input(tmp_path, capsys):
    # two chains per axis: 70 extensions each, 70^7 in all
    axes = ("a", "b", "c", "d", "e", "f", "g")
    text = "labels: A B C D E F G H\n" + "".join(
        f"{axis}: A < B < C < D, E < F < G < H\n" for axis in axes
    )
    code, out, err = run(capsys, "extensions", write(tmp_path, "sparse8.cfg", text))
    assert code == 1 and out == ""
    assert f"{70**7} linear extensions" in err and f"at most {MAX_EXTENSIONS}" in err


def test_canon_equivalent_inputs_agree(tmp_path, capsys):
    variant_one = "labels: A B C\nx: A < B < C\ny: B < C < A\n"
    variant_two = "labels: A B C\nx: A < C < B\ny: A < B < C\n"  # same class, transformed
    _, out_one, _ = run(capsys, "canon", write(tmp_path, "one.cfg", variant_one))
    _, out_two, _ = run(capsys, "canon", write(tmp_path, "two.cfg", variant_two))
    canonical_one = out_one.splitlines()[:3]
    canonical_two = out_two.splitlines()[:3]
    assert canonical_one == canonical_two


def test_witness_exact_fractions(tmp_path, capsys):
    code, out, _ = run(capsys, "witness", write(tmp_path, "eq.cfg", EQUAL))
    assert code == 0
    assert "plus:" in out and "minus:" in out
    assert "." not in out.replace("plus:", "").replace("minus:", "")  # no floats

    code, out, _ = run(
        capsys, "witness", write(tmp_path, "eq2.cfg", EQUAL), "--format", "json"
    )
    payload = json.loads(out)
    assert set(payload) == {"plus", "minus"}

    code, _, err = run(capsys, "witness", write(tmp_path, "fx.cfg", THM_FIXED))
    assert code == 1 and err


README_FIVE = "x: D<B<A<E<C\ny: D<C<A<E<B\nz: B<D<C<A<E\nu: A<D<C<B<E\n"


def test_witness_prints_the_readme_coordinates(tmp_path, capsys):
    # README gives the five-label example's pair as `D=(0,0,1,1) B=(...)`,
    # plus first, coordinates in axis order x y z u
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = re.findall(r"`((?:[A-E]=\(\d+(?:,\d+){3}\) ?){5})`", readme)
    code, out, _ = run(capsys, "witness", write(tmp_path, "five.cfg", README_FIVE))
    assert code == 0
    printed = []
    for block in out.split("minus:\n"):
        rows = re.findall(r"^  (\w): x=(\d+) y=(\d+) z=(\d+) u=(\d+)$", block, re.M)
        printed.append(" ".join(f"{lab}=({','.join(coords)})" for lab, *coords in rows))
    assert documented == printed


@pytest.mark.parametrize(
    "text, expected",
    [
        # three labels, reversed orders: the nudged collinear base
        (
            "x: A < B < C\ny: C < B < A\n",
            '{"minus": {"A": {"x": "0", "y": "0"}, "B": {"x": "1", "y": "-1"}, "C": {"x": "2", "y": "-5/2"}}, '
            '"plus": {"A": {"x": "0", "y": "0"}, "B": {"x": "1", "y": "-1"}, "C": {"x": "2", "y": "-3/2"}}}\n',
        ),
        # four labels: A, the minimum of x, lifted over a reversed base
        (
            "x: A < B < C < D\ny: A < C < B < D\nz: D < B < A < C\n",
            '{"minus": {"A": {"x": "-9", "y": "-1", "z": "-1/2"}, "B": {"x": "0", "y": "1", "z": "-1"}, '
            '"C": {"x": "1", "y": "0", "z": "0"}, "D": {"x": "2", "y": "2", "z": "-3/2"}}, '
            '"plus": {"A": {"x": "-1", "y": "-1", "z": "-1/2"}, "B": {"x": "0", "y": "1", "z": "-1"}, '
            '"C": {"x": "1", "y": "0", "z": "0"}, "D": {"x": "2", "y": "2", "z": "-5/2"}}}\n',
        ),
    ],
)
def test_witness_json_bytes_of_chain_witnesses(tmp_path, capsys, text, expected):
    code, out, _ = run(capsys, "witness", write(tmp_path, "w.cfg", text), "--format", "json")
    assert code == 0 and out == expected


def test_sample_refuses_more_than_a_million_samples(tmp_path, capsys):
    path = write(tmp_path, "fx.cfg", THM_FIXED)
    code, out, err = run(capsys, "sample", path, "--samples", "1000001")
    assert code == 1 and out == "" and "1,000,000" in err


def test_sample_deterministic_across_threads(tmp_path, capsys):
    path = write(tmp_path, "fx.cfg", THM_FIXED)
    _, out_single, _ = run(capsys, "sample", path, "--seed", "9", "--samples", "500")
    _, out_threaded, _ = run(
        capsys, "sample", path, "--seed", "9", "--samples", "500", "--threads", "4"
    )
    assert out_single == out_threaded
    assert out_single.startswith("pos=500 ")

    _, out_json, _ = run(
        capsys, "sample", path, "--seed", "9", "--samples", "500", "--format", "json"
    )
    assert json.loads(out_json) == {"pos": 500, "neg": 0, "zero": 0}


def test_scan_json_lines_and_text(cloud_csv_path, capsys):
    code, out, _ = run(capsys, "scan", str(cloud_csv_path), "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    objects = [json.loads(line) for line in lines]
    assert len(objects) == 211
    summary = objects[-1]["summary"]
    assert summary["subsets"] == 210
    assert summary["fixed"] + summary["non_fixed"] + summary["unknown"] == 210

    code, plain, _ = run(capsys, "scan", str(cloud_csv_path))
    assert code == 0 and "total 210:" in plain

    code, wobbled, _ = run(capsys, "scan", str(cloud_csv_path), "--jitter", "3")
    assert code == 0 and "not exact" in wobbled

    code, threaded, _ = run(capsys, "scan", str(cloud_csv_path), "--threads", "4")
    assert threaded == plain


def test_exit_codes_for_bad_input(tmp_path, capsys):
    code, _, err = run(capsys, "decide", write(tmp_path, "bad.cfg", "x: A < < B\n"))
    assert code == 2
    assert "1:" in err  # line diagnostics

    code, _, err = run(capsys, "decide", str(tmp_path / "missing.cfg"))
    assert code == 2

    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 1


def test_cycle_in_input_is_a_format_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "decide", write(tmp_path, "cyc.cfg", "x: A<B, B<C, C<A\ny: A<B\n")
    )
    assert code == 2 and "cycle" in err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(THM_FIXED))
    code, out, _ = run(capsys, "decide", "-")
    assert code == 0 and out == "fixed +\n"


@pytest.mark.parametrize(
    "orders, message",
    [
        ("[]", "'orders' must map each axis"),
        ('{"x": [5]}', "orders of axis 'x' must be a list of label pairs"),
        ('{"x": [[["A"], "B"]]}', "labels and axes must be strings or numbers"),
    ],
)
def test_malformed_json_shapes_are_format_errors(capsys, monkeypatch, orders, message):
    import io

    text = '{"labels": ["A", "B"], "axes": ["x"], "orders": %s}' % orders
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "decide", "-")
    assert code == 2 and out == ""
    assert err.startswith("simplexfix: ") and message in err


def test_env_var_sets_default_format(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIMPLEXFIX_FORMAT", "json")
    path = write(tmp_path, "fx.cfg", THM_FIXED)
    code, out, _ = run(capsys, "decide", path)
    assert code == 0
    assert json.loads(out)["status"] == "fixed"


@pytest.mark.parametrize("name", ["SIMPLEXFIX_SEED", "SIMPLEXFIX_SAMPLES"])
def test_malformed_env_var_is_a_usage_error(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setenv(name, "12x")
    path = write(tmp_path, "fx.cfg", THM_FIXED)
    code, out, err = run(capsys, "decide", path)
    assert code == 1 and out == ""
    assert name in err and "'12x'" in err


def test_configurations_above_the_size_limit_exit_1(tmp_path, capsys):
    labels = "ABCDEFGHI"  # 9 labels, one more than the supported 8
    axes = [f"a{i}" for i in range(8)]
    cfg = write(tmp_path, "big.cfg", "".join(f"{a}: {' < '.join(labels)}\n" for a in axes))
    csv = write(
        tmp_path,
        "big.csv",
        "label," + ",".join(axes) + "\n"
        + "".join(f"{lab}," + ",".join([str(i)] * 8) + "\n" for i, lab in enumerate(labels)),
    )
    for command in ("decide", "extensions", "canon", "witness", "sample", "scan"):
        code, out, err = run(capsys, command, csv if command == "scan" else cfg)
        assert code == 1 and out == "", command
        assert "more than 8 labels are not supported (got 9)" in err, command
    for command in ("count-classes", "enumerate-classes"):
        code, out, err = run(capsys, command, "9", "--allow-long")
        assert code == 1 and out == "" and "got 9" in err, command


def test_json_configuration_input(tmp_path, capsys):
    payload = {
        "labels": ["A", "B", "C"],
        "axes": ["x", "y"],
        "orders": {"x": [["A", "B"], ["B", "C"]], "y": [["B", "C"], ["C", "A"]]},
    }
    path = write(tmp_path, "cfg.json", json.dumps(payload))
    code, out, _ = run(capsys, "decide", path)
    assert code == 0 and out == "fixed +\n"


def test_scan_stops_quietly_when_the_reader_goes_away(tmp_path):
    # `simplexfix scan ... | head -1`: the reader closes the pipe after one
    # line of a 30-point scan (27,405 lines, far more than a pipe buffers)
    path = write(tmp_path, "cloud30.csv", grid_cloud_csv(30, 30, 8))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "simplexfix.cli", "scan", path, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first["subset"] == ["pqq0", "pqqq1", "pqq2", "pqq3"]
    assert proc.returncode == 1
    assert err == b""
