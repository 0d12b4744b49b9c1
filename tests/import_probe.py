"""Which ``simplexfix`` modules each CLI command loads, and what loading
them costs: per command, every ``simplexfix`` module the process
imports with its ``-X importtime`` self time (compiling and running the
module body, without the modules it imports), their total, and the
process's wall time.

    PYTHONPATH=src python3 tests/import_probe.py [repetitions]

Each command runs ``repetitions`` times (default 5) as
``python -X importtime -c "from simplexfix.cli import main; ..."`` with
``PYTHONDONTWRITEBYTECODE=1``, so no bytecode is written and every run
compiles the modules it imports, unless a ``__pycache__`` already holds
them; figures are medians.  The inputs are small (the shipped cloud, a
five-label configuration), so the times are mostly start-up.  Plain
module (no pytest); it runs in a few seconds.
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
CLOUD = ROOT / "data" / "landmarks_synthetic.csv"
LINEAR = "x: A < B < C < D < E\ny: B < D < A < E < C\nz: D < C < E < B < A\nw: C < A < E < D < B\n"
NON_FIXED = "x: A < B < C < D\ny: A < B < C < D\nz: D < C < B < A\n"
PARTIAL = "axes: x y\nx: A < B\ny: B < C\n"
# after the command's output, the simplexfix modules it left loaded
RUN = (
    "import sys; from simplexfix.cli import main; code = main(sys.argv[1:]); "
    "print('loaded', *(m for m in sys.modules if m.startswith('simplexfix')), file=sys.stderr); "
    "sys.exit(code)"
)
IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def commands(workdir: Path) -> dict:
    files = {}
    for name, text in (("linear", LINEAR), ("non_fixed", NON_FIXED), ("partial", PARTIAL)):
        files[name] = workdir / f"{name}.txt"
        files[name].write_text(text)
    return {
        "decide": ["decide", files["linear"]],
        "extensions": ["extensions", files["partial"]],
        "canon": ["canon", files["linear"]],
        "count-classes": ["count-classes", "4"],
        "enumerate-classes": ["enumerate-classes", "4"],
        "scan": ["scan", CLOUD, "--format", "json"],
        "witness": ["witness", files["non_fixed"]],
        "sample": ["sample", files["linear"], "--samples", "100"],
    }


def run_once(argv: list, env: dict) -> tuple:
    """``({module: self us}, wall s)`` of one process; a loaded module
    that ``-X importtime`` did not report (``importlib.import_module``
    bypasses it) has None."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", RUN, *map(str, argv)],
        capture_output=True, text=True, env=env, check=True,
    )
    wall = time.perf_counter() - start
    *lines, loaded = proc.stderr.splitlines()
    selfs = dict.fromkeys(loaded.split()[1:])
    for line in lines:
        match = IMPORT_LINE.match(line)
        if match and match[2] in selfs:
            selfs[match[2]] = int(match[1])
    return selfs, wall


def _median_ms(values: list):
    return None if None in values else median(values) / 1000


def main(argv: list) -> int:
    repetitions = int(argv[0]) if argv else 5
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in commands(Path(tmp)).items():
            runs = [run_once(args, env) for _ in range(repetitions)]
            modules = sorted(runs[0][0])
            per_module = {m: _median_ms([r[0][m] for r in runs]) for m in modules}
            total = median(sum(filter(None, r[0].values())) for r in runs) / 1000
            wall = median(r[1] for r in runs) * 1000
            listed = " ".join(f"{m.removeprefix('simplexfix.')}={'?' if ms is None else f'{ms:.1f}'}"
                              for m, ms in per_module.items())
            print(f"{name}: modules={len(modules)} import_self_ms={total:.1f} process_ms={wall:.0f} | {listed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
