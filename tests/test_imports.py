"""What the package and each CLI command load.

Where bytecode is not written, every process compiles each module it
imports, so a command imports only the modules it runs.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexfix

ROOT = Path(__file__).resolve().parent.parent
CLOUD = str(ROOT / "data" / "landmarks_synthetic.csv")

# print the simplexfix modules the command left loaded, after its output
PROBE = (
    "import sys; from simplexfix.cli import main; code = main(sys.argv[1:]); "
    "print(*sorted(m for m in sys.modules if m.startswith('simplexfix'))); sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        (["scan", CLOUD, "--format", "json"], {"simplexfix.engine", "simplexfix.equivalence"}),
        (["count-classes", "4"], {"simplexfix.engine", "simplexfix.landmark"}),
        (["decide", "CONFIG"], {"simplexfix.landmark"}),
    ],
    ids=["scan", "count-classes", "decide"],
)
def test_a_command_loads_only_what_it_runs(tmp_path, argv, not_loaded):
    config = tmp_path / "cfg.txt"
    config.write_text("x: A < B < C < D\ny: B < D < A < C\nz: D < C < B < A\n")
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    *output, modules = proc.stdout.splitlines()
    loaded = set(modules.split())
    assert output and "simplexfix.cli" in loaded
    assert not loaded & not_loaded


def test_package_names_are_their_modules_objects():
    assert simplexfix.__all__ and len(set(simplexfix.__all__)) == len(simplexfix.__all__)
    listed = dir(simplexfix)
    for name in simplexfix.__all__:
        module = importlib.import_module(f"simplexfix.{simplexfix._SOURCE[name]}")
        assert getattr(simplexfix, name) is getattr(module, name), name
        assert name in listed
    from simplexfix import decide, engine

    assert decide is engine.decide
    with pytest.raises(AttributeError, match="no_such_name"):
        simplexfix.no_such_name
    with pytest.raises(ImportError):
        from simplexfix import no_such_name  # noqa: F401
