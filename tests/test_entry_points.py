"""The CLI in a fresh interpreter: ``python -m hybridopt``, and which scipy
modules each command loads.  scipy is imported only inside the functions that
call it, so commands that need none start without it."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_validate_pins import validate_2d_model

SRC = Path(__file__).resolve().parents[1] / "src"

# run one command in-process, then print its exit code and the scipy modules loaded
_PROBE = (
    "import json, sys\n"
    "from hybridopt import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))\n"
)

# argv templates over the demo files, whose action set is 1-D, and a model on
# a 2-D action box, whose multi-atom W1 pairs take the closed form
_NO_SCIPY = {
    "estimate": ["estimate", "--model", "{model}", "--control", "{control}", "--paths", "100", "--dt", "0.05"],
    "simulate_csv": ["simulate", "--model", "{model}", "--control", "{control}", "--paths", "100", "--dt", "0.05",
                     "--out", "{dir}/paths.csv"],
    "validate_1d_actions": ["validate", "--model", "{model}", "--samples", "100"],
    "validate_2d_actions": ["validate", "--model", "{model_2d}", "--samples", "200"],
}
_SOLVE = ["solve", "--model", "{model}", "--out", "{dir}/vg.json", "--grid-nt", "4", "--grid-nx", "9",
          "--quad-order", "3"]


def run_fresh(*args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def scipy_modules(template, demo_files, tmp_path) -> list:
    model, control = demo_files
    model_2d = tmp_path / "model_2d.json"
    model_2d.write_text(json.dumps(validate_2d_model(42)))
    argv = [a.format(model=model, control=control, model_2d=model_2d, dir=tmp_path) for a in template]
    done = run_fresh("-c", _PROBE, *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.strip().splitlines()[-1])
    assert code == 0, done.stderr
    return modules


@pytest.mark.parametrize("command", sorted(_NO_SCIPY))
def test_command_loads_no_scipy(command, demo_files, tmp_path):
    assert scipy_modules(_NO_SCIPY[command], demo_files, tmp_path) == []


def test_solve_loads_sparse_only(demo_files, tmp_path):
    modules = scipy_modules(_SOLVE, demo_files, tmp_path)
    assert "scipy.sparse" in modules
    assert not [m for m in modules if m.startswith(("scipy.optimize", "scipy.linalg"))]


def test_module_entry_point_runs_a_check(tmp_path):
    done = run_fresh("-m", "hybridopt", "verify", "--check", "w1_metric", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "[PASS] w1_metric" in done.stdout
