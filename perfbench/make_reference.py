"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Writes into ``perfbench/reference/``:

* ``mc_estimate.json``: per size, the mean and standard error of the cost
  over ``CHUNKS`` independent estimates of the workload's path count, on CLI
  seeds from ``workloads.REFERENCE_SEED_BASE`` up, which no benchmark run
  uses, so 50 times the paths of one job.
* ``solve_2d_<size>.npz``: the solved value grid ``values[k][node][regime]``.
  The solve_2d seed moves only the start points, so one grid serves all seeds.

Re-record only when hybridopt's numerics change on purpose, and say so.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from hybridopt import cli  # noqa: E402

CHUNKS = 50


def run(job) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(job.argv)
    if code != 0:
        raise SystemExit(f"{job.name} exited with {code}")


def mc_reference(size: str, chunks: int) -> dict:
    means, variances = [], []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        job = workloads.McEstimate(Path(tmp), 0, size)
        seed_at = job.argv.index("--seed") + 1
        for k in range(chunks):
            job.argv[seed_at] = str(workloads.REFERENCE_SEED_BASE + k)
            run(job)
            doc = json.loads(job.out.read_text())
            means.append(doc["mean"])
            variances.append(doc["stderr"] ** 2)
    return {
        "mean": float(np.mean(means)),
        "stderr": math.sqrt(sum(variances)) / chunks,
        "paths": chunks * job.params["paths"],
        "first_seed": workloads.REFERENCE_SEED_BASE,
        "chunks": chunks,
    }


def solve_reference(size: str) -> np.ndarray:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        job = workloads.Solve2d(Path(tmp), 0, size)
        run(job)
        return np.asarray(json.loads(job.out.read_text())["values"], dtype=float)


def main() -> int:
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    sizes = sorted(workloads.SIZES)
    refs = {size: mc_reference(size, CHUNKS) for size in sizes}
    (out / "mc_estimate.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(json.dumps(refs, sort_keys=True))
    for size in sizes:
        np.savez_compressed(out / f"solve_2d_{size}.npz", values=solve_reference(size))
        print(f"wrote solve_2d_{size}.npz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
