"""The Fig. 9 launch matrix is the same in every process.

Each cell's simulation seed is derived from its (image, flavor) pair.
Deriving it with the built-in ``hash`` made it depend on
``PYTHONHASHSEED``, so two processes printed two different matrices.
This runs the matrix in two interpreters with different hash seeds and
requires byte-identical output.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = (
    "import sys\n"
    f"sys.path[:0] = [{str(REPO / 'benchmarks')!r}, {str(REPO / 'src')!r}]\n"
    "from bench_fig9_vm_launch import run_matrix\n"
    "print(repr(sorted(run_matrix().items())))\n"
)


def test_fig9_matrix_ignores_hash_seed():
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("1", "2")
    ]
    outputs = []
    for run in runs:
        stdout, stderr = run.communicate(timeout=120)
        assert run.returncode == 0, stderr
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
