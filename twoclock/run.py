"""Two-clock benchmark of the secureTF platform.

Usage (from the repository root):

    python3 twoclock/run.py --workload serve|train|boot --seed N \\
        --seconds S --trace 0|1

Runs the workload in a fresh interpreter (``child.py``) whose
environment pins ``PYTHONHASHSEED`` and one BLAS/OpenMP thread, relays
its report, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  A failed output check, a
determinism violation or a missing platform source tree exits non-zero
without a result line.  See ``README.md`` for what is measured and why.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The child must finish well inside the caller's 180 s budget.
CHILD_TIMEOUT_S = 170

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv) -> int:
    # A terminated run must not leave its child running: SIGTERM becomes
    # SystemExit, on which ``subprocess.run`` kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"platform sources not found at {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.rstrip("\n").splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stdout)
        print(f"benchmark child failed with exit code {child.returncode}",
              file=sys.stderr)
        return child.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(child.stdout)
        print("benchmark child printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
