"""Benchmark launcher, run from the repository root:

    python3 perfbench/run.py --workload static --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # all three

Pins numpy/scipy to one thread before they are imported, puts the checkout's
``src`` first on the import path and hands over to ``bench.main``. Exits with
code 2 when the checkout has no gridfuse sources.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "gridfuse" / "__init__.py").is_file():
        print(f"gridfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
