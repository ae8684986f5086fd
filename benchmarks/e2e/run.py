"""Driver entry point: ``python3 benchmarks/e2e/run.py --workload W
--seed N --seconds S --trace 0|1`` (the ``run`` subcommand, by path)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _paths  # noqa: E402,F401  (side effect: sys.path)

if __name__ == "__main__":
    try:
        from benchmarks.e2e.cli import main
    except ModuleNotFoundError as exc:
        # A directory holding only the benchmark has nothing to measure.
        print(f"cannot import the product under src/: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(["run"] + sys.argv[1:]))
