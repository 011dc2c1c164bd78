"""Command-line entry of the benchmark; see ``perfbench/bench.py``.

Run from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is imported straight from ``src/``; without it the import
fails and the command exits non-zero before printing a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import main  # noqa: E402  (needs the paths above)

if __name__ == "__main__":
    sys.exit(main())
