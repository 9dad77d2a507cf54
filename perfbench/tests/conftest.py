"""Make the benchmark modules and the bellsim sources importable.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
