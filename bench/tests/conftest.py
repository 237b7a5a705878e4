"""Make the benchmark's modules and the program importable in its tests.

Run from the root of the checkout:  python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import env  # noqa: E402

env.prepare()
