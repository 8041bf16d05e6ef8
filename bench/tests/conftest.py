"""Make the benchmark modules and the checkout's waterscreen importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402

common.import_program()
