"""Pytest configuration for the benchmark harness.

Ensures the sibling ``bench_utils`` helpers -- and the reference
implementations kept under ``tests/`` (``tests.reference_v7``) -- are
importable regardless of pytest's import mode.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))
