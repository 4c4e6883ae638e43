"""The benchmark times gsdpg's layers by replacing attributes that gsdpg
looks up at call time (see perfbench/tracing.py).  A refactor that renames
or moves one of them breaks traced benchmark runs; this catches it fast."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_every_patch_target_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.BASE_SITES + tracing.TRACE_SITES
               if attr not in owner.__dict__]
    assert not missing
