"""Regenerate preset_reference.json, the stored digests preset_suite checks.

Run from the repository root at a commit whose preset outputs are trusted:

    python3 perfbench/make_reference.py

Only a change that is meant to alter preset outputs should regenerate it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = HERE / "out"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        ref = workloads.make_preset_reference(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.PRESET_REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.PRESET_REFERENCE} ({len(ref)} presets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
