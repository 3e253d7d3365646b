"""Regenerate ``reference.json``, the pinned answers every op is
checked against.

Run from the root of a checkout, only when a change to the program is
meant to change answers, stores, statistics or the CLI's text::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import (
        check,
        cli_workload,
        families,
        large_programs,
        serve_workload,
    )
    from perfbench.common import WORK

    entries = {}
    entries.update(cli_workload.reference_entries(
        os.path.join(WORK, "reference-cli")))
    entries.update(families.reference_entries())
    entries.update(large_programs.reference_entries())
    entries.update(serve_workload.reference_entries())
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(entries)} digests to {check.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
