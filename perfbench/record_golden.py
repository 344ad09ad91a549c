"""Record the golden answers that benchmark runs are checked against.

    python3 perfbench/record_golden.py [grid frontier construct]

Runs one untraced pass of each named workload and writes every item's
canonical answer to `golden/<workload>.json`: the report JSON for `grid` and
`frontier` (byte for byte as `verify-all` prints it), exit code plus stdout
for the CLI items of `construct`.  Planted modules are checked against their
plants instead and are not recorded.  An item that hits the cap is recorded
as null: it had no answer when the goldens were made.  Record only from a
commit whose answers are trusted; a run compares against these files.
"""

from __future__ import annotations

import json
import sys

from run import spawn_pass
from workloads import GOLDEN_DIR, WORKLOADS


def record(workload: str) -> None:
    records, _ = spawn_pass(workload, 0, "plain")
    outputs = {}
    for r in records:
        if r["status"] == "error":
            raise SystemExit(f"{workload}: {r['key']} raised; nothing recorded")
        if not r["key"].startswith("planted "):
            outputs[r["key"]] = r["text"]
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{workload}.json", "w") as fh:
        json.dump({"workload": workload, "outputs": dict(sorted(outputs.items()))}, fh, indent=1)
        fh.write("\n")
    capped = [k for k, v in outputs.items() if v is None]
    print(f"{workload}: {len(outputs)} answers recorded; capped: {capped or 'none'}")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}")
        record(name)
