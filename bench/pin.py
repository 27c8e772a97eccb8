#!/usr/bin/env python3
"""Record the SHA-256 of every canonical JSON file a seed-0 pass writes.

    python3 bench/pin.py

Runs each workload's pass twice as CLI children (the outputs must agree
byte for byte, and every op must pass the rest of the gate), then writes
``bench/pins.json``.  ``run.py`` counts an op as failed when a seed-0 pass
writes a file whose hash differs from its pin, so re-pinning is only right
when the output format is meant to change.
"""

from __future__ import annotations

import json
import sys

from run import PINNED_SEED, PINS, WORK, run_pass, setup
from workloads import WORKLOADS, workload_ops, written_files


def main() -> int:
    pins = {}
    for workload in WORKLOADS:
        work = WORK / workload
        setup(PINNED_SEED, work)
        ops = workload_ops(workload, work / "inputs")
        seen = []
        for _ in range(2):
            result = run_pass(ops, "cli", work, PINNED_SEED, workload, {})
            bad = [f"{op.label}: {op.problems}" for op in result.ops if op.problems]
            if bad:
                print("\n".join(bad), file=sys.stderr)
                return 1
            seen.append(written_files(work / "pass"))
        if seen[0] != seen[1]:
            print(f"{workload}: outputs differ between two passes", file=sys.stderr)
            return 1
        pins[workload] = seen[0]
        print(f"{workload}: {len(seen[0])} files pinned")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
