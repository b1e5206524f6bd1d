"""Re-record the reference epoch-log fingerprints in bench/reference.json.

Run from the repository root:

    python3 bench/record_reference.py

Do this only when a change alters the training arithmetic on purpose, in a
change of its own that touches nothing but the benchmark.
"""

import json
import os
import shutil
import sys

from run import WORK_ROOT, import_harness


def main() -> int:
    harness = import_harness()
    workdir = os.path.join(WORK_ROOT, "reference")
    os.makedirs(workdir, exist_ok=True)
    fingerprints = {}
    try:
        for workload in harness.WORKLOADS:
            paths = harness.write_dataset(workload, harness.REFERENCE_SEED, workdir)
            data, cfg, _ = harness.set_up(workload, *paths, harness.REFERENCE_SEED)
            result = harness.run_fit(data, cfg)
            if result.problems:
                print(f"error: {workload}: {result.problems}", file=sys.stderr)
                return 1
            fingerprints[workload] = result.fingerprint
            print(f"{workload}: {result.fingerprint} ({result.seconds:.1f} s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # a benchmark run still uses it
    with open(harness.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": harness.REFERENCE_SEED, "fingerprints": fingerprints}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
