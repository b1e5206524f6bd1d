"""Training benchmark for tailssl: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload bmb-default --seed 1 --seconds 35 --trace 0

It trains the workload repeatedly for --seconds and prints two JSON lines: a
detail line (environment, fit counts, fingerprints, tail percentile, problems)
and, last, the result line with `correct`, `attempted`, `failed` and
`metrics`. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics (half the window untraced, half traced). See
bench/README.md for the metrics and workloads.
"""

import os

# One thread: pin the BLAS pools before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def import_harness():
    """Import the harness against this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "tailssl", "__init__.py")):
        raise ImportError(f"no tailssl sources under {SRC}")
    sys.path[:0] = [SRC, BENCH_DIR]
    import tailssl

    if not os.path.abspath(tailssl.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tailssl imported from {tailssl.__file__}, not {SRC}")
    import harness

    return harness


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness = import_harness()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
