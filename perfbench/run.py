"""Benchmark of spanlink: four workloads, end-to-end and per-layer metrics.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload oracle-deep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` does one round per shard of the workload untraced, then the
same rounds traced, and reports the per-layer metrics; its spans are written
as JSON lines to ``perfbench/out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 1 when an output check fails and 2 when the sources are missing.

Compare two result files (each run merges its result into
``perfbench/out/results.json``)::

    python3 perfbench/run.py --compare OLD.json [NEW.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(OUT, "results.json")

# One client in one process: BLAS gets one thread, which is also the
# steadiest choice on a small shared machine.  Set before numpy loads.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_program():
    """Import spanlink from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spanlink", "__init__.py")):
        raise ImportError(f"no spanlink sources under {SRC}")
    sys.path.insert(0, SRC)
    import spanlink

    if os.path.dirname(os.path.dirname(os.path.abspath(spanlink.__file__))) != SRC:
        raise ImportError(f"spanlink was imported from {spanlink.__file__}")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="spanlink benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs="+", metavar="FILE",
                   help="OLD.json [NEW.json]; NEW defaults to the last results")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from report import compare

        if len(args.compare) > 2:
            print("--compare takes OLD.json and at most one NEW.json",
                  file=sys.stderr)
            return 2
        new = args.compare[1] if len(args.compare) == 2 else RESULTS
        return compare(args.compare[0], new)
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from report import environment, save_result
    from workloads import WORKLOADS, measure

    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(ROOT, args, BLAS_THREADS)
    print("env " + json.dumps(env, sort_keys=True))
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace), OUT)
    save_result(RESULTS, args.workload, env, result)
    for line in result.pop("report"):
        print(line)
    result.pop("detail")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
