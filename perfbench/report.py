"""Result records of the benchmark: environment, end-to-end metrics, the
merged results file, and the comparison of two results files."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource

import numpy as np
import scipy

from tracing import PER_LAYER

# End-to-end metrics: (name, unit, better).  Every workload reports all.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("texts_per_s", "texts/s", "higher"),
    ("text_ms_p50", "ms", "lower"),
    ("text_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def end_to_end(tally, setup_s: float) -> dict:
    # Medians across the job's pieces and across the per-text passes, so a
    # stretch of slow machine that hits one of them moves the result little.
    rates = tally.job_rates or [0.0]
    passes = [p for p in tally.passes if p] or [[0.0]]
    return {
        "setup_s": setup_s,
        "texts_per_s": float(np.median(rates)),
        "text_ms_p50": float(np.median([np.percentile(p, 50) for p in passes])),
        "text_ms_p90": float(np.median([np.percentile(p, 90) for p in passes])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------- environment ---

def _git_sha(root: str):
    """Commit of the checkout, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: str) -> str:
    """sha256 over the program's Python sources, which identifies the code
    measured when there is no git metadata."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: str, args, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": blas_threads,
        "blas_threads": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --------------------------------------------------------- results file ---

def save_result(path: str, workload: str, env: dict, result: dict) -> None:
    """Merge one run into the results file, keyed by workload and trace."""
    try:
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)
    except (OSError, ValueError):
        results = {}
    entry = {k: v for k, v in result.items() if k != "report"}
    results.setdefault(workload, {})[f"trace{env['trace']}"] = {
        "env": env, **entry}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def compare(old_path: str, new_path: str) -> int:
    """Print old, new and new/old for every metric of every workload."""
    try:
        with open(old_path, encoding="utf-8") as fh:
            old = json.load(fh)
        with open(new_path, encoding="utf-8") as fh:
            new = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read results: {exc}")
        return 2
    better = {name: b for name, _, b in END_TO_END + PER_LAYER}
    units = {name: u for name, u, _ in END_TO_END + PER_LAYER}
    print(f"ratio = new / old; base of every ratio: old = {old_path}, "
          f"new = {new_path}")
    print(f"{'workload':<14}{'metric':<26}{'unit':>8}{'old':>14}{'new':>14}"
          f"{'ratio':>9}  better")
    for workload in sorted(set(old) | set(new)):
        for trace in ("trace0", "trace1"):
            before = old.get(workload, {}).get(trace, {})
            after = new.get(workload, {}).get(trace, {})
            names = [n for n in better
                     if n in before.get("metrics", {})
                     or n in after.get("metrics", {})]
            for name in names:
                a = before.get("metrics", {}).get(name, {}).get("value")
                b = after.get("metrics", {}).get(name, {}).get("value")
                ratio = f"{b / a:9.3f}" if a and b is not None else f"{'-':>9}"
                print(f"{workload:<14}{name:<26}{units[name]:>8}"
                      f"{_num(a):>14}{_num(b):>14}{ratio}  {better[name]}")
    return 0


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"
