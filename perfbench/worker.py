"""One workload in one fresh process: set up, report readiness, measure.

Run by ``run.py``; prints ``ready`` once imports, input generation and a
warm-up request are done, then (unless ``--setup-only``) one JSON line
with the measured passes.  A pass sends the whole request list once and
checks every answer after it ends; passes repeat while another one fits
in ``--seconds``, and at least one always runs.  With ``--trace 1`` the
first half of the time runs untraced and the second half traced.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent


def import_fsig():
    """fsig from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import fsig
    import fsig.cli  # noqa: F401  (loads every submodule the CLI uses)

    if Path(fsig.__file__).resolve().parent != ROOT / "src" / "fsig":
        raise ImportError(f"fsig imported from {fsig.__file__}, not from {ROOT / 'src'}")
    return fsig


def measure(workload, pins, seconds):
    """Whole passes of the request list while another one fits in seconds."""
    walls, cpus, latencies = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        raws = []
        c0, t0 = process_time(), perf_counter()
        for req in workload.requests:
            r0 = perf_counter()
            try:
                raw = req.call()
            except Exception as exc:  # a raising request is a failed request
                raw = exc
            latencies.append(perf_counter() - r0)
            raws.append(raw)
        walls.append(perf_counter() - t0)
        cpus.append(process_time() - c0)
        for req, raw in zip(workload.requests, raws):
            attempted += 1
            ok = not isinstance(raw, Exception) and req.check(raw, pins)
            if not ok:
                failed += 1
                print(f"failed: {req.id}: {raw!r}"[:400], file=sys.stderr)
        if perf_counter() - start + walls[-1] > seconds:
            break
    return {"walls": walls, "cpus": cpus, "latencies": latencies,
            "attempted": attempted, "failed": failed}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    fsig = import_fsig()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        workload = workloads.build(fsig, args.workload, args.seed, workdir)
        pins = workloads.load_pins(args.workload)
        workload.warmup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            result = measure(workload, pins, args.seconds)
        else:
            untraced = measure(workload, pins, args.seconds / 2)
            tracer = spans.install(fsig)
            result = measure(workload, pins, args.seconds / 2)
            wall = statistics.median(result["walls"])
            result["per_layer"] = spans.per_layer(
                tracer, len(result["walls"]), wall, statistics.median(untraced["walls"]),
                1000 * statistics.median(result["latencies"]))
            for key in ("attempted", "failed"):
                result[key] += untraced[key]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment()
        result["reason"] = workloads.REASONS[args.workload]
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker still uses it
            pass
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
