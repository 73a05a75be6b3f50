"""fsig benchmark: one workload per run, or all three with ``--workload all``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hyper-graded --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh worker process (``worker.py``), so its
set-up time and peak RSS are its own.  Set-up is measured from process
start to the worker's ``ready`` line; four set-up-only workers and the
measuring worker give five samples, and ``setup_s`` is their median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it print every metric with its unit and the request count,
the environment, and the workload's reason.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
TIMEOUT_S = 170
# A fixed mmap threshold stops glibc from raising it as large arrays are
# freed; otherwise memory freed in one pass may stay in the heap, and the
# peak RSS would depend on the order of earlier requests.
WORKER_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="1048576")


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline, setup_only=False):
    """Start a worker; return (seconds until its ready line, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker timed out") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines and not setup_only else None)


def run_workload(args):
    deadline = perf_counter() + TIMEOUT_S
    setups = [_spawn(args, deadline, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    setup, result = _spawn(args, deadline)
    setups.append(setup)
    n = len(result["latencies"])
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(result["cpus"]), "unit": "s"},
            "req_p90_ms": {"value": 1000 * _pct(result["latencies"], 90), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"workload {args.workload}: {result['reason']}")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    # failed_frac is often 0 and req_p50_ms moves most with the machine's
    # speed, so both are printed here but are not gated metrics.
    print(f"passes {len(result['walls'])}  requests {n}  "
          f"failed_frac {result['failed'] / result['attempted']:.4f}  "
          f"req_p50_ms {1000 * _pct(result['latencies'], 50):.6g}")
    for name, m in metrics.items():
        print(f"  {name:34s} {_fmt(m['value']):>14s} {m['unit']:6s} (requests {n})")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _pct(values, q):
    s = sorted(values)
    k = (len(s) - 1) * q / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def _fmt(value):
    return "null" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fsig" / "__init__.py").is_file():
        print(f"no fsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
