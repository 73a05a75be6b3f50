"""Record pins.json: the answer to every request any seed can send.

Usage, from the root of a checkout::

    python3 perfbench/pin.py

Runs the hyper-graded and hyper-mixed request lists once (their answers
do not depend on the seed) and every document of the lattice-sweep
population, and refuses to write when any request fails its own checks:
an exit code other than 0, ``ok: false``, ``lhs != rhs``, or an answer
that differs from an identity the workload states.  Run it only when a
change of the program is meant to change answers.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from worker import ROOT, import_fsig  # noqa: E402


def main() -> int:
    fsig = import_fsig()
    workdir = ROOT / ".perfbench_work" / "pin"
    pins, bad = {}, []
    try:
        for name in workloads.NAMES:
            specs = workloads.Specs(workdir / name)
            if name == "lattice-sweep":
                docs = workloads.window_documents() + [
                    doc for items in workloads.lattice_population().values()
                    for item in items for doc in item]
                requests = [specs.request(fsig.cli, *doc) for doc in docs]
            else:
                requests, _ = workloads.BUILDERS[name](fsig, random.Random(0), specs)
            answers = {}
            for req in requests:
                try:
                    value = req.answer(req.call())
                except Exception as exc:  # recorded, so every failure is listed
                    value = repr(exc)
                    bad.append(f"{name}: {req.id}: {value}")
                    continue
                if value is None or (req.expected is not None and value != req.expected):
                    bad.append(f"{name}: {req.id}: {value!r}")
                answers[req.id] = value
            pins[name] = answers
            print(f"{name}: {len(answers)} answers", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    # one answer per line, so a diff shows which answers changed
    blocks = []
    for name, answers in pins.items():
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                 for k, v in sorted(answers.items())]
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n  }")
    workloads.PINS_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
