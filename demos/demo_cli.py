"""
Driving the computations from JSON documents
============================================

Every capability is also reachable through the command-line driver:
a JSON document names the ring (and optionally a pair, a cover, or a
divisor class) and the driver emits a canonical JSON report on stdout
plus an aligned table on stderr.  Exit codes: 0 ok, 2 malformed input,
3 budget exceeded, 4 verification failure.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

documents = {
    "quotient.json": {
        "ring": {"type": "quotient", "p": 5, "n": 4, "weights": [1, 3]},
    },
    "hypersurface.json": {
        "ring": {"type": "hypersurface", "p": 3, "nvars": 3,
                 "f": "x*y - z^2", "names": ["x", "y", "z"]},
        "options": {"e_max": 3},
    },
    "cover.json": {
        "cover": {"type": "quotient_cover", "p": 7, "n": 6,
                  "weights": [1, 5], "m": 2},
    },
    "chain.json": {
        "ring": {"type": "quotient", "p": 3, "n": 8, "weights": [1, 7]},
    },
}

jobs = [
    ("compute", "quotient.json"),      # exact toric backend
    ("compute", "hypersurface.json"),  # sequence backend (rank of the Fedder twist)
    ("verify", "cover.json"),          # transformation + doubling + trace
    ("chain", "chain.json"),           # full subgroup-lattice walk
    ("bounds", "quotient.json"),       # |pi_1| <= 1/s
    ("purity", "quotient.json"),       # purity-of-branch-locus verdict
]

# the documents and reports live only as long as the demo runs
with tempfile.TemporaryDirectory(prefix="fsig-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    for name, doc in documents.items():
        (workdir / name).write_text(json.dumps(doc))

    for command, spec in jobs:
        out = workdir / f"{command}__{spec}"
        argv = [sys.executable, "-m", "fsig.cli", command,
                "--spec", str(workdir / spec), "--out", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        print(f"$ fsig {command} --spec {spec}   (exit {proc.returncode})")
        # the stderr table is the human-readable half of the report
        for line in proc.stderr.splitlines():
            print(f"    {line}")
        report = json.loads(out.read_text())
        keys = ", ".join(sorted(k for k in report if k != "timing"))
        print(f"    report keys: {keys}")
        print()
