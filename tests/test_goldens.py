"""Whole-report goldens: one document per branch of each command handler.

Each golden under tests/goldens/ is a full report with the timing sidecar
stripped, recorded by ``fsig <command> --golden tests/goldens``.  The CLI
records silently when a golden is missing, so the test first asserts that
the file exists.
"""

import json
from pathlib import Path

import pytest

from fsig.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

A1 = {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x*y - z^2", "names": ["x", "y", "z"]}

# spec name -> (command, document); the golden is <command>__<name>.json
DOCUMENTS = {
    "quotient_exact": ("compute", {"ring": {"type": "quotient", "n": 4, "weights": [1, 3], "p": 5}}),
    "quotient_sequence_pair": ("compute", {
        "ring": {"type": "quotient", "n": 3, "weights": [1, 1], "p": 5},
        "pair": {"facet_coeffs": ["1/2", "0"]},
        "options": {"backend": "sequence", "e_max": 2},
    }),
    "hypersurface_pair": ("compute", {
        "ring": A1,
        "pair": {"components": [{"g": "z", "t": "1/2"}]},
        "options": {"e_max": 2},
    }),
    "regular": ("compute", {"ring": {"type": "regular", "p": 5, "nvars": 2},
                            "options": {"e_max": 2}}),
    "quotient_cover": ("verify", {"cover": {"type": "quotient_cover", "n": 6, "weights": [1, 5],
                                            "m": 2, "p": 7, "expected_degree": 3}}),
    "root_cover_pair": ("verify", {"cover": {"type": "root_cover", "n": 2, "along": "x0", "p": 7,
                                             "nvars": 2, "pair_t": "1/2"}}),
    "quotient": ("bounds", {"ring": {"type": "quotient", "n": 4, "weights": [1, 3], "p": 5}}),
    "veronese": ("bounds", {"veronese": {"d_vars": 3, "m": 4, "p": 5}}),
    "divisor_class": ("bounds", {"ring": {"type": "quotient", "n": 3, "weights": [1, 1], "p": 5},
                                 "divisor_class": [1, 0]}),
    "hypersurface_e1": ("bounds", {"ring": A1, "options": {"e_max": 1}}),
    "hypersurface_e2": ("bounds", {"ring": A1, "options": {"e_max": 2}}),
    "chain": ("chain", {"ring": {"type": "quotient", "n": 8, "weights": [1, 7], "p": 3}}),
    "quotient_boundary": ("purity", {"ring": {"type": "quotient", "n": 2, "weights": [1, 1], "p": 5}}),
    "hypersurface": ("purity", {"ring": A1, "options": {"e_max": 2}}),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_report_matches_golden(tmp_path, name):
    command, doc = DOCUMENTS[name]
    assert (GOLDEN_DIR / f"{command}__{name}.json").exists()
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main([command, "--spec", str(spec), "--out", str(out), "--golden", str(GOLDEN_DIR)]) == 0
