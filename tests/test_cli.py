"""End-to-end command tests: exit codes, report shapes, goldens."""

import ast
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsig
from fsig.cli import main
from fsig.covers import TraceMap
from fsig.serialize import parse_fraction_string


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, command, doc, *extra):
    spec = write_spec(tmp_path, "spec.json", doc)
    out = tmp_path / "report.json"
    code = main([command, "--spec", spec, "--out", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


QUOTIENT_13 = {"ring": {"type": "quotient", "n": 3, "weights": [1, 1], "p": 5}}
A1_COVER = {
    "cover": {"type": "quotient_cover", "n": 2, "weights": [1, 1], "m": 1,
              "p": 3, "expected_degree": 2}
}


def test_compute_toric_exact(tmp_path):
    code, report = run(tmp_path, "compute", QUOTIENT_13)
    assert code == 0
    assert report["backend"] == "toric"
    assert report["exact"] is True
    assert report["s"] == "1/3"


def test_compute_sequence_backend_on_toric(tmp_path):
    code, report = run(tmp_path, "compute", QUOTIENT_13, "--backend", "sequence",
                       "--e-max", "2")
    assert code == 0
    assert report["backend"] == "sequence"
    assert report["exact"] is False
    assert [r["a_e"] for r in report["records"]] == [8, 209]
    assert report["monotone"] is True


def test_compute_hypersurface_sequence(tmp_path):
    doc = {
        "ring": {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x0*x1 - x2^2"},
        "options": {"e_max": 2},
    }
    code, report = run(tmp_path, "compute", doc)
    assert code == 0
    assert [r["a_e"] for r in report["records"]] == [5, 41]
    assert report["dimension"] == 2
    assert "estimate" in report["note"]


def test_compute_regular_constant_one(tmp_path):
    doc = {"ring": {"type": "regular", "p": 5, "nvars": 2},
           "options": {"e_max": 2, "backend": "sequence"}}
    code, report = run(tmp_path, "compute", doc)
    assert code == 0
    assert [r["normalized"] for r in report["records"]] == ["1/1", "1/1"]


def test_compute_rejects_toric_backend_for_presentation(tmp_path):
    doc = {"ring": {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x0*x1 - x2^2"}}
    code, _ = run(tmp_path, "compute", doc, "--backend", "toric")
    assert code == 2


def test_compute_budget_abort(tmp_path):
    # f is neither separated nor quadratic, so the budget stops the graded rank route
    doc = {
        "ring": {"type": "hypersurface", "p": 3, "nvars": 4,
                 "f": "x0*x1 + x0*x2^2 + x1*x2^2 + x3^2"},
        "options": {"e_max": 3},
    }
    code, _ = run(tmp_path, "compute", doc, "--budget", "0.01")
    assert code == 3


QUADRIC_P3 = {"ring": {"type": "hypersurface", "p": 3, "nvars": 4,
                       "f": "x0^2 + x1^2 + x2^2 + x3^2"}}


def test_compute_quadric_past_the_box_cap(tmp_path):
    # (2q^3 + q)/3 at q = 81; the rank route refuses the 81^4 box
    code, report = run(tmp_path, "compute", QUADRIC_P3, "--e-max", "4")
    assert code == 0
    assert [r["a_e"] for r in report["records"]] == [19, 489, 13131, 354321]


def test_compute_budget_stops_the_separated_engine(tmp_path, capsys):
    # e <= 8 takes about a second in all, e = 9 about two and e = 10 several
    started = time.monotonic()
    code, report = run(tmp_path, "compute", QUADRIC_P3, "--e-max", "10", "--budget", "1")
    assert code == 3
    assert report is None
    assert "budget exhausted: time budget exhausted during e = " in capsys.readouterr().err
    assert time.monotonic() - started < 30


def test_compute_huge_e_max_on_a_separated_f_exits_2(tmp_path, capsys):
    doc = {"ring": {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x*y - z^2",
                    "names": ["x", "y", "z"]}}
    started = time.monotonic()
    code, _ = run(tmp_path, "compute", doc, "--e-max", "40")
    assert code == 2
    err = capsys.readouterr().err
    assert "too large for the separated engine" in err
    assert "e = 11 refused" in err and "the last finished level is e = 10" in err
    assert time.monotonic() - started < 10


@pytest.mark.parametrize("command, doc", [
    ("compute", {"ring": {"type": "quotient", "n": 6, "weights": [1, 5], "p": 3}}),
    ("verify", {"cover": {"type": "quotient_cover", "n": 6, "weights": [1, 5], "m": 2, "p": 3}}),
])
def test_p_dividing_n_has_one_message(tmp_path, capsys, command, doc):
    code, _ = run(tmp_path, command, doc)
    assert code == 2
    assert capsys.readouterr().err == (
        "input error: p = 3 divides n = 6: the cover degree must be prime to p\n"
    )


def test_purity_budget_bounds_the_cover_search(tmp_path, capsys):
    # n is prime, so trial division runs to its square root, about 10^7.
    doc = {"ring": {"type": "quotient", "n": 100000000000031, "weights": [1, 1], "p": 3}}
    code, _ = run(tmp_path, "purity", doc, "--budget", "0.05")
    assert code == 3
    assert "during the cover search" in capsys.readouterr().err


@pytest.mark.parametrize("options, flags", [
    ({"time_budget_secs": 1000}, ["--budget", "0.05"]),  # the flag overrides the document
    ({"time_budget_secs": 0.05}, []),
])
def test_chain_budget_bounds_the_trial_division(tmp_path, capsys, options, flags):
    # n is prime, so its smallest prime factor is found at the end of a
    # trial division to about 10^7, which takes about a second unchecked.
    doc = {"ring": {"type": "quotient", "n": 100000000000031, "weights": [1, 1], "p": 3},
           "options": options}
    started = time.monotonic()
    code, _ = run(tmp_path, "chain", doc, *flags)
    assert code == 3
    assert "budget exhausted: time budget exhausted during the chain walk" in capsys.readouterr().err
    assert time.monotonic() - started < 0.5


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    doc = {"ring": {"type": "hypersurface", "p": 3, "nvars": 1, "f": "(" * 250 + "x0" + ")" * 250}}
    code, _ = run(tmp_path, "compute", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: parentheses nested deeper than 100")
    assert "Traceback" not in err


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # the JSON decoder recurses once per array, so 100,000 levels pass the recursion limit
    spec = tmp_path / "nested.json"
    spec.write_text('{"ring": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code = main(["compute", "--spec", str(spec), "--out", str(tmp_path / "report.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: maximum recursion depth exceeded")
    assert "Traceback" not in err


def test_block_past_the_cell_cap_is_refused(tmp_path, capsys):
    # Neither separated nor a quadratic form, so the rank route: at e = 3 the
    # weights (2, 2, 1, 2, 2) give a 51086 x 56350 block, 11.5 GB in float32.
    doc = {"ring": {"type": "hypersurface", "p": 3, "nvars": 5,
                    "f": "x0*x1 + x0*x2^2 + x1*x2^2 + x3^2 + x4^2"}}
    code, _ = run(tmp_path, "compute", doc, "--e-max", "3")
    assert code == 2
    err = capsys.readouterr().err
    assert "e = 3 refused: a block of 51086 x 56350 monomials is too large" in err


def test_compute_schema_error(tmp_path):
    code, _ = run(tmp_path, "compute", {"ring": {"type": "regular", "p": 4, "nvars": 2}})
    assert code == 2


def test_compute_malformed_json(tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text('{"ring":')
    assert main(["compute", "--spec", str(spec)]) == 2


def test_compute_missing_file(tmp_path):
    assert main(["compute", "--spec", str(tmp_path / "absent.json")]) == 2


def test_verify_a1_cover(tmp_path):
    code, report = run(tmp_path, "verify", A1_COVER)
    assert code == 0
    assert report["ok"] is True
    assert report["degree"] == 2
    assert report["transformation"]["ok"] is True
    assert report["doubling"]["equality"] is True
    assert report["trace"]["surjective"] is True
    assert report["trace_summands"] == 1
    assert report["degree_matches_spec"] is True


def test_verify_root_cover_with_pair(tmp_path):
    doc = {"cover": {"type": "root_cover", "n": 2, "along": 0, "p": 7,
                     "nvars": 2, "pair_t": "1/2"}}
    code, report = run(tmp_path, "verify", doc)
    assert code == 0
    assert report["transformation"]["ok"] is True
    assert parse_fraction_string(report["transformation"]["s_lower"]) == Fraction(1, 2)
    assert report["etale_in_codim1"] is False
    assert report["doubling"] is None


def test_verify_wrong_degree_exits_4(tmp_path):
    doc = {"cover": dict(A1_COVER["cover"], expected_degree=7)}
    code, report = run(tmp_path, "verify", {"cover": doc["cover"]})
    assert code == 4
    assert report["degree_matches_spec"] is False
    assert report["ok"] is False


def test_verify_non_effective_pair_exits_4(tmp_path):
    doc = {"cover": {"type": "root_cover", "n": 2, "along": 0, "p": 7,
                     "nvars": 2, "pair_t": "1/4"}}
    code, report = run(tmp_path, "verify", doc)
    assert code == 4
    assert report is None  # refused before any report is written


def test_verify_wild_cover_rejected(tmp_path):
    doc = {"cover": {"type": "root_cover", "n": 7, "along": 0, "p": 7, "nvars": 2}}
    code, _ = run(tmp_path, "verify", doc)
    assert code == 2


def test_bounds_quotient(tmp_path):
    code, report = run(tmp_path, "bounds", {"ring": {"type": "quotient", "n": 6,
                                                     "weights": [1, 5], "p": 7}})
    assert code == 0
    core = report["bound_report"]
    assert core == {"s": "1/6", "exact": True, "bound": 6, "prime_to_p": 7,
                    "theorem": "A"}
    assert report["details"]["attained"] is True


def test_bounds_provisional_sequence(tmp_path):
    doc = {
        "ring": {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x0*x1 - x2^2"},
        "options": {"e_max": 2},
    }
    code, report = run(tmp_path, "bounds", doc)
    assert code == 0
    assert report["bound_report"]["exact"] is False
    assert report["details"]["provisional"] is True
    lo, hi = report["details"]["bound_interval"]
    assert lo <= 2 <= hi


def test_bounds_sequence_single_record(tmp_path):
    doc = {"ring": {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x0*x1 - x2^2"}}
    code, report = run(tmp_path, "bounds", doc, "--e-max", "1")
    assert code == 0
    assert report["details"]["provisional"] is True
    lo, hi = report["details"]["s_interval"]
    assert lo == hi == report["bound_report"]["s"] == "5/9"


def test_bounds_veronese(tmp_path):
    code, report = run(tmp_path, "bounds", {"veronese": {"d_vars": 3, "m": 4, "p": 5}})
    assert code == 0
    assert report["bound_report"]["theorem"] == "veronese"
    assert report["bound_report"]["bound"] == 4


def test_bounds_divisor_class(tmp_path):
    doc = dict(QUOTIENT_13, divisor_class=[1, 0])
    code, report = run(tmp_path, "bounds", doc)
    assert code == 0
    assert report["bound_report"]["theorem"] == "index"
    assert report["details"]["class_order"] == 3
    assert report["details"]["cover_etale_in_codim1"] is True


def test_chain_1_8_1_7(tmp_path):
    doc = {"ring": {"type": "quotient", "n": 8, "weights": [1, 7], "p": 3}}
    code, report = run(tmp_path, "chain", doc)
    assert code == 0
    assert report["ok"] is True
    assert len(report["steps"]) == 3
    assert report["stabilization_index"] == 3
    assert report["s_values"] == ["1/8", "1/4", "1/2", "1/1"]
    assert [s["degree"] for s in report["steps"]] == [2, 2, 2]


def test_chain_p_divides_n_exits_2(tmp_path):
    doc = {"ring": {"type": "quotient", "n": 4, "weights": [1, 3], "p": 2}}
    code, _ = run(tmp_path, "chain", doc)
    assert code == 2


def test_purity_exact_boundary(tmp_path):
    doc = {"ring": {"type": "quotient", "n": 2, "weights": [1, 1], "p": 5}}
    code, report = run(tmp_path, "purity", doc)
    assert code == 0
    assert report["purity"]["forced"] is False
    assert report["purity"]["boundary_case"] is True
    assert report["purity"]["admits_nontrivial_etale_cover"] is True
    assert report["purity"]["cover_degrees_found"] == [2]
    assert report["bound_report"]["theorem"] == "C"


def test_purity_provisional(tmp_path):
    doc = {
        "ring": {"type": "hypersurface", "p": 3, "nvars": 4,
                 "f": "x0^2 + x1^2 + x2^2 + x3^2"},
        "options": {"e_max": 2},
    }
    code, report = run(tmp_path, "purity", doc)
    assert code == 0
    assert report["purity"]["forced"] is True
    assert report["purity"]["provisional"] is True
    assert report["purity"]["exact"] is False


def test_golden_record_then_match(tmp_path):
    spec = write_spec(tmp_path, "quot.json", QUOTIENT_13)
    golden = tmp_path / "goldens"
    out = tmp_path / "r.json"
    assert main(["compute", "--spec", spec, "--out", str(out),
                 "--golden", str(golden)]) == 0
    recorded = golden / "compute__quot.json"
    assert recorded.exists()
    assert "timing" not in json.loads(recorded.read_text())
    # Second run compares equal.
    assert main(["compute", "--spec", spec, "--out", str(out),
                 "--golden", str(golden)]) == 0


def test_golden_mismatch_exits_4(tmp_path):
    spec = write_spec(tmp_path, "quot.json", QUOTIENT_13)
    golden = tmp_path / "goldens"
    golden.mkdir()
    (golden / "compute__quot.json").write_text('{"other": 1}')
    out = tmp_path / "r.json"
    assert main(["compute", "--spec", spec, "--out", str(out),
                 "--golden", str(golden)]) == 4


def test_report_reparses_under_roundtrip(tmp_path):
    code, report = run(tmp_path, "compute", QUOTIENT_13)
    assert code == 0
    assert json.loads(json.dumps(report)) == report


def test_reports_are_deterministic(tmp_path):
    from fsig.serialize import strip_timing

    _, one = run(tmp_path, "compute", QUOTIENT_13)
    _, two = run(tmp_path, "compute", QUOTIENT_13)
    assert strip_timing(one) == strip_timing(two)


QUOTIENT_1_5 = {"ring": {"type": "quotient", "n": 5, "weights": [1, 2], "p": 3}}
A1_HYPERSURFACE = {"ring": {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x*y - z^2",
                            "names": ["x", "y", "z"]}}


def test_compute_window_sequence_honours_budget(tmp_path):
    # the window counts for e <= 6 alone take longer than the budget
    doc = {"ring": {"type": "quotient", "n": 7, "weights": [1, 2, 4], "p": 3}}
    code, report = run(tmp_path, "compute", doc, "--backend", "sequence",
                       "--budget", "0.01", "--e-max", "7")
    assert code == 3
    assert report is None


def _rays_ring(ray):
    return {"ring": {"type": "toric", "rays": [[1, 0], [1, ray]], "p": 3}}


def test_window_counts_just_inside_int64(tmp_path):
    code, report = run(tmp_path, "compute", _rays_ring(10**17), "--backend", "sequence",
                       "--e-max", "3")
    assert code == 0
    assert [r["a_e"] for r in report["records"]] == [3, 9, 27]


@pytest.mark.parametrize("ray", [10**18, 4 * 10**18, 10**20])
@pytest.mark.parametrize("command", ["compute", "bounds", "purity"])
def test_window_past_int64_is_an_input_error(tmp_path, capsys, command, ray):
    # adj @ y leaves int64 at e = 3; numpy would wrap it and miscount.
    code, report = run(tmp_path, command, _rays_ring(ray), "--backend", "sequence",
                       "--e-max", "3")
    assert code == 2
    assert report is None
    assert "window too large to enumerate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "bounds", "purity"])
def test_huge_cyclic_quotient_takes_no_loop_over_the_group(tmp_path, command):
    doc = {"ring": {"type": "quotient", "n": 10**9 + 7, "weights": [1, 1], "p": 3}}
    start = time.monotonic()
    code, report = run(tmp_path, command, doc)
    assert time.monotonic() - start < 1.0
    assert code == 0


@pytest.mark.parametrize("command", ["bounds", "purity"])
def test_sequence_backend_on_toric_ring(tmp_path, command):
    doc = dict(QUOTIENT_1_5, options={"backend": "sequence"})
    code, report = run(tmp_path, command, doc)
    assert code == 0
    assert report["bound_report"]["exact"] is False
    if command == "bounds":
        assert report["details"]["provisional"] is True
        assert report["bound_report"]["bound"] == 4
        assert report["details"]["s_interval"] == ["146/729", "49/243"]
    else:
        assert report["purity"]["provisional"] is True
        assert report["purity"]["exact"] is False


@pytest.mark.parametrize("command", ["bounds", "purity"])
def test_toric_backend_rejects_presentation(tmp_path, command):
    code, report = run(tmp_path, command, A1_HYPERSURFACE, "--backend", "toric")
    assert code == 2
    assert report is None


@pytest.mark.parametrize("command", ["verify", "chain"])
def test_sequence_flags_refused_where_unread(tmp_path, command):
    # verify reads none of the three flags; chain reads only --budget
    spec = write_spec(tmp_path, "spec.json", A1_COVER if command == "verify" else QUOTIENT_13)
    flags = [["--e-max", "2"], ["--backend", "toric"]] + ([["--budget", "5"]] if command == "verify" else [])
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", spec, *flag])
        assert exc.value.code == 2, flag


def test_purity_cross_check_survives_optimize(tmp_path):
    # Under python -O an assert would vanish; the cross-check must still
    # refuse a cover etale in codimension one above the purity threshold.
    spec = write_spec(tmp_path, "spec.json",
                      {"ring": {"type": "quotient", "n": 1, "weights": [1, 1], "p": 5}})
    script = (
        "import sys\n"
        "from fsig import bounds, cli, quotient_cover, quotient_singularity\n"
        "bounds.etale_cover_search = lambda ring, deadline: [\n"
        "    quotient_cover(quotient_singularity(2, (1, 1), 5), 1)]\n"
        f"sys.exit(cli.main(['purity', '--spec', {spec!r}]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == (
        "verification failure: a cover etale in codimension one exists despite purity"
    )


def test_no_assert_statements_in_src():
    # Checks written as assert vanish under python -O; each must raise a typed error.
    paths = sorted(Path(fsig.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _referenced_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_src_definition_is_referenced():
    # A module-level def or class is dead unless another module of the
    # package (the re-exports in __init__ aside), a demo, the benchmark,
    # or another statement of its own module names it.  A test counts
    # only for the public names in fsig.__all__: a helper that only the
    # tests call belongs in tests/.
    root = Path(__file__).resolve().parent.parent
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(Path(fsig.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"}
    assert modules
    outside = {name: _referenced_names(tree) for name, tree in modules.items()}
    public = set(fsig.__all__)
    for folder in ("tests", "demos", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            names = _referenced_names(ast.parse(path.read_text()))
            outside[str(path)] = names & public if folder == "tests" else names
    unreferenced = []
    for name, tree in modules.items():
        elsewhere = set().union(*(refs for other, refs in outside.items() if other != name))
        statements = [_referenced_names(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in elsewhere.union(*statements[:i], *statements[i + 1 :]):
                unreferenced.append(f"{name}:{node.name}")
    assert unreferenced == []


@pytest.mark.parametrize("command", ["bounds", "purity"])
def test_bounds_and_purity_judge_the_same_estimate(tmp_path, command):
    # The last value 1/4 lies below the extrapolation 1/2; both commands
    # take s = min(last, estimate) and its floor 4 as the bound.
    doc = {
        "ring": {"type": "hypersurface", "p": 2, "nvars": 3, "f": "x0*x1 + x2^2"},
        "pair": {"components": [{"g": "x0 + x1", "t": "1/3"}], "convention": "ceil_pe_minus_1"},
        "options": {"e_max": 2},
    }
    code, report = run(tmp_path, command, doc)
    assert code == 0
    assert report["bound_report"]["s"] == "1/4"
    assert report["bound_report"]["bound"] == 4
    if command == "bounds":
        assert report["details"]["s_interval"] == ["1/4", "1/2"]
        assert report["details"]["bound_interval"] == [2, 4]


def test_verify_reports_trace_outside_maximal_ideal(tmp_path, monkeypatch):
    # A trace that sent every generator to the unit monomial would leave m_R.
    monkeypatch.setattr(TraceMap, "on_upper_monomial", lambda self, c: (1, (0,) * len(c)))
    code, report = run(tmp_path, "verify", A1_COVER)
    assert code == 4
    assert report["trace"]["ok"] is False
    assert report["ok"] is False


RATIONALS = st.sampled_from(["0", "1/2", "1/3", "2/3", "1", "3/2", "-1/2", 0, 1])


@st.composite
def documents(draw):
    """A command and a small document: quotients with n <= 6, pairs, covers."""
    command = draw(st.sampled_from(["compute", "bounds", "purity", "verify", "chain"]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(-1, 7), min_size=1, max_size=3))
    if command == "verify":
        if draw(st.booleans()):
            cover = {"type": "quotient_cover", "n": n, "weights": weights,
                     "m": draw(st.integers(1, 6)), "p": p}
        else:
            cover = {"type": "root_cover", "n": n, "along": draw(st.integers(0, 2)), "p": p,
                     "nvars": draw(st.integers(1, 3))}
            if draw(st.booleans()):
                cover["pair_t"] = draw(RATIONALS)
        if draw(st.booleans()):
            cover["expected_degree"] = draw(st.integers(1, 6))
        return command, {"cover": cover}
    if command == "bounds" and draw(st.booleans()):
        return command, {"veronese": {"d_vars": draw(st.integers(1, 3)), "m": n, "p": p}}
    doc = {"ring": {"type": "quotient", "n": n, "weights": weights, "p": p}}
    if command == "chain":
        return command, doc
    if draw(st.booleans()):
        doc["pair"] = {"facet_coeffs": draw(st.lists(RATIONALS, min_size=1, max_size=3))}
    doc["options"] = {"e_max": draw(st.integers(1, 2)),
                      "backend": draw(st.sampled_from(["auto", "toric", "sequence"]))}
    if command == "bounds" and draw(st.booleans()):
        doc["divisor_class"] = draw(st.lists(st.integers(-2, 4), min_size=1, max_size=3))
    return command, doc


@given(documents())
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_document_ends_in_a_known_exit_code(tmp_path, capsys, command_doc):
    command, doc = command_doc
    code, _ = run(tmp_path, command, doc)
    capsys.readouterr()
    assert code in (0, 2, 3, 4), (command, doc)
