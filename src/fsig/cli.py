"""Command-line driver: compute, verify, bounds, chain, purity.

Reads a JSON spec document, hands its ring and options to the library
(which picks the exact lattice backend or the splitting-number sequence
backend), writes a deterministic JSON report (stdout or --out) and prints
an aligned human table to stderr.  Each handler picks its fields from the
library's results and renders them once by ``serialize.report_json``; the
table reads its cells from that report.
Exit codes: 0 success, 2 input error, 3 budget exhausted, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema

from .bounds import index_bound, pi1_order_bound, purity_check, veronese_bound
from .covers import (
    NonEffectivePairError,
    VerificationFailure,
    chain_simulation,
    count_trace_summands,
    doubling_check,
    quotient_cover,
    root_cover,
    verify_note_trace,
    verify_transformation,
)
from .frobenius import BudgetExceeded, fsig_value
from .serialize import (
    along_index,
    build_pair,
    build_ring,
    canonical_json,
    parse_fraction_string,
    report_json,
    strip_timing,
    validate_document,
)
from .toric import ToricRing, TorusQDivisor, quotient_singularity


def _table(headers: list[str], rows: list[list]) -> str:
    """Aligned columns; a cell shows ``str`` of its report value."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _fields(obj, *names: str) -> dict:
    """The named attributes of a library result, as report fields."""
    return {name: getattr(obj, name) for name in names}


def _row(section: dict, *keys: str) -> list:
    """The cells of a table row, read from a converted report section."""
    return [section[key] for key in keys]


def _decimal(x: Fraction) -> str:
    return f"{float(x):.6f}"


def _options(doc: dict, args) -> dict:
    """The document's options, overridden by the flags the command takes."""
    options = dict(doc.get("options", {}))
    flags = {"e_max": getattr(args, "e_max", None), "backend": getattr(args, "backend", None),
             "time_budget_secs": args.budget}
    options.update((key, value) for key, value in flags.items() if value is not None)
    return options


def _deadline(options: dict) -> float | None:
    budget = options.get("time_budget_secs")
    return None if budget is None else time.monotonic() + budget


def _ring_request(doc: dict, args):
    """The ring, the pair and the ``fsig_value`` keywords of a compute/bounds/purity document.

    The flags override the document's options; the library applies the
    backend rule.
    """
    options = _options(doc, args)
    if "ring" not in doc:
        raise ValueError(f"{args.command} needs a ring")
    ring = build_ring(doc["ring"])
    delta = build_pair(doc["pair"], ring) if "pair" in doc else None
    request = {
        "backend": options.get("backend", "auto"),
        "e_max": options.get("e_max", 3),
        "deadline": _deadline(options),
    }
    return ring, delta, request


# -- compute -----------------------------------------------------------------


def cmd_compute(doc: dict, args) -> tuple[dict, str, int]:
    ring, delta, request = _ring_request(doc, args)
    value = fsig_value(ring, delta, **request)
    report = {
        "backend": "toric" if value.exact else "sequence",
        "ring": doc["ring"],
        "pair": doc.get("pair"),
        "exact": value.exact,
    }
    if value.exact:
        report = report_json({**report, "s": value.s})
        return report, _table(["s (exact)", "decimal"], [[report["s"], _decimal(value.s)]]), 0
    seq = value.sequence
    report = report_json({
        **report,
        "dimension": ring.d,
        "records": [_fields(r, "e", "q", "a_e", "normalized") for r in seq.records],
        **_fields(seq, "extrapolated", "consistent", "monotone", "note"),
    })
    rows = [
        [*_row(record, "e", "q", "a_e", "normalized"), _decimal(r.normalized)]
        for record, r in zip(report["records"], seq.records)
    ]
    table = _table(["e", "q", "a_e", "a_e/q^d", "decimal"], rows)
    if seq.extrapolated is not None:
        table += f"\nextrapolated: {report['extrapolated']} ~ {_decimal(seq.extrapolated)}"
    return report, table, 0


# -- verify ------------------------------------------------------------------


def _build_cover_from_doc(cover_doc: dict):
    """Returns (cover, delta_lower or None)."""
    kind = cover_doc["type"]
    if kind == "quotient_cover":
        lower = quotient_singularity(cover_doc["n"], cover_doc["weights"], cover_doc["p"])
        return quotient_cover(lower, cover_doc["m"]), None
    nvars = cover_doc.get("nvars", 2)
    idx = along_index(cover_doc["along"], nvars)
    cover = root_cover(nvars, idx, cover_doc["n"], cover_doc["p"])
    if "pair_t" not in cover_doc:
        return cover, None
    t = parse_fraction_string(cover_doc["pair_t"])
    return cover, TorusQDivisor.of([t if i == idx else 0 for i in range(nvars)])


def cmd_verify(doc: dict, args) -> tuple[dict, str, int]:
    if "cover" not in doc:
        raise ValueError("verify needs a cover")
    cover, delta = _build_cover_from_doc(doc["cover"])
    transformation = verify_transformation(cover, delta)
    doubling = doubling_check(cover) if cover.etale_in_codim1 else None
    trace = verify_note_trace(cover)
    expected_degree = doc["cover"].get("expected_degree")
    report = report_json({
        "cover": doc["cover"],
        **_fields(cover, "degree", "residue_degree", "ram", "etale_in_codim1"),
        "transformation": _fields(
            transformation, "ok", "s_lower", "s_upper", "lhs", "rhs", "delta_lower", "delta_upper"
        ),
        "doubling": None if doubling is None else _fields(doubling, "ok", "vacuous", "equality"),
        "trace": {
            **_fields(trace, "ok", "surjective"),
            "rows": [
                {"generator": r.generator_ambient, **_fields(r, "in_lower_lattice", "coefficient_mod_p")}
                for r in trace.rows
            ],
        },
        "trace_summands": count_trace_summands(cover),
        "degree_matches_spec": None if expected_degree is None else cover.degree == expected_degree,
    })
    t = report["transformation"]
    detail = f"{report['residue_degree']} * {t['s_upper']} = {report['degree']} * {t['s_lower']}"
    checks = [("transformation", t["ok"], detail)]
    if doubling is not None:
        d = report["doubling"]
        # the doubling's s values are not report fields; the rule renders them
        detail = "vacuous" if d["vacuous"] else (
            f"{report_json(doubling.s_upper)} >= 2 * {report_json(doubling.s_lower)}"
            + (" (equality)" if d["equality"] else "")
        )
        checks.append(("doubling", d["ok"], detail))
    tr = report["trace"]
    checks.append(("trace_in_maximal", tr["ok"], f"{len(tr['rows'])} generators"))
    summands = report["trace_summands"]
    expected_summands = cover.residue_degree if cover.trace.is_surjective() else 0
    checks.append(("trace_summands", summands == expected_summands, f"count = {summands}"))
    if expected_degree is not None:
        detail = f"computed {report['degree']}, spec {expected_degree}"
        checks.append(("degree_matches_spec", report["degree_matches_spec"], detail))
    report["ok"] = all(passed for _, passed, _ in checks)
    rows = [[name, "PASS" if passed else "FAIL", detail] for name, passed, detail in checks]
    table = _table(["check", "result", "detail"], rows)
    return report, table, 0 if report["ok"] else 4


# -- bounds ------------------------------------------------------------------


def _bound_report(s: Fraction, exact: bool, bound: int, prime_to_p: int, theorem: str) -> dict:
    """The ``bound_report`` section that bounds and purity emit."""
    return {"s": s, "exact": exact, "bound": bound, "prime_to_p": prime_to_p, "theorem": theorem}


def cmd_bounds(doc: dict, args) -> tuple[dict, str, int]:
    if "veronese" in doc:
        v = doc["veronese"]
        bound = veronese_bound(v["d_vars"], v["m"], v["p"])
    elif "divisor_class" in doc:
        if "ring" not in doc:
            raise ValueError("divisor_class bounds need a ring")
        ring = build_ring(doc["ring"])
        if not isinstance(ring, ToricRing):
            raise ValueError("divisor_class bounds need a toric ring")
        rep = index_bound(ring, doc["divisor_class"])
        if not rep.ok:
            raise VerificationFailure(
                f"class order {rep.order} exceeds the bound {rep.bound}"
            )
        report = report_json({
            "bound_report": _bound_report(rep.s, True, rep.bound, ring.p, rep.theorem),
            "details": {
                "class_order": rep.order,
                "cover_degree": rep.cover.degree,
                "cover_etale_in_codim1": rep.cover.etale_in_codim1,
                "provisional": False,
            },
        })
        b, d = report["bound_report"], report["details"]
        table = _table(
            ["order", "bound", "s", "cover degree", "etale c1"],
            [[d["class_order"], b["bound"], b["s"], d["cover_degree"], d["cover_etale_in_codim1"]]],
        )
        return report, table, 0
    else:
        if "ring" not in doc:
            raise ValueError("bounds needs a ring, a veronese block, or a divisor_class")
        ring, delta, request = _ring_request(doc, args)
        bound = pi1_order_bound(ring, delta, **request)
    # the intervals of an estimate; an exact bound has none
    intervals = _fields(bound, "s_interval", "bound_interval")
    report = report_json({
        "bound_report": _bound_report(bound.s, bound.exact, bound.bound, bound.prime_to_p, bound.theorem),
        "details": {
            **_fields(bound, "attained", "note", "provisional"),
            **{key: value for key, value in intervals.items() if value is not None},
        },
    })
    table = _table(
        ["s", "exact", "bound", "prime to", "theorem"],
        [_row(report["bound_report"], "s", "exact", "bound", "prime_to_p", "theorem")],
    )
    return report, table, 0


# -- chain -------------------------------------------------------------------


def cmd_chain(doc: dict, args) -> tuple[dict, str, int]:
    if "ring" not in doc:
        raise ValueError("chain needs a ring")
    ring = build_ring(doc["ring"])
    if not isinstance(ring, ToricRing) or ring.group_order is None:
        raise ValueError("chain simulation needs a quotient ring")
    chain = chain_simulation(ring, _deadline(_options(doc, args)))
    report = report_json({
        "ring": doc["ring"],
        "steps": [
            {
                "lower": step.lower.label,
                "upper": step.upper.label,
                **_fields(step, "degree", "etale_in_codim1"),
                "s_lower": s_lo,
                "s_upper": s_hi,
            }
            for step, s_lo, s_hi in zip(chain.steps, chain.s_values, chain.s_values[1:])
        ],
        **_fields(chain, "s_values", "stabilization_index", "ok"),
    })
    rows = [
        [i, *_row(step, "lower", "upper", "degree", "etale_in_codim1", "s_lower", "s_upper")]
        for i, step in enumerate(report["steps"], start=1)
    ]
    table = _table(
        ["step", "lower", "upper", "degree", "etale c1", "s lower", "s upper"], rows
    )
    table += f"\nstabilization index: {report['stabilization_index']}"
    return report, table, 0 if report["ok"] else 4


# -- purity ------------------------------------------------------------------


def cmd_purity(doc: dict, args) -> tuple[dict, str, int]:
    ring, delta, request = _ring_request(doc, args)
    verdict = purity_check(ring, delta, **request)
    bound = math.floor(1 / verdict.s) if verdict.s > 0 else 0
    report = report_json({
        "ring": doc["ring"],
        "purity": {
            **_fields(verdict, "forced", "threshold", "clause", "s", "exact", "provisional",
                      "boundary_case", "admits_nontrivial_etale_cover"),
            "cover_degrees_found": [c.degree for c in verdict.covers_found],
        },
        "bound_report": _bound_report(verdict.s, verdict.exact, bound, ring.p, "C"),
    })
    table = _table(
        ["s", "threshold", "clause", "forced", "boundary"],
        [_row(report["purity"], "s", "threshold", "clause", "forced", "boundary_case")],
    )
    return report, table, 0


# -- goldens and dispatch ------------------------------------------------------


def _golden_compare(report: dict, args) -> tuple[str, int]:
    golden_dir = Path(args.golden)
    golden_dir.mkdir(parents=True, exist_ok=True)
    path = golden_dir / f"{args.command}__{Path(args.spec).stem}.json"
    current = strip_timing(report)
    if not path.exists():
        path.write_text(canonical_json(current))
        return f"golden recorded: {path}", 0
    recorded = json.loads(path.read_text())
    if recorded == current:
        return f"golden match: {path}", 0
    return f"golden mismatch: {path}", 4


COMMANDS = {
    "compute": cmd_compute,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "chain": cmd_chain,
    "purity": cmd_purity,
}
# The commands that read a ring through _ring_request, and so its options.
RING_COMMANDS = ("compute", "bounds", "purity")
# The commands that take --budget: the ring commands and the chain walk.
BUDGET_COMMANDS = RING_COMMANDS + ("chain",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsig",
        description="F-signature computations, cover verification, and order bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--spec", required=True, help="JSON spec document")
        cmd.add_argument("--out", help="write the JSON report here (default: stdout)")
        if name in RING_COMMANDS:
            cmd.add_argument("--e-max", dest="e_max", type=int, default=None)
            cmd.add_argument("--backend", choices=["auto", "toric", "sequence"], default=None)
        if name in BUDGET_COMMANDS:
            cmd.add_argument("--budget", type=float, default=None, help="time budget in seconds")
        cmd.add_argument("--golden", help="directory of regression goldens")
    return parser


# Built once: building it costs about as much as a small request.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.spec) as handle:
            doc = json.load(handle)
        validate_document(doc)
        started = time.monotonic()
        report, table, code = COMMANDS[args.command](doc, args)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (NonEffectivePairError, VerificationFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except (jsonschema.ValidationError, ValueError, OSError) as exc:
        message = getattr(exc, "message", None) or str(exc)
        print(f"input error: {message.splitlines()[0]}", file=sys.stderr)
        return 2
    report["command"] = args.command
    report["timing"] = {"seconds": time.monotonic() - started}
    print(table, file=sys.stderr)
    text = canonical_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.golden:
        note, golden_code = _golden_compare(report, args)
        print(note, file=sys.stderr)
        code = code or golden_code
    return code


if __name__ == "__main__":
    sys.exit(main())
