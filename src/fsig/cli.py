"""Command-line driver: compute, verify, bounds, chain, purity.

Reads a JSON spec document, hands its ring and options to the library
(which picks the exact lattice backend or the splitting-number sequence
backend), writes a deterministic JSON report (stdout or --out) and prints
an aligned human table to stderr.
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

from .bounds import BoundReport, index_bound, pi1_order_bound, purity_check, veronese_bound
from .covers import (
    CoverConstructionError,
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
from .poly import ParseError
from .serialize import (
    along_index,
    build_pair,
    build_ring,
    canonical_json,
    divisor_json,
    fraction_string,
    parse_fraction_string,
    strip_timing,
    validate_document,
)
from .toric import SimplicialityError, ToricRing, TorusQDivisor


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _emit(report: dict, table: str, out: str | None) -> None:
    print(table, file=sys.stderr)
    text = canonical_json(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_document(args) -> dict:
    with open(args.spec) as handle:
        doc = json.load(handle)
    validate_document(doc)
    return doc


def _ring_request(doc: dict, args):
    """The ring, the pair and the ``fsig_value`` keywords of a compute/bounds/purity document.

    The flags override the document's options; the library applies the
    backend rule.
    """
    options = dict(doc.get("options", {}))
    flags = {"e_max": args.e_max, "backend": args.backend, "time_budget_secs": args.budget}
    options.update((key, value) for key, value in flags.items() if value is not None)
    if "ring" not in doc:
        raise ValueError(f"{args.command} needs a ring")
    ring = build_ring(doc["ring"])
    delta = build_pair(doc["pair"], ring) if "pair" in doc else None
    budget = options.get("time_budget_secs")
    request = {
        "backend": options.get("backend", "auto"),
        "e_max": options.get("e_max", 3),
        "deadline": None if budget is None else time.monotonic() + budget,
    }
    return ring, delta, request


# -- compute -----------------------------------------------------------------


def _record_rows(records) -> list[list[str]]:
    return [
        [str(r.e), str(r.q), str(r.a_e), fraction_string(r.normalized),
         f"{float(r.normalized):.6f}"]
        for r in records
    ]


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
        report["s"] = fraction_string(value.s)
        table = _table(["s (exact)", "decimal"], [[report["s"], f"{float(value.s):.6f}"]])
        return report, table, 0
    seq = value.sequence
    extrapolated = seq.extrapolated
    report.update({
        "dimension": ring.d,
        "records": [
            {"e": r.e, "q": r.q, "a_e": r.a_e, "normalized": fraction_string(r.normalized)}
            for r in seq.records
        ],
        "extrapolated": fraction_string(extrapolated) if extrapolated is not None else None,
        "consistent": seq.consistent,
        "monotone": seq.monotone,
        "note": seq.note,
    })
    table = _table(["e", "q", "a_e", "a_e/q^d", "decimal"], _record_rows(seq.records))
    if extrapolated is not None:
        table += f"\nextrapolated: {fraction_string(extrapolated)} ~ {float(extrapolated):.6f}"
    return report, table, 0


# -- verify ------------------------------------------------------------------


def _build_cover_from_doc(cover_doc: dict):
    """Returns (cover, delta_lower or None)."""
    kind = cover_doc["type"]
    if kind == "quotient_cover":
        cover = quotient_cover(
            cover_doc["n"], tuple(cover_doc["weights"]), cover_doc["p"], cover_doc["m"]
        )
        return cover, None
    nvars = cover_doc.get("nvars", 2)
    idx = along_index(cover_doc["along"], nvars)
    cover = root_cover(nvars, idx, cover_doc["n"], cover_doc["p"])
    delta = None
    if "pair_t" in cover_doc:
        t = parse_fraction_string(cover_doc["pair_t"])
        coeffs = [Fraction(0)] * nvars
        coeffs[idx] = t
        delta = TorusQDivisor.of(coeffs)
    return cover, delta


def cmd_verify(doc: dict, args) -> tuple[dict, str, int]:
    if "cover" not in doc:
        raise ValueError("verify needs a cover")
    cover, delta = _build_cover_from_doc(doc["cover"])
    checks: list[tuple[str, bool, str]] = []
    transformation = verify_transformation(cover, delta)
    checks.append((
        "transformation",
        transformation.ok,
        f"{transformation.residue_degree} * {fraction_string(transformation.s_upper)} = "
        f"{transformation.degree} * {fraction_string(transformation.s_lower)}",
    ))
    doubling = doubling_check(cover) if cover.etale_in_codim1 else None
    if doubling is not None:
        detail = "vacuous" if doubling.vacuous else (
            f"{fraction_string(doubling.s_upper)} >= 2 * {fraction_string(doubling.s_lower)}"
            + (" (equality)" if doubling.equality else "")
        )
        checks.append(("doubling", doubling.ok, detail))
    trace_report = verify_note_trace(cover)
    checks.append(("trace_in_maximal", trace_report.ok, f"{len(trace_report.rows)} generators"))
    summands = count_trace_summands(cover)
    expected_summands = cover.residue_degree if cover.trace.is_surjective() else 0
    checks.append(("trace_summands", summands == expected_summands, f"count = {summands}"))
    degree_ok = None
    if "expected_degree" in doc["cover"]:
        degree_ok = cover.degree == doc["cover"]["expected_degree"]
        checks.append((
            "degree_matches_spec",
            degree_ok,
            f"computed {cover.degree}, spec {doc['cover']['expected_degree']}",
        ))
    ok = all(passed for _, passed, _ in checks)
    report = {
        "cover": doc["cover"],
        "degree": cover.degree,
        "residue_degree": cover.residue_degree,
        "ram": divisor_json(cover.ram),
        "etale_in_codim1": cover.etale_in_codim1,
        "transformation": {
            "ok": transformation.ok,
            "s_lower": fraction_string(transformation.s_lower),
            "s_upper": fraction_string(transformation.s_upper),
            "lhs": fraction_string(transformation.lhs),
            "rhs": fraction_string(transformation.rhs),
            "delta_lower": divisor_json(transformation.delta_lower),
            "delta_upper": divisor_json(transformation.delta_upper),
        },
        "doubling": None if doubling is None else {
            "ok": doubling.ok,
            "vacuous": doubling.vacuous,
            "equality": doubling.equality,
        },
        "trace": {
            "ok": trace_report.ok,
            "surjective": trace_report.surjective,
            "rows": [
                {
                    "generator": list(r.generator_ambient),
                    "in_lower_lattice": r.in_lower_lattice,
                    "coefficient_mod_p": r.coefficient_mod_p,
                }
                for r in trace_report.rows
            ],
        },
        "trace_summands": summands,
        "degree_matches_spec": degree_ok,
        "ok": ok,
    }
    rows = [[name, "PASS" if passed else "FAIL", detail] for name, passed, detail in checks]
    table = _table(["check", "result", "detail"], rows)
    return report, table, 0 if ok else 4


# -- bounds ------------------------------------------------------------------


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
        report = {
            "bound_report": BoundReport(rep.s, True, rep.bound, ring.p, rep.theorem).core_json(),
            "details": {
                "class_order": rep.order,
                "cover_degree": rep.cover.degree,
                "cover_etale_in_codim1": rep.cover.etale_in_codim1,
                "provisional": False,
            },
        }
        table = _table(
            ["order", "bound", "s", "cover degree", "etale c1"],
            [[str(rep.order), str(rep.bound), fraction_string(rep.s),
              str(rep.cover.degree), str(rep.cover.etale_in_codim1)]],
        )
        return report, table, 0
    else:
        if "ring" not in doc:
            raise ValueError("bounds needs a ring, a veronese block, or a divisor_class")
        ring, delta, request = _ring_request(doc, args)
        bound = pi1_order_bound(ring, delta, **request)
    report = {"bound_report": bound.core_json(), "details": bound.details_json()}
    table = _table(
        ["s", "exact", "bound", "prime to", "theorem"],
        [[fraction_string(bound.s), str(bound.exact), str(bound.bound),
          str(bound.prime_to_p), bound.theorem]],
    )
    return report, table, 0


# -- chain -------------------------------------------------------------------


def cmd_chain(doc: dict, args) -> tuple[dict, str, int]:
    if "ring" not in doc:
        raise ValueError("chain needs a ring")
    ring = build_ring(doc["ring"])
    if not isinstance(ring, ToricRing) or ring.group_order is None:
        raise ValueError("chain simulation needs a quotient ring")
    chain = chain_simulation(ring)
    report = {
        "ring": doc["ring"],
        "steps": [
            {
                "lower": step.lower.label,
                "upper": step.upper.label,
                "degree": step.degree,
                "etale_in_codim1": step.etale_in_codim1,
                "s_lower": fraction_string(s_lo),
                "s_upper": fraction_string(s_hi),
            }
            for step, s_lo, s_hi in zip(chain.steps, chain.s_values, chain.s_values[1:])
        ],
        "s_values": [fraction_string(s) for s in chain.s_values],
        "stabilization_index": chain.stabilization_index,
        "ok": chain.ok,
    }
    rows = [
        [str(i), step.lower.label, step.upper.label, str(step.degree),
         str(step.etale_in_codim1), fraction_string(s_lo), fraction_string(s_hi)]
        for i, (step, s_lo, s_hi) in enumerate(
            zip(chain.steps, chain.s_values, chain.s_values[1:]), start=1
        )
    ]
    table = _table(
        ["step", "lower", "upper", "degree", "etale c1", "s lower", "s upper"], rows
    )
    table += f"\nstabilization index: {chain.stabilization_index}"
    return report, table, 0 if chain.ok else 4


# -- purity ------------------------------------------------------------------


def cmd_purity(doc: dict, args) -> tuple[dict, str, int]:
    ring, delta, request = _ring_request(doc, args)
    verdict = purity_check(ring, delta, **request)
    bound = math.floor(1 / verdict.s) if verdict.s > 0 else 0
    report = {
        "ring": doc["ring"],
        "purity": {
            "forced": verdict.forced,
            "threshold": fraction_string(verdict.threshold),
            "clause": verdict.clause,
            "s": fraction_string(verdict.s),
            "exact": verdict.exact,
            "provisional": verdict.provisional,
            "boundary_case": verdict.boundary_case,
            "admits_nontrivial_etale_cover": verdict.admits_nontrivial_etale_cover,
            "cover_degrees_found": [c.degree for c in verdict.covers_found],
        },
        "bound_report": BoundReport(verdict.s, verdict.exact, bound, ring.p, "C").core_json(),
    }
    table = _table(
        ["s", "threshold", "clause", "forced", "boundary"],
        [[fraction_string(verdict.s), fraction_string(verdict.threshold),
          verdict.clause, str(verdict.forced), str(verdict.boundary_case)]],
    )
    return report, table, 0


# -- goldens and dispatch ------------------------------------------------------


def _golden_compare(report: dict, args) -> tuple[str, int]:
    golden_dir = Path(args.golden)
    golden_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.spec).stem
    path = golden_dir / f"{args.command}__{stem}.json"
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
            cmd.add_argument("--budget", type=float, default=None, help="time budget in seconds")
        cmd.add_argument("--golden", help="directory of regression goldens")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_document(args)
        started = time.monotonic()
        report, table, code = COMMANDS[args.command](doc, args)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (NonEffectivePairError, VerificationFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except (
        json.JSONDecodeError,
        jsonschema.ValidationError,
        ParseError,
        SimplicialityError,
        CoverConstructionError,
        ValueError,
        OSError,
    ) as exc:
        message = getattr(exc, "message", None) or str(exc)
        print(f"input error: {message.splitlines()[0]}", file=sys.stderr)
        return 2
    report["command"] = args.command
    report["timing"] = {"seconds": time.monotonic() - started}
    _emit(report, table, args.out)
    if args.golden:
        note, golden_code = _golden_compare(report, args)
        print(note, file=sys.stderr)
        code = code or golden_code
    return code


if __name__ == "__main__":
    sys.exit(main())
