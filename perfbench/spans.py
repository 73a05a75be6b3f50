"""Per-layer tracing from outside the program.

``install`` replaces chosen fsig functions with timing wrappers and binds
each wrapper under every name that held the original in any fsig module
(``frobenius.multiplication_rank``, ``cli.toric_fsig_exact``, the
``cli.COMMANDS`` table, ...), so calls through imported names are seen
too.  A wrapper records a span: its duration, the part of it covered by
child spans, and per-layer counts computed from the arguments and the
result.  A function that no longer exists is reported as missing; the
metrics that need it read null.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _rank(args, kwargs, result):
    m, n = args[0].shape
    return {"cells": m * n, "bytes_in": args[0].nbytes, "rank": result, "min_dim": min(m, n)}


def _box(args, kwargs, result):
    return {"monomials": result[0].shape[0]}


def _assemble(args, kwargs, result):
    return {"cells": result.size}


def _pow(args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _buchberger(args, kwargs, result):
    return {"basis_size": len(result)}


def _window(args, kwargs, result):
    # toric_splitting_number(ring, delta=None, e=1): q^d residue classes
    ring = args[0] if args else kwargs["ring"]
    e = args[2] if len(args) > 2 else kwargs.get("e", 1)
    return {"classes": (ring.p**e) ** ring.d}


def _json_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _exit_code(args, kwargs, result):
    return {"exit_nonzero": int(result != 0)}


# (module, attribute, span name, counts from (args, kwargs, result))
SPANS = [
    ("linalg", "_rank_inplace", "linalg.rank", _rank),
    ("linalg", "_box_exponents", "linalg.box", _box),
    ("linalg", "_block_matrix", "linalg.assemble", _assemble),
    ("linalg", "multiplication_rank", "linalg.multiplication_rank", None),
    ("linalg", "find_positive_weights", "linalg.weights", None),
    ("poly", "Polynomial.__pow__", "poly.pow", _pow),
    ("poly", "parse_polynomial", "poly.parse", None),
    ("ideals", "buchberger", "ideals.buchberger", _buchberger),
    ("ideals", "quotient_length", "ideals.quotient_length", None),
    ("toric", "toric_splitting_number", "toric.window", _window),
    ("toric", "quotient_singularity", "toric.quotient_singularity", None),
    ("toric", "toric_fsig_exact", "toric.fsig_exact", None),
    ("toric", "ToricRing.hilbert_basis", "toric.hilbert_basis", None),
    ("serialize", "validate_document", "serialize.validate", None),
    ("serialize", "build_ring", "serialize.build_ring", None),
    ("serialize", "build_pair", "serialize.build_pair", None),
    ("serialize", "canonical_json", "serialize.canonical_json", _json_bytes),
    ("cli", "main", "cli.request", _exit_code),
]
# Every public function of these modules gets a span, so their self time
# (span time not covered by child spans) is attributed to the module.
SELF_TIMED = ("frobenius", "covers", "bounds", "cli")


class Tracer:
    def __init__(self):
        self.stack = []  # [module, child seconds] per open span
        self.open = Counter()  # open spans per name, to time only the outermost
        self.seconds = defaultdict(float)  # outermost span time per name
        self.calls = Counter()
        self.counts = defaultdict(float)  # "<span>.<count>" totals
        self.self_seconds = defaultdict(float)  # per module
        self.entry_seconds = defaultdict(float)  # per module, calls from outside it
        self.entries = Counter()
        self.missing = set()

    def wrap(self, fn, name, module, counts=None):
        stack, open_ = self.stack, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [module, 0.0]
            outer = stack[-1][0] if stack else None
            stack.append(frame)
            open_[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                self.calls[name] += 1
                if not open_[name]:
                    self.seconds[name] += dur
                self.self_seconds[module] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if outer != module:
                    self.entry_seconds[module] += dur
                    self.entries[module] += 1
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return traced


def _rebind(original, wrapper):
    """Bind wrapper under every name and table entry that held original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fsig" or mod_name.startswith("fsig.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def install(fsig) -> Tracer:
    """Wrap the traced functions of an imported fsig package."""
    tracer = Tracer()
    targets = []
    for module, attr, name, counts in SPANS:
        owner = getattr(fsig, module, None)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            tracer.missing.add(name)
            print(f"warning: fsig.{module}.{attr} not found; {name} metrics read null",
                  file=sys.stderr)
            continue
        targets.append((owner, leaf, fn, name, module, counts))
    for module in SELF_TIMED:
        mod = getattr(fsig, module, None)
        if mod is None:
            tracer.missing.add(module)
            print(f"warning: fsig.{module} not found; its self time reads null", file=sys.stderr)
            continue
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if not any(t[2] is fn for t in targets):
                targets.append((mod, attr, fn, f"{module}.{attr}", module, None))
    for owner, leaf, fn, name, module, counts in targets:
        wrapper = tracer.wrap(fn, name, module, counts)
        if inspect.isclass(owner):
            setattr(owner, leaf, wrapper)
        else:
            _rebind(fn, wrapper)
    return tracer


# (metric, unit); a metric reads null when a span (or module) it needs is
# missing: the span its name starts with, or the ones listed in NEEDS.
PER_LAYER = [
    ("linalg.rank.s", "s"), ("linalg.rank.calls", "count"), ("linalg.rank.cells", "count"),
    ("linalg.rank.bytes_in", "bytes"), ("linalg.rank.useful_ratio", "ratio"),
    ("linalg.rank.ns_per_cell", "ns"),
    ("linalg.box.s", "s"), ("linalg.box.monomials", "count"),
    ("linalg.assemble.s", "s"), ("linalg.assemble.cells", "count"),
    ("linalg.multiplication_rank.s", "s"), ("linalg.multiplication_rank.calls", "count"),
    ("linalg.weights.s", "s"),
    ("poly.pow.s", "s"), ("poly.pow.calls", "count"), ("poly.pow.terms_out", "count"),
    ("poly.parse.s", "s"),
    ("ideals.buchberger.s", "s"), ("ideals.buchberger.calls", "count"),
    ("ideals.buchberger.basis_size", "count"), ("ideals.quotient_length.s", "s"),
    ("frobenius.splitting_number.s", "s"), ("frobenius.splitting_number.calls", "count"),
    ("frobenius.self_s", "s"), ("frobenius.hk_length_sequence.s", "s"),
    ("toric.window.s", "s"), ("toric.window.calls", "count"), ("toric.window.classes", "count"),
    ("toric.window.ns_per_class", "ns"),
    ("toric.quotient_singularity.s", "s"), ("toric.quotient_singularity.calls", "count"),
    ("toric.fsig_exact.s", "s"), ("toric.fsig_exact.calls", "count"),
    ("toric.hilbert_basis.s", "s"), ("toric.hilbert_basis.calls", "count"),
    ("covers.quotient_cover.s", "s"), ("covers.quotient_cover.calls", "count"),
    ("covers.self_s", "s"),
    ("bounds.s", "s"), ("bounds.calls", "count"), ("bounds.self_s", "s"),
    ("serialize.validate.s", "s"), ("serialize.validate.calls", "count"),
    ("serialize.build.s", "s"), ("serialize.canonical_json.s", "s"),
    ("serialize.canonical_json.bytes", "bytes"),
    ("cli.request.s", "s"), ("cli.self_s", "s"), ("cli.exit_nonzero", "count"),
    ("trace.wall_s", "s"), ("trace.req_p50_ms", "ms"), ("trace.overhead_frac", "ratio"),
]


NEEDS = {
    "serialize.build.s": {"serialize.build_ring", "serialize.build_pair"},
    "cli.exit_nonzero": {"cli.request"},
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes, traced_wall, untraced_wall, traced_p50_ms):
    """Every PER_LAYER metric, per pass of the request list."""
    t = tracer
    per = 1.0 / passes
    values = {
        "linalg.rank.useful_ratio": _ratio(t.counts["linalg.rank.rank"], t.counts["linalg.rank.min_dim"]),
        "linalg.rank.ns_per_cell": 1e9 * _ratio(t.seconds["linalg.rank"], t.counts["linalg.rank.cells"]),
        "toric.window.ns_per_class": 1e9 * _ratio(t.seconds["toric.window"], t.counts["toric.window.classes"]),
        "frobenius.self_s": t.self_seconds["frobenius"] * per,
        "covers.self_s": t.self_seconds["covers"] * per,
        "cli.self_s": t.self_seconds["cli"] * per,
        "bounds.s": t.entry_seconds["bounds"] * per,
        "bounds.calls": t.entries["bounds"] * per,
        "bounds.self_s": t.self_seconds["bounds"] * per,
        "serialize.build.s": (t.seconds["serialize.build_ring"] + t.seconds["serialize.build_pair"]) * per,
        "cli.exit_nonzero": t.counts["cli.request.exit_nonzero"] * per,
        "trace.wall_s": traced_wall,
        "trace.req_p50_ms": traced_p50_ms,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    out = {}
    for metric, unit in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric in values:
            value = values[metric]
        elif field == "s":
            value = t.seconds[span] * per
        elif field == "calls":
            value = t.calls[span] * per
        else:
            value = t.counts[metric] * per
        missing = t.missing & NEEDS.get(metric, set()) or any(
            metric.startswith(name + ".") for name in t.missing)
        out[metric] = {"value": None if missing else value, "unit": unit}
    return out
