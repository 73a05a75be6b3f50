"""The benchmark's workloads: seeded request lists and their answer checks.

One client in one process sends each workload's requests in a closed loop:
the next request goes out when the previous one has returned.  A request
is a call into fsig's public surface, either ``fsig.cli.main`` on a JSON
document or a library function.  Every answer is checked after the pass
against ``pins.json`` (values recorded by ``pin.py``) and, where one
exists, against an identity that does not depend on the code path that
produced it.

The seed changes the inputs without changing any correct answer:

- it picks the order of the requests;
- it rescales the variables of every polynomial (``x_i -> u_i x_i``) and
  multiplies each polynomial by a unit, so ``x*y - z^2`` may arrive as
  ``2*x*y + z^2`` at p = 3; the rings, divisors and ideals this gives are
  isomorphic to the unscaled ones;
- on lattice-sweep it picks which rings of the pinned population are
  sampled, a fixed number from each stratum.

Modules are reached through attribute lookups at call time
(``frobenius.fsig_sequence(...)``), so the traced run sees the wrapped
functions that ``spans.install`` binds in their place.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

# Why each workload exists; printed with every result.
REASONS = {
    "hyper-graded": (
        "CLI compute on separated hypersurfaces at large q: the rank kernel "
        "on large, deeply rank-deficient graded blocks dominates"
    ),
    "hyper-mixed": (
        "library calls on non-separated polynomials, pairs, HK lengths, the "
        "colon route and gap checks: full-rank blocks, assembly, poly powers "
        "and Groebner bases"
    ),
    "lattice-sweep": (
        "CLI documents for all five commands on cyclic quotients: toric "
        "enumeration, covers, bounds and per-document CLI overhead, no linalg"
    ),
}
NAMES = tuple(REASONS)


class Request:
    """One call into fsig and how its answer is read and checked.

    ``call`` performs the request and returns its raw result; ``answer``
    turns that into a JSON value (None when the call itself reports a
    failure); the answer must equal the pin, and ``expected`` when given.
    """

    __slots__ = ("id", "call", "answer", "expected")

    def __init__(self, id, call, answer, expected=None):
        self.id = id
        self.call = call
        self.answer = answer
        self.expected = expected

    def check(self, raw, pins) -> bool:
        value = self.answer(raw)
        if value is None or value != pins.get(self.id):
            return False
        return self.expected is None or value == self.expected


class Workload:
    def __init__(self, name, requests, warmup):
        self.name = name
        self.requests = requests
        self.warmup = warmup


# -- seeded polynomial inputs ---------------------------------------------------

def _terms(text, names):
    """Coefficient and exponent tuple of each term of a sum of monomials."""
    out = []
    for chunk in text.replace("-", "+-").replace(" ", "").split("+"):
        if not chunk:
            continue
        c, exps = 1, [0] * len(names)
        if chunk.startswith("-"):
            c, chunk = -1, chunk[1:]
        for factor in chunk.split("*"):
            if factor.isdigit():
                c *= int(factor)
            else:
                name, _, power = factor.partition("^")
                exps[names.index(name)] += int(power or 1)
        out.append((c, tuple(exps)))
    return out


class Scaling:
    """A diagonal change of variables x_i -> u_i x_i over GF(p), drawn from rng."""

    def __init__(self, rng, p, names):
        self.rng = rng
        self.p = p
        self.names = names
        self.units = [rng.randrange(1, p) for _ in names]

    def __call__(self, text):
        """The polynomial after the substitution, times a random unit."""
        p, unit = self.p, self.rng.randrange(1, self.p)
        chunks = []
        for c, exps in _terms(text, self.names):
            c = c * unit * math.prod(pow(u, e, p) for u, e in zip(self.units, exps)) % p
            if c == 0:
                raise ValueError(f"coefficient of {text!r} vanishes mod {p}")
            factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(self.names, exps) if e]
            chunks.append("*".join([str(c)] + factors))
        return " + ".join(chunks)


XYZ = ("x", "y", "z")
X4 = ("x0", "x1", "x2", "x3")


# -- CLI requests -------------------------------------------------------------------


def _cli_call(cli, argv):
    """fsig.cli.main in process; stdout carries the JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_answer(command):
    def answer(raw):
        code, text = raw
        if code != 0:
            return None
        report = json.loads(text)
        if report.get("ok") is False:
            return None
        if command == "compute":
            if report["exact"]:
                return report["s"]
            return [r["a_e"] for r in report["records"]]
        if command == "chain":
            return {"s": report["s_values"], "degrees": [s["degree"] for s in report["steps"]]}
        if command == "verify":
            t = report["transformation"]
            if t["lhs"] != t["rhs"] or report["ok"] is not True:
                return None
            return {"degree": report["degree"], "lhs": t["lhs"], "rhs": t["rhs"],
                    "summands": report["trace_summands"]}
        if command == "bounds":
            out = dict(report["bound_report"])
            if "class_order" in report["details"]:
                out["class_order"] = report["details"]["class_order"]
            return out
        if command == "purity":
            v = report["purity"]
            return {"forced": v["forced"], "s": v["s"], "covers": v["cover_degrees_found"]}
        raise ValueError(f"unknown command {command!r}")
    return answer


class Specs:
    """Writes each request's JSON document once, at set-up."""

    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def request(self, cli, id, command, doc, expected=None):
        self.count += 1
        path = self.dir / f"{self.count:04d}.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--spec", str(path)]
        return Request(id, lambda: _cli_call(cli, argv), _cli_answer(command), expected)


def _cli_warmup(cli, specs):
    req = specs.request(cli, "warmup", "compute",
                        {"ring": {"type": "quotient", "n": 2, "weights": [1, 1], "p": 3}})
    return lambda: req.call()


def _window_counts(fsig, n, p, e_max):
    """a_e of 1/n(1, n-1), the toric model of x*y - z^n when p does not divide n."""
    ring = fsig.toric.quotient_singularity(n, (1, n - 1), p)
    return [fsig.toric.toric_splitting_number(ring, None, e) for e in range(1, e_max + 1)]


# -- hyper-graded ----------------------------------------------------------------------

# (f, names, p, e_max, n when f = x*y - z^n, quadric?)
# A pass takes about 5 s, so a run holds several and its median is steady;
# x*y - z^2 at p=3, e<=4 (10 s) and x*y - z^5 at p=11, e<=2 (5 s) would
# each fill a pass alone.  The e=4 requests keep the 531441-monomial box.
# Small requests stay few: CLI overhead is about 45 ms a document, and the
# rank kernel should keep over 90% of the pass.
GRADED = [
    ("x*y - z^3", XYZ, 3, 4, None, False),
    ("x*y - z^4", XYZ, 3, 4, 4, False),
    ("x*y - z^2", XYZ, 7, 2, 2, False),
    ("x0^2 + x1^2 + x2^2 + x3^2", X4, 3, 2, None, True),
]


def hyper_graded(fsig, rng, specs):
    cli = fsig.cli
    requests = []
    for f, names, p, e_max, n, quadric in GRADED:
        expected = None
        if n is not None:
            expected = _window_counts(fsig, n, p, e_max)
        elif quadric:
            expected = [(2 * q**3 + q) // 3 for q in (p**e for e in range(1, e_max + 1))]
        doc = {"ring": {"type": "hypersurface", "p": p, "nvars": len(names),
                        "f": Scaling(rng, p, names)(f), "names": list(names)},
               "options": {"e_max": e_max}}
        requests.append(specs.request(cli, f"compute {f} p{p} e{e_max}", "compute", doc, expected))
    return requests, _cli_warmup(cli, specs)


# -- hyper-mixed ------------------------------------------------------------------------


def _inputs(fsig, f, names, p):
    """Parsers for one request: polynomial text -> Polynomial, and the ring P/(f)."""
    poly, frob = fsig.poly, fsig.frobenius

    def parse(text):
        return poly.parse_polynomial(text, p, len(names), names)

    def ring():
        return frob.RingPresentation.hypersurface(parse(f), names)
    return parse, ring


def _seq(fsig, f, names, p, e_max, pair=(), convention=None):
    """fsig_sequence on P/(f) with optional divisor components (g, t)."""
    frob = fsig.frobenius
    parse, ring = _inputs(fsig, f, names, p)

    def call():
        delta = None
        if pair:
            comps = [(parse(h), Fraction(t)) for h, t in pair]
            delta = frob.PairDivisor.of(comps, convention or frob.FLOOR_PE)
        return [r.a_e for r in frob.fsig_sequence(ring(), delta, e_max=e_max).records]
    return call


def _hk(fsig, f, names, p, e_max, gens=None):
    """Normalized Hilbert-Kunz lengths of P/(f) at the ideal gens (default m)."""
    frob, ideals = fsig.frobenius, fsig.ideals
    parse, ring = _inputs(fsig, f, names, p)

    def call():
        r = ring()
        ideal = r.maximal_ideal() if gens is None else ideals.Ideal(p, len(names), [parse(g) for g in gens])
        return [str(x) for x in frob.hk_length_sequence(r, ideal, e_max)]
    return call


def _colon(fsig, f, names, p, e, pair=(), method="colon"):
    """a_e by the Groebner colon route (or the rank route with method="auto")."""
    frob = fsig.frobenius
    parse, ring = _inputs(fsig, f, names, p)

    def call():
        delta = frob.PairDivisor.of([(parse(h), Fraction(t)) for h, t in pair]) if pair else None
        return frob.splitting_number(ring(), delta, e, method=method)
    return call


def _ctrick(fsig, f, names, p, c, e_max):
    parse, ring = _inputs(fsig, f, names, p)

    def call():
        return [str(x) for x in fsig.frobenius.ctrick_gap_sequence(ring(), parse(c), e_max)]
    return call


def _perturbed(fsig, f, names, p, h, e_max):
    frob = fsig.frobenius
    parse, ring = _inputs(fsig, f, names, p)

    def call():
        extra = frob.PairDivisor.of([(parse(h), 1)])
        report = frob.perturbed_limit_check(ring(), None, extra, e_max)
        return {"gaps": [str(x) for x in report.gaps], "passed": report.passed}
    return call


def _same(raw):
    return raw


def _rank_route(fsig, f, names, p, e, pair=()):
    """a_e by the default rank route, on the unscaled input."""
    return _colon(fsig, f, names, p, e, pair, method="auto")()


def hyper_mixed(fsig, rng, specs):
    requests = []

    def add(id, p, names, make, expected=None):
        requests.append(Request(id, make(Scaling(rng, p, names)), _same, expected))

    add("seq x*y + y*z + z*x p7 e2", 7, XYZ, lambda s: _seq(fsig, s("x*y + y*z + z*x"), XYZ, 7, 2))
    add("seq x^2 + y^3 + z^5 p11 e2", 11, XYZ, lambda s: _seq(fsig, s("x^2 + y^3 + z^5"), XYZ, 11, 2))
    for p, e_max, g, t, conv in [
        (3, 3, "x + z", "1/3", None),
        (7, 2, "x + z", "1/3", None),
        (3, 3, "y + z", "1/2", "ceil_pe_minus_1"),
        (5, 2, "x + y + z", "1/2", None),
    ]:
        add(f"seq x*y - z^2 pair ({g}, {t}{' ceil' if conv else ''}) p{p} e{e_max}", p, XYZ,
            lambda s, p=p, e_max=e_max, g=g, t=t, conv=conv: _seq(
                fsig, s("x*y - z^2"), XYZ, p, e_max, [(s(g), t)], conv))
    add("hk x^2 + y^3 + z^5 p3 e3", 3, XYZ, lambda s: _hk(fsig, s("x^2 + y^3 + z^5"), XYZ, 3, 3))
    add("hk x^2 + y^3 + z^5 p5 e2", 5, XYZ, lambda s: _hk(fsig, s("x^2 + y^3 + z^5"), XYZ, 5, 2))
    add("hk x*y - z^2 at (x + y, y - z, z) p3 e2", 3, XYZ,
        lambda s: _hk(fsig, s("x*y - z^2"), XYZ, 3, 2, [s("x + y"), s("y - z"), s("z")]))
    for f, p, pair in [("x*y - z^2", 3, ()), ("x*y - z^3", 5, ()), ("x*y - z^2", 3, (("x + z", "1/3"),))]:
        label = "".join(f" pair ({g}, {t})" for g, t in pair)
        add(f"colon {f}{label} p{p} e2", p, XYZ,
            lambda s, f=f, p=p, pair=pair: _colon(
                fsig, s(f), XYZ, p, 2, [(s(g), t) for g, t in pair]),
            _rank_route(fsig, f, XYZ, p, 2, pair))
    for c in ("z", "x + y"):
        add(f"ctrick x*y - z^2 c={c} p3 e3", 3, XYZ,
            lambda s, c=c: _ctrick(fsig, s("x*y - z^2"), XYZ, 3, s(c), 3))
    add("perturbed x*y - z^2 by x p3 e3", 3, XYZ,
        lambda s: _perturbed(fsig, s("x*y - z^2"), XYZ, 3, s("x"), 3))
    add("perturbed x*y - z^2 by x + y p5 e2", 5, XYZ,
        lambda s: _perturbed(fsig, s("x*y - z^2"), XYZ, 5, s("x + y"), 2))
    return requests, _seq(fsig, "x*y - z^2", XYZ, 3, 1)


# -- lattice-sweep ------------------------------------------------------------------------

PRIMES = (3, 5, 7)
RINGS3 = [(2, (1, 1, 1)), (3, (1, 1, 1)), (4, (1, 1, 2)), (5, (1, 2, 3)),
          (7, (1, 2, 4)), (8, (1, 3, 5)), (5, (1, 1, 3))]
PAIR_COEFFS = [("1/2", "0"), ("1/3", "1/4")]
# The two window-count sequences always run; they are the lattice path at large q.
# At e=5 they take 6-7 s each, longer than the rest of a pass together.
WINDOW_SEQUENCES = [(7, (1, 2, 4), 3, 4), (4, (1, 3), 5, 4)]
# Documents drawn from each stratum per pass; fixed so every seed does alike work.
DRAWS = {"ring2": 12, "verify": 12, "root": 8, "veronese": 8, "class": 8, "pair": 8, "ring3": 3}


def _quotient(n, w, p):
    return {"type": "quotient", "n": n, "weights": list(w), "p": p}


def _label(n, w, p):
    return f"1/{n}({','.join(map(str, w))})p{p}"


def lattice_population():
    """Every document a lattice-sweep seed can draw: stratum -> [[(id, command, doc)]].

    Items of a stratum are drawn whole; a ring item carries one document
    per command.  Only inputs whose correct answer is a success are listed:
    quotient covers and class covers on small actions (no pseudo-reflections),
    root covers with the pair t = (n-1)/n that makes the pullback effective.
    """
    strata = {k: [] for k in DRAWS}
    for n in range(2, 9):
        for a in range(1, n):
            for b in range(a, n):
                if math.gcd(n, a, b) != 1:
                    continue
                small = math.gcd(a, n) == 1 and math.gcd(b, n) == 1
                for p in PRIMES:
                    if n % p == 0:
                        continue
                    ring, label = {"ring": _quotient(n, (a, b), p)}, _label(n, (a, b), p)
                    strata["ring2"].append([(f"{cmd} {label}", cmd, ring)
                                            for cmd in ("compute", "chain", "bounds", "purity")])
                    if not small:
                        continue
                    for m in range(1, n):
                        if n % m == 0:
                            cover = {"type": "quotient_cover", "n": n, "weights": [a, b], "m": m,
                                     "p": p, "expected_degree": n // m}
                            strata["verify"].append([(f"verify {label} m{m}", "verify", {"cover": cover})])
                    for cls in ([1, 0], [0, 1]):
                        strata["class"].append([(f"bounds {label} class {cls}", "bounds",
                                                 dict(ring, divisor_class=cls))])
                    if n <= 6:
                        for coeffs in PAIR_COEFFS:
                            doc = dict(ring, pair={"facet_coeffs": list(coeffs)})
                            strata["pair"].append([(f"{cmd} {label} pair {','.join(coeffs)}", cmd, doc)
                                                   for cmd in ("compute", "bounds", "purity")])
    for p in PRIMES:
        for nvars in (2, 3):
            for along in range(nvars):
                for n in range(2, 7):
                    if n % p:
                        t = f"{n - 1}/{n}"
                        cover = {"type": "root_cover", "n": n, "along": f"x{along}", "p": p,
                                 "nvars": nvars, "pair_t": t}
                        strata["root"].append([(f"verify root n{n} x{along}/{nvars} t{t} p{p}",
                                                "verify", {"cover": cover})])
        for d in (2, 3, 4):
            for m in range(2, 9):
                if m % p:
                    strata["veronese"].append([(f"bounds veronese d{d} m{m} p{p}", "bounds",
                                                {"veronese": {"d_vars": d, "m": m, "p": p}})])
        for n, w in RINGS3:
            if n % p:
                ring = {"ring": _quotient(n, w, p)}
                strata["ring3"].append([(f"{cmd} {_label(n, w, p)}", cmd, ring)
                                        for cmd in ("compute", "chain", "bounds", "purity")])
    return strata


def window_documents():
    out = []
    for n, w, p, e_max in WINDOW_SEQUENCES:
        doc = {"ring": _quotient(n, w, p), "options": {"e_max": e_max, "backend": "sequence"}}
        out.append((f"compute {_label(n, w, p)} sequence e{e_max}", "compute", doc))
    return out


def lattice_sweep(fsig, rng, specs):
    cli = fsig.cli
    population = lattice_population()
    docs = list(window_documents())
    for stratum, k in DRAWS.items():
        for item in rng.sample(population[stratum], k):
            docs.extend(item)
    requests = [specs.request(cli, id, command, doc) for id, command, doc in docs]
    return requests, _cli_warmup(cli, specs)


BUILDERS = {"hyper-graded": hyper_graded, "hyper-mixed": hyper_mixed, "lattice-sweep": lattice_sweep}


def load_pins(name):
    return json.loads(PINS_PATH.read_text())[name]


def build(fsig, name, seed, workdir) -> Workload:
    """The workload's requests in seeded order, with JSON documents under workdir."""
    rng = random.Random(f"{name}:{seed}")
    requests, warmup = BUILDERS[name](fsig, rng, Specs(workdir))
    rng.shuffle(requests)
    return Workload(name, requests, warmup)
