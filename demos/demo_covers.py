"""
Finite covers, trace maps, and the transformation rule
======================================================

Builds quotient and root covers R subset S of semigroup rings, inspects
their ramification divisors and trace maps, and verifies the exact
transformation rule f * s(S, Delta_Y) = [L:K] * s(R, Delta_X).
"""

from fractions import Fraction

from fsig import (
    NonEffectivePairError,
    TorusQDivisor,
    count_trace_summands,
    doubling_check,
    quotient_cover,
    quotient_singularity,
    ramification_divisor,
    root_cover,
    verify_note_trace,
    verify_transformation,
)

# A quotient cover extends the ring it is given: k[x,y]^{mu_6} inside
# k[x,y]^{mu_2} at p = 7; only the upper ring is built.
cover = quotient_cover(quotient_singularity(6, (1, 5), 7), m=2)
print(f"{cover.lower.label}  ->  {cover.upper.label}")
print(f"degree {cover.degree}, residue degree {cover.residue_degree}")
print(f"ramification divisor: {[str(c) for c in ramification_divisor(cover).coefficients]}")
print(f"etale in codimension one: {cover.etale_in_codim1}")

# The transformation rule holds on the nose: 1 * s(S) = 3 * s(R).
report = verify_transformation(cover)
print(f"s(R) = {report.s_lower}, s(S) = {report.s_upper}, "
      f"{report.residue_degree} * {report.s_upper} == {report.degree} * {report.s_lower}: {report.ok}")
assert report.ok and report.lhs == report.rhs == Fraction(1, 2)

# Trace map: Tr lands in the maximal ideal, with one unit summand when
# the extension is tame.
trace = verify_note_trace(cover)
print(f"trace lands in m: {trace.ok}")
print(f"free unit summands in the pushforward: {count_trace_summands(cover)}")

# s at least doubles along a nontrivial etale-in-codim-1 cover; the
# index-2 cover of the A_1 point attains equality.
a1_cover = quotient_cover(quotient_singularity(2, (1, 1), 3), m=1)
doubling = doubling_check(a1_cover)
print(f"A_1 doubling: {doubling.s_lower} -> {doubling.s_upper}, "
      f"equality: {doubling.equality}")

# A Kummer root cover is branched along a coordinate divisor: the
# no-pair transformation rule refuses it, because Delta_Y would have to
# absorb -Ram.
branched = root_cover(nvars=2, along=0, n=2, p=5)
print(f"root cover Ram = {[str(c) for c in branched.ram.coefficients]}")
try:
    verify_transformation(branched)
except NonEffectivePairError as err:
    print(f"no-pair rule rejected: {err}")

# Supplying Delta_X = (1/2) div(x0) makes the pulled-back pair effective
# (here exactly zero) and the rule verifies with s: 1/2 -> 1.
delta = TorusQDivisor.of([Fraction(1, 2), Fraction(0)])
paired = verify_transformation(branched, delta)
print(f"with Delta_X = (1/2) div(x0): Delta_Y = "
      f"{[str(c) for c in paired.delta_upper.coefficients]}, "
      f"s(R, Delta) = {paired.s_lower}, s(S, Delta_Y) = {paired.s_upper}, "
      f"ok: {paired.ok}")
assert paired.ok
