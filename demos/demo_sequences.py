"""
Splitting number sequences for hypersurfaces
============================================

Computes a_e = length of P/(m^[q] : f^(q-1)) for a hypersurface R = P/f
over a prime field, then inspects convergence of a_e/q^d toward the
F-signature.
"""

from fractions import Fraction

from fsig import (
    RingPresentation,
    fsig_sequence,
    hk_length_sequence,
    parse_polynomial,
)

# The A_1 singularity xy - z^2 over F_3.
f = parse_polynomial("x*y - z^2", p=3, nvars=3, names=("x", "y", "z"))
ring = RingPresentation.hypersurface(f, names=("x", "y", "z"))
print(f"ring: GF(3)[x,y,z] / (x*y - z^2), dimension d = {ring.d}")

seq = fsig_sequence(ring, e_max=3)
for rec in seq.records:
    print(f"  e={rec.e}  q={rec.q}  a_e={rec.a_e}  a_e/q^d = {rec.normalized}")

# a_e/q^2 = 1/2 + 1/(2 q^2) here, so the values decrease toward 1/2.
print(f"monotone nonincreasing: {seq.monotone}")
print(f"two-point 1/q extrapolation: {seq.extrapolated} "
      f"= {float(seq.extrapolated):.5f}")
print(f"consistency residual within 1/q: {seq.consistent}")

# The extrapolation removes a c/q tail exactly; the genuine tail here is
# O(1/q^2), so the fitted limit 121/243 is close to but not exactly 1/2.
assert seq.extrapolated == Fraction(121, 243)
assert abs(seq.records[-1].normalized - Fraction(1, 2)) <= Fraction(1, 243)

# Hilbert-Kunz lengths lambda(R/m^[q])/q^d: x*y - z^2 is separated, so
# they are Jordan block counts of the Thom-Sebastiani engine, not ranks.
hk = hk_length_sequence(ring, ring.maximal_ideal(), 3)
print("normalized HK lengths:", [str(v) for v in hk])

# A positive splitting number at e = 1 certifies F-purity.
print(f"F-pure: {seq.records[0].a_e > 0}")
