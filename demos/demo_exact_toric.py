"""
Exact F-signature of cyclic quotient singularities
==================================================

For R = k[x,y]^G with G = 1/n(a,b) cyclic acting with coprime weights,
the F-signature is the normalized volume of an explicit rational
polytope.  Window counts over the group lattice give the splitting
numbers a_e exactly, and free/obstructed class certificates explain
which divisor classes contribute.
"""

from fractions import Fraction

from fsig import (
    TorusQDivisor,
    quotient_singularity,
    toric_fsig_exact,
    toric_splitting_certificates,
    toric_splitting_number,
)

# 1/4(1,3): the A_3 surface singularity as a quotient.
ring = quotient_singularity(n=4, weights=(1, 3), p=5)
print(f"ring: {ring.label}")
print(f"facet normals: {ring.normals}")

generators = ring.hilbert_basis()
print("Hilbert basis of invariants (the rays and the minimal points of the fundamental parallelepiped):")
for g in generators:
    print(f"  {g}")

s = toric_fsig_exact(ring)
print(f"F-signature s = {s}  (group order {ring.group_order}, s = 1/n)")
assert s == Fraction(1, 4)

# Splitting numbers by counting lattice points in the e-th window.
for e in (1, 2, 3):
    a_e = toric_splitting_number(ring, None, e)
    q = ring.p ** e
    print(f"  e={e}  q={q}  a_e={a_e}  a_e/q^2 = {Fraction(a_e, q * q)}")

# Certificates at e = 1: each residue class is either free, carrying a
# monomial witness, or obstructed by a pair of incomparable minimal
# elements of the class.
certs = toric_splitting_certificates(ring, None, 1, include_obstructions=True)
free = [c for c in certs if c.free]
print(f"classes: {len(certs)}, free: {len(free)}")
for cert in certs:
    if cert.free:
        print(f"  class {cert.residue}: free, witness {cert.witness}")
    else:
        print(f"  class {cert.residue}: obstructed by {cert.obstruction}")
assert len(free) == toric_splitting_number(ring, None, 1)

# A boundary pair Delta = t * (facet divisor) shrinks the window.
delta = TorusQDivisor.of([Fraction(1, 2), Fraction(0)])
print(f"s(R, Delta) with t = 1/2 on facet 0: {toric_fsig_exact(ring, delta)}")

# t >= 1 kills strong F-regularity: the pair signature is zero.
unit = TorusQDivisor.of([Fraction(1), Fraction(0)])
print(f"t = 1 gives s = {toric_fsig_exact(ring, unit)}")
