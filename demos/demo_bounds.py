"""
Quantitative bounds from the F-signature
========================================

The F-signature controls the etale fundamental group of the punctured
spectrum: |pi_1| <= 1/s, prime to p.  This script exercises the exact
bound on quotient singularities, the provisional bound from truncated
sequences, purity-of-branch-locus thresholds, and the divisor class
index bound.
"""

from fractions import Fraction

from fsig import (
    RingPresentation,
    class_order,
    cyclic_index_cover,
    etale_cover_search,
    index_bound,
    parse_polynomial,
    pi1_order_bound,
    purity_check,
    purity_from_value,
    quotient_singularity,
    veronese_bound,
)

# Exact bound, attained: 1/n(1, n-1) has s = 1/n and a degree-n cover.
for n in (2, 3, 4, 5):
    p = {2: 3, 3: 5, 4: 3, 5: 3}[n]
    ring = quotient_singularity(n, (1, n - 1), p)
    report = pi1_order_bound(ring)
    print(f"1/{n}(1,{n - 1}) at p={p}: s = {report.s}, "
          f"|pi_1| <= {report.bound}, attained: {report.attained}")
    assert report.bound == n and report.attained

# Every degree of an etale-in-codim-1 cover of 1/8(1,7) divides 8 and
# stays prime to p = 3.
ring8 = quotient_singularity(8, (1, 7), 3)
degrees = sorted(c.degree for c in etale_cover_search(ring8))
print(f"etale-in-codim-1 cover degrees over 1/8(1,7): {degrees}")
assert all(d % 3 != 0 for d in degrees)

# Provisional bound from a truncated hypersurface sequence.
f = parse_polynomial("x*y - z^2", p=3, nvars=3, names=("x", "y", "z"))
a1 = RingPresentation.hypersurface(f, names=("x", "y", "z"))
seq_report = pi1_order_bound(a1, backend="sequence", e_max=3)
lo, hi = seq_report.s_interval
blo, bhi = seq_report.bound_interval
print(f"A_1 sequence estimate: s in [{lo}, {hi}], bound in [{blo}, {bhi}] "
      f"(provisional: {seq_report.provisional})")

# Purity of the branch locus is forced by s > 1/2 (s > 1/3 at p = 2).
for s, p in ((Fraction(2, 3), 3), (Fraction(1, 2), 3), (Fraction(2, 5), 2)):
    verdict = purity_from_value(s, p)
    print(f"s = {s}, p = {p}: forced = {verdict.forced} by clause '{verdict.clause}'")

# purity_check combines the exact signature with the cover search: the
# regular ring is forced with no covers, the A_1 point sits exactly on
# the boundary and admits its double cover.
boundary = purity_check(quotient_singularity(2, (1, 1), 3))
print(f"A_1: s = {boundary.s}, boundary case: {boundary.boundary_case}, "
      f"admits nontrivial cover: {boundary.admits_nontrivial_etale_cover}")

# Divisor class index bound: the class group of 1/4(1,3) is Z/4 and the
# cyclic cover attached to a generator realizes the full index.
ring4 = quotient_singularity(4, (1, 3), 3)
order = class_order(ring4, [1, 0])
cover = cyclic_index_cover(ring4, [1, 0])
report = index_bound(ring4, [1, 0])
print(f"class (1,0): order {order}, cover degree {cover.degree}, "
      f"order <= 1/s = {report.bound}: {report.ok}")

# Veronese subrings attain their bound too: s(k[x,y]^{(m)}) = 1/m when
# the section ring is polynomial.
ver = veronese_bound(d_vars=2, m=4, p=5)
print(f"Veronese m=4: s = {ver.s}, bound {ver.bound}, attained: {ver.attained}")
