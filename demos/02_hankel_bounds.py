"""The two sharp Hankel determinant bounds, end to end.

|H2(2)| = |a2 a4 - a3^2| <= 1/4   and   |H3(1)| <= 1/9,

both sharp (w = z^2 and w = z^3 respectively).  Both bounds come from one
capped-slice step: a grouped majorant, affine in y^2 once its linear
term is frozen, is at most the larger of its two endpoint polynomials.
For H2 those are polynomials in p1 whose Bernstein coefficients stay
below 1/4; for H3 one endpoint needs a Bernstein branch-and-bound
certificate on the unit square.  Both pipelines re-check themselves
against dense float oracles.
"""
from fractions import Fraction

from starcert import (h2_envelope, h3_schwarz_poly, hankel2, hankel3,
                      schwarz_to_coeffs, verify_h2, verify_h3)

print("=== second Hankel determinant ===")
print("envelope at p1=0:", h2_envelope(0), "  at p1=2:", h2_envelope(Fraction(2)))
a = schwarz_to_coeffs((0, 1, 0, 0))          # the member driven by w = z^2
print("sharpness witness w=z^2: H2 =", hankel2(a))
report = verify_h2()
print(report.render())
print()

print("=== third Hankel determinant ===")
c = (0, 0, 1, 0)                             # the member driven by w = z^3
print("sharpness witness w=z^3: 9216*H3 =", h3_schwarz_poly(c),
      " (so H3 =", 9216 * hankel3(schwarz_to_coeffs(c)), "/ 9216)")
report = verify_h3()
print(report.render())
print()

cert = report.certificate
print(f"certificate: {cert.node_count()} nodes, {len(cert.leaves())} leaves")
for leaf in cert.leaves():
    print(f"  {leaf.status:<16} on {leaf.box}")
