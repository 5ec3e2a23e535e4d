"""
Explosion times concentrate on a Gumbel curve
=============================================

For heavy-tailed offspring with a small negative shape exponent the
explosion happens fast, and the law of the explosion time, centered by
a logarithmic shift, approaches a discretized Gumbel curve.  Watch the
lattice CDF hug exp(-w a^y) tighter as the exponent shrinks.
"""

import math

from thetagw import gumbel_limit

a = 0.5
q = 0.0

for theta in (-0.1, -0.01, -0.001):
    rec = gumbel_limit(a, q, theta=theta)

    # compare the exact lattice CDF with the limit curve on a window
    # around the centering shift
    rows = rec.lattice(math.ceil(rec.shift) + 12)
    sup = max(abs(exact - limit) for _, exact, limit in rows)
    print(f"theta = {theta:>7}: centering shift {rec.shift:8.3f}, sup |exact - limit| = {sup:.5f}")

print()
print("limit curve itself (w = 1):")
for y in (-2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
    print(f"  y = {y:4.1f}:  exp(-a^y) = {math.exp(-a ** y):.6f}")
