"""
When does the population die out, and when does it blow up
==========================================================

A line started from one individual is absorbed either at zero (dies
out) or at infinity (explodes in finite time when the offspring tail
is heavy enough).  Both absorption times have closed tail formulas
here, so expectations come out exact instead of simulated.
"""

import math
import warnings

from thetagw import (
    ConditioningWarning,
    absorption_tails,
    compose_iterate,
    expected_absorption,
    validate_classify,
)

# regular cases never explode, so the explosion column is a nan we ignore
warnings.simplefilter("ignore", ConditioningWarning)

# two-point offspring law: dies with chance 0.15, stays single with 0.5,
# jumps straight to infinity with 0.35
p6, _ = validate_classify({"theta": -1.0, "a": 0.5, "q": 0.3})
tails = absorption_tails(p6)
print("two-point case, P(T0 > n) and P(T1 > n):")
for n in range(0, 6):
    print(f"  n={n}:  t0 {tails.t0_tail(n):.9f}   t1 {tails.t1_tail(n):.9f}   either {tails.t_tail(n):.9f}")

e6 = expected_absorption(p6)
print(f"expected times (die | finite, explode | finite, either): "
      f"{e6.e_t0_given_finite:g}, {e6.e_t1_given_finite:g}, {e6.e_t:g}")

# the closed tails must agree with direct iteration of the one-step map
n_check = 50
gap = 0.0
for n in range(n_check + 1):
    it0 = p6.q - compose_iterate(p6, n, 0.0)
    it1 = compose_iterate(p6, n, 1.0) - p6.q
    gap = max(gap, abs(tails.t0_tail(n) - it0), abs(tails.t1_tail(n) - it1))
print(f"closed tails vs {n_check}-step iteration: sup gap {gap:.3e}")
print()

# critical case with a slower clock: theta = 1/2 gives quadratic tail
# decay and a finite mean extinction time equal to pi^2 / 6
ph, _ = validate_classify({"theta": 0.5, "a": 1.0, "c": 1.0})
eh = expected_absorption(ph)
print(f"critical theta=1/2 mean extinction time: {eh.e_t0_given_finite:.12f}")
print(f"pi^2 / 6                               : {math.pi ** 2 / 6:.12f}")
print()

# the standard critical case has tails 1/(n+1); the mean diverges
pc, _ = validate_classify({"theta": 1.0, "a": 1.0, "c": 1.0})
ec = expected_absorption(pc)
print(f"critical theta=1 mean extinction time diverges: {ec.t0_divergent}")
print()

# subcritical and supercritical-conditioned means agree across dual cases
p1, _ = validate_classify({"theta": 1.0, "a": 2.0, "c": 1.0})
p3, _ = validate_classify({"theta": 1.0, "a": 0.5, "q": 0.5})
e1 = expected_absorption(p1)
e3 = expected_absorption(p3)
print(f"subcritical mean extinction time          : {e1.e_t0_given_finite:.12f}")
print(f"supercritical mean given eventual death   : {e3.e_t0_given_finite:.12f}")
