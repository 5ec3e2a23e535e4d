"""
Laws conditioned on never being absorbed
========================================

Conditioning a dying line on surviving far into the future changes the
dynamics: the conditioned chain (the Q-process) has its own transition
law built from a harmonic function of the original chain.  Here that
harmonic function has a closed form, and so do the limiting laws.
"""

import numpy as np

from thetagw import (
    QFunction,
    conditional_limit_b,
    eval_f,
    q_transition_matrix,
    stationary_law,
    validate_classify,
)

# supercritical case conditioned on eventual extinction:
# the harmonic function satisfies Q(f(s)) = gamma * Q(s)
p3, tag3 = validate_classify({"theta": 1.0, "a": 0.5, "q": 0.5})
qf = QFunction(p3)
gamma = qf.gamma
grid = np.linspace(0.0, 0.99, 20)

resid = float(np.max(np.abs(qf.raw(eval_f(p3, grid)) - gamma * qf.raw(grid))))
print(f"{tag3.case_id}: harmonic functional equation residual {resid:.3e} (gamma = {gamma})")

# the limiting conditional law is exactly geometric with ratio 1/2
law = conditional_limit_b(p3, 10)
print("limiting law conditioned on late extinction:")
for j in range(1, 6):
    print(f"  b_{j} = {law.prob(j):.10f}   (2^-{j} = {2.0 ** -j})")
print(f"  partial sum through order 10: {law.partial_sum:.10f}")
print()

# subcritical case: the conditioned chain is positive recurrent and its
# stationary law is j * 2^(-j-1), checked against the one-step kernel
p1, tag1 = validate_classify({"theta": 1.0, "a": 2.0, "c": 1.0})
order = 60
pi = stationary_law(p1, order)
mat = q_transition_matrix(p1, 1, order, order)
shifted = pi.probs @ mat
err = float(np.max(np.abs(shifted[:40] - pi.probs[:40])))
print(f"{tag1.case_id}: stationary law of the conditioned chain, pi P = pi residual {err:.3e}")
for j in (1, 2, 3, 4):
    print(f"  pi_{j} = {pi.prob(j):.10f}   (j 2^-j-1 = {j * 2.0 ** (-j - 1)})")
