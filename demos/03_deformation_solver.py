"""The order-by-order ambient deformation.

Requiring the ambient structure gt = 2 rho dt^2 + 2t drho dt + t^2 g_rho,
ft = t f_rho to be weighted Ricci flat determines (g_rho, f_rho) one
rho-order at a time.  The first coefficients are classical: g' = 2P and
f' = (f/m) Y.  The residual report measures the achieved orders of
vanishing per component block against the branch guarantees.
"""

import numpy as np

from smmsgeom import invariants as inv
from smmsgeom.ambient import AmbientMetric, order_report
from smmsgeom.catalog import random_entry
from smmsgeom.expansion import expand

s = random_entry(d=3, m=0.5, mu=0.2, seed=5).space
print(f"space: d = 3, m = {s.m} (d+m = {3 + s.m}: no integer orders in the way)")

e = expand(s, 3)
print("branch:", e.plan.branch.value)

P, _, Y = inv.schouten(s)
p = s.sample(1, seed=2)[0]
print("\nfirst-order coefficient versus 2P at a sample point:")
print("  solver:", np.round(e.g_coeffs[1].matrix_values(p)[0], 6))
print("  2P    :", np.round([2 * x for x in P.matrix_values(p)[0]], 6))

print("\nresidual report of the assembled ambient structure, "
      "max |rho^k coefficient| per block:")
report = order_report(AmbientMetric(e), 1e-9, points=s.sample(10, 0)).result()
for b in report.values():
    print(f"  {b.name}: guaranteed through {b.guaranteed}, ok = {b.ok}:",
          " ".join(f"{v:.2e}" for v in b.coeff_max))
