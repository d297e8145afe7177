"""The obstruction tensor at even d+m, and its conformal covariance.

When d+m is an even integer the recursion is blocked at order
(d+m)/2 - 1; the leftover Ricci coefficient, normalized by
c = (-2)^{(d+m)/2-1} ((d+m)/2-1)! / (d+m-2), is the obstruction tensor.
At d+m = 4 it coincides with the weighted Bach tensor, and under the
conformal change (g, f) -> (e^{2u} g, e^u f) it scales pointwise by
e^{wu}; the exponent measured from data comes out w = 2-d-m.
"""

import numpy as np

from smmsgeom import invariants as inv
from smmsgeom.catalog import random_entry
from smmsgeom.expansion import obstruction
from smmsgeom.expressions import parse_expression
from smmsgeom.fields import Request, max_abs

s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
obs = obstruction(s)
B = inv.weighted_bach(s)
pts = s.sample(5, seed=9)
u = parse_expression("0.1*x1", s.chart)
obs2 = obstruction(inv.conformal_change(s, u))
# every value below, in one evaluation
v = Request(pts, O=obs.tensor.entries(), B=B.entries(),
            O2=obs2.tensor.entries(), g=s.g.entries(),
            scalars=[s.f, obs.scalar_part, u]).result()
print("normalization constant c =", obs.c)
print("max |obstruction - weighted Bach| over samples:",
      max_abs(np.subtract(v["O"], v["B"])))

tr_err = 0.0
for g, O, (f, F, _) in zip(v["g"], v["O"], v["scalars"]):
    tr = inv.metric_trace(g, O)
    tr_err = max(tr_err, abs(tr - s.m / f ** 2 * F))
print("trace identity |O^i_i - (m/f^2) F|:", tr_err)

# conformal covariance, exponent fitted from data
logs, us = [], []
for O1, O2, (_, _, up) in zip(v["O"], v["O2"], v["scalars"]):
    O1, O2 = np.reshape(O1, (3, 3)), np.reshape(O2, (3, 3))
    for i in range(3):
        for j in range(3):
            if abs(O1[i, j]) > 1e-3 * np.max(np.abs(O1)):
                logs.append(np.log(O2[i, j] / O1[i, j]))
                us.append(up)
logs, us = np.asarray(logs), np.asarray(us)
w = float(logs @ us / (us @ us))
print(f"fitted conformal weight: {w:.8f}   (2 - d - m = {2 - 3 - s.m})")
