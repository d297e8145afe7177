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

s = random_entry(d=3, m=1.0, mu=0.1, seed=21).space
obs = obstruction(s)
B = inv.weighted_bach(s)
pts = s.sample(5, seed=9)
print("normalization constant c =", obs.c)
worst = max(float(np.max(np.abs(obs.tensor.matrix_values(p)
                                - B.matrix_values(p)))) for p in pts)
print("max |obstruction - weighted Bach| over samples:", worst)

tr_err = 0.0
for p in pts:
    gm = np.linalg.inv(s.g.matrix_values(p))
    tr = float(np.trace(gm @ obs.tensor.matrix_values(p)))
    tr_err = max(tr_err, abs(tr - s.m / s.f.value(p) ** 2
                             * obs.scalar_part.value(p)))
print("trace identity |O^i_i - (m/f^2) F|:", tr_err)

# conformal covariance, exponent fitted from data
u = parse_expression("0.1*x1", s.chart)
obs2 = obstruction(inv.conformal_change(s, u))
logs, us = [], []
for p in pts:
    O1, O2 = obs.tensor.matrix_values(p), obs2.tensor.matrix_values(p)
    for i in range(3):
        for j in range(3):
            if abs(O1[i, j]) > 1e-3 * np.max(np.abs(O1)):
                logs.append(np.log(O2[i, j] / O1[i, j]))
                us.append(u.value(p))
logs, us = np.asarray(logs), np.asarray(us)
w = float(logs @ us / (us @ us))
print(f"fitted conformal weight: {w:.8f}   (2 - d - m = {2 - 3 - s.m})")
