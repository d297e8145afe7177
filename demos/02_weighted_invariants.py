"""Weighted curvature of smooth metric measure spaces.

A smooth metric measure space is (chart, g, f, m, mu).  Its weighted
invariants replace the dimension d by d+m and correct curvature by
derivatives of the density f.  Two exact identities make good smoke
tests: the trace identity tying the weighted scalar curvature to the
weighted Ricci tensor and the F-scalar, and the weighted Bianchi
identity.
"""

from smmsgeom import invariants as inv
from smmsgeom.catalog import random_entry, round_sphere_space
from smmsgeom.fields import Request, max_abs

# the unit round sphere: classical Schouten data P = g/2, J = 3/2
s = round_sphere_space(d=3, m=0.0, mu=0.0, f_expr="1")
P, J, Y = inv.schouten(s)
p = (0.1, -0.2, 0.15)
print("round 3-sphere: scalar curvature =", round(s.geometry.scal.value(p), 10))
print("  J =", round(J.value(p), 10), " P/g =",
      round(P.comp(0, 0).value(p) / s.g.comp(0, 0).value(p), 10))

# a seeded perturbed space with m = 1.7
s = random_entry(d=3, m=1.7, mu=0.3, seed=11).space
geo = s.geometry
ric_phi = inv.weighted_ricci(s)
pts = s.sample(4, seed=2)
scale = inv.curvature_scale(s, pts).result()
print(f"\nperturbed space (m = {s.m}, mu = {s.mu}), "
      f"curvature scale {scale:.3f} (floored at 1)")

# every value the two identities read, in one evaluation
v = Request(pts, g=s.g.entries(), ric=ric_phi.entries(),
            scalars=[geo.scal_phi, s.f, geo.F_phi],
            bianchi=geo.bianchi).result()
worst = 0.0
for g, ric, (lhs, f, F) in zip(v["g"], v["ric"], v["scalars"]):
    tr = inv.metric_trace(g, ric)
    worst = max(worst, abs(lhs - (tr - s.m / f ** 2 * F)))
print("trace identity residual:", worst)
print("weighted Bianchi residual:", max_abs(v["bianchi"]))

worst = max(inv.bach_asymmetry(s, p) for p in pts)
print("weighted Bach asymmetry:", worst)
