"""Three families with exact ambient structures.

quasi-Einstein spaces, spaces locally conformally flat in the weighted
sense, and the Gover-Leitner family (f = 1 over an Einstein base) admit
closed-form deformations.  Each entry's `verify` request checks its
family's defining equations at sample points, the solver reproduces the
closed forms, and for the weighted-flat family the whole ambient metric
is flat - every curvature component vanishes.
"""

import numpy as np

from smmsgeom.ambient import AmbientMetric
from smmsgeom.catalog import load_entry
from smmsgeom.expansion import expand
from smmsgeom.fields import evaluate, max_abs


def residual_through(a, degree, pts):
    Rt, Ft = a.ricci_closed()
    series = [Rt[i][j] for i in range(3) for j in range(i, 3)] + [Ft]
    return max_abs(evaluate([s.coefficient(k) for k in range(degree + 1)
                             for s in series], pts))


for name in ("quasi-einstein", "wlcf", "gover-leitner"):
    entry = load_entry(name)
    rejected = entry.verify(entry.space.sample(6, seed=0)).result()
    print(f"{name}: defining equations at 6 points: "
          f"{'hold' if rejected is None else rejected}")
    pts = entry.space.sample(3, seed=1)
    a = AmbientMetric(entry.closed_expansion(6))
    print(f"  ambient residual through degree 4 = "
          f"{residual_through(a, 4, pts):.2e}")
    e = expand(entry.space, 3)
    g_want, f_want = entry.closed_form(3)
    got, want = np.split(np.asarray(evaluate(
        [c for g in (e.g_coeffs, g_want) for k in range(4)
         for c in g[k].entries()], pts)), 2)
    worst = max_abs(got - want)
    print(f"  solver reproduces the closed form through order 3: {worst:.2e}")

w = load_entry("wlcf")
aw = AmbientMetric(w.closed_expansion(5))
tang, mixed, normal = aw.curvature_closed()
pts = w.space.sample(3, seed=1)
worst = max_abs(evaluate([comp.val.coefficient(k)
                          for comp_map in (tang, mixed, normal)
                          for comp in comp_map.values() for k in range(4)], pts))
print(f"\nweighted-flat family: max ambient curvature component = {worst:.2e} "
      f"(the ambient metric is flat)")
