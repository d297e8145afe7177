"""From the ambient structure to the conformally compact one.

Substituting rho = -r^2/2 produces g_plus = r^-2 (dr^2 + g_r) and
f_plus = r^-1 f_r on M x (0, eps): an asymptotically hyperbolic smooth
metric measure space with conformal infinity (g, f).  It satisfies the
weighted Einstein conditions

    Ric_phi(g_plus) = -(d+m) g_plus,    F_phi(g_plus) = (d+m) f_plus^2

to twice the deformation order, and the cone identity ties the ambient
curvature over s^2 g_plus - ds^2 to these conditions exactly.
"""

from smmsgeom.catalog import random_entry
from smmsgeom.expansion import expand
from smmsgeom.poincare import (cone_identity_check, even_series,
                               poincare_residual)

s = random_entry(d=3, m=2.0, mu=0.1, seed=41, amplitude=0.04).space
e = expand(s, 2)
g_r, f_r = even_series(e, 2 * e.order + 1)
pts = s.sample(4, seed=9)

print("even structure: odd r-coefficients are identically zero;")
print("boundary metric at r = 0 equals g:",
      g_r[0][0].coefficient(0) is e.g_coeffs[0].comp(0, 0))

power = e.plan.guarantees(e.order).poincare_power
maxima = poincare_residual(e, pts).result()
print(f"\nweighted-Einstein residual as exact r-series "
      f"(built through the guaranteed r^{power}):")
for k, w in zip(range(-2, power + 1), maxima):
    print(f"  r^{k:+d}: {w:.2e}")

wr, wF, side = cone_identity_check(e, pts[:3]).result()
print(f"\ncone identity at r = 0.1: sides of magnitude {side:.2e} agree to "
      f"{max(wr, wF):.2e}")
