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
from smmsgeom.poincare import cone_identity_check, poincare_residual, to_poincare

s = random_entry(d=3, m=2.0, mu=0.1, seed=41, amplitude=0.04).space
e = expand(s, 2)
p = to_poincare(e)
pts = s.sample(4, seed=9)

print("even structure: odd r-coefficients are identically zero;")
print("boundary metric at r = 0 equals g:",
      p.g_r[0][0].coefficient(0) is e.g_coeffs[0].comp(0, 0))

res = poincare_residual(p)
print(f"\nweighted-Einstein residual as exact r-series "
      f"(known through r^{res.trunc}):")
for power in range(-2, res.trunc + 1):
    w = res.block_max([power], pts).result()
    print(f"  r^{power:+d}: {w:.2e}")

wr, wF, side = cone_identity_check(p, points=pts[:3]).result()
print(f"\ncone identity at r = 0.1: sides of magnitude {side:.2e} agree to "
      f"{max(wr, wF):.2e}")
