"""Truncated jets and lazily evaluated fields.

Every derivative in the package flows through one primitive: the jet,
the table of Taylor coefficients of a function at a point up to a fixed
total degree.  Fields are evaluation rules producing jets; they stay
closed under arithmetic, the analytic primitives, and differentiation.
"""

import numpy as np

from smmsgeom.expressions import parse_expression
from smmsgeom.jets import Jet

# jets compose like the functions they represent
x = Jet.variable(0.0, 0, 1, 4)
print("jet of exp(x) * exp(2x) at 0, degree 4 (expect 3^k/k!):")
print("  ", np.round((x.exp() * (2.0 * x).exp()).coeffs, 6))

# division is a graded long division with machine-precision noise floor
z = Jet.variable(0.8, 0, 1, 8)
recip = (z * z).reciprocal()
exact = [(-1.0) ** k * (k + 1) * 0.8 ** (-(2 + k)) for k in range(9)]
print("max error of 1/z^2 coefficients at degree 8:",
      max(abs(c - e) for c, e in zip(recip.coeffs, exact)))

# fields: parsed expressions over a chart, differentiated exactly
f = parse_expression("exp(x1)*sin(x2)", ("x1", "x2"))
fx = f.partial(0)
point = (0.2, 0.5)
print("\nd/dx1 of exp(x1) sin(x2) equals the field itself:",
      abs(fx.value(point) - f.value(point)))

# mixed partials commute exactly: both orders shift one cached parent jet
fxy = f.partial(0).partial(1)
fyx = f.partial(1).partial(0)
print("mixed partials bitwise equal:",
      np.array_equal(fxy.jet(point, 3).coeffs, fyx.jet(point, 3).coeffs))
