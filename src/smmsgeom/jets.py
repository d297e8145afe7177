"""Truncated multivariate Taylor-coefficient ("jet") arithmetic at a point.

A jet of degree D in n variables stores the coefficients

    coeff(alpha) = d^alpha F(p) / alpha!          for all |alpha| <= D,

densely, as a list of floats in graded lexicographic order (total degree
first, then lexicographic on the exponent tuple).  Grading first means a
degree-D' jet is a prefix of a degree-D jet for D' <= D, so a parent
that needs a node at a lower degree reads a prefix of its jet.

Arithmetic follows the represented functions: sums, truncated Cauchy
products, division by jets with nonzero constant term, composition with
univariate analytic functions, and partial differentiation (which lowers
the degree by one).  The kernels are plain Python loops over floats, so
no command imports numpy (most jets are small).  Convolution sums
always run in ascending graded-lex order over the left factor so
repeated runs are bit-identical.  One product table per (nvars, degree)
fixes that order for both: its terms are grouped by the total degree
of the output coefficient and keep the left factor ascending within
each group, so a product, which runs the table row by row of the left
factor (or of the right one, J descending), sums every output
coefficient in that order, and division,
which solves one degree after another, adds each degree's group in
table order.  These are the orders of `np.bincount` and `np.add.at`
over the table, which `tests/test_jets.py` checks bit for bit.  The
`value_*` functions are the degree-0 kernels on plain floats.
"""

from __future__ import annotations

from functools import lru_cache
import math
from operator import add

__all__ = ["Jet", "JetShapeError", "JetDivisionError", "jet_count",
           "value_quotient", "value_power", "value_apply"]

# Divisor jets whose constant term is at or below PIVOT_REL times the
# magnitude of their largest coefficient (floored at 1) are rejected.
PIVOT_REL = 1e-10

_new = object.__new__


class JetShapeError(ValueError):
    """Operands disagree in variable count or truncation degree."""


class JetDivisionError(ZeroDivisionError):
    """Divisor jet has a (near-)zero constant term."""


def jet_count(nvars: int, degree: int) -> int:
    """Number of multi-indices alpha with |alpha| <= degree."""
    return math.comb(nvars + degree, degree)


def _check_pivot(b0, scale):
    """Reject a divisor whose constant term b0 is at or below the pivot
    floor; `scale` is the magnitude of its largest coefficient."""
    floor = PIVOT_REL * max(1.0, scale)
    if abs(b0) <= floor:
        raise JetDivisionError(
            f"constant term {b0:.3e} at or below pivot floor {floor:.3e}")


def _check_domain(name: str, x: float):
    """Reject log or sqrt of a non-positive value x."""
    if x <= 0.0 and name in ("log", "sqrt"):
        raise JetDivisionError(f"{name} of non-positive constant term {x:.3e}")


# Degree-0 kernels: plain-float versions of the jet operations that give
# the constant term of the degree-D result bit for bit, for every D >= 1.
# The jet product accumulates into +0.0, hence `0.0 +` after each
# product (it turns a -0.0 product into +0.0).

def value_quotient(a: float, b: float) -> float:
    """a / b, with the pivot test of jet division."""
    _check_pivot(b, abs(b))
    return a / b


def value_power(x: float, k: int) -> float:
    """x ** k by the square-and-multiply sequence of `Jet.__pow__`."""
    if k < 0:
        x, k = value_quotient(1.0, x), -k
    out = 1.0
    while k:
        if k & 1:
            out = 0.0 + out * x
        x = 0.0 + x * x if k > 1 else x
        k >>= 1
    return out


def value_apply(name: str, x: float) -> float:
    """The analytic primitive `name` (a `math` function) at x."""
    _check_domain(name, x)
    # `compose` adds a +0.0 term to the constant term at every degree
    # >= 1, which turns sin(-0.0) = -0.0 (or sinh) into +0.0
    return 0.0 + getattr(math, name)(x)


@lru_cache(maxsize=None)
def _exponent_table(nvars: int, degree: int):
    """Exponent tuples in graded-lex order, and the tuple -> position map."""
    exps = []
    for total in range(degree + 1):
        level = []

        def fill(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for k in range(remaining + 1):
                fill(prefix + (k,), remaining - k, slots - 1)

        fill((), total, nvars)
        level.sort()
        exps.extend(level)
    position = {e: i for i, e in enumerate(exps)}
    return tuple(exps), position


@lru_cache(maxsize=None)
def _exponent_codes(nvars: int, degree: int):
    """Each exponent tuple of the degree-`degree` table as one integer,
    its digits in base degree + 1, and the code -> position map.  Every
    exponent is below that base, so the code of a sum of two tuples
    whose total is at most `degree` is the sum of their codes."""
    codes = []
    for e in _exponent_table(nvars, degree)[0]:
        code = 0
        for x in e:
            code = code * (degree + 1) + x
        codes.append(code)
    return codes, {code: k for k, code in enumerate(codes)}


@lru_cache(maxsize=None)
def _product_rows(nvars: int, degree: int):
    """Per index I, the K with exps[K] = exps[I] + exps[J] for
    J = 0, 1, ...: the J of total degree at most degree - |I|, a prefix
    of the graded order, so a row zipped with the other factor's
    coefficients pairs each K with its J (the table is symmetric in I
    and J)."""
    exps = _exponent_table(nvars, degree)[0]
    codes, where = _exponent_codes(nvars, degree)
    return tuple([where[ci + cj] for cj in
                  codes[:jet_count(nvars, degree - sum(e))]]
                 for ci, e in zip(codes, exps))


@lru_cache(maxsize=None)
def _product_table(nvars: int, degree: int):
    """Index triples (I, J, K) with exps[K] = exps[I] + exps[J], as three
    lists.

    Grouped by the total degree of K, ascending, and within each level
    ascending over the left factor index, then the right.  Every K's terms
    are then in I-ascending order, which fixes the summation order of
    every product, and each level starts with its I = 0 terms, which
    division skips.  Row I of `_product_rows` holds the K of I's terms
    in this order.
    """
    rows = _product_rows(nvars, degree)
    # positions [start[t], start[t + 1]) hold the exponents of total t
    start = [0] + [jet_count(nvars, t) for t in range(degree + 1)]
    ii, jj, kk = [], [], []
    for t in range(degree + 1):
        for level_i in range(t + 1):
            # the J of total t - level_i, for every I of total level_i
            lo, hi = start[t - level_i], start[t - level_i + 1]
            for i in range(start[level_i], start[level_i + 1]):
                ii += [i] * (hi - lo)
                jj += range(lo, hi)
                kk += rows[i][lo:hi]
    return ii, jj, kk


@lru_cache(maxsize=None)
def _division_levels(nvars: int, degree: int):
    """Per total-degree level t >= 1: the coefficient range [lo, hi) of
    the level and the rows (I, Js, Ks) of its product-table terms with
    I != 0: I ascending, each with its (J, K) in table order.

    Drives the graded long-division recursion
        c[K] = (a[K] - sum b[I] c[J]) / b[0],
    where every J referenced at level t lies in a lower level.  A row's
    Js are the level t - |I| of J and its Ks the slice of row I of
    `_product_rows` there; the rows of one |I| share their Js.
    """
    rows = _product_rows(nvars, degree)
    # positions [start[t], start[t + 1]) hold the exponents of total t
    start = [0] + [jet_count(nvars, t) for t in range(degree + 1)]
    out = []
    for t in range(1, degree + 1):
        level = []
        for level_i in range(1, t + 1):
            lo, hi = start[t - level_i], start[t - level_i + 1]
            js = list(range(lo, hi))
            level += [(i, js, rows[i][lo:hi])
                      for i in range(start[level_i], start[level_i + 1])]
        out.append((start[t], start[t + 1], level))
    return tuple(out)


@lru_cache(maxsize=None)
def _promotion_table(nvars: int, extra: int, degree: int):
    """Positions in the (nvars+extra)-variable table of the multi-indices
    supported on the first nvars variables, in source order."""
    exps, _ = _exponent_table(nvars, degree)
    _, pos_out = _exponent_table(nvars + extra, degree)
    pad = (0,) * extra
    return [pos_out[a + pad] for a in exps]


@lru_cache(maxsize=None)
def _partial_table(nvars: int, degree: int, axis: int):
    """Source positions and multipliers for d/dx_axis at this degree >= 1.

    Output position of alpha holds (alpha_axis + 1) * coeff(alpha + e_axis),
    read off the degree-`degree` table; the result has degree-1, whose
    exponents lead that table.  Adding e_axis adds one digit to the
    code of alpha.
    """
    exps = _exponent_table(nvars, degree)[0]
    codes, where = _exponent_codes(nvars, degree)
    step = (degree + 1) ** (nvars - 1 - axis)
    n = jet_count(nvars, degree - 1)
    return ([where[code + step] for code in codes[:n]],
            [float(e[axis] + 1) for e in exps[:n]])


def _magnitude(coeffs) -> float:
    """max |c| over the coefficients, NaN if any c is (as `np.max` of
    their magnitudes gives, where Python's `max` would skip a NaN)."""
    if any(map(math.isnan, coeffs)):
        return math.nan
    return max(map(abs, coeffs))


def _jet(nvars: int, degree: int, coeffs: list) -> "Jet":
    """A Jet of `coeffs`, a list of floats of the right length, built
    without the checks and the copy of `Jet(...)`."""
    out = _new(Jet)
    out.nvars = nvars
    out.degree = degree
    out.coeffs = coeffs
    return out


class Jet:
    """Dense truncated Taylor coefficients of a scalar quantity at a point,
    as a list of floats."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs=None):
        self.nvars = nvars
        self.degree = degree
        n = jet_count(nvars, degree)
        if coeffs is None:
            self.coeffs = [0.0] * n
        else:
            coeffs = [float(c) for c in coeffs]
            if len(coeffs) != n:
                raise JetShapeError(
                    f"expected {n} coefficients for nvars={nvars}, "
                    f"degree={degree}, got {len(coeffs)}")
            self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float, nvars: int, degree: int) -> "Jet":
        out = cls(nvars, degree)
        out.coeffs[0] = float(value)
        return out

    @classmethod
    def variable(cls, value: float, axis: int, nvars: int, degree: int) -> "Jet":
        """Jet of the coordinate function x_axis at x_axis = value."""
        out = cls(nvars, degree)
        out.coeffs[0] = float(value)
        if degree >= 1:
            _, pos = _exponent_table(nvars, degree)
            e = tuple(1 if t == axis else 0 for t in range(nvars))
            out.coeffs[pos[e]] = 1.0
        return out

    # -- basic access -------------------------------------------------

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def coefficient(self, alpha) -> float:
        """Taylor coefficient of the multi-index alpha."""
        _, pos = _exponent_table(self.nvars, self.degree)
        return self.coeffs[pos[tuple(alpha)]]

    def truncated(self, degree: int) -> "Jet":
        """The degree-`degree` prefix."""
        if degree > self.degree:
            raise JetShapeError(f"cannot extend degree {self.degree} to {degree}")
        if degree == self.degree:
            return self
        return _jet(self.nvars, degree,
                    self.coeffs[: jet_count(self.nvars, degree)])

    def _check(self, other: "Jet"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise JetShapeError(
                f"jet shape mismatch: ({self.nvars},{self.degree}) vs "
                f"({other.nvars},{other.degree})")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out = self.coeffs.copy()
            out[0] += other
            return _jet(self.nvars, self.degree, out)
        self._check(other)
        return _jet(self.nvars, self.degree,
                    list(map(add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __mul__(self, other):
        """The truncated product, by rows of the product table: every
        output coefficient sums its terms a[I] * b[J] I-ascending from
        +0.0, as `np.bincount` over the table does.  Row I of the left
        factor adds a[I] * b[J] into K for each of its (J, K), I
        ascending.  A row whose coefficient is 0.0 or -0.0 adds only
        signed zeros to sums that start at +0.0 and so stay unchanged,
        so it is skipped, unless the other factor holds an inf or a NaN
        (0 * inf is NaN).  When the right factor has more zero
        coefficients, its rows run instead, J descending: for a fixed K,
        J = K - I descends as I ascends, so every sum keeps its order."""
        if isinstance(other, (int, float)):
            k = float(other)
            return _jet(self.nvars, self.degree, [x * k for x in self.coeffs])
        self._check(other)
        a, b = self.coeffs, other.coeffs
        rows = _product_rows(self.nvars, self.degree)
        out = [0.0] * len(b)
        if b.count(0.0) > a.count(0.0) and all(map(math.isfinite, a)):
            for bj, row in zip(reversed(b), reversed(rows)):
                if bj:
                    for k, ai in zip(row, a):
                        out[k] += ai * bj
        else:
            skip = all(map(math.isfinite, b))
            for ai, row in zip(a, rows):
                if ai or not skip:
                    for k, bj in zip(row, b):
                        out[k] += ai * bj
        return _jet(self.nvars, self.degree, out)

    __rmul__ = __mul__

    def _divided_by(self, other: "Jet") -> "Jet":
        """Graded long division: level t of the quotient is solved from the
        convolution contributions of strictly lower levels, which keeps the
        noise floor at machine precision even for high degrees.  Each
        level adds its terms in table order, as `np.add.at` does, row by
        row of the divisor; a row whose b[I] is 0.0 or -0.0 is skipped
        while the quotient so far is finite, as in a product."""
        a, b = self.coeffs, other.coeffs
        b0 = b[0]
        _check_pivot(b0, _magnitude(b))
        c = [0.0] * len(a)
        acc = [0.0] * len(a)
        c[0] = a[0] / b0
        finite = math.isfinite(c[0])
        for lo, hi, rows in _division_levels(self.nvars, self.degree):
            for i, js, ks in rows:
                bi = b[i]
                if bi or not finite:
                    for j, k in zip(js, ks):
                        acc[k] += bi * c[j]
            for k in range(lo, hi):
                c[k] = (a[k] - acc[k]) / b0
            finite = finite and all(map(math.isfinite, c[lo:hi]))
        return _jet(self.nvars, self.degree, c)

    def reciprocal(self) -> "Jet":
        return Jet.constant(1.0, self.nvars, self.degree)._divided_by(self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            k = float(other)
            return _jet(self.nvars, self.degree, [x / k for x in self.coeffs])
        self._check(other)
        return self._divided_by(other)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("jet exponents must be integers")
        if k < 0:
            return self.reciprocal() ** (-k)
        out = Jet.constant(1.0, self.nvars, self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- composition with univariate analytic functions ----------------

    def compose(self, derivs) -> "Jet":
        """Jet of h(F) from the derivatives h^(k)(F(p)), k = 0..degree."""
        shifted = _jet(self.nvars, self.degree, self.coeffs.copy())
        shifted.coeffs[0] = 0.0
        acc = Jet.constant(float(derivs[0]), self.nvars, self.degree)
        power = Jet.constant(1.0, self.nvars, self.degree)
        fact = 1.0
        for k in range(1, self.degree + 1):
            power = power * shifted
            fact *= k
            acc = acc + power * (float(derivs[k]) / fact)
        return acc

    def exp(self):
        e = math.exp(self.value)
        return self.compose([e] * (self.degree + 1))

    def log(self):
        x = self.value
        _check_domain("log", x)
        derivs = [math.log(x)]
        for k in range(1, self.degree + 1):
            derivs.append(((-1.0) ** (k - 1)) * math.factorial(k - 1) / x ** k)
        return self.compose(derivs)

    def sqrt(self):
        x = self.value
        _check_domain("sqrt", x)
        derivs = [math.sqrt(x)]
        c = 0.5
        for k in range(1, self.degree + 1):
            derivs.append(c * x ** (0.5 - k))
            c *= 0.5 - k
        return self.compose(derivs)

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        cycle = [s, c, -s, -c]
        return self.compose([cycle[k % 4] for k in range(self.degree + 1)])

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        cycle = [c, -s, -c, s]
        return self.compose([cycle[k % 4] for k in range(self.degree + 1)])

    def sinh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self.compose([s if k % 2 == 0 else c for k in range(self.degree + 1)])

    def cosh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self.compose([c if k % 2 == 0 else s for k in range(self.degree + 1)])

    def promote(self, extra: int) -> "Jet":
        """The same function viewed on a chart with `extra` appended
        variables it does not depend on."""
        if extra == 0:
            return self
        out = Jet(self.nvars + extra, self.degree)
        for k, c in zip(_promotion_table(self.nvars, extra, self.degree),
                        self.coeffs):
            out.coeffs[k] = c
        return out

    # -- differentiation ------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of dF/dx_axis, one degree lower."""
        if not 0 <= axis < self.nvars:
            raise IndexError(f"axis {axis} out of range for {self.nvars} variables")
        if self.degree == 0:
            raise JetShapeError("cannot differentiate a degree-0 jet")
        src, mult = _partial_table(self.nvars, self.degree, axis)
        c = self.coeffs
        return _jet(self.nvars, self.degree - 1,
                    [c[s] * k for s, k in zip(src, mult)])

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, degree={self.degree}, value={self.value:.6g})"
