"""Truncated multivariate Taylor-coefficient ("jet") arithmetic at a point.

A jet of degree D in n variables stores the coefficients

    coeff(alpha) = d^alpha F(p) / alpha!          for all |alpha| <= D,

densely, in graded lexicographic order (total degree first, then
lexicographic on the exponent tuple).  Grading first means a degree-D'
jet is a prefix slice of a degree-D jet for D' <= D, so a parent that
needs a node at a lower degree reads a view of its jet.

Arithmetic follows the represented functions: sums, truncated Cauchy
products, division by jets with nonzero constant term, composition with
univariate analytic functions, and partial differentiation (which lowers
the degree by one).  Convolution sums always run in ascending graded-lex
order over the left factor so repeated runs are bit-identical.  One
product table per (nvars, degree) fixes that order for both: its terms
are grouped by the total degree of the output coefficient and keep the
left factor ascending within each group, so a product sums every output
coefficient in that order, and division, which solves one degree after
another, reads each degree's group as a slice.  The `value_*` functions
are the degree-0 kernels on plain floats.
"""

from __future__ import annotations

from functools import lru_cache
import math

import numpy as np

__all__ = ["Jet", "JetShapeError", "JetDivisionError", "jet_count",
           "value_quotient", "value_power", "value_apply"]

# Divisor jets whose constant term is at or below PIVOT_REL times the
# magnitude of their largest coefficient (floored at 1) are rejected.
PIVOT_REL = 1e-10


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
def _product_table(nvars: int, degree: int):
    """Index triples (I, J, K) with exps[K] = exps[I] + exps[J].

    Grouped by the total degree of K, ascending, and within each level
    ascending over the left factor index, then the right.  Every K's terms
    are then in I-ascending order, which fixes the summation order of
    every product, and each level starts with its I = 0 terms, which
    division skips.
    """
    exps = np.array(_exponent_table(nvars, degree)[0], dtype=np.intp)
    level = exps.sum(axis=1)
    # np.nonzero walks the pair matrix row by row: I ascending, then J
    ii, jj = np.nonzero(level[:, None] + level[None, :] <= degree)
    # a stable sort keeps that order within each level of K
    by_level = np.argsort(level[ii] + level[jj], kind="stable")
    ii, jj = ii[by_level], jj[by_level]
    # exponents are below degree + 1, so base degree + 1 encodes each
    # tuple as one integer; the table's codes are not sorted (graded
    # order), so search through their sorting permutation
    radix = (degree + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.intp)
    codes = exps @ radix
    order = np.argsort(codes)
    kk = order[np.searchsorted(codes[order], (exps[ii] + exps[jj]) @ radix)]
    return ii, jj, kk


@lru_cache(maxsize=None)
def _division_levels(nvars: int, degree: int):
    """Per total-degree level t >= 1: the coefficient slice [lo, hi) of
    the level and views (I, J, K) of its product-table terms with I != 0.

    Drives the graded long-division recursion
        c[K] = (a[K] - sum b[I] c[J]) / b[0],
    where every J referenced at level t lies in a lower level.  Level t
    has hi - lo terms with I = 0 (J = K), which lead its table slice.
    """
    ii, jj, kk = _product_table(nvars, degree)
    out, lo = [], 1
    for t in range(1, degree + 1):
        hi = jet_count(nvars, t)
        # C(2 nvars + t, t) pairs have total degree t or less, so level t
        # is the table slice past those below t, less its I = 0 terms
        start = math.comb(2 * nvars + t - 1, t - 1) + hi - lo
        stop = math.comb(2 * nvars + t, t)
        out.append((lo, hi, ii[start:stop], jj[start:stop], kk[start:stop]))
        lo = hi
    return tuple(out)


@lru_cache(maxsize=None)
def _promotion_table(nvars: int, extra: int, degree: int):
    """Positions in the (nvars+extra)-variable table of the multi-indices
    supported on the first nvars variables, in source order."""
    exps, _ = _exponent_table(nvars, degree)
    _, pos_out = _exponent_table(nvars + extra, degree)
    pad = (0,) * extra
    return np.asarray([pos_out[a + pad] for a in exps], dtype=np.intp)


@lru_cache(maxsize=None)
def _partial_table(nvars: int, degree: int, axis: int):
    """Source positions and multipliers for d/dx_axis at this degree.

    Output position of alpha holds (alpha_axis + 1) * coeff(alpha + e_axis),
    read off the degree-`degree` table; the result has degree-1.
    """
    exps_out, _ = _exponent_table(nvars, degree - 1) if degree > 0 else ((), {})
    _, pos_in = _exponent_table(nvars, degree)
    src = np.empty(len(exps_out), dtype=np.intp)
    mult = np.empty(len(exps_out), dtype=np.float64)
    for k, a in enumerate(exps_out):
        shifted = tuple(x + (1 if t == axis else 0) for t, x in enumerate(a))
        src[k] = pos_in[shifted]
        mult[k] = a[axis] + 1
    return src, mult


class Jet:
    """Dense truncated Taylor coefficients of a scalar quantity at a point."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs=None):
        self.nvars = nvars
        self.degree = degree
        n = jet_count(nvars, degree)
        if coeffs is None:
            self.coeffs = np.zeros(n)
        else:
            arr = np.asarray(coeffs, dtype=np.float64)
            if arr.shape != (n,):
                raise JetShapeError(
                    f"expected {n} coefficients for nvars={nvars}, "
                    f"degree={degree}, got {arr.shape}")
            self.coeffs = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float, nvars: int, degree: int) -> "Jet":
        out = cls(nvars, degree)
        out.coeffs[0] = value
        return out

    @classmethod
    def variable(cls, value: float, axis: int, nvars: int, degree: int) -> "Jet":
        """Jet of the coordinate function x_axis at x_axis = value."""
        out = cls(nvars, degree)
        out.coeffs[0] = value
        if degree >= 1:
            _, pos = _exponent_table(nvars, degree)
            e = tuple(1 if t == axis else 0 for t in range(nvars))
            out.coeffs[pos[e]] = 1.0
        return out

    # -- basic access -------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def coefficient(self, alpha) -> float:
        """Taylor coefficient of the multi-index alpha."""
        _, pos = _exponent_table(self.nvars, self.degree)
        return float(self.coeffs[pos[tuple(alpha)]])

    def truncated(self, degree: int) -> "Jet":
        """The degree-`degree` prefix, as a view: jets are never written
        after construction."""
        if degree > self.degree:
            raise JetShapeError(f"cannot extend degree {self.degree} to {degree}")
        if degree == self.degree:
            return self
        return Jet(self.nvars, degree, self.coeffs[: jet_count(self.nvars, degree)])

    def _check(self, other: "Jet"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise JetShapeError(
                f"jet shape mismatch: ({self.nvars},{self.degree}) vs "
                f"({other.nvars},{other.degree})")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out = Jet(self.nvars, self.degree, self.coeffs.copy())
            out.coeffs[0] += other
            return out
        self._check(other)
        return Jet(self.nvars, self.degree, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.nvars, self.degree, self.coeffs * float(other))
        self._check(other)
        ii, jj, kk = _product_table(self.nvars, self.degree)
        out = np.bincount(kk, self.coeffs[ii] * other.coeffs[jj],
                          len(self.coeffs))
        return Jet(self.nvars, self.degree, out)

    __rmul__ = __mul__

    def _divided_by(self, other: "Jet") -> "Jet":
        """Graded long division: level t of the quotient is solved from the
        convolution contributions of strictly lower levels, which keeps the
        noise floor at machine precision even for high degrees."""
        b = other.coeffs
        b0 = b[0]
        _check_pivot(b0, float(np.max(np.abs(b))))
        c = np.zeros_like(self.coeffs)
        acc = np.zeros_like(self.coeffs)
        c[0] = self.coeffs[0] / b0
        for lo, hi, ii, jj, kk in _division_levels(self.nvars, self.degree):
            np.add.at(acc, kk, b[ii] * c[jj])
            c[lo:hi] = (self.coeffs[lo:hi] - acc[lo:hi]) / b0
        return Jet(self.nvars, self.degree, c)

    def reciprocal(self) -> "Jet":
        return Jet.constant(1.0, self.nvars, self.degree)._divided_by(self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.nvars, self.degree, self.coeffs / float(other))
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
        shifted = Jet(self.nvars, self.degree, self.coeffs.copy())
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
        out.coeffs[_promotion_table(self.nvars, extra, self.degree)] = self.coeffs
        return out

    # -- differentiation ------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of dF/dx_axis, one degree lower."""
        if not 0 <= axis < self.nvars:
            raise IndexError(f"axis {axis} out of range for {self.nvars} variables")
        if self.degree == 0:
            raise JetShapeError("cannot differentiate a degree-0 jet")
        src, mult = _partial_table(self.nvars, self.degree, axis)
        return Jet(self.nvars, self.degree - 1, self.coeffs[src] * mult)

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, degree={self.degree}, value={self.value:.6g})"
