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
the degree by one).  The kernels are plain Python over floats, so no
command imports numpy (most jets are small).  Convolution sums
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

A product runs one of two kernels, which give the same bits.  The row
kernel loops over the table's rows and skips the rows of zero
coefficients; most of its time per term goes to loop dispatch.  The
generated kernel of a shape is straight-line Python that
`_generated_product` compiles once per process from the table's
integer indices: each output coefficient is one left fold
`0.0 + a0 * b5 + a1 * b4 + ...` of its terms, I ascending.  On dense
factors it runs 7.0x (3, 1), 4.5x (3, 4), 3.6x (3, 6), 2.9x (3, 8) and
2.2x (3, 10) as fast as the row kernel.  It runs for a product whose
sparser factor has at least 30% of its coefficients nonzero (below
that the row kernel's skipped rows make it as fast), at a shape where
sweeps have planned at least PAYBACK products (`plan_products`, which
`fields` calls as it plans).  Compiling costs about 3 us per table term
(2.7 ms for (3, 6), 9.4 ms for (3, 8)), as much as 35 to 130 dense
products save, so a shape that sweeps use fewer times, or whose
products are all sparse, is never compiled; the shapes of one nvars
share the functions of their common total degrees, so a shape compiled
after a smaller one costs only its new degrees.  The bits agree because both add each coefficient's terms in
the same order from +0.0, and the row kernel skips a row only when its
coefficient is 0.0 or -0.0 and the other factor is finite: the terms
it skips are then 0.0 or -0.0, and adding one to a sum that starts at
+0.0, and so is never -0.0, leaves the sum unchanged.  The planned
counts and the compiled kernels are shared by the whole process: two
threads that race on them can lose a count or compile a kernel twice,
which changes no bit.
"""

from __future__ import annotations

from functools import lru_cache
import math
from operator import add

from .errors import InputError

__all__ = ["Jet", "JetShapeError", "JetDivisionError", "jet_count",
           "plan_products", "value_quotient", "value_power", "value_apply",
           "FUNCTIONS"]

# the analytic primitives, as `math` names, that `value_apply` and
# `Jet.apply` take
FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")

# Divisor jets whose constant term is at or below PIVOT_REL times the
# magnitude of their largest coefficient (floored at 1) are rejected.
PIVOT_REL = 1e-10

# A shape's generated product is compiled once sweeps have planned
# PAYBACK products at it.  Compiling a shape from nothing took as long
# as 35 to 130 of its dense products save, over (3, 1)-(3, 10), (4, 1),
# (4, 2) and (6, 2) (2-vCPU VM, Python 3.11), less after a smaller shape
# of the same nvars; 43-97% of the planned products of the shapes that
# a random-deep `verify` compiles were dense.
PAYBACK = 100
# Terms per compiled function of a generated product: compiling a
# whole (3, 10) product as one function raised the peak RSS by 11.5 MB,
# as functions of at most 500 terms by 0.5 MB.  At (3, 8) the latter
# ran 1.17 times as long as one whole function.
UNIT_TERMS = 500

_new = object.__new__
_planned = {}  # (nvars, degree) -> products that sweeps have planned
_kernels = {}  # (nvars, degree) -> its generated product, once compiled


class JetShapeError(ValueError):
    """Operands disagree in variable count or truncation degree."""


class JetDivisionError(InputError, ZeroDivisionError):
    """A jet or value with no finite result: a divisor with a (near-)zero
    constant term, or an analytic primitive at a constant term outside
    its domain, or where its value or derivatives leave the float
    range."""


def jet_count(nvars: int, degree: int) -> int:
    """Number of multi-indices alpha with |alpha| <= degree."""
    return math.comb(nvars + degree, degree)


def _check_pivot(b0, scale):
    """Reject a divisor with an infinite coefficient, or whose constant
    term b0 is at or below the pivot floor; `scale` is the magnitude of
    its largest coefficient (NaN if any is)."""
    if scale == math.inf:
        raise JetDivisionError("a divisor coefficient is not finite: "
                               "a value left the float range")
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
    # `compose` adds a +0.0 term to the constant term at every degree
    # >= 1, which turns sin(-0.0) = -0.0 (or sinh) into +0.0
    return 0.0 + _derivatives(name, x, 0)[0]


def _derivatives(name: str, x: float, degree: int) -> list:
    """h^(k)(x), k = 0..degree, of the analytic primitive h = `name`.  An
    x outside h's domain, or where a `math` function rejects it (as sin
    does inf) or a derivative leaves the float range, is a
    `JetDivisionError`; a name outside `FUNCTIONS` is a ValueError."""
    if name not in FUNCTIONS:
        raise ValueError(f"unknown analytic primitive {name!r}")
    _check_domain(name, x)
    try:
        if name == "exp":
            return [math.exp(x)] * (degree + 1)
        if name == "log":
            derivs = [math.log(x)]
            for k in range(1, degree + 1):
                derivs.append(((-1.0) ** (k - 1)) * math.factorial(k - 1)
                              / x ** k)
            return derivs
        if name == "sqrt":
            derivs, c = [math.sqrt(x)], 0.5
            for k in range(1, degree + 1):
                derivs.append(c * x ** (0.5 - k))
                c *= 0.5 - k
            return derivs
        if name in ("sin", "cos"):
            s, c = math.sin(x), math.cos(x)
            cycle = [s, c, -s, -c] if name == "sin" else [c, -s, -c, s]
            return [cycle[k % 4] for k in range(degree + 1)]
        s, c = math.sinh(x), math.cosh(x)
        even, odd = (s, c) if name == "sinh" else (c, s)
        return [even if k % 2 == 0 else odd for k in range(degree + 1)]
    except (OverflowError, ValueError, ZeroDivisionError):
        raise JetDivisionError(f"{name} of constant term {x:.3e} is out of "
                               f"range") from None


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


def plan_products(nvars: int, degree: int, count: int) -> None:
    """Count `count` products of (nvars, degree) jets that a sweep will
    run.  From PAYBACK counted products on, the shape's dense products
    run its generated kernel, compiled at the first of them."""
    shape = (nvars, degree)
    _planned[shape] = _planned.get(shape, 0) + count


@lru_cache(maxsize=None)
def _product_units(nvars: int, first: int, last: int):
    """Functions of two coefficient lists, of a degree at least `last`,
    that return, one after another, the product's coefficients of total
    degree `first` to `last`, as straight-line Python.

    Output coefficient K is the left fold `0.0 + a0 * b5 + a1 * b4 + ...`
    of its terms, I ascending, as `Jet.__mul__` sums them.  The source is
    built from integer table indices only.  Each function covers
    consecutive coefficients of at most UNIT_TERMS terms (a coefficient
    is never split), which bounds the compiler's transient memory, and
    unpacks the factors' coefficients up to the total degree of its last
    one.  The graded order makes a jet a prefix of any higher-degree
    one, so the functions serve every degree from `last` on."""
    exps = _exponent_table(nvars, last)[0]
    codes, where = _exponent_codes(nvars, last)
    lo = jet_count(nvars, first - 1) if first else 0
    left = [[] for _ in range(lo, len(exps))]  # per K, the I of its terms
    for i, row in enumerate(_product_rows(nvars, last)):
        for k in row:
            if k >= lo:
                left[k - lo].append(i)
    # unit u computes the coefficients lo + [cuts[u], cuts[u + 1])
    cuts, size = [0], 0
    for k, terms in enumerate(left):
        if size + len(terms) > UNIT_TERMS and k > cuts[-1]:
            cuts.append(k)
            size = 0
        size += len(terms)
    cuts.append(len(left))
    namespace = {}
    for u in range(len(cuts) - 1):
        n = jet_count(nvars, sum(exps[lo + cuts[u + 1] - 1]))
        folds = ",".join(
            "0.0" + "".join(f"\n+ a{i} * b{where[codes[lo + k] - codes[i]]}"
                            for i in left[k])
            for k in range(cuts[u], cuts[u + 1]))
        source = (f"def unit{u}(a, b):\n"
                  f" {''.join(f'a{i},' for i in range(n))} = a[:{n}]\n"
                  f" {''.join(f'b{i},' for i in range(n))} = b[:{n}]\n"
                  f" return [{folds}]\n")
        exec(compile(source, f"<product {nvars} {first}-{last}>", "exec"),
             namespace)
    units = tuple(namespace[f"unit{u}"] for u in range(len(cuts) - 1))
    # CPython 3.11 specializes a function's float `+` at its 8th call,
    # and of two NaNs the specialized `+` keeps the left one's sign, the
    # generic one the right one's.  The row kernel's loop specializes in
    # its first call, so each unit runs 8 times here: then NaN signs are
    # the row kernel's too.
    zero = [0.0] * len(exps)
    for unit in units:
        for _ in range(8):
            unit(zero, zero)
    return units


def _generated_product(nvars: int, degree: int):
    """The truncated product of (nvars, degree) jets as straight-line
    Python, a function of the two coefficient lists.

    A shape whose table has at most UNIT_TERMS terms is one function of
    `_product_units`.  A larger one runs that of the largest such shape
    below it, then the units of each higher total degree, which every
    larger shape shares, so compiling a shape after a smaller one only
    compiles its new degrees."""
    base = degree
    while base and math.comb(2 * nvars + base, base) > UNIT_TERMS:
        base -= 1
    units = _product_units(nvars, 0, base) + tuple(
        unit for level in range(base + 1, degree + 1)
        for unit in _product_units(nvars, level, level))
    if len(units) == 1:
        return units[0]
    namespace = {f"unit{u}": unit for u, unit in enumerate(units)}
    source = ("def product(a, b):\n out = unit0(a, b)\n"
              + "".join(f" out += unit{u}(a, b)\n"
                        for u in range(1, len(units)))
              + " return out\n")
    exec(compile(source, f"<product {nvars} {degree}>", "exec"), namespace)
    return namespace["product"]


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
    as a list of floats.  An analytic primitive has one entry per layer,
    by its name in `FUNCTIONS`: `Jet.apply(name)` here, `value_apply(name,
    x)` on the constant term and `ScalarField.apply(name)` on a field."""

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
        J = K - I descends as I ascends, so every sum keeps its order.

        When at least 30% of the sparser factor's coefficients are
        nonzero, and sweeps have planned PAYBACK products of this shape,
        the shape's generated kernel runs instead, with the same bits
        (see the module docstring)."""
        if isinstance(other, (int, float)):
            k = float(other)
            return _jet(self.nvars, self.degree, [x * k for x in self.coeffs])
        self._check(other)
        a, b = self.coeffs, other.coeffs
        za, zb = a.count(0.0), b.count(0.0)
        # the generated kernel computes every term, the row kernel skips
        # zero rows: with 10% or 20% of one factor nonzero the generated
        # one ran 0.34-0.79 times as fast as the row kernel at (3, 8) and
        # 0.53-1.64 times at (3, 6); with 30-50%, 0.75-1.88 and 1.15-1.90
        # times, and 1.7-19 times at (3, 1)-(3, 4) and (4, 1)
        if 10 * max(za, zb) <= 7 * len(a):
            shape = (self.nvars, self.degree)
            kernel = _kernels.get(shape)
            if kernel is None and _planned.get(shape, 0) >= PAYBACK:
                kernel = _kernels[shape] = _generated_product(*shape)
            if kernel is not None:
                return _jet(self.nvars, self.degree, kernel(a, b))
        rows = _product_rows(self.nvars, self.degree)
        out = [0.0] * len(b)
        if zb > za and all(map(math.isfinite, a)):
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

    def apply(self, name: str) -> "Jet":
        """Jet of h(F) for the analytic primitive h = `name`."""
        return self.compose(_derivatives(name, self.value, self.degree))

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
