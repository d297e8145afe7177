"""Truncated power/Laurent series whose coefficients live in any ring.

Coefficients may be floats or ScalarFields (anything closed under
+, -, *, / and scaling).  A series stores

    sum_{p = shift}^{trunc} coeffs[p - shift] * X**p  +  O(X**(trunc+1)),

with `trunc = None` meaning the series is exact (all omitted
coefficients are identically zero).  Truncation orders propagate
conservatively through arithmetic, and `coefficient(p)` refuses to
answer past the truncation order, which keeps order-of-vanishing
claims honest.

The expansion coefficient fields produced by the ambient recursion ride
through this class in the deformation variable, and the conformally
compact structures reuse it as Laurent series in the boundary defining
coordinate (negative `shift` clears the poles algebraically).

An exact zero absorbs: times any series, or divided by a nonzero one,
it gives itself, whatever the other operand's truncation.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .curvature import _is_zero, fold_sum

__all__ = ["Series", "SeriesTruncationError"]


class SeriesTruncationError(ValueError):
    """A coefficient beyond the known truncation order was requested."""


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Series:
    __slots__ = ("shift", "coeffs", "trunc", "zero")

    def __init__(self, coeffs, shift: int = 0, trunc=None, zero=0.0):
        coeffs = list(coeffs)
        if trunc is not None:
            want = trunc - shift + 1
            if want < 0:
                coeffs, shift = [], trunc + 1
                want = 0
            if len(coeffs) > want:
                raise ValueError("stored coefficients exceed truncation order")
            coeffs = coeffs + [zero] * (want - len(coeffs))
        self.shift = shift
        self.coeffs = coeffs
        self.trunc = trunc
        self.zero = zero

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value, zero=0.0, trunc=None) -> "Series":
        return cls([value], 0, trunc, zero)

    @classmethod
    def zero_series(cls, zero=0.0, trunc=None) -> "Series":
        return cls([], 1 if trunc is None else trunc + 1, trunc, zero)

    # -- access -----------------------------------------------------------

    @property
    def max_stored(self) -> int:
        return self.shift + len(self.coeffs) - 1

    def coefficient(self, power: int):
        """Coefficient of X**power; errors past the truncation order."""
        if self.trunc is not None and power > self.trunc:
            raise SeriesTruncationError(
                f"coefficient {power} beyond truncation order {self.trunc}")
        k = power - self.shift
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.zero

    @property
    def is_zero(self) -> bool:
        """True only for the exact zero series.

        A truncated series with all stored coefficients zero is O(X^(t+1)),
        not zero, and must keep participating in truncation bookkeeping.
        """
        return self.trunc is None and all(_is_zero(c) for c in self.coeffs)

    def truncated(self, trunc: int) -> "Series":
        if self.trunc is not None and trunc > self.trunc:
            raise SeriesTruncationError(
                f"cannot extend truncation {self.trunc} to {trunc}")
        keep = [c for p, c in self._items() if p <= trunc]
        return Series(keep, self.shift, trunc, self.zero)

    def _items(self):
        return ((self.shift + k, c) for k, c in enumerate(self.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def _as_series(self, other):
        if isinstance(other, Series):
            return other
        return Series.constant(other, self.zero)

    def __add__(self, other):
        return Series._sum([self, self._as_series(other)])

    __radd__ = __add__

    @staticmethod
    def sum_of(terms):
        """The left fold of `+` over the series `terms`, built power by
        power: each coefficient is the `fold_sum` of the terms'
        coefficients at that power, so a field coefficient is one sum
        node.  Over float coefficients the fold is taken as it is, since
        there the zeros it pads with are not neutral (0.0 + -0.0 is
        +0.0)."""
        if isinstance(terms[0].zero, (int, float)):
            return reduce(add, terms)
        return Series._sum(terms)

    @staticmethod
    def _sum(terms):
        """The series whose coefficient at each power is the `fold_sum` of
        the terms' coefficients there (the first term's zero where none
        has one), truncated at the lowest truncation among them."""
        zero = terms[0].zero
        trunc = None
        for t in terms:
            trunc = _min_trunc(trunc, t.trunc)
        lo = min(t.shift for t in terms)
        hi = max(t.max_stored for t in terms)
        if trunc is not None:
            hi = min(hi, trunc)
        out = []
        for p in range(lo, hi + 1):
            cs = [t.coeffs[p - t.shift] for t in terms
                  if 0 <= p - t.shift < len(t.coeffs)]
            out.append(fold_sum(cs) if cs else zero)
        return Series(out, lo, trunc, zero)

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.shift, self.trunc, self.zero)

    def __sub__(self, other):
        return self + (-self._as_series(other))

    def __mul__(self, other):
        if not isinstance(other, Series):
            # coefficient-wise scaling by a ring element or number
            return Series([c * other if not _is_zero(c) else c
                           for c in self.coeffs], self.shift, self.trunc, self.zero)
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        shift = self.shift + other.shift
        trunc = None
        if self.trunc is not None:
            trunc = self.trunc + other.shift
        if other.trunc is not None:
            t2 = other.trunc + self.shift
            trunc = t2 if trunc is None else min(trunc, t2)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if n <= 0:
            return Series.zero_series(self.zero, trunc)
        if trunc is not None:
            n = min(n, trunc - shift + 1)
        terms = [[] for _ in range(n)]
        nonzero = [(j, b) for j, b in enumerate(other.coeffs)
                   if not _is_zero(b)]
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in nonzero:
                k = i + j
                if k >= n:
                    break
                terms[k].append(a * b)
        out = [fold_sum(c) if c else self.zero for c in terms]
        return Series(out, shift, trunc, self.zero)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return Series([c / other for c in self.coeffs],
                          self.shift, self.trunc, self.zero)
        v = 0
        while v < len(other.coeffs) and _is_zero(other.coeffs[v]):
            v += 1
        if v == len(other.coeffs):
            raise ZeroDivisionError("division by a structurally zero series")
        if self.is_zero:
            return self
        bshift = other.shift + v
        bcoeffs = other.coeffs[v:]
        shift = self.shift - bshift
        trunc = None
        if self.trunc is not None:
            trunc = self.trunc - bshift
        if other.trunc is not None:
            t2 = other.trunc + self.shift - 2 * bshift
            trunc = t2 if trunc is None else min(trunc, t2)
        if trunc is not None:
            n = trunc - shift + 1
        elif len(bcoeffs) == 1:
            n = len(self.coeffs)
        else:
            # an exact quotient by a non-monomial is an infinite series;
            # callers must truncate one operand first
            raise SeriesTruncationError(
                "exact division by a non-monomial series is not representable")
        if n <= 0:
            return Series.zero_series(self.zero, trunc)
        lead = bcoeffs[0]
        out = []
        for k in range(n):
            ka = k
            a_k = self.coeffs[ka] if 0 <= ka < len(self.coeffs) else self.zero
            acc = a_k
            for j in range(max(0, k - len(bcoeffs) + 1), k):
                if _is_zero(out[j]) or _is_zero(bcoeffs[k - j]):
                    continue
                acc = acc - out[j] * bcoeffs[k - j]
            out.append(acc / lead)
        return Series(out, shift, trunc, self.zero)

    # -- calculus ------------------------------------------------------------

    def deriv(self) -> "Series":
        """Derivative in the series variable: p c_p is the X^(p-1) term."""
        trunc = None if self.trunc is None else self.trunc - 1
        d = {p - 1: c * float(p) for p, c in self._items() if p != 0}
        if not d:
            return Series.zero_series(self.zero, trunc)
        lo = min(d)
        return Series([d.get(p, self.zero) for p in range(lo, max(d) + 1)],
                      lo, trunc, self.zero)

    def partial(self, i: int) -> "Series":
        """The chart partial d/dx^i, applied to every coefficient."""
        return self.map(lambda c: c.partial(i))

    def map(self, fn) -> "Series":
        """Apply fn to every coefficient (e.g. a spatial partial derivative)."""
        return Series([fn(c) for c in self.coeffs], self.shift, self.trunc, self.zero)

    def __repr__(self):
        t = "exact" if self.trunc is None else f"O(X^{self.trunc + 1})"
        return f"Series(shift={self.shift}, len={len(self.coeffs)}, {t})"
