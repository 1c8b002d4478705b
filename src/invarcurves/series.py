"""Truncated power series arithmetic.

Coefficients are exact through the truncation order of the operands (plain
O(N^2) convolution; the orders used here never justify FFT products).
"""

import numpy as np

from .rational import homogeneous_horner, polyval


class TruncatedPowerSeries:
    """Taylor data c_0..c_N; arithmetic truncates to the smaller order."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        c = np.atleast_1d(np.asarray(coefficients, dtype=complex)).ravel()
        self.coefficients = c.copy()

    @property
    def order(self):
        return len(self.coefficients) - 1

    def __call__(self, z):
        """Partial-sum evaluation (Horner)."""
        return polyval(z, self.coefficients)

    def __add__(self, other):
        if isinstance(other, TruncatedPowerSeries):
            n = min(self.order, other.order)
            return TruncatedPowerSeries(self.coefficients[: n + 1]
                                        + other.coefficients[: n + 1])
        c = self.coefficients.copy()
        c[0] += complex(other)
        return TruncatedPowerSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPowerSeries(-self.coefficients)

    def __sub__(self, other):
        if isinstance(other, TruncatedPowerSeries):
            return self + (-other)
        return self + (-complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedPowerSeries):
            n = min(self.order, other.order)
            full = np.convolve(self.coefficients, other.coefficients)
            return TruncatedPowerSeries(full[: n + 1])
        return TruncatedPowerSeries(self.coefficients * complex(other))

    __rmul__ = __mul__

    def reciprocal(self):
        """Series b with a*b = 1 + O(z^(N+1)); needs a nonzero constant term.

        Only the constant term decides: the higher coefficients of a series
        with radius of convergence rho grow like rho^-k, and say nothing
        about whether 1/a_0 exists.
        """
        a = self.coefficients
        if not abs(a[0]) >= np.finfo(float).tiny:
            raise ZeroDivisionError("reciprocal of a series with ~zero constant term")
        n = self.order
        b = np.zeros(n + 1, dtype=complex)
        b[0] = 1.0 / a[0]
        for k in range(1, n + 1):
            acc = np.dot(a[1: k + 1], b[k - 1:: -1][: k])
            b[k] = -acc * b[0]
        return TruncatedPowerSeries(b)

    def __repr__(self):
        return f"TruncatedPowerSeries({np.array2string(self.coefficients, separator=', ')})"


def compose_rational(f, s):
    """Taylor expansion of f(s(z)) through the order of s: the homogeneous
    Horner of rational.py on the series (s, 1).

    f is a RationalMap; the constant term of s must avoid the poles of f.
    """
    p, q = homogeneous_horner(f, s, 1.0)
    zero = TruncatedPowerSeries(np.zeros(s.order + 1))  # lifts a constant map's scalars
    return (zero + p) * (zero + q).reciprocal()
