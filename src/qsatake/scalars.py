"""Exact scalars: Gaussian rationals, Laurent polynomials, quantum integers.

``GaussianRational`` is the coefficient field Q(i) of all linear algebra
here.  It stores three plain ints ``a``, ``b``, ``d`` for the value
``(a + b*i)/d`` in lowest terms, so arithmetic is integer arithmetic plus one
gcd, and none at all while every denominator is 1 (the intertwiner systems
start integral).  Rationals elsewhere are stdlib ``fractions.Fraction``.
Quantum integers and Gaussian binomials are evaluated at the fourth root of
unity ``i``; the binomials are computed symbolically in ``q`` first, because
the quotient of quantum factorials degenerates to 0/0 at a root of unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Union

from .errors import DomainError


class GaussianRational:
    """An element (a + b*i)/d of Q(i).

    The storage is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal
    values have equal ``(a, b, d)`` and zero is ``(0, 0, 1)``.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        return _make(
            re.numerator * im.denominator,
            im.numerator * re.denominator,
            re.denominator * im.denominator,
        )

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        """The real part: an ``int``, or a ``Fraction`` when ``d != 1``."""
        return self.a if self.d == 1 else Fraction(self.a, self.d)

    @property
    def im(self):
        """The imaginary part: an ``int``, or a ``Fraction`` when ``d != 1``."""
        return self.b if self.d == 1 else Fraction(self.b, self.d)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return _make(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.coerce(other)
        d1, d2 = self.d, other.d
        return _make(
            self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.coerce(other)
        d1, d2 = self.d, other.d
        return _make(
            self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _make(d * a, -d * b, n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational.coerce(other)
        if isinstance(other, GaussianRational):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __str__(self) -> str:
        if not self.b:
            return str(self.re)
        sign = "+" if self.b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    __repr__ = __str__


_new = object.__new__
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for ints with d != 0, stored in lowest terms."""
    if d != 1:
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    self = _new(GaussianRational)
    _set_a(self, a)
    _set_b(self, b)
    _set_d(self, d)
    return self


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

_I_POWERS = (ONE, I, GaussianRational(-1), GaussianRational(0, -1))


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return _I_POWERS[k % 4]


Coeff = Union[int, Fraction, GaussianRational]


class LaurentPoly:
    """A Laurent polynomial stored as {exponent: nonzero coefficient}.

    Coefficients may be ints, Fractions, or GaussianRationals; mixing within
    one polynomial is not prevented but never useful.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Coeff] | Iterable = ()):
        d = dict(coeffs)
        self._coeffs = {e: c for e, c in d.items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: Coeff = 1) -> "LaurentPoly":
        return cls({exponent: coeff})

    def coeff(self, exponent: int) -> Coeff:
        return self._coeffs.get(exponent, 0)

    __getitem__ = coeff

    def exponents(self):
        return sorted(self._coeffs)

    def terms(self):
        """(exponent, coefficient) pairs, highest exponent first."""
        return [(e, self._coeffs[e]) for e in sorted(self._coeffs, reverse=True)]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = object.__new__(LaurentPoly)
        p._coeffs = out
        return p

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = object.__new__(LaurentPoly)
        p._coeffs = {e: -c for e, c in self._coeffs.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict = {}
            for e1, c1 in self._coeffs.items():
                for e2, c2 in other._coeffs.items():
                    e = e1 + e2
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            p = object.__new__(LaurentPoly)
            p._coeffs = out
            return p
        if not other:
            return LaurentPoly()
        p = object.__new__(LaurentPoly)
        p._coeffs = {e: c * other for e, c in self._coeffs.items()}
        return p

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by v**k."""
        p = object.__new__(LaurentPoly)
        p._coeffs = {e + k: c for e, c in self._coeffs.items()}
        return p

    def evaluate_at_i(self) -> GaussianRational:
        re = im = 0
        for e, c in self._coeffs.items():
            k = e % 4
            if k == 0:
                re += c
            elif k == 1:
                im += c
            elif k == 2:
                re -= c
            else:
                im -= c
        return GaussianRational(re, im)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*v" if c != 1 else "v")
            else:
                parts.append(f"{c}*v^{e}" if c != 1 else f"v^{e}")
        return " + ".join(parts)

    __repr__ = __str__


_QINT_AT_I = (0, 1, 0, -1)


def qint(n: int) -> GaussianRational:
    """Balanced quantum integer [n] = (q^n - q^-n)/(q - q^-1) at q = i.

    The value is 4-periodic in n: 0, 1, 0, -1.
    """
    return GaussianRational(_QINT_AT_I[n % 4])


def qint_poly(n: int) -> LaurentPoly:
    """Balanced [n] as a Laurent polynomial: q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n < 0:
        return -qint_poly(-n)
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


@lru_cache(maxsize=None)
def gauss_binomial_poly(n: int, r: int) -> LaurentPoly:
    """Balanced Gaussian binomial [n choose r] over Z[q, q^-1].

    Pascal recurrence: [n r] = q^(n-r) [n-1 r-1] + q^-r [n-1 r].
    """
    if n < 0 or r < 0 or r > n:
        raise DomainError(f"gauss_binomial requires 0 <= r <= n, got ({n}, {r})")
    if r == 0 or r == n:
        return LaurentPoly.one()
    return gauss_binomial_poly(n - 1, r - 1).shifted(n - r) + gauss_binomial_poly(
        n - 1, r
    ).shifted(-r)


def gauss_binomial(n: int, r: int) -> GaussianRational:
    """Balanced Gaussian binomial evaluated at q = i."""
    return gauss_binomial_poly(n, r).evaluate_at_i()
