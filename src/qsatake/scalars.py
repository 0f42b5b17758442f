"""Exact scalars: Gaussian rationals and quantum integers at q = i.

``GaussianRational`` is the coefficient field Q(i) of all linear algebra
here.  It stores three plain ints ``a``, ``b``, ``d`` for the value
``(a + b*i)/d`` in lowest terms, so arithmetic is integer arithmetic plus one
gcd, and none at all while every denominator is 1 (the intertwiner systems
start integral).  ``fractions.Fraction`` appears only at its edges: it is
accepted as input and returned by the ``re``/``im`` parts of a non-integral
value.  So ``fractions`` is imported there, on first use, and not with the
package: in the constructor for a value whose type is not exactly ``int``,
and in ``re``/``im`` when ``d != 1``, which ``hash`` and ``str`` of a
non-integral value go through.  Operands of mixed arithmetic are checked
against ``numbers.Rational``, which ``int``, ``bool`` and ``Fraction`` all
are.  Quantum integers and Gaussian binomials are evaluated at the fourth
root of unity ``i`` directly; no polynomial in a formal ``q`` is built.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from numbers import Rational

from .errors import DomainError


class GaussianRational:
    """An element (a + b*i)/d of Q(i).

    The storage is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal
    values have equal ``(a, b, d)`` and zero is ``(0, 0, 1)``.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _make(re, im, 1)
        from fractions import Fraction

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
        return self.a if self.d == 1 else _fraction(self.a, self.d)

    @property
    def im(self):
        """The imaginary part: an ``int``, or a ``Fraction`` when ``d != 1``."""
        return self.b if self.d == 1 else _fraction(self.b, self.d)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, Rational):
            return _make(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, Rational):
            return not self.b and self.a * other.denominator == other.numerator * self.d
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, Rational):
                return NotImplemented
            other = GaussianRational.coerce(other)
        d1, d2 = self.d, other.d
        return _make(
            self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, Rational):
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
            if not isinstance(other, Rational):
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
        if isinstance(other, Rational):
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


def _fraction(numerator: int, denominator: int):
    from fractions import Fraction

    return Fraction(numerator, denominator)


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


_QINT_AT_I = (0, 1, 0, -1)


def qint(n: int) -> GaussianRational:
    """Balanced quantum integer [n] = (q^n - q^-n)/(q - q^-1) at q = i.

    The value is 4-periodic in n: 0, 1, 0, -1.
    """
    return GaussianRational(_QINT_AT_I[n % 4])


@lru_cache(maxsize=None)
def gauss_binomial(n: int, r: int) -> GaussianRational:
    """Balanced Gaussian binomial [n choose r] evaluated at q = i.

    Pascal recurrence: [n r] = q^(n-r) [n-1 r-1] + q^-r [n-1 r].  It never
    divides, so it stays exact at the root of unity where the quotient of
    quantum factorials degenerates to 0/0.
    """
    if n < 0 or r < 0 or r > n:
        raise DomainError(f"gauss_binomial requires 0 <= r <= n, got ({n}, {r})")
    if r == 0 or r == n:
        return ONE
    return i_power(n - r) * gauss_binomial(n - 1, r - 1) + i_power(-r) * gauss_binomial(
        n - 1, r
    )
