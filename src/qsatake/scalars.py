"""Exact scalars: Gaussian rationals and quantum integers at q = i.

``GaussianRational`` is the coefficient field Q(i) of all linear algebra
here.  It stores three plain ints ``a``, ``b``, ``d`` for the value
``(a + b*i)/d`` in lowest terms, so arithmetic is integer arithmetic plus one
gcd, and none at all while every denominator is 1 (the intertwiner systems
start integral).  ``fractions.Fraction`` appears only at its edges: it is
accepted as input and returned by the ``re``/``im`` parts of a non-integral
value.  So ``fractions`` is imported there, on first use, and not with the
package: in the constructor for a value whose type is not exactly ``int``,
and in ``re``/``im`` when ``d != 1``, which ``str`` of a non-integral value
goes through; ``hash`` computes what ``Fraction.__hash__`` would from the
ints.  Operands of mixed arithmetic are checked against ``numbers.Rational``,
which ``int``, ``bool`` and ``Fraction`` all are.  Quantum integers and
Gaussian binomials are evaluated at the fourth root of unity ``i`` directly;
no polynomial in a formal ``q`` is built.
"""

from __future__ import annotations

import sys
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
        """hash(re) for a real value, else hash((re, im)), as for the ``int``
        or ``Fraction`` parts."""
        if not self.b:
            return _rational_hash(self.a, self.d)
        return hash((_rational_hash(self.a, self.d), _rational_hash(self.b, self.d)))

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


_MODULUS = sys.hash_info.modulus
_INF = sys.hash_info.inf


def _rational_hash(numerator: int, denominator: int) -> int:
    """hash(Fraction(numerator, denominator)) for denominator > 0, computed
    as ``Fraction.__hash__`` does: |n| / d modulo the hash prime, signed."""
    if denominator == 1:
        return hash(numerator)
    g = gcd(numerator, denominator)
    n, d = numerator // g, denominator // g
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _MODULUS))
    except ValueError:  # d is a multiple of the prime
        h = _INF
    if n < 0:
        h = -h
    return -2 if h == -1 else h


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


def axpy(out: dict, f: GaussianRational, vec, skip=None) -> None:
    """out[k] += f * vec[k] in place for every key k != skip of the sparse
    vector ``vec`` ({key: nonzero value}); entries that cancel are dropped.

    This is the one update loop of sparse linear algebra here: matrix
    products, row elimination and the spin replay all accumulate through it.
    It works on the stored ints and makes at most one value per entry
    written, with no gcd while both denominators are 1, so the stored values
    stay canonical and nonzero.  For f = 1 a new entry is vec's own value.
    """
    fa, fb, fd = f.a, f.b, f.d
    if not (fa or fb):
        return
    unit = fa == 1 and not fb and fd == 1
    get = out.get
    for k, v in vec.items():
        if k == skip:
            continue
        cur = get(k)
        if cur is None and unit:
            out[k] = v
            continue
        va, vb = v.a, v.b
        a = fa * va - fb * vb
        b = fa * vb + fb * va
        d = fd * v.d
        if cur is not None:
            cd = cur.d
            if d == 1 and cd == 1:
                a += cur.a
                b += cur.b
            else:
                a = a * cd + cur.a * d
                b = b * cd + cur.b * d
                d *= cd
            if not (a or b):
                del out[k]
                continue
        if d == 1:
            new = _new(GaussianRational)
            _set_a(new, a)
            _set_b(new, b)
            _set_d(new, 1)
            out[k] = new
        else:
            out[k] = _make(a, b, d)


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


# weyl(n) asks for [k, 1] and [k, 2] with k <= n, and the recurrence for
# [k, r] with r <= 2: 145 keys for n <= 49 (the homdim cap 48).
@lru_cache(maxsize=256)
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
