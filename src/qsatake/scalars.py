"""Exact scalars: Gaussian rationals and quantum integers at q = i.

``GaussianRational`` is the coefficient field Q(i) of all linear algebra
here, built from ints only.  It stores three plain ints ``a``, ``b``, ``d``
for the value ``(a + b*i)/d`` in lowest terms, so arithmetic is integer
arithmetic plus one gcd, and none at all while every denominator is 1 (the
intertwiner systems start integral; a denominator only ever comes from
``inverse``).  The constructor and ``coerce`` take ints; ``+``, ``-``,
``*`` and ``==`` also take an int as the other operand, except ``int - g``.
Quantum integers and Gaussian binomials are evaluated at the fourth root of
unity ``i`` in closed form; no polynomial in a formal ``q`` is built.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import DomainError


class GaussianRational:
    """An element (a + b*i)/d of Q(i).

    The storage is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal
    values have equal ``(a, b, d)`` and zero is ``(0, 0, 1)``.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        """The value re + im*i of two ints; a bool is stored as 0 or 1."""
        if not (isinstance(re, int) and isinstance(im, int)):
            raise TypeError(f"GaussianRational takes ints, got ({re!r}, {im!r})")
        return _make(int(re), int(im), 1)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return _make(int(value), 0, 1)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.a == other and not self.b and self.d == 1
        return NotImplemented

    def __hash__(self):
        """hash(n) for an integer n, so a value hashes like the int it
        equals; hash((a, b, d)) otherwise."""
        if not self.b and self.d == 1:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, int):
                return NotImplemented
            other = _make(int(other), 0, 1)
        d1, d2 = self.d, other.d
        return _make(
            self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, int):
                return NotImplemented
            other = _make(int(other), 0, 1)
        d1, d2 = self.d, other.d
        return _make(
            self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2
        )

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, int):
                return NotImplemented
            other = _make(int(other), 0, 1)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _make(d * a, -d * b, n)

    def __str__(self) -> str:
        """Each part as ``n`` or ``n/m`` in lowest terms, e.g. ``1/2-3/4*i``."""
        a, b, d = self.a, self.b, self.d
        if not b:
            return _part(a, d)
        sign = "+" if b > 0 else "-"
        return f"{_part(a, d)}{sign}{_part(abs(b), d)}*i"

    __repr__ = __str__


def _part(n: int, d: int) -> str:
    """n/d in lowest terms for d > 0, written ``n`` when it is an integer."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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


def gauss_binomial(n: int, r: int) -> GaussianRational:
    """Balanced Gaussian binomial [n choose r] evaluated at q = i, in closed
    form by q-Lucas (q^2 = -1 has order 2): 0 for even n and odd r, otherwise
    (-1)^(r(n-r)/2) * C(n // 2, r // 2), in constant time for any n."""
    if n < 0 or r < 0 or r > n:
        raise DomainError(f"gauss_binomial requires 0 <= r <= n, got ({n}, {r})")
    if n % 2 == 0 and r % 2:
        return ZERO
    c = comb(n // 2, r // 2)
    return GaussianRational(-c if r * (n - r) // 2 % 2 else c)
