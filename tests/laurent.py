"""Integer Laurent polynomials in q: the generic-q reference model of the tests.

The package evaluates quantum integers and Gaussian binomials at q = i
directly.  The tests check those values, and the divided-power formulas the
modules are built from, against the same objects over Z[q, q^-1].
"""

from __future__ import annotations

from functools import lru_cache

from qsatake.errors import DomainError
from qsatake.scalars import GaussianRational


class LaurentPoly:
    """A Laurent polynomial stored as {exponent: nonzero coefficient}."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        self._coeffs = {e: c for e, c in dict(coeffs).items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int) -> "LaurentPoly":
        return cls({exponent: 1})

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

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by q**k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

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
