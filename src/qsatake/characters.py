"""Signed character calculus for Z-graded Z/2-representations.

A signed character is a pair of Laurent polynomials with nonnegative integer
coefficients: ``plus`` counts copies of the trivial one-dimensional
representation k+ in each weight, ``minus`` counts copies of the sign
representation k-.  The convolution product is the graded tensor product of
Z/2-representations.  Closed-form characters of simples and standards, the
one greedy Jordan-Holder decomposition (of signed and of weight characters),
and the standard character from an orbit-intersection cell table live here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import DomainError, NotACharacterError
from .scalars import LaurentPoly

PLUS = "+"
MINUS = "-"
SIGNS = (PLUS, MINUS)
_OPPOSITE = {PLUS: MINUS, MINUS: PLUS}

_SUP = {PLUS: "⁺", MINUS: "⁻"}


def _check_sign(sign: str) -> str:
    if sign not in _OPPOSITE:
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    return sign


def _check_nonneg(poly: LaurentPoly, part: str) -> LaurentPoly:
    for e, c in poly.terms():
        if not isinstance(c, int) or c < 0:
            raise NotACharacterError(
                f"{part} part has coefficient {c} at weight {e}; "
                "characters need nonnegative integers"
            )
    return poly


class SignedCharacter:
    """A finite-dimensional Z-graded Z/2-representation, up to isomorphism."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus=(), minus=()):
        p = plus if isinstance(plus, LaurentPoly) else LaurentPoly(plus)
        m = minus if isinstance(minus, LaurentPoly) else LaurentPoly(minus)
        object.__setattr__(self, "plus", _check_nonneg(p, "plus"))
        object.__setattr__(self, "minus", _check_nonneg(m, "minus"))

    def __setattr__(self, name, value):
        raise AttributeError("SignedCharacter is immutable")

    @classmethod
    def zero(cls) -> "SignedCharacter":
        return cls((), ())

    def part(self, sign: str) -> LaurentPoly:
        return self.plus if _check_sign(sign) == PLUS else self.minus

    def __bool__(self) -> bool:
        return bool(self.plus) or bool(self.minus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedCharacter):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self):
        return hash((self.plus, self.minus))

    def __add__(self, other: "SignedCharacter") -> "SignedCharacter":
        if not isinstance(other, SignedCharacter):
            return NotImplemented
        return SignedCharacter(self.plus + other.plus, self.minus + other.minus)

    def __mul__(self, other: "SignedCharacter") -> "SignedCharacter":
        return conv(self, other)

    def __str__(self) -> str:
        weights = sorted(
            set(self.plus.exponents()) | set(self.minus.exponents()), reverse=True
        )
        parts = []
        for w in weights:
            for sign, poly in ((PLUS, self.plus), (MINUS, self.minus)):
                c = poly.coeff(w)
                if c == 1:
                    parts.append(f"k{_SUP[sign]}({w})")
                elif c:
                    parts.append(f"{c}·k{_SUP[sign]}({w})")
        return " ⊕ ".join(parts) if parts else "0"

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        """{"plus": {weight: mult}, "minus": {...}}, weights descending."""
        return {
            "plus": {str(e): c for e, c in self.plus.terms()},
            "minus": {str(e): c for e, c in self.minus.terms()},
        }


class WeightCharacter:
    """An ungraded weight-multiplicity character (classical or quantum side)."""

    __slots__ = ("poly",)

    def __init__(self, poly=()):
        p = poly if isinstance(poly, LaurentPoly) else LaurentPoly(poly)
        object.__setattr__(self, "poly", _check_nonneg(p, "weight"))

    def __setattr__(self, name, value):
        raise AttributeError("WeightCharacter is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightCharacter):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __mul__(self, other: "WeightCharacter") -> "WeightCharacter":
        return WeightCharacter(self.poly * other.poly)

    def __str__(self) -> str:
        return str(self.poly)

    __repr__ = __str__


def classical_char(n: int) -> WeightCharacter:
    """Weight character of the (n+1)-dimensional irreducible sl2-module."""
    if n < 0:
        raise DomainError(f"classical_char requires n >= 0, got {n}")
    return WeightCharacter({n - 2 * j: 1 for j in range(n + 1)})


def simple_weight_poly(n: int) -> LaurentPoly:
    """Weight character of the quantum simple(n) at q = i, in closed form.

    Odd n: the full string n, n-2, ..., -n.  Even n: n, n-4, ..., -n.
    Cross-checked against the constructed modules in the test suite.
    """
    if n < 0:
        raise DomainError(f"simple_weight_poly requires n >= 0, got {n}")
    step = 2 if n % 2 == 1 else 4
    return LaurentPoly({w: 1 for w in range(n, -n - 1, -step)})


def conv(a: SignedCharacter, b: SignedCharacter) -> SignedCharacter:
    """Graded tensor product: k- tensor k- is k+, weights add."""
    return SignedCharacter(
        a.plus * b.plus + a.minus * b.minus,
        a.plus * b.minus + a.minus * b.plus,
    )


def sign_twist(c: SignedCharacter) -> SignedCharacter:
    """Tensor with the sign representation: swaps the two parts."""
    return SignedCharacter(c.minus, c.plus)


def _simple_keys(n: int, sign: str) -> list[tuple[int, str]]:
    """The (weight, sign) pairs of simple_char(n, sign), each of multiplicity 1.

    Even n = 2m: k^sign in weights 2m, 2m-4, ..., -2m.  Odd n: one copy in
    every weight n, n-2, ..., -n with the sign alternating from the top.
    """
    if n % 2 == 0:
        return [(w, sign) for w in range(n, -n - 1, -4)]
    other = _OPPOSITE[sign]
    return [(w, other if k % 2 else sign) for k, w in enumerate(range(n, -n - 1, -2))]


def simple_char_sum(multiset: Counter | dict) -> SignedCharacter:
    """Sum of simple characters of a (n, sign) multiset; inverse of jh_decompose."""
    parts: dict = {PLUS: Counter(), MINUS: Counter()}
    for (n, sign), mult in multiset.items():
        _check_sign(sign)
        if n < 0:
            raise DomainError(f"simple_char requires n >= 0, got {n}")
        for w, s in _simple_keys(n, sign):
            parts[s][w] += mult
    return SignedCharacter(parts[PLUS], parts[MINUS])


def simple_char(n: int, sign: str) -> SignedCharacter:
    """Character of the simple object with leading weight n (see _simple_keys)."""
    return simple_char_sum({(n, sign): 1})


def standard_char(n: int, sign: str) -> SignedCharacter:
    """Shared character of the standard and costandard objects at weight n.

    For sign '+': k+ in weight n, k+ and k- in each interior weight
    n-2, ..., -n+2, and k- tensored with itself n times (k- for odd n, k+ for
    even) in weight -n.  Sign '-' is the sign twist.
    """
    _check_sign(sign)
    if n < 0:
        raise DomainError(f"standard_char requires n >= 0, got {n}")
    plus: dict = {n: 1}
    minus: dict = {}
    for w in range(n - 2, -n, -2):
        plus[w] = 1
        minus[w] = 1
    if n >= 1:
        if n % 2 == 1:
            minus[-n] = minus.get(-n, 0) + 1
        else:
            plus[-n] = plus.get(-n, 0) + 1
    result = SignedCharacter(plus, minus)
    return result if sign == PLUS else sign_twist(result)


def _greedy_jh(work: dict, piece, weight) -> Counter:
    """Greedy leading-key elimination, the one Jordan-Holder routine.

    ``work`` maps keys to multiplicities and is consumed.  The largest key
    must have ``weight(key) >= 0`` and a positive multiplicity, and mult is
    subtracted at every key ``piece(key)`` lists: the simple character led
    by key, which is multiplicity-free.  The simple characters are
    triangular in their leading key, so the result is unique.
    """
    out: Counter = Counter()
    while work:
        key = max(work)
        mult = work[key]
        if weight(key) < 0 or mult < 0:
            raise NotACharacterError(f"multiplicity {mult} at {key}: not a character")
        for k in piece(key):
            v = work.get(k, 0) - mult
            if v:
                work[k] = v
            else:
                del work[k]
        out[key] += mult
    return out


def jh_decompose(c: SignedCharacter) -> Counter:
    """Multiplicities of simple characters in c, as a Counter of (n, sign).

    The two signs at one weight do not interact: a simple character's top
    weight lies in one part only.
    """
    work = {(e, s): m for s in SIGNS for e, m in c.part(s).terms()}
    return _greedy_jh(work, lambda key: _simple_keys(*key), itemgetter(0))


def jh_weight_character(wc: WeightCharacter) -> Counter:
    """Multiplicities in wc of the quantum simple characters, by highest weight."""
    work = dict(wc.poly.terms())
    return _greedy_jh(work, lambda n: simple_weight_poly(n).exponents(), lambda n: n)


def psi_double(wc: WeightCharacter) -> SignedCharacter:
    """Weight-doubling transfer of a classical character, landing in the plus part."""
    return SignedCharacter({2 * e: c for e, c in wc.poly.terms()}, ())


AFFINE_SPACE = "affine-space"
COMPLEMENT_PAIR = "complement-pair"
POINT = "point"
EMPTY = "empty"


@dataclass(frozen=True)
class CellDescriptor:
    """One entry of the semi-infinite/spherical orbit intersection table.

    ``sign_action`` records whether the order-two component group acts by
    multiplication by -1 on the cell coordinates (true exactly when there are
    coordinates to act on, i.e. dimension >= 1).
    """

    kind: str
    dimension: int
    sign_action: bool

    def __post_init__(self):
        if self.kind not in (AFFINE_SPACE, COMPLEMENT_PAIR, POINT, EMPTY):
            raise DomainError(f"unknown cell kind {self.kind!r}")
        if self.kind == COMPLEMENT_PAIR and self.dimension < 1:
            raise DomainError("complement-pair cells have dimension >= 1")
        if self.kind in (POINT, EMPTY) and self.dimension != 0:
            raise DomainError(f"{self.kind} cells have dimension 0")


_EMPTY_CELL = CellDescriptor(EMPTY, 0, False)


def intersection_cells(m: int, n: int, side: str) -> CellDescriptor:
    """Intersection of the m-th semi-infinite orbit with the n-th spherical orbit.

    Side "S" (attracting): R^n at m = n, a complement pair R^d - R^(d-1) at
    n + m = 2d for 0 < d < n, a point at m = -n, empty otherwise.  Side "T"
    (repelling) mirrors it: point at m = n, pair at n = m + 2d, R^n at m = -n.
    """
    if n < 0:
        raise DomainError(f"intersection_cells requires n >= 0, got {n}")
    if side not in ("S", "T"):
        raise DomainError(f"side must be 'S' or 'T', got {side!r}")
    if (m + n) % 2 != 0 or m < -n or m > n:
        return _EMPTY_CELL
    if n == 0:
        return CellDescriptor(POINT, 0, False)
    point_at = -n if side == "S" else n
    if m == point_at:
        return CellDescriptor(POINT, 0, False)
    if m == -point_at:
        return CellDescriptor(AFFINE_SPACE, n, True)
    d = (n + m) // 2 if side == "S" else (n - m) // 2
    return CellDescriptor(COMPLEMENT_PAIR, d, True)


def standard_char_from_cells(n: int) -> SignedCharacter:
    """Assemble the standard character from side-S cell contributions.

    An affine space contributes k+ in its weight (one compactly-supported
    class, trivial action after the degree shift); a complement pair
    contributes the regular representation k+ plus k- (the action swaps its
    two components); the point at weight -n contributes k- tensored with
    itself n times.  The result must equal ``standard_char(n, '+')``.
    """
    if n < 0:
        raise DomainError(f"standard_char_from_cells requires n >= 0, got {n}")
    plus: dict = {}
    minus: dict = {}
    for m in range(-n, n + 1, 2):
        cell = intersection_cells(m, n, "S")
        if cell.kind == AFFINE_SPACE:
            plus[m] = plus.get(m, 0) + 1
        elif cell.kind == COMPLEMENT_PAIR:
            plus[m] = plus.get(m, 0) + 1
            minus[m] = minus.get(m, 0) + 1
        elif cell.kind == POINT:
            if n % 2 == 1:
                minus[m] = minus.get(m, 0) + 1
            else:
                plus[m] = plus.get(m, 0) + 1
    return SignedCharacter(plus, minus)
