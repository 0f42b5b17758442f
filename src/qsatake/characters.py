"""Signed character calculus for Z-graded Z/2-representations.

A signed character is a multiset of keys ``(weight, sign)``: the key
``(w, "+")`` counts copies of the trivial one-dimensional representation k+
in weight w, ``(w, "-")`` copies of the sign representation k-.  A weight
character is a multiset of weights.  The convolution product is the graded
tensor product of Z/2-representations.  Closed-form characters of simples
and standards, the one Jordan-Holder decomposition (of signed and of weight
characters, by the inverse of the unitriangular matrix of simple
characters), and the standard character from an orbit-intersection cell
table live here.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd
from operator import itemgetter

from .errors import DomainError, NotACharacterError
from .record import Record

PLUS = "+"
MINUS = "-"
SIGNS = (PLUS, MINUS)
_OPPOSITE = {PLUS: MINUS, MINUS: PLUS}

SUPERSCRIPT = {PLUS: "⁺", MINUS: "⁻"}


def display_order(keys) -> list:
    """(n, sign) keys sorted for display: n descending, "+" before "-"."""
    return sorted(keys, key=lambda k: (-k[0], k[1]))


def _check_sign(sign: str) -> None:
    if sign not in _OPPOSITE:
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")


def _checked(mults, what: str) -> dict:
    """{key: mult} with the zero entries of ``mults`` (key, mult) dropped.

    Raises NotACharacterError on a multiplicity that is not a nonnegative int.
    """
    out = {}
    for key, c in mults:
        if not c:
            continue
        if not isinstance(c, int) or c < 0:
            raise NotACharacterError(
                f"{what} has multiplicity {c} at {key}; "
                "characters need nonnegative integers"
            )
        out[key] = c
    return out


class SignedCharacter:
    """A finite-dimensional Z-graded Z/2-representation, up to isomorphism.

    ``mults`` maps ``(weight, sign)`` to a positive int and is not modified.
    """

    __slots__ = ("mults",)

    def __init__(self, plus=(), minus=()):
        """The character with ``plus[w]`` copies of k+ and ``minus[w]`` of k-
        in weight w; each part is a mapping or (weight, mult) pairs."""
        mults = [((w, PLUS), c) for w, c in dict(plus).items()]
        mults += [((w, MINUS), c) for w, c in dict(minus).items()]
        object.__setattr__(self, "mults", _checked(mults, "signed character"))

    def __setattr__(self, name, value):
        raise AttributeError("SignedCharacter is immutable")

    @classmethod
    def zero(cls) -> "SignedCharacter":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.mults)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedCharacter):
            return NotImplemented
        return self.mults == other.mults

    def __hash__(self):
        return hash(frozenset(self.mults.items()))

    def __add__(self, other: "SignedCharacter") -> "SignedCharacter":
        if not isinstance(other, SignedCharacter):
            return NotImplemented
        out = dict(self.mults)
        for k, c in other.mults.items():
            out[k] = out.get(k, 0) + c
        return _signed(out)

    def __mul__(self, other: "SignedCharacter") -> "SignedCharacter":
        return conv(self, other)

    def __str__(self) -> str:
        parts = []
        for w, sign in display_order(self.mults):
            c = self.mults[(w, sign)]
            head = f"k{SUPERSCRIPT[sign]}({w})"
            parts.append(head if c == 1 else f"{c}·{head}")
        return " ⊕ ".join(parts) if parts else "0"

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        """{"plus": {weight: mult}, "minus": {...}}, weights descending."""
        out: dict = {"plus": {}, "minus": {}}
        for w, sign in display_order(self.mults):
            out["plus" if sign == PLUS else "minus"][str(w)] = self.mults[(w, sign)]
        return out


def _signed(mults: dict) -> SignedCharacter:
    """Adopt ``mults``, already a character's multiset, without re-checking it."""
    c = object.__new__(SignedCharacter)
    object.__setattr__(c, "mults", mults)
    return c


class WeightCharacter:
    """An ungraded weight-multiplicity character (classical or quantum side).

    ``mults`` maps each weight to a positive int and is not modified.
    """

    __slots__ = ("mults",)

    def __init__(self, mults=()):
        """The character with ``mults[w]`` copies of weight w; a mapping or
        (weight, mult) pairs."""
        checked = _checked(dict(mults).items(), "weight character")
        object.__setattr__(self, "mults", checked)

    def __setattr__(self, name, value):
        raise AttributeError("WeightCharacter is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightCharacter):
            return NotImplemented
        return self.mults == other.mults

    def __hash__(self):
        return hash(frozenset(self.mults.items()))

    def __mul__(self, other: "WeightCharacter") -> "WeightCharacter":
        """Weights add: the character of the tensor product."""
        c = object.__new__(WeightCharacter)
        object.__setattr__(c, "mults", _packed_product(self.mults, other.mults))
        return c

    def __str__(self) -> str:
        """The weight multiset as a polynomial in v, highest power first."""
        parts = []
        for w, c in sorted(self.mults.items(), reverse=True):
            mono = "v" if w == 1 else f"v^{w}"
            parts.append(str(c) if w == 0 else mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def classical_char(n: int) -> WeightCharacter:
    """Weight character of the (n+1)-dimensional irreducible sl2-module."""
    if n < 0:
        raise DomainError(f"classical_char requires n >= 0, got {n}")
    return WeightCharacter({n - 2 * j: 1 for j in range(n + 1)})


def _chain_step(n: int) -> tuple[int, bool]:
    """One step down the chain of keys of a simple character led at weight n.

    The weight drops by 2 with the sign alternating for odd n, and by 4 with
    the sign kept for even n.  Every key of the chain has the parity of n.
    """
    return (2, True) if n % 2 else (4, False)


def simple_weights(n: int) -> range:
    """Weights of the quantum simple(n) at q = i, each of multiplicity 1.

    Odd n: the full string n, n-2, ..., -n.  Even n: n, n-4, ..., -n.
    Cross-checked against the constructed modules in the test suite.
    """
    if n < 0:
        raise DomainError(f"simple_weights requires n >= 0, got {n}")
    return range(n, -n - 1, -_chain_step(n)[0])


def _slot_bytes(a: dict, b: dict) -> int:
    """Bytes per slot that hold every coefficient of the product of a and b.

    A coefficient of the product sums at most min(len a, len b) terms, each
    at most max(a) * max(b).
    """
    bound = min(len(a), len(b)) * max(a.values()) * max(b.values())
    return (bound.bit_length() + 7) // 8


def _pack(poly: dict, low: int, step: int, width: int) -> int:
    """``poly`` as one int, ``width`` bytes per slot, exponent low + step*i
    in slot i."""
    buf = bytearray(((max(poly) - low) // step + 1) * width)
    if width == 1:
        for e, c in poly.items():
            buf[(e - low) // step] = c
    else:
        for e, c in poly.items():
            i = (e - low) // step * width
            buf[i : i + width] = c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _packed_product(a: dict, b: dict) -> dict:
    """Product of two polynomials {int exponent: nonnegative int coefficient}.

    Kronecker substitution: the exponents of a lie in min(a) + step*N and
    those of b in min(b) + step*N, for ``step`` the gcd of all their offsets.
    Each operand becomes one int with a slot of ``_slot_bytes`` per step, so
    one C-level int product gives every coefficient, and no carry crosses a
    slot.  The result lists the nonzero coefficients by ascending exponent.
    """
    if not a or not b:
        return {}
    low_a, low_b = min(a), min(b)
    step = gcd(*(e - low_a for e in a), *(e - low_b for e in b)) or 1
    width = _slot_bytes(a, b)
    slots = (max(a) - low_a + max(b) - low_b) // step + 1
    raw = (_pack(a, low_a, step, width) * _pack(b, low_b, step, width)).to_bytes(
        slots * width, "little"
    )
    if width > 1:
        raw = [
            int.from_bytes(raw[i : i + width], "little")
            for i in range(0, len(raw), width)
        ]
    low = low_a + low_b
    return {low + step * i: c for i, c in enumerate(raw) if c}


# The key (w, sign) is the exponent 3w + digit: a product of two keys lands at
# 3(w1 + w2) + d1 + d2 with d1 + d2 in {0, 1, 2}, of which 0 and 2 are k+.
_DIGIT = {PLUS: 0, MINUS: 1}
_DIGIT_SIGN = (PLUS, MINUS, PLUS)


def conv(a: SignedCharacter, b: SignedCharacter) -> SignedCharacter:
    """Graded tensor product: k- tensor k- is k+, weights add.

    One packed product over the exponents 3w + digit (see ``_DIGIT``).
    """
    product = _packed_product(
        {3 * w + _DIGIT[s]: c for (w, s), c in a.mults.items()},
        {3 * w + _DIGIT[s]: c for (w, s), c in b.mults.items()},
    )
    out: dict = {}
    for e, c in product.items():
        w, digit = divmod(e, 3)
        key = (w, _DIGIT_SIGN[digit])
        out[key] = out.get(key, 0) + c
    return _signed(out)


def sign_twist(c: SignedCharacter) -> SignedCharacter:
    """Tensor with the sign representation: swaps k+ and k-."""
    return _signed({(w, _OPPOSITE[s]): m for (w, s), m in c.mults.items()})


def _simple_keys(n: int, sign: str) -> list[tuple[int, str]]:
    """The (weight, sign) pairs of simple_char(n, sign), each of multiplicity 1.

    Even n = 2m: k^sign in weights 2m, 2m-4, ..., -2m.  Odd n: one copy in
    every weight n, n-2, ..., -n with the sign alternating from the top.
    """
    flips = _chain_step(n)[1]
    other = _OPPOSITE[sign]
    return [
        (w, other if flips and k % 2 else sign)
        for k, w in enumerate(simple_weights(n))
    ]


def simple_char_sum(multiset: Counter | dict) -> SignedCharacter:
    """Sum of simple characters of a (n, sign) multiset; inverse of jh_decompose."""
    mults: dict = {}
    for (n, sign), mult in multiset.items():
        _check_sign(sign)
        if n < 0:
            raise DomainError(f"simple_char requires n >= 0, got {n}")
        for key in _simple_keys(n, sign):
            mults[key] = mults.get(key, 0) + mult
    return _signed(_checked(mults.items(), "sum of simple characters"))


# Keyed by (n, sign); the character suites at --max 48 reach 147 keys.
@lru_cache(maxsize=256)
def simple_char(n: int, sign: str) -> SignedCharacter:
    """Character of the simple object with leading weight n (see _simple_keys).

    Cached by value: a ``SignedCharacter`` is immutable and its ``mults`` is
    never written, so callers can share one.
    """
    return simple_char_sum({(n, sign): 1})


def standard_char(n: int, sign: str) -> SignedCharacter:
    """Shared character of the standard and costandard objects at weight n.

    For sign '+': k+ in weight n, k+ and k- in each interior weight
    n-2, ..., -n+2, and k- tensored with itself n times (k- for odd n, k+ for
    even) in weight -n.  Sign '-' swaps k+ and k- throughout.
    """
    _check_sign(sign)
    if n < 0:
        raise DomainError(f"standard_char requires n >= 0, got {n}")
    other = _OPPOSITE[sign]
    mults = {(n, sign): 1}
    for w in range(n - 2, -n, -2):
        mults[(w, sign)] = 1
        mults[(w, other)] = 1
    if n >= 1:
        mults[(-n, other if n % 2 == 1 else sign)] = 1
    return _signed(mults)


def _triangular_jh(mults: dict, weight, chain) -> Counter:
    """The one Jordan-Holder routine: invert the unitriangular matrix of
    simple characters.

    ``chain(key)`` is (above, below, bottom) of a key on its chain of simple
    keys (see ``_chain_step``).  The simple character led by K is
    multiplicity-free on K, below(K), ..., bottom(K), and bottom(K) has
    weight -weight(K).  So the multiplicity of the simple led by a key K of
    weight >= 0 is mults[K] - mults[above(K)], and a key of negative weight
    must have mults[bottom(K)].  Only the keys of ``mults`` and the below and
    bottom of each of weight >= 0 can break either rule.  They are scanned
    from the largest down, and the first negative multiplicity, or nonzero
    residual at negative weight, raises: the key and residual at which
    leading-key elimination would stop first.
    """
    links = dict.fromkeys(mults)
    for key in mults:
        if weight(key) >= 0:
            _, below, bottom = links[key] = chain(key)
            links.setdefault(below)
            links.setdefault(bottom)
    get = mults.get
    out: Counter = Counter()
    for key in sorted(links, reverse=True):
        above, _, bottom = links[key] or chain(key)
        if weight(key) >= 0:
            mult = get(key, 0) - get(above, 0)
            if mult > 0:
                out[key] = mult
                continue
        else:
            mult = get(key, 0) - get(bottom, 0)
        if mult:
            raise NotACharacterError(f"multiplicity {mult} at {key}: not a character")
    return out


def _signed_chain(key: tuple[int, str]) -> tuple:
    """(above, below, bottom) of a (weight, sign) key; all three have the sign
    one step turns, as bottom is an odd number of steps away for odd weights."""
    w, sign = key
    step, flips = _chain_step(w)
    turned = _OPPOSITE[sign] if flips else sign
    return (w + step, turned), (w - step, turned), (-w, turned)


def _weight_chain(w: int) -> tuple[int, int, int]:
    step = _chain_step(w)[0]
    return w + step, w - step, -w


def jh_decompose(c: SignedCharacter) -> Counter:
    """Multiplicities of simple characters in c, as a Counter of (n, sign).

    The two signs at one weight do not interact: a simple character's top
    weight lies in one part only.
    """
    return _triangular_jh(c.mults, itemgetter(0), _signed_chain)


def jh_weight_character(wc: WeightCharacter) -> Counter:
    """Multiplicities in wc of the quantum simple characters, by highest weight."""
    return _triangular_jh(wc.mults, lambda w: w, _weight_chain)


def psi_double(wc: WeightCharacter) -> SignedCharacter:
    """Weight-doubling transfer of a classical character, landing in k+."""
    return _signed({(2 * w, PLUS): c for w, c in wc.mults.items()})


AFFINE_SPACE = "affine-space"
COMPLEMENT_PAIR = "complement-pair"
POINT = "point"
EMPTY = "empty"


class CellDescriptor(Record):
    """One entry of the semi-infinite/spherical orbit intersection table.

    ``kind`` is one of the four cell kinds and ``dimension`` an int.
    ``sign_action`` records whether the order-two component group acts by
    multiplication by -1 on the cell coordinates (true exactly when there are
    coordinates to act on, i.e. dimension >= 1).
    """

    __slots__ = ("kind", "dimension", "sign_action")

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
