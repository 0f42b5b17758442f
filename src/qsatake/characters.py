"""Signed character calculus for Z-graded Z/2-representations.

A signed character is a multiset of keys ``(weight, sign)``: the key
``(w, "+")`` counts copies of the trivial one-dimensional representation k+
in weight w, ``(w, "-")`` copies of the sign representation k-.  A weight
character is a multiset of weights.  The convolution product is the graded
tensor product of Z/2-representations, one packed int product of the two
characters as polynomials (``_packed_product``).  Closed-form characters of
simples and standards, the one Jordan-Holder decomposition, and the standard
character from an orbit-intersection cell table live here.

The decomposition inverts the unitriangular matrix of simple characters on
a coefficient strip: the lowest exponent, a step and the dense coefficients
of a character as a polynomial, the exponent being 3w + digit for a signed
key and w for a weight.  A product's strip is what ``_packed_product``
returns, so ``product_jh`` decomposes a product without building it; a
character's strip is filled from its keys.  The strip is sliced into one
plane per weight parity and sign, on which the chains of the simple
characters are fixed strides and the mirror rule is a reversal (see
``_triangular_jh``).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress, count, repeat
from math import gcd
from operator import add, sub

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
    ``_packing`` is filled by the first product that reads it (see ``_packing``).
    """

    __slots__ = ("mults", "_packing")

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
    ``_packing`` is filled by the first product that reads it (see ``_packing``).
    """

    __slots__ = ("mults", "_packing")

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
        low, step, coeffs = _packed_product(self, other)
        c = object.__new__(WeightCharacter)
        object.__setattr__(
            c, "mults", {e: m for e, m in zip(count(low, step), coeffs) if m}
        )
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


# The chain of keys of a simple character led at weight n, by the parity of n:
# (step, turn).  Each step down the chain drops the weight by ``step`` and
# maps the sign by ``turn``: by 2 with the sign alternating for odd n, by 4
# with the sign kept for even n.  Every key of the chain has the parity of n.
_CHAINS = ((4, {PLUS: PLUS, MINUS: MINUS}), (2, _OPPOSITE))


def simple_weights(n: int) -> range:
    """Weights of the quantum simple(n) at q = i, each of multiplicity 1.

    Odd n: the full string n, n-2, ..., -n.  Even n: n, n-4, ..., -n.
    Cross-checked against the constructed modules in the test suite.
    """
    if n < 0:
        raise DomainError(f"simple_weights requires n >= 0, got {n}")
    return range(n, -n - 1, -_CHAINS[n & 1][0])


class _Packing:
    """A nonzero character as the polynomial {exponent: coefficient} that the
    packed product multiplies, with what every product reads of it.

    ``low`` and ``top`` are the lowest and top exponent, ``step`` the gcd of
    the offsets from ``low`` (0 for a single key) and ``peak`` the largest
    coefficient.  ``packed`` is the polynomial as one int for the (step,
    slot width) in ``layout``, the last one a product asked for.
    """

    __slots__ = ("poly", "low", "top", "step", "peak", "layout", "packed")

    def __init__(self, poly: dict):
        self.poly = poly
        self.low = low = min(poly)
        self.top = max(poly)
        self.step = gcd(*(e - low for e in poly))
        self.peak = max(poly.values())
        self.layout = None
        self.packed = 0

    def packed_as(self, step: int, width: int) -> int:
        """The polynomial as one int, ``width`` bytes per slot, exponent
        low + step*i in slot i."""
        if self.layout != (step, width):
            low = self.low
            buf = bytearray(((self.top - low) // step + 1) * width)
            if width == 1:
                for e, c in self.poly.items():
                    buf[(e - low) // step] = c
            else:
                for e, c in self.poly.items():
                    i = (e - low) // step * width
                    buf[i : i + width] = c.to_bytes(width, "little")
            self.layout = (step, width)
            self.packed = int.from_bytes(buf, "little")
        return self.packed


# The key (w, sign) is the exponent 3w + digit: a product of two keys lands at
# 3(w1 + w2) + d1 + d2 with d1 + d2 in {0, 1, 2}, of which 0 and 2 are k+.
_DIGIT = {PLUS: 0, MINUS: 1}
_DIGIT_SIGN = (PLUS, MINUS, PLUS)


def _packing(c) -> _Packing:
    """The packing of a nonzero signed or weight character, made by its first
    product and kept in its ``_packing`` slot: the character is immutable, so
    its packing never goes stale."""
    try:
        return c._packing
    except AttributeError:
        pass
    poly = c.mults
    if isinstance(c, SignedCharacter):
        poly = {3 * w + _DIGIT[s]: m for (w, s), m in poly.items()}
    packing = _Packing(poly)
    object.__setattr__(c, "_packing", packing)
    return packing


def _slot_bytes(a: _Packing, b: _Packing) -> int:
    """Bytes per slot that hold every coefficient of the product of a and b.

    A coefficient of the product sums at most min(len a, len b) terms, each
    at most peak(a) * peak(b).
    """
    bound = min(len(a.poly), len(b.poly)) * a.peak * b.peak
    return (bound.bit_length() + 7) // 8


def _packed_product(a, b) -> tuple:
    """The product of two characters of one kind as polynomials: (low, step,
    coeffs), the coefficient of the exponent low + step*i being coeffs[i].

    Kronecker substitution: the exponents of a lie in low(a) + step*N and
    those of b in low(b) + step*N, for ``step`` the gcd of their steps.  Each
    operand is one int with a slot of ``_slot_bytes`` per step, packed once
    per layout on its ``_packing``, so one C-level int product gives every
    coefficient, and no carry crosses a slot.  A zero operand gives none.
    """
    if not a.mults or not b.mults:
        return 0, 1, ()
    pa, pb = _packing(a), _packing(b)
    step = gcd(pa.step, pb.step) or 1
    width = _slot_bytes(pa, pb)
    slots = (pa.top - pa.low + pb.top - pb.low) // step + 1
    coeffs = (pa.packed_as(step, width) * pb.packed_as(step, width)).to_bytes(
        slots * width, "little"
    )
    if width > 1:
        coeffs = [
            int.from_bytes(coeffs[i : i + width], "little")
            for i in range(0, len(coeffs), width)
        ]
    return pa.low + pb.low, step, coeffs


def conv(a: SignedCharacter, b: SignedCharacter) -> SignedCharacter:
    """Graded tensor product: k- tensor k- is k+, weights add.

    One packed product over the exponents 3w + digit (see ``_DIGIT``).  When
    its step is a multiple of 3, every exponent has the digit of the lowest,
    so the keys all have one sign and no two exponents share a key.
    """
    low, step, coeffs = _packed_product(a, b)
    if step % 3 == 0:
        w, digit = divmod(low, 3)
        sign = _DIGIT_SIGN[digit]
        weights = count(w, step // 3)
        return _signed({(v, sign): c for v, c in zip(weights, coeffs) if c})
    out: dict = {}
    for e, c in zip(count(low, step), coeffs):
        if c:
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
    turn = _CHAINS[n & 1][1]
    return [(w, turn[sign] if k % 2 else sign) for k, w in enumerate(simple_weights(n))]


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


def _triangular_jh(low: int, step: int, coeffs, signed: bool) -> Counter:
    """The one Jordan-Holder routine: invert the unitriangular matrix of
    simple characters on a coefficient strip.

    The strip is a polynomial: ``coeffs[i]`` (a list or bytes) is the
    coefficient of the exponent low + step*i, which is 3w + digit for the key
    (w, sign) of a signed character (see ``_DIGIT``; digit 2, which a product
    of two k- leaves, is k+ too) and w for a weight character.

    An exponent mod 6 (signed) or mod 2 gives the parity of its weight and
    its sign, so slices of the strip fill four planes (two for weight
    characters): the multiplicities of one sign at the weights of one
    parity, padded to -top, ..., top by 2, so that each is symmetric about
    weight 0.  The simple character led by a key is multiplicity-free on its
    chain (see ``_CHAINS``) down to its mirror at the negated weight: by 4
    in its own plane at even weight, by 2 at odd weight, where a signed
    chain alternates between the two signs' planes.  So a character is a
    sum of simples exactly when each plane equals the reverse of its mirror
    plane (itself, or at odd weight the other sign's), and no simple led at
    weight w >= 0 has a negative multiplicity: the plane's entry at w minus
    that of the link above, at w + 4 in the plane itself at even weight, at
    w + 2 in the mirror plane at odd weight.  The chains do not interact.

    Leading-key elimination meets the keys from the largest down, so it
    breaks at the largest link of weight >= 0 whose multiplicity is
    negative, or, when there is none, at the largest link below 0 whose
    residual, its multiplicity minus its mirror's, is nonzero; that link and
    residual raise.  A strip is dense over its weights: the routine takes
    time and memory in the span of the weights, not in the number of keys.
    """
    modulus = 6 if signed else 2
    period = modulus // gcd(step, modulus)
    # The exponents of one slice lie ``spacing`` apart in weight, an even
    # number, and every weight of the strip lies within ``bound`` of 0.
    spacing = step * period
    high = low + step * (len(coeffs) - 1)
    if signed:
        spacing //= 3
        bound = max(-(low // 3), high // 3)
    else:
        bound = max(-low, high)
    planes: dict = {}  # (parity, sign): multiplicities at weights -top..top by 2
    for i in range(min(period, len(coeffs))):
        part = coeffs[i::period]
        if not any(part):
            continue
        w, sign = low + step * i, None
        if signed:
            w, digit = divmod(w, 3)
            sign = _DIGIT_SIGN[digit]
        top = bound + (bound - w) % 2
        at = (w + top) // 2
        where = slice(at, at + spacing // 2 * len(part), spacing // 2)
        plane = planes.get((w & 1, sign))
        if plane is None:
            plane = planes[w & 1, sign] = [0] * (top + 1)
            plane[where] = part
            if w & 1 and sign:
                planes.setdefault((1, _OPPOSITE[sign]), [0] * (top + 1))
        else:  # a digit-2 slice, or the odd plane its partner made
            plane[where] = map(add, plane[where], part)
    items = []
    upper_breaks = {}  # link: negative multiplicity, at weight >= 0
    lower_breaks = {}  # link: nonzero residual, below 0
    for (parity, sign), plane in planes.items():
        other = planes[1, _OPPOSITE[sign]] if parity and sign else plane
        half = len(plane) // 2  # plane[half] is at weight ``parity``
        mults = list(map(sub, plane[half:], other[half + 2 - parity :] + [0, 0]))
        weights = range(parity, len(plane), 2)
        if min(mults) < 0:
            for w, m in zip(weights, mults):
                if m < 0:
                    upper_breaks[w if sign is None else (w, sign)] = m
        elif not upper_breaks and plane != other[::-1]:
            for j in range(half):
                if plane[j] != other[-1 - j]:
                    w = 2 * j + 1 - len(plane)
                    residual = plane[j] - other[-1 - j]
                    lower_breaks[w if sign is None else (w, sign)] = residual
        keys = compress(weights, mults)
        if sign is not None:
            keys = zip(keys, repeat(sign))
        items += zip(keys, filter(None, mults))
    broken = upper_breaks or lower_breaks
    if broken:
        key = max(broken)
        raise NotACharacterError(f"multiplicity {broken[key]} at {key}: not a character")
    items.sort(reverse=True)
    out: Counter = Counter()
    dict.update(out, items)
    return out


def jh_decompose(c: SignedCharacter) -> Counter:
    """Multiplicities of simple characters in c, as a Counter of (n, sign).

    The two signs at one weight do not interact: a simple character's top
    weight lies in one part only.  The strip is filled in one pass; the
    smallest and largest key have the lowest and top exponent.
    """
    mults = c.mults
    if not mults:
        return Counter()
    (w, s), (top, t) = min(mults), max(mults)
    low = 3 * w + _DIGIT[s]
    coeffs = [0] * (3 * top + _DIGIT[t] - low + 1)
    for (w, s), m in mults.items():
        coeffs[3 * w + _DIGIT[s] - low] = m
    return _triangular_jh(low, 1, coeffs, True)


def jh_weight_character(wc: WeightCharacter) -> Counter:
    """Multiplicities in wc of the quantum simple characters, by highest weight."""
    mults = wc.mults
    if not mults:
        return Counter()
    low = min(mults)
    coeffs = [0] * (max(mults) - low + 1)
    for w, m in mults.items():
        coeffs[w - low] = m
    return _triangular_jh(low, 1, coeffs, False)


def product_jh(a, b) -> Counter:
    """Jordan-Holder content of the product of two characters of one kind:
    ``conv(a, b)`` for signed characters, ``a * b`` for weight characters.

    The coefficients of ``_packed_product`` go straight to the routine, so
    the product is never built as a character.
    """
    return _triangular_jh(*_packed_product(a, b), isinstance(a, SignedCharacter))


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
