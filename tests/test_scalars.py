from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from laurent import LaurentPoly, gauss_binomial_poly, qint_poly
from qsatake.errors import DomainError
from qsatake.scalars import (
    GaussianRational,
    _make,
    I,
    ONE,
    ZERO,
    axpy,
    gauss_binomial,
    i_power,
    qint,
)


def eval_dict_at_i(coeffs: dict[int, int]) -> tuple[int, int]:
    """Independent evaluation of an integer Laurent dict at q = i as (re, im)."""
    re = im = 0
    for e, c in coeffs.items():
        k = e % 4
        if k == 0:
            re += c
        elif k == 1:
            im += c
        elif k == 2:
            re -= c
        else:
            im -= c
    return re, im


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


class TestGaussianRational:
    def test_i_squares_to_minus_one(self):
        assert I * I == GaussianRational(-1)

    def test_str_literals(self):
        cases = [
            (ZERO, "0"),
            (ONE, "1"),
            (I, "0+1*i"),
            (GaussianRational(0, -1), "0-1*i"),
            (GaussianRational(Fraction(-5, 3)), "-5/3"),
            (GaussianRational(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
            (GaussianRational(-2, Fraction(7, 6)), "-2+7/6*i"),
        ]
        for g, text in cases:
            assert str(g) == text

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(gaussians)
    def test_field_inverse(self, a):
        if a:
            assert a * a.inverse() == ONE
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()

    def test_powers(self):
        inv = I.inverse()
        assert inv == GaussianRational(0, -1)
        for k in range(-8, 9):
            expected = ONE
            for _ in range(abs(k)):
                expected = expected * (I if k > 0 else inv)
            assert i_power(k) == expected


# Reference model: the value (re, im) as a pair of Fractions, with the field
# operations written out over Q.  GaussianRational must agree with it on every
# operation, and its (a, b, d) storage must be the canonical one.


def model_of(g: GaussianRational) -> tuple[Fraction, Fraction]:
    return Fraction(g.a, g.d), Fraction(g.b, g.d)


def model_inverse(x):
    re, im = x
    n = re * re + im * im
    return re / n, -im / n


def model_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def model_str(x) -> str:
    re, im = x
    if not im:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def model_hash(x) -> int:
    re, im = x
    return hash(re) if not im else hash((re, im))


def assert_canonical(g: GaussianRational) -> None:
    assert all(type(v) is int for v in (g.a, g.b, g.d))
    assert g.d > 0
    assert math.gcd(g.a, g.b, g.d) == 1


def assert_matches(g: GaussianRational, x) -> None:
    assert_canonical(g)
    assert model_of(g) == x
    assert g.re == x[0] and g.im == x[1]
    assert type(g.re) is (int if g.d == 1 else Fraction)
    assert type(g.im) is (int if g.d == 1 else Fraction)


wide_fractions = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.fractions(max_denominator=10**6),
)
wide_gaussians = st.tuples(wide_fractions, wide_fractions)


class TestAgainstFractionPairModel:
    @given(wide_gaussians, wide_gaussians)
    def test_binary_operations(self, x, y):
        x = (Fraction(x[0]), Fraction(x[1]))
        y = (Fraction(y[0]), Fraction(y[1]))
        g, h = GaussianRational(*x), GaussianRational(*y)
        assert_matches(g, x)
        assert_matches(h, y)
        assert_matches(g + h, (x[0] + y[0], x[1] + y[1]))
        assert_matches(g - h, (x[0] - y[0], x[1] - y[1]))
        assert_matches(-g, (-x[0], -x[1]))
        assert_matches(g * h, model_mul(x, y))
        assert (g == h) == (x == y)
        assert bool(g) == any(x)
        assert str(g) == model_str(x)
        assert hash(g) == model_hash(x)
        if any(y):
            assert_matches(h.inverse(), model_inverse(y))
            assert_matches(g / h, model_mul(x, model_inverse(y)))
        else:
            with pytest.raises(ZeroDivisionError):
                h.inverse()
            with pytest.raises(ZeroDivisionError):
                g / h

    @given(wide_gaussians, st.one_of(wide_fractions, st.booleans()))
    def test_mixed_with_rationals(self, x, q):
        x = (Fraction(x[0]), Fraction(x[1]))
        g = GaussianRational(*x)
        assert_matches(g + q, (x[0] + q, x[1]))
        assert_matches(q + g, (x[0] + q, x[1]))
        assert_matches(g - q, (x[0] - q, x[1]))
        assert_matches(q - g, (q - x[0], -x[1]))
        assert_matches(g * q, (x[0] * q, x[1] * q))
        assert_matches(q * g, (x[0] * q, x[1] * q))
        assert (g == q) == (x == (q, 0))
        if q:
            assert_matches(g / q, (x[0] / q, x[1] / q))
        if any(x):
            assert_matches(q / g, model_mul((Fraction(q), Fraction(0)), model_inverse(x)))

    def test_hash_at_denominators_divisible_by_the_hash_prime(self):
        # Fraction hashes such a value as +-inf; a part that is not in lowest
        # terms as a Fraction, here 1/2 stored as p/(2p), must not be.
        p = sys.hash_info.modulus
        for x in [
            (Fraction(1, p), Fraction(0)),
            (Fraction(-3, p), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2 * p)),
            (Fraction(-p, 2 * p + 2), Fraction(1, p + 1)),
        ]:
            assert hash(GaussianRational(*x)) == model_hash(x)

    @given(wide_fractions)
    def test_real_values_hash_like_rationals(self, q):
        g = GaussianRational(q)
        assert g == q and hash(g) == hash(q)
        assert hash(g) == hash(Fraction(q))
        assert str(g) == str(Fraction(q))

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    )
    def test_constructor_reduces_any_triple(self, a, b, d):
        assert_matches(_make(a, b, d), (Fraction(a, d), Fraction(b, d)))

    @pytest.mark.parametrize(
        "value, stored",
        [(True, 1), (False, 0), (Fraction(3, 1), 3), (Fraction(-4, 2), -2), (7, 7)],
    )
    def test_integral_rationals_store_plain_ints(self, value, stored):
        for g, parts in [
            (GaussianRational(value), (stored, 0)),
            (GaussianRational(0, value), (0, stored)),
            (GaussianRational(value, value), (stored, stored)),
        ]:
            assert_matches(g, parts)
            assert (g.a, g.b, g.d) == (*parts, 1)
        assert str(GaussianRational(value)) == str(stored)

    def test_zero(self):
        assert_canonical(ZERO)
        assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
        assert GaussianRational(Fraction(0, 7), Fraction(0, 3)) == ZERO
        assert not ZERO and ZERO == 0 and hash(ZERO) == hash(0)
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.d = 2


# axpy against the plain operator loop it replaces: out[k] = out[k] + f * v,
# dropped when zero, for every k of vec other than skip.


def reference_axpy(out: dict, f, vec: dict, skip=None) -> dict:
    want = dict(out)
    for k, v in vec.items():
        if k == skip:
            continue
        s = want.get(k, ZERO) + f * v
        if s:
            want[k] = s
        else:
            want.pop(k, None)
    return want


integral_gaussians = st.builds(
    GaussianRational, st.integers(-6, 6), st.integers(-6, 6)
)
entries = st.one_of(integral_gaussians, gaussians).filter(bool)
sparse_vectors = st.dictionaries(st.integers(0, 7), entries, max_size=8)


@st.composite
def axpy_cases(draw):
    """(out, f, vec, skip), with some entries of out set to -f * vec[k] so
    that they cancel; f may be 0 or 1, and skip may be a key of vec."""
    f = draw(st.one_of(st.just(ONE), st.just(ZERO), integral_gaussians, gaussians))
    vec = draw(sparse_vectors)
    out = draw(sparse_vectors)
    if vec and f:
        for k in draw(st.sets(st.sampled_from(sorted(vec)))):
            out[k] = -(f * vec[k])
    skip = draw(st.one_of(st.none(), st.integers(0, 7)))
    return out, f, vec, skip


class TestAxpy:
    @given(axpy_cases())
    def test_matches_the_operator_loop(self, case):
        out, f, vec, skip = case
        vec_before = dict(vec)
        want = reference_axpy(out, f, vec, skip)
        axpy(out, f, vec, skip)
        assert out == want
        assert vec == vec_before
        for k, g in out.items():
            assert_canonical(g)
            assert g
            assert hash(g) == hash(want[k])

    def test_cancellation_reduction_and_skip(self):
        half = GaussianRational(Fraction(1, 2))
        out = {0: half, 1: GaussianRational(-1), 3: GaussianRational(0, Fraction(1, 3))}
        vec = {0: half, 1: ONE, 2: I, 3: GaussianRational(0, Fraction(2, 3))}
        axpy(out, ONE, vec, skip=2)
        assert out == {0: ONE, 3: I}


class TestQint:
    def test_one_is_one(self):
        assert qint(1) == ONE

    def test_frozen_small_values(self):
        # [2] = q + q^-1 and [3] = q^2 + 1 + q^-2, evaluated at i by hand.
        assert qint(2) == ZERO
        assert qint(3) == GaussianRational(-1)

    def test_matches_definition_polynomial(self):
        # Independent oracle: (q^n - q^-n)/(q - q^-1) expanded as the
        # closed-form Laurent polynomial, evaluated at i separately.
        for n in range(-50, 51):
            re, im = eval_dict_at_i({e: c for e, c in qint_poly(n).terms()})
            assert qint(n) == GaussianRational(re, im)
            assert im == 0

    def test_periodicity_and_negation(self):
        for n in range(-50, 51):
            assert qint(n) == -qint(n + 2)
            assert qint(n) == -qint(-n)

    def test_qint_poly_telescopes(self):
        # (q - q^-1) * [n] == q^n - q^-n
        q_minus = LaurentPoly({1: 1, -1: -1})
        for n in range(0, 13):
            expected = LaurentPoly.monomial(n) - LaurentPoly.monomial(-n)
            assert q_minus * qint_poly(n) == expected


def lucas_value(n: int, r: int) -> int:
    """q-Lucas oracle at q = i: i^(r(n-r)) * C(n//2, r//2) * [n%2 choose r%2]."""
    if n % 2 == 0 and r % 2 == 1:
        return 0
    exponent = r * (n - r)
    assert exponent % 2 == 0
    sign = -1 if (exponent // 2) % 2 else 1
    return sign * math.comb(n // 2, r // 2)


def pascal_unbalanced(n: int, r: int) -> dict[int, int]:
    """Classical one-sided q-binomial via C(n,r) = C(n-1,r-1) + q^r C(n-1,r)."""
    if r < 0 or r > n:
        return {}
    if r == 0 or r == n:
        return {0: 1}
    left = pascal_unbalanced(n - 1, r - 1)
    right = pascal_unbalanced(n - 1, r)
    out = dict(left)
    for e, c in right.items():
        out[e + r] = out.get(e + r, 0) + c
    return out


class TestGaussBinomial:
    def test_trivial_endpoints(self):
        for n in range(10):
            assert gauss_binomial(n, 0) == ONE
            assert gauss_binomial(n, n) == ONE

    def test_frozen_examples(self):
        # (2,1): polynomial q + q^-1 at i.  (4,2): q^4+q^2+2+q^-2+q^-4 at i.
        assert gauss_binomial(2, 1) == ZERO
        assert gauss_binomial_poly(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
        assert gauss_binomial(4, 2) == GaussianRational(2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_binomial(2, 3)
        with pytest.raises(DomainError):
            gauss_binomial(-1, 0)
        with pytest.raises(DomainError):
            gauss_binomial(3, -1)

    def test_symmetry(self):
        for n in range(21):
            for r in range(n + 1):
                assert gauss_binomial_poly(n, r) == gauss_binomial_poly(n, n - r)

    def test_specializes_to_binomial_at_one(self):
        for n in range(13):
            for r in range(n + 1):
                # At q = 1 the polynomial is the sum of its coefficients.
                p = gauss_binomial_poly(n, r)
                assert sum(c for _, c in p.terms()) == math.comb(n, r)

    def test_matches_symbolic_binomial_at_i(self):
        # n = 49 is reached by weyl(49), the module behind `homdim 48 48`.
        for n in range(60):
            for r in range(n + 1):
                assert gauss_binomial(n, r) == gauss_binomial_poly(n, r).evaluate_at_i()

    def test_q_lucas_oracle(self):
        for n in range(31):
            for r in range(n + 1):
                assert gauss_binomial(n, r) == GaussianRational(lucas_value(n, r))

    def test_balanced_from_unbalanced(self):
        # Independent reconstruction: balanced(v) = v^(-r(n-r)) * unbalanced(v^2).
        for n in range(15):
            for r in range(n + 1):
                unbal = pascal_unbalanced(n, r)
                rebuilt = LaurentPoly({2 * e - r * (n - r): c for e, c in unbal.items()})
                assert rebuilt == gauss_binomial_poly(n, r)


laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


class TestLaurentPoly:
    def test_strips_zeros(self):
        assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
        assert not LaurentPoly({0: 0})

    @given(laurents, laurents, laurents)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a

    @given(laurents, st.integers(min_value=-5, max_value=5))
    def test_shift_is_monomial_multiplication(self, a, k):
        assert a.shifted(k) == a * LaurentPoly.monomial(k)

    def test_evaluate(self):
        p = LaurentPoly({2: 1, 0: 1, -2: 1})
        assert p.evaluate_at_i() == GaussianRational(-1)

    def test_equal_values_hash_equally(self):
        # A polynomial equals only polynomials, so the eq/hash contract holds
        # across every pair, ints included.
        values = [LaurentPoly(), LaurentPoly({0: 1}), LaurentPoly({0: 0}), 0, 1]
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b), (a, b)
        assert LaurentPoly() != 0
        assert LaurentPoly({0: 1}) != 1
