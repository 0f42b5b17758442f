from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from key_jh import reference_key_jh
from qsatake.characters import (
    _packing,
    _slot_bytes,
    AFFINE_SPACE,
    COMPLEMENT_PAIR,
    EMPTY,
    POINT,
    SignedCharacter,
    WeightCharacter,
    classical_char,
    conv,
    intersection_cells,
    jh_decompose,
    jh_weight_character,
    product_jh,
    psi_double,
    sign_twist,
    simple_char,
    simple_char_sum,
    standard_char,
    standard_char_from_cells,
)
from qsatake.errors import DomainError, NotACharacterError


def K(weight, sign, mult=1):
    """mult copies of k^sign in the given weight."""
    part = {weight: mult}
    return SignedCharacter(part, ()) if sign == "+" else SignedCharacter((), part)


small_parts = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=3),
    max_size=4,
)
characters = st.builds(SignedCharacter, small_parts, small_parts)


def reference_conv(a: dict, b: dict, add) -> dict:
    """The double-loop convolution of two multisets; ``add`` combines keys."""
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = add(k1, k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def add_signed(k1, k2):
    return (k1[0] + k2[0], "+" if k1[1] == k2[1] else "-")


def reference_greedy_jh(work: dict, piece, weight) -> Counter:
    """Greedy leading-key elimination, the Jordan-Holder routine the package
    used before the triangular inverse: subtract the simple character led by
    the largest key, ``piece(key)``, until nothing is left."""
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


def closed_form_weights(n: int) -> range:
    """Weights of a simple character led at n: step 2 for odd n, 4 for even."""
    return range(n, -n - 1, -2 if n % 2 == 1 else -4)


def closed_form_keys(key) -> list:
    """(weight, sign) keys of the simple led by key; odd n alternate signs."""
    n, sign = key
    other = "-" if sign == "+" else "+"
    return [
        (w, other if n % 2 and k % 2 else sign)
        for k, w in enumerate(closed_form_weights(n))
    ]


@st.composite
def corrupted_sums(draw, labels, piece, negative_keys):
    """{key: mult} of a sum of simple characters with 0-2 corruptions: an
    extra key at negative weight, a missing key, or a raised or lowered
    multiplicity."""
    mults: dict = {}
    for label, mult in draw(st.dictionaries(labels, st.integers(1, 3), max_size=5)).items():
        for key in piece(label):
            mults[key] = mults.get(key, 0) + mult
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("extra", "missing", "shift")))
        if kind == "extra":
            key = draw(negative_keys)
            mults[key] = mults.get(key, 0) + draw(st.integers(1, 3))
        elif mults:
            key = draw(st.sampled_from(sorted(mults)))
            mult = 0 if kind == "missing" else mults[key] + draw(
                st.integers(-3, 3).filter(bool)
            )
            if mult > 0:
                mults[key] = mult
            else:
                del mults[key]
    return mults


def signed_character(mults: dict) -> SignedCharacter:
    """The signed character with the {(weight, sign): mult} multiset mults."""
    return SignedCharacter(
        {w: m for (w, s), m in mults.items() if s == "+"},
        {w: m for (w, s), m in mults.items() if s == "-"},
    )


def outcome(jh, *args):
    """The factors of a decomposition in the order found, or its error text."""
    try:
        return list(jh(*args).items())
    except NotACharacterError as exc:
        return str(exc)


class TestSignedCharacter:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(NotACharacterError):
            SignedCharacter({0: -1}, {})

    def test_str(self):
        assert str(K(0, "+")) == "k⁺(0)"
        assert str(SignedCharacter.zero()) == "0"

    @given(characters)
    def test_equal_values_hash_equally(self, c):
        rebuilt = [
            sign_twist(sign_twist(c)),
            c + SignedCharacter.zero(),
            conv(SignedCharacter({0: 1}), c),
            SignedCharacter(
                {w: m for (w, s), m in reversed(c.mults.items()) if s == "+"},
                {**{w: m for (w, s), m in c.mults.items() if s == "-"}, 99: 0},
            ),
        ]
        for other in rebuilt:
            assert other == c and hash(other) == hash(c)

    def test_json_round_trip_and_schema(self, schemas):
        c = standard_char(2, "+")
        data = c.to_json_dict()
        jsonschema.validate(data, schemas["character"])
        parts = [{int(w): m for w, m in data[s].items()} for s in ("plus", "minus")]
        assert SignedCharacter(*parts) == c
        assert json.dumps(data, separators=(",", ":")) == (
            '{"plus":{"2":1,"0":1,"-2":1},"minus":{"0":1}}'
        )


class TestWeightCharacter:
    @pytest.mark.parametrize("mult", [-1, 0.5, Fraction(1, 2), "1"])
    def test_rejects_non_characters(self, mult):
        with pytest.raises(NotACharacterError):
            WeightCharacter({0: 1, 2: mult})

    @given(small_parts)
    def test_equal_values_hash_equally(self, part):
        wc = WeightCharacter(part)
        rebuilt = [
            WeightCharacter({**dict(reversed(part.items())), 99: 0}),
            wc * WeightCharacter({0: 1}),
        ]
        for other in rebuilt:
            assert other == wc and hash(other) == hash(wc)


big_parts = st.dictionaries(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=2**70),
    max_size=6,
)


class TestConv:
    @given(big_parts, big_parts, big_parts, big_parts)
    @settings(max_examples=150)
    def test_matches_double_loop(self, ap, am, bp, bm):
        a, b = SignedCharacter(ap, am), SignedCharacter(bp, bm)
        assert conv(a, b).mults == reference_conv(a.mults, b.mults, add_signed)

    @given(big_parts, big_parts)
    @settings(max_examples=150)
    def test_weight_product_matches_double_loop(self, a, b):
        got = WeightCharacter(a) * WeightCharacter(b)
        assert got.mults == reference_conv(a, b, lambda w1, w2: w1 + w2)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 9])
    def test_slot_widths(self, width):
        # One key times three: each product coefficient is a single term of
        # size 2**(8 * width - 2), which needs exactly ``width`` bytes.
        big = 2 ** (4 * width - 1)
        a = SignedCharacter({-3: big})
        b = SignedCharacter({5: big, -1: big - 1}, {-7: big})
        assert _slot_bytes(_packing(a), _packing(b)) == width
        assert conv(a, b).mults == reference_conv(a.mults, b.mults, add_signed)
        assert conv(b, a) == conv(a, b)

    def test_empty_operands(self):
        zero = SignedCharacter.zero()
        assert conv(zero, simple_char(3, "+")) == zero
        assert conv(simple_char(3, "+"), zero) == zero
        assert conv(zero, zero) == zero
        assert (WeightCharacter() * WeightCharacter({1: 2})).mults == {}

    @given(characters)
    def test_unit(self, c):
        unit = SignedCharacter({0: 1})
        assert conv(unit, c) == c
        assert conv(c, unit) == c

    @given(characters, characters)
    @settings(max_examples=60)
    def test_commutative(self, a, b):
        assert conv(a, b) == conv(b, a)

    @given(characters, characters, characters)
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        assert conv(conv(a, b), c) == conv(a, conv(b, c))

    @given(
        st.dictionaries(
            st.integers(-5, 5), st.integers(1, 3), min_size=1, max_size=4
        ),
        st.integers(-8, 8),
    )
    @settings(max_examples=60)
    def test_packing_serves_every_later_layout(self, part, w):
        # a sits on exponents 12Z: with simple_char(2, "+") the step is 12
        # and slots take a byte, with the single wide key the slots take 6
        # bytes, and with the mixed signs the step drops to 1.
        a = SignedCharacter({4 * k: c for k, c in part.items()})
        partners = [
            simple_char(2, "+"),
            SignedCharacter({w: 2**40}),
            SignedCharacter({w: 1}, {w - 1: 2}),
            SignedCharacter.zero(),
            a,
        ]
        conv(a, a)
        packing, layouts = a._packing, set()
        for b in partners * 2:
            assert conv(a, b).mults == reference_conv(a.mults, b.mults, add_signed)
            assert conv(b, a).mults == reference_conv(b.mults, a.mults, add_signed)
            layouts.add(a._packing.layout)
        assert a._packing is packing
        assert len({step for step, _ in layouts}) > 1
        assert len({width for _, width in layouts}) > 1
        wide = WeightCharacter({w: 2**40})
        for b in [WeightCharacter({0: 1, 3: 2}), wide, WeightCharacter(), wide]:
            got = WeightCharacter(part) * b
            assert got.mults == reference_conv(part, b.mults, lambda v, u: v + u)

    @given(characters)
    def test_packing_leaves_the_value_alone(self, c):
        twin = SignedCharacter(
            {w: m for (w, s), m in c.mults.items() if s == "+"},
            {w: m for (w, s), m in c.mults.items() if s == "-"},
        )
        items, digest = list(c.mults.items()), hash(c)
        conv(c, simple_char(3, "+"))
        conv(simple_char(2, "+"), c)
        assert list(c.mults.items()) == items
        assert c == twin and hash(c) == digest == hash(twin)
        for name in ("mults", "_packing"):
            with pytest.raises(AttributeError):
                setattr(c, name, None)
        wc = WeightCharacter({w: m for (w, _), m in c.mults.items()})
        items, digest = list(wc.mults.items()), hash(wc)
        assert wc * WeightCharacter({1: 1}) == WeightCharacter({1: 1}) * wc
        assert list(wc.mults.items()) == items and hash(wc) == digest
        assert wc == WeightCharacter(dict(items))
        with pytest.raises(AttributeError):
            wc._packing = None

    def test_square_of_odd_simple(self):
        # ch L(1)+ = k+(1) + k-(-1); expanding the 2x2 product by hand gives
        # k+(2) + 2 k-(0) + k+(-2).
        l1 = simple_char(1, "+")
        assert l1 == K(1, "+") + K(-1, "-")
        assert conv(l1, l1) == K(2, "+") + K(0, "-", 2) + K(-2, "+")

    def test_square_of_even_simple(self):
        got = conv(simple_char(2, "+"), simple_char(2, "+"))
        assert got == K(4, "+") + K(0, "+", 2) + K(-4, "+")
        # consistent with the decomposition L(4)+ + L(0)+
        assert got == simple_char(4, "+") + simple_char(0, "+")


class TestClosedForms:
    def test_simple_examples(self):
        assert simple_char(0, "+") == K(0, "+")
        assert simple_char(2, "+") == K(2, "+") + K(-2, "+")  # no weight-0 term
        assert simple_char(3, "+") == (
            K(3, "+") + K(1, "-") + K(-1, "+") + K(-3, "-")
        )

    def test_simple_even_weights_step_four(self):
        c = simple_char(8, "+")
        assert c.mults == {(w, "+"): 1 for w in (8, 4, 0, -4, -8)}

    def test_standard_examples(self):
        assert standard_char(0, "+") == K(0, "+")
        assert standard_char(3, "+") == (
            K(3, "+") + K(1, "+") + K(1, "-") + K(-1, "+") + K(-1, "-") + K(-3, "-")
        )
        # endpoint at even n is k+ (the sign representation squared)
        assert standard_char(2, "+") == (
            K(2, "+") + K(0, "+") + K(0, "-") + K(-2, "+")
        )

    def test_sign_convention(self):
        for n in range(8):
            assert simple_char(n, "-") == sign_twist(simple_char(n, "+"))
            assert standard_char(n, "-") == sign_twist(standard_char(n, "+"))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            simple_char(-1, "+")
        with pytest.raises(DomainError):
            standard_char(-2, "-")
        with pytest.raises(DomainError):
            simple_char(1, "x")

    def test_cache_keeps_values_and_not_errors(self):
        assert simple_char.cache_info().maxsize is not None
        assert simple_char(4, "+") is simple_char(4, "+")
        for _ in range(2):
            with pytest.raises(DomainError):
                simple_char(-1, "+")


class TestSignTwist:
    def test_basic(self):
        assert sign_twist(K(0, "+")) == K(0, "-")
        assert sign_twist(simple_char(3, "+")) == simple_char(3, "-")

    @given(characters)
    def test_involution(self, c):
        assert sign_twist(sign_twist(c)) == c


class TestJhDecompose:
    def test_standard_odd(self):
        assert jh_decompose(standard_char(3, "+")) == Counter(
            {(3, "+"): 1, (1, "+"): 1}
        )

    def test_simple_is_itself(self):
        assert jh_decompose(simple_char(5, "+")) == Counter({(5, "+"): 1})

    def test_standard_even_mixes_signs(self):
        assert jh_decompose(standard_char(2, "+")) == Counter(
            {(2, "+"): 1, (0, "+"): 1, (0, "-"): 1}
        )

    def test_odd_standards(self):
        for n in range(1, 9):
            for sign in "+-":
                assert jh_decompose(standard_char(2 * n + 1, sign)) == Counter(
                    {(2 * n + 1, sign): 1, (2 * n - 1, sign): 1}
                )

    def test_clebsch_gordan(self):
        for n in range(7):
            for m in range(7):
                got = jh_decompose(
                    conv(simple_char(2 * n, "+"), simple_char(2 * m, "+"))
                )
                want = Counter(
                    {(k, "+"): 1 for k in range(2 * (n + m), 2 * abs(n - m) - 1, -4)}
                )
                assert got == want

    def test_steinberg(self):
        for n in range(9):
            got = jh_decompose(conv(simple_char(1, "+"), simple_char(2 * n, "+")))
            assert got == Counter({(2 * n + 1, "+"): 1})

    def test_not_a_character(self):
        with pytest.raises(NotACharacterError):
            jh_decompose(K(1, "+") + K(0, "+"))
        with pytest.raises(NotACharacterError):
            jh_decompose(K(-2, "+"))

    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=10), st.sampled_from("+-")
            ),
            st.integers(min_value=1, max_value=3),
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_left_inverse_of_sum(self, multiset):
        counter = Counter(multiset)
        assert jh_decompose(simple_char_sum(counter)) == counter

    @given(
        corrupted_sums(
            st.tuples(st.integers(0, 12), st.sampled_from("+-")),
            closed_form_keys,
            st.tuples(st.integers(-14, -1), st.sampled_from("+-")),
        )
    )
    @settings(max_examples=400)
    def test_signed_matches_greedy(self, mults):
        got = outcome(jh_decompose, signed_character(mults))
        assert got == outcome(
            reference_greedy_jh, dict(mults), closed_form_keys, lambda key: key[0]
        )
        assert got == outcome(reference_key_jh, mults, True)

    @given(
        corrupted_sums(st.integers(0, 12), closed_form_weights, st.integers(-14, -1))
    )
    @settings(max_examples=400)
    def test_weight_matches_greedy(self, mults):
        got = outcome(jh_weight_character, WeightCharacter(mults))
        assert got == outcome(
            reference_greedy_jh, dict(mults), closed_form_weights, lambda w: w
        )
        assert got == outcome(reference_key_jh, mults, False)

    # Characters broken so that one neighbour rule of the scan catches them:
    # (signed or not, mults, the error the full elimination raises).
    @pytest.mark.parametrize(
        "signed, mults, error",
        [
            # L(4)+ without k+(0), L(8) without 4 and -4: the below of the
            # top key is missing.
            (True, {(4, "+"): 1, (-4, "+"): 1}, "multiplicity -1 at (0, '+')"),
            (False, {8: 1, 0: 1, -8: 1}, "multiplicity -1 at 4"),
            # L(6)+ without k+(-6): the bottom of (6, +) is missing.
            (
                True,
                {(6, "+"): 1, (2, "+"): 1, (-2, "+"): 1},
                "multiplicity -1 at (-6, '+')",
            ),
            (False, {6: 1, 2: 1, -2: 1}, "multiplicity -1 at -6"),
            # L(2)+ with a second k+(-2): a residual at negative weight.
            (True, {(2, "+"): 1, (-2, "+"): 2}, "multiplicity 1 at (-2, '+')"),
            (False, {2: 1, -2: 2}, "multiplicity 1 at -2"),
            # L(1)- beside a stray k+(-5), which mirrors no key.
            (
                True,
                {(1, "-"): 1, (-1, "+"): 1, (-5, "+"): 1},
                "multiplicity 1 at (-5, '+')",
            ),
            (False, {1: 1, -1: 1, -5: 1}, "multiplicity 1 at -5"),
        ],
        ids=[
            "below-signed",
            "below-weight",
            "bottom-signed",
            "bottom-weight",
            "residual-signed",
            "residual-weight",
            "no-mirror-signed",
            "no-mirror-weight",
        ],
    )
    def test_each_neighbour_rule_names_the_greedy_error(self, signed, mults, error):
        # The same character reached as a product with the unit goes through
        # the product's coefficients instead of a filled strip.
        if signed:
            c = signed_character(mults)
            got = outcome(jh_decompose, c)
            product = outcome(product_jh, c, SignedCharacter({0: 1}))
            want = outcome(
                reference_greedy_jh, dict(mults), closed_form_keys, itemgetter(0)
            )
        else:
            wc = WeightCharacter(mults)
            got = outcome(jh_weight_character, wc)
            product = outcome(product_jh, WeightCharacter({0: 1}), wc)
            want = outcome(
                reference_greedy_jh, dict(mults), closed_form_weights, lambda w: w
            )
        assert got == product == want == f"{error}: not a character"
        assert outcome(reference_key_jh, mults, signed) == want

    def test_absent_below_of_weight_zero(self):
        # The below of a weight-0 key, at weight -4, is no key of L(0): its
        # rule compares it with its mirror at 4, absent too.
        assert jh_decompose(simple_char(0, "+")) == Counter({(0, "+"): 1})
        assert jh_weight_character(WeightCharacter({0: 2})) == Counter({0: 2})
        both = simple_char(8, "-") + simple_char(0, "-") + simple_char(0, "+")
        assert list(jh_decompose(both).items()) == [
            ((8, "-"), 1),
            ((0, "-"), 1),
            ((0, "+"), 1),
        ]

    def test_error_names_the_first_key_greedy_stops_at(self):
        # L(3)+ with its k-(1) missing: the residual -1 shows at (1, "-")
        # before the stray k+(-1) and k-(-3) below it.
        c = simple_char(3, "+")
        broken = SignedCharacter({3: 1, -1: 1}, {-3: 1})
        assert jh_decompose(c) == Counter({(3, "+"): 1})
        with pytest.raises(NotACharacterError) as exc:
            jh_decompose(broken)
        assert str(exc.value) == "multiplicity -1 at (1, '-'): not a character"
        with pytest.raises(NotACharacterError) as exc:
            jh_weight_character(WeightCharacter({4: 1, -4: 1}))
        assert str(exc.value) == "multiplicity -1 at 0: not a character"


def spaced(draw_step):
    """Multisets of at most three weights on the lattice spaced by a drawn
    step, with multiplicities large enough to need several bytes a slot."""
    return draw_step.flatmap(
        lambda d: st.dictionaries(
            st.integers(-3, 3).map(lambda k: d * k),
            st.integers(1, 2**20),
            max_size=3,
        )
    )


# Sums of simple characters with 0-2 corruptions, keys spaced 1, 2, 8 or 24
# apart (8 and 24 make steps that do not divide 12), the zero character and
# lone keys of weight 0, whose packing has step 0.
signed_operands = st.one_of(
    corrupted_sums(
        st.tuples(st.integers(0, 10), st.sampled_from("+-")),
        closed_form_keys,
        st.tuples(st.integers(-12, -1), st.sampled_from("+-")),
    ).map(signed_character),
    st.builds(
        SignedCharacter,
        spaced(st.sampled_from([1, 2, 8, 24])),
        spaced(st.sampled_from([1, 2, 8, 24])),
    ),
    st.sampled_from(
        [SignedCharacter.zero(), SignedCharacter({0: 1}), SignedCharacter((), {0: 2})]
    ),
)
weight_operands = st.one_of(
    corrupted_sums(
        st.integers(0, 10), closed_form_weights, st.integers(-12, -1)
    ).map(WeightCharacter),
    spaced(st.sampled_from([1, 2, 8, 24])).map(WeightCharacter),
    st.sampled_from([WeightCharacter(), WeightCharacter({0: 1})]),
)


class TestProductJh:
    """product_jh reads the packed product's coefficients; it must agree,
    factors in order or error text, with decomposing the built product."""

    @given(signed_operands, signed_operands)
    @settings(max_examples=400)
    def test_signed_matches_decomposing_the_product(self, a, b):
        got = outcome(product_jh, a, b)
        product = conv(a, b)
        assert got == outcome(jh_decompose, product)
        assert got == outcome(reference_key_jh, product.mults, True)

    @given(weight_operands, weight_operands)
    @settings(max_examples=400)
    def test_weight_matches_decomposing_the_product(self, a, b):
        got = outcome(product_jh, a, b)
        product = a * b
        assert got == outcome(jh_weight_character, product)
        assert got == outcome(reference_key_jh, product.mults, False)

    def test_zero_and_weight_zero_operands(self):
        zero, unit, sign = SignedCharacter.zero(), K(0, "+"), K(0, "-")
        assert product_jh(zero, simple_char(3, "+")) == Counter()
        assert product_jh(simple_char(3, "+"), zero) == Counter()
        assert product_jh(unit, unit) == Counter({(0, "+"): 1})
        # k- times k- is k+: the coefficient sits at digit 2.
        assert list(product_jh(sign, sign).items()) == [((0, "+"), 1)]
        assert product_jh(WeightCharacter(), WeightCharacter({0: 3})) == Counter()
        assert product_jh(WeightCharacter({0: 2}), WeightCharacter({0: 3})) == Counter(
            {0: 6}
        )

    def test_digit_two_adds_to_the_plus_keys(self):
        # ch L(1)+ squared is k+(2) + 2 k-(0) + k+(-2); k+(-2) comes from
        # k-(-1) * k-(-1), at digit 2, and k+(2) from k+(1) * k+(1).
        l1 = simple_char(1, "+")
        assert list(product_jh(l1, l1).items()) == [((2, "+"), 1), ((0, "-"), 2)]
        l3 = simple_char(3, "-")
        assert list(product_jh(l1, l3).items()) == list(jh_decompose(conv(l1, l3)).items())

    def test_steps_that_do_not_divide_twelve(self):
        # Keys 8 and 24 apart: each chain holds one key in every two or six
        # links, so only a lone key of weight 0 per chain is a character.
        assert product_jh(K(0, "+"), K(0, "+") + K(0, "-")) == Counter(
            {(0, "+"): 1, (0, "-"): 1}
        )
        spread = SignedCharacter({8: 1, -8: 1})
        with pytest.raises(NotACharacterError, match=r"multiplicity -1 at \(4, '\+'\)"):
            product_jh(spread, K(0, "+"))
        wide = WeightCharacter({24: 1, 0: 1, -24: 1})
        with pytest.raises(NotACharacterError, match="multiplicity -1 at 20"):
            product_jh(wide, WeightCharacter({0: 1}))


def per_copy_sum(multiset) -> SignedCharacter:
    """The former simple_char_sum: one simple character added per copy."""
    total = SignedCharacter.zero()
    for (n, sign), mult in sorted(multiset.items()):
        piece = simple_char(n, sign)
        for _ in range(mult):
            total = total + piece
    return total


class TestSimpleCharSum:
    def test_rejects_negative_multiplicity(self):
        with pytest.raises(NotACharacterError):
            simple_char_sum({(1, "+"): -1})

    def test_single_labels_match_per_copy_sum(self):
        for n in range(13):
            for sign in "+-":
                for mult in range(4):
                    ms = {(n, sign): mult}
                    assert simple_char_sum(ms) == per_copy_sum(ms)

    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=12), st.sampled_from("+-")
            ),
            st.integers(min_value=0, max_value=3),
            max_size=6,
        )
    )
    @settings(max_examples=80)
    def test_multisets_match_per_copy_sum(self, multiset):
        assert simple_char_sum(Counter(multiset)) == per_copy_sum(multiset)


class TestPsiDouble:
    def test_examples(self):
        assert psi_double(WeightCharacter({0: 1})) == K(0, "+")
        assert psi_double(classical_char(1)) == simple_char(2, "+")
        assert psi_double(classical_char(2)) == simple_char(4, "+")

    def test_doubles_all_weights(self):
        wc = WeightCharacter({3: 2, -1: 1})
        out = psi_double(wc)
        assert out == SignedCharacter({6: 2, -2: 1}, {})


class TestCells:
    def test_affine_at_top(self):
        for n in range(1, 8):
            cell = intersection_cells(n, n, "S")
            assert cell.kind == AFFINE_SPACE and cell.dimension == n

    def test_point_at_bottom(self):
        for n in range(1, 8):
            assert intersection_cells(-n, n, "S").kind == POINT

    def test_pair_example(self):
        cell = intersection_cells(1, 3, "T")  # n = m + 2d with d = 1
        assert cell.kind == COMPLEMENT_PAIR
        assert cell.dimension == 1
        assert cell.sign_action

    def test_t_side_mirrors_s_side(self):
        for n in range(8):
            for m in range(-n - 2, n + 3):
                s = intersection_cells(m, n, "S")
                t = intersection_cells(-m, n, "T")
                assert (s.kind, s.dimension) == (t.kind, t.dimension)

    def test_empty_cases(self):
        assert intersection_cells(4, 3, "S").kind == EMPTY  # parity mismatch
        assert intersection_cells(5, 3, "S").kind == EMPTY  # out of range
        assert intersection_cells(0, 0, "T").kind == POINT

    def test_full_table_n3(self):
        # Side T at n = 3: point at m = 3, pairs of dimension d at m = 3 - 2d,
        # and R^3 at m = -3.
        assert intersection_cells(3, 3, "T").kind == POINT
        assert intersection_cells(1, 3, "T") == intersection_cells(1, 3, "T")
        c1 = intersection_cells(1, 3, "T")
        cm1 = intersection_cells(-1, 3, "T")
        cm3 = intersection_cells(-3, 3, "T")
        assert (c1.kind, c1.dimension) == (COMPLEMENT_PAIR, 1)
        assert (cm1.kind, cm1.dimension) == (COMPLEMENT_PAIR, 2)
        assert (cm3.kind, cm3.dimension) == (AFFINE_SPACE, 3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            intersection_cells(0, -1, "S")
        with pytest.raises(DomainError):
            intersection_cells(0, 1, "Q")


class TestStandardFromCells:
    def test_trivial(self):
        assert standard_char_from_cells(0) == K(0, "+")

    def test_matches_closed_form(self):
        for n in range(11):
            assert standard_char_from_cells(n) == standard_char(n, "+")
