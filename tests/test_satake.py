from __future__ import annotations

from collections import Counter

import pytest

from qsatake import characters, cli, satake
from qsatake.characters import (
    SignedCharacter,
    jh_decompose,
    sign_twist,
    simple_char,
    simple_char_sum,
    standard_char,
)
from qsatake.errors import DomainError, InternalInconsistencyError
from qsatake.satake import (
    FormalPerv,
    format_multiset,
    formal,
    verify_bgg,
    verify_block_split,
    verify_clebsch_gordan,
    verify_odd_ses,
    verify_steinberg,
)


def all_pass(items):
    return all(it["pass"] for it in items)


def failed(items):
    return [it["relation"] for it in items if not it["pass"]]


def reference_bgg(n: int) -> list[dict]:
    """Reciprocity items at P(2n+1)+ alone, each costandard built afresh: the
    per-n verifier that ``verify_bgg`` replaced."""
    filt = Counter(formal("projective", 2 * n + 1, "+").standard_filtration)
    items = []
    for m in range(2 * n + 6):
        for sign in "+-":
            left = filt.get((m, sign), 0)
            right = formal("costandard", m, sign).jh.get((2 * n + 1, "+"), 0)
            expected = 1 if sign == "+" and m in (2 * n + 1, 2 * n + 3) else 0
            items.append(
                {
                    "relation": (
                        f"[P({2 * n + 1})+ : standard({m}){sign}] == "
                        f"[costandard({m}){sign} : L({2 * n + 1})+] == {expected}"
                    ),
                    "lhs": str(left),
                    "rhs": str(right),
                    "pass": left == right == expected,
                }
            )
    return items


@pytest.fixture
def twist_at(monkeypatch):
    """A function that makes ``satake.<name>(n, sign)`` return the sign twist
    of the true character at one label n, for the rest of the test.  The
    ``formal`` cache is emptied on both sides of the test, so no object built
    before reads the true character and none built with the twist outlives
    it."""

    def install(name: str, n: int) -> None:
        true = getattr(satake, name)
        monkeypatch.setattr(
            satake,
            name,
            lambda m, sign: sign_twist(true(m, sign)) if m == n else true(m, sign),
        )

    formal.cache_clear()
    yield install
    formal.cache_clear()


class TestFormal:
    def test_simple_trivial(self):
        obj = formal("simple", 0, "+")
        assert obj.character == SignedCharacter({0: 1})
        assert obj.jh == Counter({(0, "+"): 1})

    def test_odd_projective_three(self):
        obj = formal("projective", 3, "+")
        assert obj.standard_filtration == ((5, "+"), (3, "+"))
        assert obj.jh == Counter({(3, "+"): 2, (5, "+"): 1, (1, "+"): 1})

    def test_odd_projective_one(self):
        obj = formal("projective", 1, "+")
        assert obj.standard_filtration == ((3, "+"), (1, "+"))
        assert obj.jh == Counter({(1, "+"): 2, (3, "+"): 1})

    def test_odd_projective_character_sum(self):
        for n in range(7):
            obj = formal("projective", 2 * n + 1, "+")
            assert obj.character == standard_char(2 * n + 3, "+") + standard_char(
                2 * n + 1, "+"
            )
            assert sum(obj.jh.values()) == (3 if n == 0 else 4)

    def test_standard_vs_costandard_share_characters(self):
        for n in range(7):
            for sign in "+-":
                s = formal("standard", n, sign)
                c = formal("costandard", n, sign)
                assert s.character == c.character
                assert s.jh == c.jh
                assert s.standard_filtration == ((n, sign),)
                assert c.standard_filtration is None

    def test_consistency_invariants_hold_for_all_labels(self):
        for kind in ("standard", "costandard", "simple", "projective"):
            for n in range(8):
                for sign in "+-":
                    obj = formal(kind, n, sign)
                    assert simple_char_sum(obj.jh) == obj.character
                    if obj.standard_filtration is not None:
                        total = SignedCharacter.zero()
                        for m, s in obj.standard_filtration:
                            total = total + standard_char(m, s)
                        assert total == obj.character

    def test_even_projective_jh_regression(self):
        # Derived data: the even projectives have no closed form on record,
        # so their content is frozen from the exact character computation.
        assert formal("projective", 0, "+").jh == Counter(
            {
                (4, "+"): 1,
                (2, "+"): 2,
                (0, "+"): 1,
                (2, "-"): 2,
                (0, "-"): 4,
            }
        )
        assert formal("projective", 2, "+").jh == Counter(
            {
                (6, "+"): 1,
                (4, "+"): 2,
                (2, "+"): 2,
                (0, "+"): 2,
                (4, "-"): 2,
                (2, "-"): 4,
                (0, "-"): 2,
            }
        )

    def test_even_projective_leading_factor(self):
        # Top weights add: 2n+1 from the odd simple and 3 from P(1)+.
        for n in range(1, 6):
            content = formal("projective", 2 * n, "+").jh
            assert content[(2 * n + 4, "+")] == 1
            assert max(k for k, _ in content) == 2 * n + 4

    def test_cache_shares_one_read_only_object(self):
        assert formal.cache_info().maxsize == 512
        obj = formal("costandard", 5, "+")
        assert formal("costandard", 5, "+") is obj
        with pytest.raises(TypeError):
            obj.jh[(5, "+")] = 2
        assert obj.jh == Counter({(5, "+"): 1, (3, "+"): 1})
        # A given Counter is copied, so changing it later changes no object.
        given = Counter({(3, "+"): 1, (1, "+"): 1})
        built = FormalPerv("costandard", 3, "+", standard_char(3, "+"), given)
        given[(3, "+")] += 1
        assert built.jh == Counter({(3, "+"): 1, (1, "+"): 1}) and built.jh != given

    def test_read_only_content_reads_as_the_counter(self):
        for kind, n, sign in [("projective", 0, "+"), ("standard", 2, "+"), ("simple", 3, "-")]:
            obj = formal(kind, n, sign)
            counter = jh_decompose(obj.character)
            assert obj.jh == counter and counter == obj.jh
            assert list(obj.jh.items()) == list(counter.items())
            assert [obj.jh.get(k, 0) for k in [*counter, (99, "+")]] == [
                counter.get(k, 0) for k in [*counter, (99, "+")]
            ]
            assert format_multiset(obj.jh) == format_multiset(counter)
            assert cli._jh_items(obj.jh) == cli._jh_items(counter)

    def test_invalid_labels(self):
        with pytest.raises(DomainError):
            formal("tilting", 2, "+")
        with pytest.raises(DomainError):
            formal("simple", -1, "+")
        with pytest.raises(DomainError):
            formal("simple", 1, "=")

    def test_inconsistent_object_rejected(self):
        with pytest.raises(InternalInconsistencyError):
            FormalPerv(
                "simple",
                2,
                "+",
                simple_char(2, "+"),
                Counter({(0, "+"): 1}),
            )


class TestVerifiers:
    def test_odd_ses(self):
        for n in range(1, 7):
            items = verify_odd_ses(n)
            assert len(items) == 4  # standard + costandard, both signs
            assert all_pass(items)

    def test_odd_ses_formats_a_passing_character_once(self, monkeypatch):
        # Equal characters print the same, so a passing item prints one side.
        calls = []
        real = SignedCharacter.__str__
        monkeypatch.setattr(
            SignedCharacter, "__str__", lambda c: calls.append(1) or real(c)
        )
        items = [it for n in range(1, 41) for it in verify_odd_ses(n)]
        assert all_pass(items) and len(items) == 160
        assert len(calls) == 160
        assert all(it["lhs"] == it["rhs"] for it in items)

    def test_odd_ses_example(self):
        assert standard_char(3, "+") == simple_char(1, "+") + simple_char(3, "+")

    def test_bgg_base_case(self):
        items = verify_bgg(0)
        assert all_pass(items)
        hits = [
            it
            for it in items
            if it["lhs"] == "1"
        ]
        assert len(hits) == 2  # m = 1 and m = 3, sign +

    def test_bgg_range(self):
        assert all_pass(verify_bgg(6))

    def test_bgg_matches_per_n_reference(self):
        for max_n in range(9):
            want = [it for n in range(max_n + 1) for it in reference_bgg(n)]
            assert verify_bgg(max_n) == want

    def test_bgg_builds_each_costandard_once(self, monkeypatch):
        built = Counter()
        true = satake.formal

        def counting(kind, n, sign):
            built[kind, n, sign] += 1
            return true(kind, n, sign)

        monkeypatch.setattr(satake, "formal", counting)
        verify_bgg(8)
        costandards = {(n, s): c for (k, n, s), c in built.items() if k == "costandard"}
        assert costandards == {(m, s): 1 for m in range(2 * 8 + 6) for s in "+-"}

    def test_bgg_suite_builds_each_label_once(self, monkeypatch):
        # verify_odd_ses and verify_bgg share the costandards at odd labels:
        # the bgg suite at --max M builds 7M + 13 labels, each once.
        built = Counter()
        true = satake.FormalPerv

        def counting(kind, n, sign, *rest):
            built[kind, n, sign] += 1
            return true(kind, n, sign, *rest)

        monkeypatch.setattr(satake, "FormalPerv", counting)
        formal.cache_clear()
        for n in range(1, 9):
            assert all_pass(verify_odd_ses(n))
        assert all_pass(verify_bgg(8))
        assert len(built) == 7 * 8 + 13 and set(built.values()) == {1}

    def test_bgg_rejects_negative_bound(self):
        with pytest.raises(DomainError):
            verify_bgg(-1)

    def test_bgg_specific_zeros(self):
        items = {it["relation"]: it for it in verify_bgg(2)}
        key = "[P(5)+ : standard(3)+] == [costandard(3)+ : L(5)+] == 0"
        assert items[key]["pass"] and items[key]["lhs"] == "0"

    def test_block_split(self):
        items = verify_block_split(5)
        assert all_pass(items)
        mixed = [it for it in items if "mixes" in it["relation"]]
        assert len(mixed) == 1
        assert "L(0)⁻" in mixed[0]["lhs"]

    def test_block_split_vacuous(self):
        items = verify_block_split(0)
        assert all_pass(items)
        assert len(items) == 1  # only the even counterexample

    def test_steinberg(self):
        for n in range(9):
            assert all_pass(verify_steinberg(n))

    def test_clebsch_gordan(self):
        for n in range(6):
            for m in range(6):
                assert all_pass(verify_clebsch_gordan(n, m))

    def test_clebsch_gordan_unit(self):
        item = verify_clebsch_gordan(0, 3)[0]
        assert item["lhs"] == "L(6)⁺"


class TestVerifierCorruptions:
    """A wrong character makes each verifier report FAIL items, not raise."""

    def test_odd_ses_with_wrong_sub(self, twist_at):
        twist_at("simple_char", 1)
        items = verify_odd_ses(1)
        assert all(it["lhs"] != it["rhs"] for it in items if not it["pass"])
        assert failed(items) == [
            f"ch {kind}(3){s} == ch L(1){s} + ch L(3){s}"
            for s in ("+", "-")
            for kind in ("standard", "costandard")
        ]
        assert all_pass(verify_odd_ses(2))

    def test_bgg_with_wrong_costandard(self, twist_at):
        twist_at("standard_char", 3)
        assert failed(verify_bgg(0)) == [
            f"[P(1)+ : standard(3){s}] == [costandard(3){s} : L(1)+] == {want}"
            for s, want in (("+", 1), ("-", 0))
        ]
        # P(3)+ has a standard(3)+ factor, so its m = 3 items fail as well;
        # from P(5)+ on both sides read 0 at m = 3 and pass.
        assert failed(verify_bgg(4)) == [
            f"[P({p})+ : standard(3){s}] == [costandard(3){s} : L({p})+] == {want}"
            for p in (1, 3)
            for s, want in (("+", 1), ("-", 0))
        ]

    def test_block_split_with_wrong_standard(self, twist_at):
        twist_at("standard_char", 3)
        assert failed(verify_block_split(3)) == [
            f"jh P({m}){s} is sign-pure" for m in (1, 3) for s in ("+", "-")
        ]

    def test_steinberg_with_wrong_even_simple(self, twist_at):
        twist_at("simple_char", 2)
        items = verify_steinberg(1)
        assert failed(items) == ["jh(ch L(1)+ * ch L(2)+) == {L(3)+}"]
        assert items[0]["lhs"] == "L(3)⁻"
        assert all_pass(verify_steinberg(0))

    def test_clebsch_gordan_with_wrong_even_simple(self, twist_at):
        twist_at("simple_char", 2)
        items = verify_clebsch_gordan(1, 0)
        assert failed(items) == ["clebsch-gordan(1,0)"]
        assert items[0]["lhs"] == "L(2)⁻"
        assert all_pass(verify_clebsch_gordan(0, 0))

    def test_clebsch_gordan_with_a_wrong_product_coefficient(self, monkeypatch):
        # One coefficient of the packed product raised by one: the weight-0
        # term of ch L(2)+ * ch L(2)+, so the content gains a copy of L(0)+.
        true = characters._packed_product

        def bumped(a, b):
            low, step, coeffs = true(a, b)
            coeffs = list(coeffs)
            coeffs[len(coeffs) // 2] += 1
            return low, step, coeffs

        monkeypatch.setattr(characters, "_packed_product", bumped)
        items = verify_clebsch_gordan(1, 1)
        assert failed(items) == ["clebsch-gordan(1,1)"]
        assert items[0]["lhs"] == "L(4)⁺, L(0)⁺ ×2"
        assert items[0]["rhs"] == "L(4)⁺, L(0)⁺"

    def test_clebsch_gordan_with_wrong_expectation(self, monkeypatch):
        # The failing item formats what was computed, not the expectation.
        monkeypatch.setattr(satake, "expected_clebsch_gordan", lambda n, m: [6, 4])
        items = verify_clebsch_gordan(2, 1)
        assert failed(items) == ["clebsch-gordan(2,1)"]
        got = Counter({(6, "+"): 1, (2, "+"): 1})
        assert items[0]["lhs"] == format_multiset(got) == "L(6)⁺, L(2)⁺"
        assert items[0]["rhs"] == "L(6)⁺, L(4)⁺"
        assert items[0]["lhs"] != items[0]["rhs"]


class TestFormatting:
    def test_multiset_rendering(self):
        assert format_multiset(Counter()) == "0"
        ms = Counter({(3, "+"): 2, (5, "+"): 1, (1, "+"): 1})
        assert format_multiset(ms) == "L(5)⁺, L(3)⁺ ×2, L(1)⁺"
