"""Formal bookkeeping for standard, costandard, simple, and projective
objects: characters, Jordan-Holder content, standard filtrations, and the
verifiers for the structural claims (odd short exact sequences, reciprocity
of filtration and Jordan-Holder multiplicities, block splitting, the
Clebsch-Gordan and Steinberg decompositions).

These objects carry no morphisms; everything morphism-level lives in the
zigzag/equivalence modules where it is independently computable.  The
convention L(-1) = 0 is applied throughout.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType

from .characters import (
    MINUS,
    PLUS,
    SIGNS,
    SUPERSCRIPT,
    SignedCharacter,
    conv,
    display_order,
    jh_decompose,
    product_jh,
    simple_char,
    simple_char_sum,
    standard_char,
)
from .errors import DomainError, InternalInconsistencyError
from .record import Record

STANDARD = "standard"
COSTANDARD = "costandard"
SIMPLE = "simple"
PROJECTIVE = "projective"
KINDS = (STANDARD, COSTANDARD, SIMPLE, PROJECTIVE)


def format_multiset(multiset: Counter) -> str:
    """Render {(n, sign): mult} as "L(5)+, L(3)+ x2, ..." descending."""
    if not multiset:
        return "0"
    parts = []
    for n, sign in display_order(multiset):
        mult = multiset[(n, sign)]
        head = f"L({n}){SUPERSCRIPT[sign]}"
        parts.append(head if mult == 1 else f"{head} ×{mult}")
    return ", ".join(parts)


class FormalPerv(Record):
    """Character-level stand-in for one object of the geometric category.

    ``character`` is a ``SignedCharacter``, ``jh`` a read-only view of a
    Counter of simple labels (a copy of the one given) and
    ``standard_filtration`` a tuple of standard labels or None.  The
    constructor checks that they agree, and no field can change, so a
    Counter given in can neither be changed through the object nor change it.
    """

    __slots__ = ("kind", "n", "sign", "character", "jh", "standard_filtration")

    def __init__(self, kind, n, sign, character, jh, standard_filtration=None):
        jh = MappingProxyType(Counter(jh))
        super().__init__(kind, n, sign, character, jh, standard_filtration)

    def __post_init__(self):
        if simple_char_sum(self.jh) != self.character:
            raise InternalInconsistencyError(
                f"{self.kind}({self.n}){self.sign}: character does not match "
                "its Jordan-Holder content"
            )
        if self.standard_filtration is not None:
            total = SignedCharacter.zero()
            for m, s in self.standard_filtration:
                total = total + standard_char(m, s)
            if total != self.character:
                raise InternalInconsistencyError(
                    f"{self.kind}({self.n}){self.sign}: character does not match "
                    "its standard filtration"
                )


def _projective_char(n: int, sign: str) -> tuple[SignedCharacter, tuple | None]:
    if n % 2 == 1:
        filtration = ((n + 2, sign), (n, sign))
        character = standard_char(n + 2, sign) + standard_char(n, sign)
        return character, filtration
    # Even projective: convolution of the odd simple with the character of
    # the projective cover at weight 1 (standard filtration (3, +), (1, +)).
    p1 = standard_char(3, PLUS) + standard_char(1, PLUS)
    return conv(simple_char(n + 1, sign), p1), None


def formal(kind: str, n: int, sign: str) -> FormalPerv:
    """The bookkeeping object for one label, built at each call.  A standard
    and a costandard at one label have one character; the standard adds its
    one-step standard filtration."""
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    if sign not in SIGNS:
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    if n < 0:
        raise DomainError(f"label requires n >= 0, got {n}")
    filtration: tuple | None = None
    if kind == SIMPLE:
        character = simple_char(n, sign)
    elif kind == PROJECTIVE:
        character, filtration = _projective_char(n, sign)
    else:
        character = standard_char(n, sign)
        if kind == STANDARD:
            filtration = ((n, sign),)
    return FormalPerv(kind, n, sign, character, jh_decompose(character), filtration)


def verify_odd_ses(n: int) -> list[dict]:
    """Character additivity of the odd short exact sequences at weight 2n+1.

    0 -> L(2n-1) -> standard(2n+1) -> L(2n+1) -> 0 and its costandard mirror,
    for both signs, with L(-1) = 0.  A standard and its costandard have one
    character, ``standard_char(2n+1, sign)`` (see ``formal``), which is read
    and formatted once per sign; equal characters print the same, so a
    passing item formats one side.
    """
    if n < 1:
        raise DomainError(f"verify_odd_ses requires n >= 1, got {n}")
    items = []
    for sign in SIGNS:
        pieces = simple_char(2 * n - 1, sign) + simple_char(2 * n + 1, sign)
        character = standard_char(2 * n + 1, sign)
        ok = character == pieces
        lhs = str(character)
        rhs = lhs if ok else str(pieces)
        for kind in (STANDARD, COSTANDARD):
            items.append(
                {
                    "relation": f"ch {kind}({2 * n + 1}){sign} == "
                    f"ch L({2 * n - 1}){sign} + ch L({2 * n + 1}){sign}",
                    "lhs": lhs,
                    "rhs": rhs,
                    "pass": ok,
                }
            )
    return items


def verify_bgg(max_n: int) -> list[dict]:
    """Reciprocity at the odd projectives P(2n+1)+, for n = 0, ..., max_n.

    For every m <= 2n+5 and both signs, the filtration multiplicity of
    standard(m) in P(2n+1)+ equals the Jordan-Holder multiplicity of
    L(2n+1)+ in costandard(m), and both equal 1 exactly for sign + with
    m in {2n+1, 2n+3}.  Each costandard is built once, and only its
    Jordan-Holder content is kept.

    Consecutive checks of one n that agree in lhs, rhs and pass form a run:
    an item whose ``"run"`` lists the tails of their relations after the
    common head ``"[P(2n+1)+ : standard("`` (see ``cli._format_run``).
    """
    if max_n < 0:
        raise DomainError(f"verify_bgg requires n >= 0, got {max_n}")
    costandard_jh = {
        (m, sign): formal(COSTANDARD, m, sign).jh
        for m in range(2 * max_n + 6)
        for sign in SIGNS
    }
    items = []
    for n in range(max_n + 1):
        label = 2 * n + 1
        top = (label, PLUS)
        filt = Counter(formal(PROJECTIVE, label, PLUS).standard_filtration)
        head = f"[P({label})+ : standard("
        shared = None  # (lhs, rhs, pass) of the run being built
        for m in range(2 * n + 6):
            for sign in SIGNS:
                left = filt.get((m, sign), 0)
                right = costandard_jh[m, sign].get(top, 0)
                expected = 1 if sign == PLUS and m in (label, label + 2) else 0
                outcome = (str(left), str(right), left == right == expected)
                if outcome != shared:
                    shared = outcome
                    lhs, rhs, ok = outcome
                    tails = []
                    items.append(
                        {"relation": head, "run": tails, "lhs": lhs, "rhs": rhs, "pass": ok}
                    )
                tails.append(
                    f"{m}){sign}] == [costandard({m}){sign} : L({label})+] == {expected}"
                )
    return items


def verify_block_split(n: int) -> list[dict]:
    """Sign purity of odd projectives up to n, plus the even counterexample.

    The Jordan-Holder content of every odd P(m) is a single sign; the even
    standard at weight 2 demonstrably mixes: {L(2)+, L(0)+, L(0)-}.
    """
    if n < 0:
        raise DomainError(f"verify_block_split requires N >= 0, got {n}")
    items = []
    for m in range(1, n + 1, 2):
        for sign in SIGNS:
            content = formal(PROJECTIVE, m, sign).jh
            pure = all(s == sign for (_, s) in content)
            items.append(
                {
                    "relation": f"jh P({m}){sign} is sign-pure",
                    "lhs": format_multiset(content),
                    "rhs": f"only {sign} factors",
                    "pass": pure,
                }
            )
    mixed = formal(STANDARD, 2, PLUS).jh
    expected = Counter({(2, PLUS): 1, (0, PLUS): 1, (0, MINUS): 1})
    items.append(
        {
            "relation": "jh standard(2)+ mixes signs",
            "lhs": format_multiset(mixed),
            "rhs": format_multiset(expected),
            "pass": mixed == expected,
        }
    )
    return items


def verify_steinberg(n: int) -> list[dict]:
    """conv(ch L(1)+, ch L(2n)+) has Jordan-Holder content {L(2n+1)+}."""
    if n < 0:
        raise DomainError(f"verify_steinberg requires n >= 0, got {n}")
    got = product_jh(simple_char(1, PLUS), simple_char(2 * n, PLUS))
    expected = {(2 * n + 1, PLUS): 1}
    relation = f"jh(ch L(1)+ * ch L({2 * n})+) == {{L({2 * n + 1})+}}"
    return [_multiset_item(relation, got, expected, format_multiset(expected))]


_PLUS_JOIN = f"){SUPERSCRIPT[PLUS]}, L("


def expected_clebsch_gordan(n: int, m: int) -> Counter:
    """Labels 2(n+m), 2(n+m)-4, ..., 2|n-m| with multiplicity one."""
    return Counter(range(2 * (n + m), 2 * abs(n - m) - 1, -4))


def verify_clebsch_gordan(n: int, m: int) -> list[dict]:
    """jh(ch L(2n)+ * ch L(2m)+) == {L(2(n+m))+, L(2(n+m)-4)+, ..., L(2|n-m|)+}."""
    if n < 0 or m < 0:
        raise DomainError("verify_clebsch_gordan requires n, m >= 0")
    got = product_jh(simple_char(2 * n, PLUS), simple_char(2 * m, PLUS))
    labels = expected_clebsch_gordan(n, m)
    expected = {(k, PLUS): 1 for k in labels}
    # format_multiset(expected): the labels descend, each once, and there is
    # at least one.
    rhs = f"L({_PLUS_JOIN.join(map(str, labels))}){SUPERSCRIPT[PLUS]}"
    return [_multiset_item(f"clebsch-gordan({n},{m})", got, expected, rhs)]


def _multiset_item(relation: str, got: Counter, expected: dict, rhs: str) -> dict:
    """A report item comparing two Jordan-Holder multisets, ``rhs`` being
    ``format_multiset(expected)``.  Both hold positive counts only, so they
    compare as plain dicts, and ``got`` is formatted only when it differs, as
    equal multisets print alike."""
    passed = dict.__eq__(got, expected)
    return {
        "relation": relation,
        "lhs": rhs if passed else format_multiset(got),
        "rhs": rhs,
        "pass": passed,
    }
